// IdleSpin: bounded spin-then-park for a thread that waits for work.
//
// A thread that runs out of work first polls a cheap readiness check
// for up to kIdleSpinBudget, and only then parks in its blocking wait
// (a condition variable, epoll_wait). Work that arrives within the
// budget is picked up with no futex or epoll wake-up on its path. The
// spin is bounded twice: one idle period polls for at most the budget
// in total, and it polls at all only when the thread's previous idle
// period ended within the budget. A thread whose work is sparse so
// parks at once, and a server with no traffic burns no CPU (DESIGN.md
// "Serving front-end").

#ifndef RELSERVE_COMMON_IDLE_SPIN_H_
#define RELSERVE_COMMON_IDLE_SPIN_H_

#include <chrono>

namespace relserve {

// The one spin budget, shared by the scheduler worker and the event
// loop. Chosen on wire_predict's 1-request ping-pong (EXPERIMENTS.md
// "Spin then park"): 50 us and 200 us gave the same p50, a round trip
// (about 20 us) fits inside 50 us with room, and the smaller budget
// caps the CPU an idle thread spends before it parks.
inline constexpr std::chrono::microseconds kIdleSpinBudget{50};

// A spin-loop hint: the x86 pause instruction, a no-op elsewhere.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// One waiting thread's idle bookkeeping; each thread owns its own.
class IdleSpin {
 public:
  using Clock = std::chrono::steady_clock;

  // Opens an idle period; a no-op while one is open.
  void Begin() {
    if (idle_) return;
    idle_ = true;
    since_ = Clock::now();
  }

  // Polls `ready` until it returns true (then true) or the open idle
  // period has spent its budget (then false). False at once when the
  // previous idle period reached the budget.
  template <typename Ready>
  bool Spin(const Ready& ready) const {
    if (!spin_) return false;
    const Clock::time_point until = since_ + kIdleSpinBudget;
    while (Clock::now() < until) {
      if (ready()) return true;
      CpuRelax();
    }
    return false;
  }

  // Closes the open idle period (a no-op when none is open) with work
  // that arrived at `arrived`; the next period spins only if this one
  // was shorter than the budget.
  void End(Clock::time_point arrived) {
    if (!idle_) return;
    idle_ = false;
    spin_ = arrived - since_ < kIdleSpinBudget;
  }

 private:
  bool idle_ = false;
  bool spin_ = true;
  Clock::time_point since_{};
};

}  // namespace relserve

#endif  // RELSERVE_COMMON_IDLE_SPIN_H_
