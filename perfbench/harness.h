// Helpers shared by the perfbench workloads: seeded arrival
// schedules, percentile rules, open-loop due-time accounting, an
// in-memory span recorder with self-time arithmetic, and the metric
// list every workload fills. None of this touches the relserve
// library; tests/harness_test.cc checks each helper on its own.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// --- Seeded randomness -------------------------------------------------

// splitmix64: a fixed, library-independent generator, so one seed
// yields the same inputs with any standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, 1) with 53 random bits.
  double Uniform01();
  // Uniform integer in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Derives an independent stream seed for one purpose of a workload
// (rows, schedule, victims, ...) from the run's --seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

// Poisson arrivals: the due offsets, in seconds from the phase start,
// of every request of a phase lasting `duration_s` at `rate_per_s`.
// Inter-arrival gaps are exponential draws from `seed`, so one seed
// gives the same schedule on every run.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

// --- Percentiles -------------------------------------------------------

// Nearest-rank percentile of ascending `sorted` (p in (0, 100]);
// 0 when empty.
double Percentile(const std::vector<double>& sorted, double p);

// The same for unsorted values.
double PercentileOf(std::vector<double> values, double p);

// Samples strictly above the nearest-rank p-th percentile of n.
int64_t SamplesBeyond(int64_t n, double p);

// The reporting rule for a latency sample: p50, p90, and the highest
// percentile of the ladder {50, 90, 99, 99.9, 99.99} that has at
// least ten samples beyond it (tail_pct = 0 when not even p50 has).
struct LatencySummary {
  int64_t samples = 0;
  double p50 = 0;
  double p90 = 0;
  double mean = 0;
  double tail_pct = 0;
  double tail = 0;
};
LatencySummary Summarize(std::vector<double> values);

// True when every gated percentile (p50 and p90) has at least ten
// samples beyond it.
bool SupportsGatedPercentiles(const LatencySummary& s);

// The gated figures of a closed loop, from its latencies in the order
// they were taken: the samples cut into consecutive blocks of equal
// count — as many as leave each block 100 samples (enough for its
// p90), at most `max_blocks` — and the median over the blocks of each
// block's p50, p90 and rate (its samples over their summed time). A
// stretch of host interference that spoils fewer than half the blocks
// moves none of the three.
struct BlockSummary {
  int blocks = 0;
  double p50 = 0;
  double p90 = 0;
  double per_s = 0;
};
BlockSummary SummarizeBlocks(const std::vector<double>& ms_in_order,
                             int max_blocks);

// --- Open-loop accounting ----------------------------------------------

// Tracks one open-loop phase: request i is due at due[i] (seconds
// from the phase start), is sent when the generator gets to it, and
// completes later. Latency is timed from the due time, so a stalled
// generator shows as latency of every request it delayed, and the
// generator's own lateness is reported separately.
class OpenLoopClock {
 public:
  explicit OpenLoopClock(std::vector<double> due);

  size_t size() const { return due_.size(); }
  // Requests due at or before `now_s` that have not been sent yet:
  // [next_unsent(), DueBy(now_s)).
  size_t DueBy(double now_s) const;
  size_t next_unsent() const { return next_; }
  // Records that request `i` (the next unsent one) left at `now_s`.
  void MarkSent(size_t i, double now_s);
  // Returns the latency from its due time of request `i`, completed
  // at `now_s`.
  double MarkDone(size_t i, double now_s) const { return now_s - due_[i]; }

  // Send time minus due time for every sent request (seconds).
  const std::vector<double>& lateness() const { return lateness_; }

 private:
  std::vector<double> due_;
  std::vector<double> lateness_;
  size_t next_ = 0;
};

// True when the second half of an open phase is markedly slower than
// the first (a growing backlog: the rate is at or past capacity).
// `by_due_order` holds latencies in due order.
bool BacklogGrew(const std::vector<double>& by_due_order);

// --- Spans -------------------------------------------------------------

// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

struct Span {
  const char* name = "";   // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;     // index of the parent span, -1 = root
  uint64_t request = 0;    // shared by every span of one request
};

// In-memory span store, written out once when the run ends. Disabled
// recorders do nothing, so untraced runs pay one branch per call.
// Thread-safe: a span may open on one thread and close on another.
class SpanRecorder {
 public:
  static constexpr size_t kMaxSpans = 1 << 21;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Starts a span now; returns its id, or -1 when disabled or full
  // (past kMaxSpans further spans are not recorded).
  int64_t Open(const char* name, int64_t parent, uint64_t request);
  // Ends span `id` now (no-op for -1).
  void Close(int64_t id);
  // Adds a finished span; returns its id or -1.
  int64_t Record(const char* name, int64_t parent, uint64_t request,
                 int64_t start_ns, int64_t end_ns);

  std::vector<Span> Snapshot() const;

  // One JSON object per line: name, start_us, end_us (relative to the
  // first span), parent, request.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Self time of `parent`: its duration minus the part of its interval
// covered by the union of `children` (clipped to the parent).
int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children);

// Self time of every span named `name`, from the children recorded
// under it, in recording order.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans,
                                const char* name);
// Durations of every span named `name`, in microseconds.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name);

// A layer metric derived by subtraction: the whole minus the parts
// measured separately. May come out negative when the parts were
// measured under different conditions; the value is reported as is.
double Subtractive(double whole, const std::vector<double>& parts);

// --- Metrics -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = -1;      // behind a percentile; -1 = not one
  bool subtractive = false;  // derived by subtraction
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1, bool subtractive = false);
  const std::vector<Metric>& all() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

// One human-readable line per metric.
std::string FormatMetricLines(const MetricList& metrics);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricList& metrics);

// --- Process resources -------------------------------------------------

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};
CpuTimes ProcessCpu();
// Peak resident set of the process since the last ResetPeakRss (or
// since it started), in MiB.
double PeakRssMb();
// Returns freed heap to the system and restarts the peak at the
// current resident set, so that PeakRssMb covers what follows and not
// the heap left behind by repeated set-ups.
void ResetPeakRss();

// Keep-warm threads: `threads` spinners at SCHED_IDLE priority. On a
// virtual machine a halted vCPU takes milliseconds to wake, which
// shows up as latency of whichever library thread was woken on it;
// a spinning vCPU never halts, and the kernel preempts an idle-policy
// spinner as soon as any normal thread becomes runnable on its CPU.
// The destructor stops and joins them.
class KeepWarm {
 public:
  explicit KeepWarm(int threads);
  ~KeepWarm();
  KeepWarm(const KeepWarm&) = delete;
  KeepWarm& operator=(const KeepWarm&) = delete;

  // CPU seconds the spinners have used, to subtract from ProcessCpu.
  double CpuSeconds() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Gives the calling thread the first CPU the process may run on, and
// moves every other thread of the process (the library's and the
// keep-warm spinners) onto the rest, so a busy-polling load generator
// and the threads it measures never share a CPU. Threads started
// later inherit their creator's set. False, and nothing changed, with
// fewer than two CPUs.
bool IsolateCallingThread();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
