// RequestScheduler: the concurrent serving front-end.
//
// Many client threads submit PredictBatch / PredictWithCache requests;
// the scheduler coalesces compatible ones (same kind, same model, same
// per-row feature shape) into adaptive micro-batches so the fixed
// per-query cost — plan lookup, kernel dispatch, GEMM setup — is
// amortized across requests. Batching is governed by two knobs:
//
//   max_batch_rows  — a batch is due once this many rows are queued
//   max_delay_us    — ... or once the oldest request has waited this long
//
// Admitted requests wait in one FIFO queue, and each worker takes its
// own batch from it: the oldest request plus every later one with the
// same coalesce key, in order, up to max_batch_rows. Batching adapts
// to load with no valve: a busy worker takes nothing, so under
// saturation the queue grows and the next batch a worker takes is
// larger — bigger batches exactly when the engine is the bottleneck,
// minimal latency when it is idle.
//
// Every request carries one completion callback, invoked exactly once
// with its row slice or a typed status; SubmitBatch / SubmitCached are
// future adapters over it. A worker runs a batch's callbacks, deadline
// sheds included, inside one CompletionScope
// (common/completion_scope.h), so an action a callback defers runs
// once per key after the batch's last callback; admission sheds, on
// the submitting thread, run theirs inline. Coalescing is
// bit-transparent: the engine's per-row accumulation order is
// independent of batch size, so a row served in a 256-row micro-batch
// returns the same bits as one served alone (serving_concurrency_test
// asserts this).
//
// Admission control: the queue is bounded. When it is full the
// request resolves inline, on the submitting thread, with
// Status::Unavailable (shed, not stalled); a request whose deadline
// has passed by the time a worker takes it resolves to
// Status::DeadlineExceeded without touching the engine.

#ifndef RELSERVE_SERVING_REQUEST_SCHEDULER_H_
#define RELSERVE_SERVING_REQUEST_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/counter.h"
#include "common/idle_spin.h"
#include "common/result.h"
#include "common/retry.h"
#include "serving/circuit_breaker.h"
#include "serving/serving_session.h"
#include "tensor/tensor.h"

namespace relserve {

struct SchedulerConfig {
  // A batch is due once this many feature rows are queued, and a
  // worker stops adding requests to it once it holds this many.
  int64_t max_batch_rows = 256;
  // ... or once the oldest queued request has waited this long.
  int64_t max_delay_us = 200;
  // Admission queue depth; a full queue sheds with Unavailable.
  size_t queue_capacity = 1024;
  // Worker threads, each taking and executing its own micro-batches;
  // the scheduler starts exactly this many threads.
  int num_workers = 2;
  // Start with the workers paused (tests use this to fill the
  // admission queue deterministically, then Resume()).
  bool start_paused = false;
  // Resilience (DESIGN.md "Fault model & recovery"): transient engine
  // failures (IOError, Unavailable) retry with jittered backoff;
  // sustained failure opens a per-model circuit breaker that sheds
  // with Unavailable until the backend recovers.
  RetryPolicy retry;
  CircuitBreakerConfig breaker;
};

// Submits race with the workers; Counter keeps each count exact.
struct SchedulerStats {
  Counter submitted;
  Counter shed_queue_full;     // Unavailable at admission
  Counter shed_deadline;       // DeadlineExceeded
  Counter shed_breaker;        // Unavailable, breaker open
  Counter retries;             // transient-fault re-runs
  Counter batches;             // micro-batches executed
  Counter coalesced_requests;  // requests merged into a shared batch
  Counter total_rows;          // rows through the engine
  Counter max_batch_rows_seen;
  // Times a worker blocked on the scheduler's condition variable: idle
  // past the spin budget, paused, or timing a batching window.
  Counter worker_parks;

  double MeanBatchRows() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(total_rows) /
                              static_cast<double>(batches);
  }

  template <typename F>
  void ForEachField(F&& f) const {
    f("submitted", submitted);
    f("shed_queue_full", shed_queue_full);
    f("shed_deadline", shed_deadline);
    f("shed_breaker", shed_breaker);
    f("retries", retries);
    f("batches", batches);
    f("coalesced_requests", coalesced_requests);
    f("total_rows", total_rows);
    f("max_batch_rows_seen", max_batch_rows_seen);
    f("mean_batch_rows", MeanBatchRows());
    f("worker_parks", worker_parks);
  }
};

class RequestScheduler {
 public:
  // `session` must outlive the scheduler. The scheduler serializes
  // nothing about the session itself — ServingSession is internally
  // thread-safe; the scheduler's job is purely batching policy.
  RequestScheduler(ServingSession* session, SchedulerConfig config);
  ~RequestScheduler();  // implies Shutdown()

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  // --- Asynchronous submission --------------------------------------
  //
  // `deadline_us`: 0 = no deadline; > 0 = resolve DeadlineExceeded if
  // not executed within that many microseconds; < 0 = already expired
  // (tests use this for a deterministic shed).

  // In-memory batch inference (rows coalesce across requests). The
  // result is delivered by invoking `on_done` exactly once, inline on
  // whichever thread resolves the request: a worker for execution and
  // deadline sheds, the submitting thread for admission sheds. This is
  // the zero-handoff completion path the network front-end uses: the
  // callback must be cheap-ish and must not re-enter the scheduler.
  void SubmitBatchCallback(
      const std::string& model, Tensor input, int64_t deadline_us,
      std::function<void(Result<Tensor>)> on_done);

  // Future adapter over SubmitBatchCallback.
  std::future<Result<Tensor>> SubmitBatch(const std::string& model,
                                          Tensor input,
                                          int64_t deadline_us = 0);

  // Cache-tier serving (rows coalesce; hits short-circuit per row
  // inside the session), as a future.
  std::future<Result<Tensor>> SubmitCached(const std::string& model,
                                           Tensor input,
                                           int64_t deadline_us = 0);

  // --- Synchronous conveniences -------------------------------------

  Result<Tensor> PredictBatch(const std::string& model, Tensor input) {
    return SubmitBatch(model, std::move(input)).get();
  }
  Result<Tensor> PredictWithCache(const std::string& model,
                                  Tensor input) {
    return SubmitCached(model, std::move(input)).get();
  }

  // --- Control -------------------------------------------------------

  // Pause()/Resume() gate the workers *before* they take a batch, so a
  // paused scheduler admits (or sheds) but never executes.
  void Pause();
  void Resume();

  // Closes admission, drains every already-admitted request (each
  // completes with a real result or a typed shed status), joins all
  // threads. Idempotent; later submits complete with Unavailable.
  void Shutdown();

  SchedulerStats stats() const { return stats_; }

  // The per-model breaker (created on first use). Stable for the
  // scheduler's lifetime; tests observe state transitions through it.
  CircuitBreaker* breaker(const std::string& model);

 private:
  enum class RequestKind { kBatch, kCached };

  // The one request descriptor: every submit path builds one, and
  // on_done is its only completion. `key` and `rows` are computed once
  // at admission.
  struct Request {
    RequestKind kind;
    std::string model;
    Tensor input;
    std::string key;  // "" when it cannot coalesce (rank-<2 input)
    int64_t rows = 1;
    std::chrono::steady_clock::time_point admitted{};
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::function<void(Result<Tensor>)> on_done;
  };

  void Submit(RequestKind kind, const std::string& model, Tensor input,
              int64_t deadline_us,
              std::function<void(Result<Tensor>)> on_done);
  std::future<Result<Tensor>> SubmitFuture(RequestKind kind,
                                           const std::string& model,
                                           Tensor input,
                                           int64_t deadline_us);

  static std::string CoalesceKey(const Request& request);

  void WorkerLoop();
  // Waits until a batch is due and takes it; empty once the scheduler
  // is shut down and drained. An empty queue is first polled without
  // `mu_` for the spin budget (`idle` is the worker's own), then the
  // worker parks.
  std::vector<Request> TakeBatch(IdleSpin* idle);
  // Blocks on `cv_` (until `due`, when given), counted in `parked_`.
  void Park(std::unique_lock<std::mutex>& lock,
            const std::chrono::steady_clock::time_point* due = nullptr);
  void ExecuteBatch(std::vector<Request> batch);

  // Wraps one engine execution for `model` in the resilience stack:
  // breaker admission check (shed -> Unavailable, *breaker_shed set),
  // jittered retry of transient failures, outcome recording, and
  // mapping of terminal IOError to Unavailable (retryable from the
  // client's view — the next attempt may land after recovery).
  Result<Tensor> RunResilient(const std::string& model,
                              const std::function<Result<Tensor>()>& fn,
                              bool* breaker_shed);

  ServingSession* session_;
  SchedulerConfig config_;
  SchedulerStats stats_;

  // `mu_` guards the admission queue and the control flags; `cv_`
  // wakes parked workers when a batch may have become due. Submits
  // notify only while `parked_` > 0: a spinning worker sees a push
  // through `queue_len_` and costs no futex wake. `queue_len_` and
  // `stopped_` are written under `mu_` and read without it by that
  // spin.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  std::atomic<size_t> queue_len_{0};
  int64_t queued_rows_ = 0;
  int parked_ = 0;
  bool paused_ = false;
  std::atomic<bool> stopped_{false};

  std::mutex breakers_mu_;
  std::unordered_map<std::string, std::unique_ptr<CircuitBreaker>>
      breakers_;
  std::atomic<uint64_t> jitter_seq_{0};  // per-execution jitter seeds

  std::vector<std::thread> workers_;
};

}  // namespace relserve

#endif  // RELSERVE_SERVING_REQUEST_SCHEDULER_H_
