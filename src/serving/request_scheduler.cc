#include "serving/request_scheduler.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/completion_scope.h"
#include "common/failpoint.h"

namespace relserve {

RequestScheduler::RequestScheduler(ServingSession* session,
                                   SchedulerConfig config)
    : session_(session),
      config_(config),
      admission_(std::max<size_t>(1, config.queue_capacity)),
      // The batch queue is the backpressure valve: one slot per
      // worker, so a dispatcher ahead of the engine blocks here and
      // the admission queue accumulates rows for the next batch.
      batch_queue_(static_cast<size_t>(std::max(1, config.num_workers))) {
  config_.num_workers = std::max(1, config_.num_workers);
  config_.max_batch_rows = std::max<int64_t>(1, config_.max_batch_rows);
  config_.max_delay_us = std::max<int64_t>(0, config_.max_delay_us);
  paused_ = config_.start_paused;
  dispatcher_ = std::thread(&RequestScheduler::DispatcherLoop, this);
  workers_.reserve(config_.num_workers);
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back(&RequestScheduler::WorkerLoop, this);
  }
}

RequestScheduler::~RequestScheduler() { Shutdown(); }

void RequestScheduler::SubmitBatchCallback(
    const std::string& model, Tensor input, int64_t deadline_us,
    std::function<void(Result<Tensor>)> on_done) {
  Submit(RequestKind::kBatch, model, std::move(input), deadline_us,
         std::move(on_done));
}

std::future<Result<Tensor>> RequestScheduler::SubmitBatch(
    const std::string& model, Tensor input, int64_t deadline_us) {
  return SubmitFuture(RequestKind::kBatch, model, std::move(input),
                      deadline_us);
}

std::future<Result<Tensor>> RequestScheduler::SubmitCached(
    const std::string& model, Tensor input, int64_t deadline_us) {
  return SubmitFuture(RequestKind::kCached, model, std::move(input),
                      deadline_us);
}

std::future<Result<Tensor>> RequestScheduler::SubmitFuture(
    RequestKind kind, const std::string& model, Tensor input,
    int64_t deadline_us) {
  // Shared: std::function needs a copyable callable.
  auto promise = std::make_shared<std::promise<Result<Tensor>>>();
  std::future<Result<Tensor>> future = promise->get_future();
  Submit(kind, model, std::move(input), deadline_us,
         [promise](Result<Tensor> result) {
           promise->set_value(std::move(result));
         });
  return future;
}

void RequestScheduler::Submit(
    RequestKind kind, const std::string& model, Tensor input,
    int64_t deadline_us, std::function<void(Result<Tensor>)> on_done) {
  Request request;
  request.kind = kind;
  request.model = model;
  request.input = std::move(input);
  request.has_deadline = deadline_us != 0;
  request.deadline = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(deadline_us);
  request.on_done = std::move(on_done);
  stats_.submitted.Add();
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    if (stopped_) {
      request.on_done(Status::Unavailable("scheduler is shut down"));
      return;
    }
  }
  if (!admission_.TryPush(std::move(request))) {
    // TryPush leaves `request` intact on failure, so its callback is
    // still ours to invoke.
    stats_.shed_queue_full.Add();
    request.on_done(Status::Unavailable(
        "admission queue full: serving front-end overloaded"));
  }
}

std::string RequestScheduler::CoalesceKey(const Request& request) {
  // Rank-<2 inputs have no row axis to concatenate along.
  if (request.input.shape().ndim() < 2) return "";
  std::string key =
      request.kind == RequestKind::kBatch ? "B|" : "C|";
  key += request.model;
  const Shape& shape = request.input.shape();
  for (int i = 1; i < shape.ndim(); ++i) {
    key += '|';
    key += std::to_string(shape.dim(i));
  }
  return key;
}

int64_t RequestScheduler::RowsOf(const Request& request) {
  return request.input.shape().ndim() < 2 ? 1
                                          : request.input.shape().dim(0);
}

bool RequestScheduler::Expired(
    const Request& request, std::chrono::steady_clock::time_point now) {
  return request.has_deadline && request.deadline <= now;
}

void RequestScheduler::ShedExpired(Request request) {
  stats_.shed_deadline.Add();
  request.on_done(Status::DeadlineExceeded(
      "request deadline expired before execution"));
}

void RequestScheduler::DispatcherLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(control_mu_);
      control_cv_.wait(lock, [this] { return !paused_ || stopped_; });
    }
    // Stashed requests (incompatible leftovers from an earlier
    // batching window) are served before new arrivals — FIFO across
    // coalesce keys, so nothing is starved.
    Request first;
    if (!stash_.empty()) {
      first = std::move(stash_.front());
      stash_.pop_front();
    } else {
      std::optional<Request> popped = admission_.Pop();
      if (!popped) break;  // closed and drained: shut down
      first = std::move(*popped);
    }
    if (Expired(first, std::chrono::steady_clock::now())) {
      ShedExpired(std::move(first));
      continue;
    }

    Batch batch;
    const std::string key = CoalesceKey(first);
    int64_t rows = RowsOf(first);
    batch.requests.push_back(std::move(first));
    if (!key.empty()) {
      // First sweep the stash for compatible waiters, then hold the
      // batching window open on the admission queue.
      for (auto it = stash_.begin();
           it != stash_.end() && rows < config_.max_batch_rows;) {
        if (Expired(*it, std::chrono::steady_clock::now())) {
          ShedExpired(std::move(*it));
          it = stash_.erase(it);
          continue;
        }
        if (CoalesceKey(*it) == key) {
          rows += RowsOf(*it);
          batch.requests.push_back(std::move(*it));
          it = stash_.erase(it);
        } else {
          ++it;
        }
      }
      const auto window =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(config_.max_delay_us);
      while (rows < config_.max_batch_rows) {
        std::optional<Request> next = admission_.PopUntil(window);
        if (!next) break;  // window elapsed (or queue closed+empty)
        if (Expired(*next, std::chrono::steady_clock::now())) {
          ShedExpired(std::move(*next));
          continue;
        }
        if (CoalesceKey(*next) == key) {
          rows += RowsOf(*next);
          batch.requests.push_back(std::move(*next));
        } else {
          stash_.push_back(std::move(*next));
        }
      }
    }
    // Blocking push = backpressure: while every worker is busy the
    // admission queue keeps filling, so the next batch forms larger.
    batch_queue_.Push(std::move(batch));
  }

  // Only an empty stash reaches the admission Pop that ends the loop,
  // and after Close that Pop drains every admitted request first: the
  // batch-forming sweep above already served everything.
  batch_queue_.Close();
}

void RequestScheduler::WorkerLoop() {
  while (std::optional<Batch> batch = batch_queue_.Pop()) {
    ExecuteBatch(std::move(*batch));
  }
}

CircuitBreaker* RequestScheduler::breaker(const std::string& model) {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  auto it = breakers_.find(model);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(model, std::make_unique<CircuitBreaker>(
                                 config_.breaker))
             .first;
  }
  return it->second.get();
}

Result<Tensor> RequestScheduler::RunResilient(
    const std::string& model,
    const std::function<Result<Tensor>()>& fn, bool* breaker_shed) {
  *breaker_shed = false;
  CircuitBreaker* model_breaker =
      config_.enable_circuit_breaker ? breaker(model) : nullptr;
  if (model_breaker != nullptr && !model_breaker->Allow()) {
    *breaker_shed = true;
    return Status::Unavailable(
        "circuit breaker open for model '" + model +
        "': shedding until the backend recovers");
  }
  int64_t retries = 0;
  const uint64_t seed =
      jitter_seq_.fetch_add(1, std::memory_order_relaxed) * 2 + 1;
  // The "scheduler.dispatch" failpoint models a fault between the
  // scheduler and the engine (chaos tests inject engine-level failure
  // here without involving the storage stack). It sits inside the
  // retried closure so injected transients exercise the real retry
  // path.
  Result<Tensor> result = CallWithRetry(
      config_.retry, seed,
      [&]() -> Result<Tensor> {
        if (failpoint::AnyActive()) {
          Status injected =
              failpoint::InjectedStatus("scheduler.dispatch");
          if (!injected.ok()) return injected;
        }
        return fn();
      },
      &retries);
  if (retries > 0) {
    stats_.retries.Add(retries);
  }
  if (model_breaker != nullptr) {
    const Status status = result.status();
    if (status.IsIOError() || status.IsUnavailable() ||
        status.IsDataLoss()) {
      model_breaker->RecordFailure();
    } else {
      // OK — or a client-level error (InvalidArgument, NotFound): the
      // backend is reachable, which is what the breaker measures.
      model_breaker->RecordSuccess();
    }
  }
  if (!result.ok() && result.status().IsIOError()) {
    // The engine exhausted its retry budget on a transient fault. To
    // the client this is still "try again later", not "your data is
    // gone": surface it as Unavailable, keeping DataLoss the only
    // storage-corruption verdict.
    return Status::Unavailable(
        "transient I/O failure persisted across retries: " +
        result.status().message());
  }
  return result;
}

void RequestScheduler::ExecuteBatch(Batch batch) {
  // Every callback of this batch, sheds included, runs inside one
  // scope: what they defer (a connection's reply flush) runs once per
  // key after the last of them.
  CompletionScope scope;
  // A batch may have aged in the queue; shed what is already late so
  // the engine only burns cycles on results someone still wants.
  const auto now = std::chrono::steady_clock::now();
  std::vector<Request> live;
  live.reserve(batch.requests.size());
  for (Request& request : batch.requests) {
    if (Expired(request, now)) {
      ShedExpired(std::move(request));
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  int64_t total_rows = 0;
  for (const Request& request : live) total_rows += RowsOf(request);
  stats_.batches.Add();
  stats_.total_rows.Add(total_rows);
  stats_.max_batch_rows_seen.StoreMax(total_rows);

  auto fail_all = [&live](const Status& status) {
    for (Request& request : live) request.on_done(status);
  };

  // Every request shares kind, model, and per-row shape (the
  // dispatcher's CoalesceKey guarantees it). A lone request runs on
  // its own input and gets the engine's output as-is; a coalesced
  // batch concatenates the row-major inputs into one contiguous
  // micro-batch tensor and scatters the output rows back.
  const bool coalesced = live.size() > 1;
  Tensor merged;
  if (!coalesced) {
    merged = std::move(live[0].input);
  } else {
    std::vector<int64_t> dims = live[0].input.shape().dims();
    dims[0] = total_rows;
    Result<Tensor> merged_or = Tensor::Create(Shape(dims), nullptr);
    if (!merged_or.ok()) {
      fail_all(merged_or.status());
      return;
    }
    merged = std::move(*merged_or);
    float* dst = merged.data();
    for (const Request& request : live) {
      const int64_t n = request.input.NumElements();
      std::memcpy(dst, request.input.data(), n * sizeof(float));
      dst += n;
    }
    stats_.coalesced_requests.Add(static_cast<int64_t>(live.size()));
  }

  const std::string& model = live[0].model;
  const bool cached = live[0].kind == RequestKind::kCached;
  bool breaker_shed = false;
  Result<Tensor> out_or = RunResilient(
      model,
      [&]() -> Result<Tensor> {
        if (cached) return session_->PredictWithCache(model, merged);
        RELSERVE_ASSIGN_OR_RETURN(ExecOutput exec,
                                  session_->PredictBatch(model, merged));
        return exec.ToTensor(session_->exec_context());
      },
      &breaker_shed);
  if (breaker_shed) {
    stats_.shed_breaker.Add(static_cast<int64_t>(live.size()));
  }
  if (!coalesced) {
    live[0].on_done(std::move(out_or));
    return;
  }
  if (!out_or.ok()) {
    fail_all(out_or.status());
    return;
  }
  const Tensor& out = *out_or;
  if (out.shape().ndim() < 1 || out.shape().dim(0) != total_rows ||
      out.NumElements() % total_rows != 0) {
    fail_all(Status::Internal(
        "batched output shape " + out.shape().ToString() +
        " does not cover " + std::to_string(total_rows) + " rows"));
    return;
  }

  // Scatter: each caller gets exactly its row slice, bit-for-bit what
  // a solo run would have produced.
  const int64_t out_row_elems = out.NumElements() / total_rows;
  std::vector<int64_t> out_dims = out.shape().dims();
  int64_t offset_rows = 0;
  for (Request& request : live) {
    const int64_t rows = RowsOf(request);
    out_dims[0] = rows;
    Result<Tensor> slice_or = Tensor::Create(Shape(out_dims), nullptr);
    if (slice_or.ok()) {
      std::memcpy(slice_or->data(),
                  out.data() + offset_rows * out_row_elems,
                  rows * out_row_elems * sizeof(float));
    }
    offset_rows += rows;
    request.on_done(std::move(slice_or));
  }
}

void RequestScheduler::Pause() {
  std::lock_guard<std::mutex> lock(control_mu_);
  paused_ = true;
}

void RequestScheduler::Resume() {
  std::lock_guard<std::mutex> lock(control_mu_);
  paused_ = false;
  control_cv_.notify_all();
}

void RequestScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    if (stopped_) return;
    stopped_ = true;
    paused_ = false;
    control_cv_.notify_all();
  }
  admission_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace relserve
