#include "serving/request_scheduler.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/completion_scope.h"
#include "common/failpoint.h"

namespace relserve {

RequestScheduler::RequestScheduler(ServingSession* session,
                                   SchedulerConfig config)
    : session_(session), config_(config) {
  config_.queue_capacity = std::max<size_t>(1, config_.queue_capacity);
  config_.num_workers = std::max(1, config_.num_workers);
  config_.max_batch_rows = std::max<int64_t>(1, config_.max_batch_rows);
  config_.max_delay_us = std::max<int64_t>(0, config_.max_delay_us);
  paused_ = config_.start_paused;
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
  request.key = CoalesceKey(request);
  if (request.input.shape().ndim() >= 2) {
    request.rows = request.input.shape().dim(0);
  }
  request.admitted = std::chrono::steady_clock::now();
  request.has_deadline = deadline_us != 0;
  request.deadline =
      request.admitted + std::chrono::microseconds(deadline_us);
  request.on_done = std::move(on_done);
  stats_.submitted.Add();
  Status shed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      shed = Status::Unavailable("scheduler is shut down");
    } else if (queue_.size() >= config_.queue_capacity) {
      stats_.shed_queue_full.Add();
      shed = Status::Unavailable(
          "admission queue full: serving front-end overloaded");
    } else {
      // Wake a parked worker only when this push changes what it
      // waits for: a first request starts a batching window, and a
      // full batch ends one. Otherwise every worker is busy, spinning
      // (it sees queue_len_), or already timing the queue's front.
      const bool wake =
          queue_.empty() ||
          (queued_rows_ < config_.max_batch_rows &&
           queued_rows_ + request.rows >= config_.max_batch_rows);
      queued_rows_ += request.rows;
      queue_.push_back(std::move(request));
      queue_len_.store(queue_.size(), std::memory_order_release);
      if (wake && parked_ > 0) cv_.notify_one();
      return;
    }
  }
  request.on_done(std::move(shed));
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

void RequestScheduler::Park(
    std::unique_lock<std::mutex>& lock,
    const std::chrono::steady_clock::time_point* due) {
  ++parked_;
  stats_.worker_parks.Add();
  if (due == nullptr) {
    cv_.wait(lock);
  } else {
    cv_.wait_until(lock, *due);
  }
  --parked_;
}

std::vector<RequestScheduler::Request> RequestScheduler::TakeBatch(
    IdleSpin* idle) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (queue_.empty()) {
      if (stopped_) return {};
      // Spin, then park: a push or Shutdown within the budget is seen
      // here without a wake-up. The re-check under `mu_` pairs with
      // Submit's parked_ test, so a push after it always notifies.
      idle->Begin();
      lock.unlock();
      const bool ready = idle->Spin([this] {
        return queue_len_.load(std::memory_order_acquire) > 0 ||
               stopped_.load(std::memory_order_acquire);
      });
      lock.lock();
      if (!ready && queue_.empty() && !stopped_) Park(lock);
      continue;
    }
    idle->End(queue_.front().admitted);
    // Shutdown drains without waiting out the window.
    if (stopped_) break;
    if (paused_) {
      Park(lock);
      continue;
    }
    if (queued_rows_ >= config_.max_batch_rows) break;
    const auto due = queue_.front().admitted +
                     std::chrono::microseconds(config_.max_delay_us);
    if (std::chrono::steady_clock::now() >= due) break;
    Park(lock, &due);
  }
  // The oldest request, then every later one sharing its key, in
  // order. What is left keeps its FIFO order for the next taker.
  std::vector<Request> batch;
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  int64_t rows = batch[0].rows;
  if (!batch[0].key.empty()) {
    auto keep = queue_.begin();
    auto it = queue_.begin();
    for (; it != queue_.end() && rows < config_.max_batch_rows; ++it) {
      if (it->key == batch.front().key) {
        rows += it->rows;
        batch.push_back(std::move(*it));
      } else {
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    queue_.erase(keep, it);
  }
  queued_rows_ -= rows;
  queue_len_.store(queue_.size(), std::memory_order_release);
  // Another idle worker may take what this batch left behind.
  if (!queue_.empty() && parked_ > 0) cv_.notify_one();
  return batch;
}

void RequestScheduler::WorkerLoop() {
  IdleSpin idle;
  while (true) {
    std::vector<Request> batch = TakeBatch(&idle);
    if (batch.empty()) return;
    ExecuteBatch(std::move(batch));
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
  CircuitBreaker* model_breaker = breaker(model);
  if (!model_breaker->Allow()) {
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
  const Status status = result.status();
  if (status.IsIOError() || status.IsUnavailable() ||
      status.IsDataLoss()) {
    model_breaker->RecordFailure();
  } else {
    // OK — or a client-level error (InvalidArgument, NotFound): the
    // backend is reachable, which is what the breaker measures.
    model_breaker->RecordSuccess();
  }
  if (status.IsIOError()) {
    // The engine exhausted its retry budget on a transient fault. To
    // the client this is still "try again later", not "your data is
    // gone": surface it as Unavailable, keeping DataLoss the only
    // storage-corruption verdict.
    return Status::Unavailable(
        "transient I/O failure persisted across retries: " +
        status.message());
  }
  return result;
}

void RequestScheduler::ExecuteBatch(std::vector<Request> batch) {
  // Every callback of this batch, sheds included, runs inside one
  // scope: what they defer (a connection's reply flush) runs once per
  // key after the last of them.
  CompletionScope scope;
  // The one deadline shed site: a request may have aged in the queue,
  // and the engine only burns cycles on results someone still wants.
  const auto now = std::chrono::steady_clock::now();
  std::vector<Request> live;
  live.reserve(batch.size());
  int64_t total_rows = 0;
  for (Request& request : batch) {
    if (request.has_deadline && request.deadline <= now) {
      stats_.shed_deadline.Add();
      request.on_done(Status::DeadlineExceeded(
          "request deadline expired before execution"));
    } else {
      total_rows += request.rows;
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  stats_.batches.Add();
  stats_.total_rows.Add(total_rows);
  stats_.max_batch_rows_seen.StoreMax(total_rows);

  auto fail_all = [&live](const Status& status) {
    for (Request& request : live) request.on_done(status);
  };

  // Every request shares kind, model, and per-row shape (TakeBatch
  // groups by coalesce key). A lone request runs on its own input and
  // gets the engine's output as-is; a coalesced batch concatenates the
  // row-major inputs into one contiguous micro-batch tensor and
  // scatters the output rows back.
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
    const int64_t rows = request.rows;
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
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void RequestScheduler::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  cv_.notify_all();
}

void RequestScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    paused_ = false;
    cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace relserve
