// BoundedQueue<T>: blocking bounded FIFO connecting pipeline stages
// (paper Sec. 5(2): operator UDFs deployed as a stream pipeline).
//
// Producers block when the queue is full (backpressure bounds the
// number of in-flight micro-batches, and with it the pipeline's peak
// memory); consumers block until an item arrives or the queue is
// closed and drained.

#ifndef RELSERVE_RESOURCE_BOUNDED_QUEUE_H_
#define RELSERVE_RESOURCE_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace relserve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks until there is room. Returns false if the queue was closed
  // (the item is dropped — the pipeline is shutting down).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] {
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and
  // empty (returns nullopt).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  // After Close, Push fails and Pop drains the remaining items then
  // reports end-of-stream.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace relserve

#endif  // RELSERVE_RESOURCE_BOUNDED_QUEUE_H_
