#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/failpoint.h"
#include "common/logging.h"

namespace relserve {

BufferPool::BufferPool(DiskManager* disk, int64_t capacity_pages)
    : disk_(disk), capacity_pages_(capacity_pages) {
  RELSERVE_CHECK(capacity_pages >= 1);
  frames_.resize(capacity_pages);
}

BufferPool::~BufferPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    prefetch_stop_ = true;
  }
  prefetch_cv_.notify_all();
  if (prefetcher_.joinable()) prefetcher_.join();
}

Result<int64_t> BufferPool::ReserveFrame(
    std::unique_lock<std::mutex>& lock) {
  std::unordered_set<int64_t> failed_victims;
  Status last_error = Status::OK();
  while (true) {
    // First preference: a frame never used (and not reserved by
    // another thread's in-flight load). Re-scanned every round — a
    // frame may have freed while the lock was dropped for a failed
    // write-back below.
    for (int64_t i = 0; i < capacity_pages_; ++i) {
      if (frames_[i].page_id == kInvalidPageId &&
          !frames_[i].io_pending) {
        if (!frames_[i].data.ok()) {
          frames_[i].data = AlignedBuffer(kPageSize / sizeof(float));
          if (!frames_[i].data.ok()) {
            return Status::OutOfMemory("buffer pool: frame allocation");
          }
        }
        frames_[i].io_pending = true;
        return i;
      }
    }
    // Otherwise evict the least-recently-used unpinned, unlatched
    // frame that has not already refused to write back this call.
    int64_t victim = -1;
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    for (int64_t i = 0; i < capacity_pages_; ++i) {
      if (frames_[i].pin_count == 0 && !frames_[i].io_pending &&
          failed_victims.count(i) == 0 &&
          frames_[i].last_used < oldest) {
        oldest = frames_[i].last_used;
        victim = i;
      }
    }
    if (victim < 0) {
      if (!failed_victims.empty()) {
        // Every evictable page refused to persist. The dirty frames
        // stay resident (nothing was lost), but no capacity can be
        // made — a transient, retryable condition, unlike OutOfMemory.
        return Status::Unavailable(
            "buffer pool: write-back failed for all " +
            std::to_string(failed_victims.size()) +
            " eviction candidates (last: " + last_error.ToString() +
            ")");
      }
      return Status::OutOfMemory(
          "buffer pool: all " + std::to_string(capacity_pages_) +
          " frames pinned or latched");
    }
    Frame& frame = frames_[victim];
    frame.io_pending = true;
    if (frame.dirty) {
      // Write back with the map mutex dropped; the latch keeps the
      // frame (and its page-table mapping) stable, and a concurrent
      // fetch of this page waits on the latch, then re-misses after
      // the erase.
      const PageId victim_page = frame.page_id;
      lock.unlock();
      Status s = failpoint::InjectedStatus("bufferpool.evict");
      if (s.ok()) s = disk_->WritePage(victim_page, frame.bytes());
      lock.lock();
      if (!s.ok()) {
        // Keep the victim dirty and resident — its bytes are still
        // the only copy — clear the latch so waiters proceed, and try
        // the next candidate.
        ++stats_.writeback_failures;
        frame.io_pending = false;
        io_cv_.notify_all();
        failed_victims.insert(victim);
        last_error = s;
        continue;
      }
      frame.dirty = false;
    }
    page_table_.erase(frame.page_id);
    frame.page_id = kInvalidPageId;
    frame.prefetched = false;
    ++stats_.evictions;
    return victim;
  }
}

void BufferPool::PinLocked(Frame& frame) {
  if (frame.pin_count++ == 0) {
    stats_.pinned_peak = std::max(stats_.pinned_peak, ++pinned_frames_);
  }
}

void BufferPool::ReleaseFrameLocked(int64_t idx) {
  frames_[idx].io_pending = false;
  io_cv_.notify_all();
}

Result<char*> BufferPool::FetchPage(PageId page_id) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = page_table_.find(page_id);
    if (it != page_table_.end()) {
      Frame& frame = frames_[it->second];
      if (frame.io_pending) {
        // Mid-load by another thread, or mid-write-back as an eviction
        // victim. Wait for the latch and re-validate: the mapping may
        // have completed (hit) or vanished (miss).
        io_cv_.wait(lock);
        continue;
      }
      if (frame.prefetched) {
        // First pin of a prefetcher-loaded page: the overlap paid off.
        frame.prefetched = false;
        ++stats_.prefetch_useful;
      }
      PinLocked(frame);
      frame.last_used = ++clock_;
      ++stats_.hits;
      return frame.bytes();
    }
    RELSERVE_ASSIGN_OR_RETURN(int64_t idx, ReserveFrame(lock));
    // ReserveFrame may have dropped the lock for a write-back; another
    // thread could have loaded our page meanwhile. Counting the miss
    // only after this check keeps hits+misses == fetches exact.
    if (page_table_.find(page_id) != page_table_.end()) {
      ReleaseFrameLocked(idx);
      continue;
    }
    Frame& frame = frames_[idx];
    ++stats_.misses;
    frame.page_id = page_id;
    PinLocked(frame);
    frame.dirty = false;
    frame.prefetched = false;
    frame.last_used = ++clock_;
    page_table_[page_id] = idx;
    // Load outside the mutex: concurrent fetches of other pages
    // proceed, and fetches of this page wait on the latch.
    lock.unlock();
    Status s = disk_->ReadPage(page_id, frame.bytes());
    lock.lock();
    frame.io_pending = false;
    io_cv_.notify_all();
    if (!s.ok()) {
      page_table_.erase(page_id);
      frame.page_id = kInvalidPageId;
      frame.pin_count = 0;
      --pinned_frames_;
      return s;
    }
    return frame.bytes();
  }
}

Result<char*> BufferPool::NewPage(PageId* out_id) {
  std::unique_lock<std::mutex> lock(mu_);
  RELSERVE_ASSIGN_OR_RETURN(int64_t idx, ReserveFrame(lock));
  const PageId page_id = disk_->AllocatePage();
  // A recycled id may still have a stale resident copy: a prefetch
  // that raced the page's DeletePage and loaded it after the free.
  // Purge the stale mapping so this frame becomes the sole owner.
  while (true) {
    auto stale = page_table_.find(page_id);
    if (stale == page_table_.end()) break;
    Frame& old = frames_[stale->second];
    if (old.io_pending) {
      io_cv_.wait(lock);
      continue;
    }
    old.page_id = kInvalidPageId;
    old.dirty = false;
    old.prefetched = false;
    page_table_.erase(stale);
  }
  Frame& frame = frames_[idx];
  frame.page_id = page_id;
  PinLocked(frame);
  frame.dirty = true;  // must reach disk even if never rewritten
  frame.prefetched = false;
  frame.last_used = ++clock_;
  page_table_[page_id] = idx;
  lock.unlock();
  std::memset(frame.bytes(), 0, kPageSize);
  lock.lock();
  frame.io_pending = false;
  io_cv_.notify_all();
  *out_id = page_id;
  return frame.bytes();
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::NotFound("unpin of non-resident page " +
                            std::to_string(page_id));
  }
  Frame& frame = frames_[it->second];
  if (frame.pin_count <= 0) {
    return Status::Internal("unpin of unpinned page " +
                            std::to_string(page_id));
  }
  if (--frame.pin_count == 0) --pinned_frames_;
  frame.dirty = frame.dirty || dirty;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::unique_lock<std::mutex> lock(mu_);
  for (int64_t i = 0; i < capacity_pages_; ++i) {
    while (frames_[i].io_pending) io_cv_.wait(lock);
    Frame& frame = frames_[i];
    if (frame.page_id == kInvalidPageId || !frame.dirty) continue;
    frame.io_pending = true;
    const PageId page_id = frame.page_id;
    lock.unlock();
    Status s = disk_->WritePage(page_id, frame.bytes());
    lock.lock();
    frame.io_pending = false;
    io_cv_.notify_all();
    RELSERVE_RETURN_NOT_OK(s);
    frame.dirty = false;
  }
  return Status::OK();
}

Status BufferPool::DeletePage(PageId page_id) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Cancel any queued-but-not-started prefetch of this page so the
    // prefetcher cannot resurrect it after the free.
    if (prefetch_queued_.erase(page_id) > 0) {
      for (auto it = prefetch_queue_.begin();
           it != prefetch_queue_.end(); ++it) {
        if (*it == page_id) {
          prefetch_queue_.erase(it);
          break;
        }
      }
      ++stats_.prefetches_completed;  // issued but never loaded
    }
    while (true) {
      auto it = page_table_.find(page_id);
      if (it == page_table_.end()) break;
      Frame& frame = frames_[it->second];
      if (frame.io_pending) {
        io_cv_.wait(lock);
        continue;
      }
      if (frame.pin_count > 0) {
        return Status::Internal("delete of pinned page " +
                                std::to_string(page_id));
      }
      frame.page_id = kInvalidPageId;
      frame.dirty = false;
      frame.prefetched = false;
      page_table_.erase(it);
      break;
    }
  }
  disk_->FreePage(page_id);
  return Status::OK();
}

bool BufferPool::Prefetch(PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (prefetch_stop_ || page_id == kInvalidPageId) return false;
  if (page_table_.find(page_id) != page_table_.end()) {
    return false;  // already resident: no-op
  }
  if (prefetch_queued_.count(page_id) > 0) return false;  // queued
  if (prefetch_queue_.size() >= kMaxQueuedPrefetches) {
    return false;  // shed: the scan will fault it in normally
  }
  EnsurePrefetcherLocked();
  prefetch_queue_.push_back(page_id);
  prefetch_queued_.insert(page_id);
  ++stats_.prefetches_issued;
  prefetch_cv_.notify_one();
  return true;
}

void BufferPool::EnsurePrefetcherLocked() {
  if (!prefetcher_.joinable()) {
    prefetcher_ = std::thread([this] { PrefetchLoop(); });
  }
}

void BufferPool::PrefetchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    prefetch_cv_.wait(lock, [this] {
      return prefetch_stop_ || !prefetch_queue_.empty();
    });
    if (prefetch_stop_) {
      // Account for anything still queued so issued == completed at
      // quiescence even across shutdown.
      stats_.prefetches_completed +=
          static_cast<int64_t>(prefetch_queue_.size());
      prefetch_queue_.clear();
      prefetch_queued_.clear();
      return;
    }
    const PageId page_id = prefetch_queue_.front();
    prefetch_queue_.pop_front();
    prefetch_queued_.erase(page_id);
    if (page_table_.find(page_id) != page_table_.end()) {
      ++stats_.prefetches_completed;  // became resident meanwhile
      continue;
    }
    auto idx = ReserveFrame(lock);
    if (!idx.ok()) {
      // Every frame pinned or latched: drop the prefetch rather than
      // fight the foreground for capacity.
      ++stats_.prefetches_completed;
      continue;
    }
    // ReserveFrame may have dropped the lock for a victim write-back;
    // re-validate before claiming the mapping.
    if (page_table_.find(page_id) != page_table_.end()) {
      ReleaseFrameLocked(*idx);
      ++stats_.prefetches_completed;
      continue;
    }
    Frame& frame = frames_[*idx];
    frame.page_id = page_id;
    frame.pin_count = 0;  // resident but unpinned: evictable
    frame.dirty = false;
    frame.last_used = ++clock_;
    page_table_[page_id] = *idx;
    lock.unlock();
    Status s = disk_->ReadPage(page_id, frame.bytes());
    lock.lock();
    frame.io_pending = false;
    io_cv_.notify_all();
    if (s.ok()) {
      frame.prefetched = true;
    } else {
      // Dropped, never fatal: the foreground fetch will perform (and
      // surface) the read itself. Counted so chaos runs can assert
      // the prefetcher absorbed injected faults without dying.
      ++stats_.prefetch_failed;
      page_table_.erase(page_id);
      frame.page_id = kInvalidPageId;
      frame.prefetched = false;
    }
    ++stats_.prefetches_completed;
  }
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace relserve
