// BufferPool: fixed-capacity page cache with LRU eviction, pinning,
// and per-frame latching for genuinely concurrent fetches.
//
// The relation-centric architecture inherits the RDBMS's ability to
// operate on data larger than memory (paper Sec. 1, Sec. 7.1): tensor
// blocks live on pages; only the working set is resident; cold pages
// spill to the DiskManager and reload on demand. The pool's
// hit/miss/eviction counters are what the block-size and pool-size
// ablations (A2/A3) report.
//
// Latching protocol (DESIGN.md "Parallel execution model"): a short
// global mutex guards only the page table and frame metadata; all disk
// I/O — victim write-back and page load — happens with the mutex
// dropped while the frame is reserved via its `io_pending` latch.
// Threads that need a latched frame wait on a shared condition
// variable and re-validate the mapping, so parallel block fetches from
// ParallelFor morsels overlap their disk reads instead of serializing
// behind one lock. Counters are maintained under the mutex and each
// Fetch/NewPage contributes exactly one hit or miss and at most the
// evictions that actually occurred.

#ifndef RELSERVE_STORAGE_BUFFER_POOL_H_
#define RELSERVE_STORAGE_BUFFER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/aligned_alloc.h"
#include "common/result.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace relserve {

struct BufferPoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  // Prefetch pipeline accounting: issued counts pages accepted into
  // the background queue, completed counts finished load attempts
  // (including skips), useful counts pins that found a page resident
  // only because a prefetch loaded it. issued == completed once the
  // queue drains, so tests can wait for quiescence.
  int64_t prefetches_issued = 0;
  int64_t prefetches_completed = 0;
  int64_t prefetch_useful = 0;
  // Resilience accounting: prefetch loads that failed (dropped, never
  // fatal — the foreground fetch retries the read itself) and eviction
  // write-backs that failed (the pool retried an alternate victim).
  int64_t prefetch_failed = 0;
  int64_t writeback_failures = 0;
  // Most frames pinned at once (a frame pinned twice counts once).
  int64_t pinned_peak = 0;

  template <typename F>
  void ForEachField(F&& f) const {
    f("hits", hits);
    f("misses", misses);
    f("evictions", evictions);
    f("prefetches_issued", prefetches_issued);
    f("prefetches_completed", prefetches_completed);
    f("prefetch_useful", prefetch_useful);
    f("prefetch_failed", prefetch_failed);
    f("writeback_failures", writeback_failures);
    f("pinned_peak", pinned_peak);
  }
};

class BufferPool {
 public:
  // `capacity_pages` frames of kPageSize each; the pool never holds
  // more than capacity_pages * kPageSize bytes of page data.
  BufferPool(DiskManager* disk, int64_t capacity_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Stops the background prefetcher (if it ever started) and joins it.
  ~BufferPool();

  // Pins an existing page and returns its frame data, which starts on
  // a kCacheLineBytes boundary, as NewPage's does. The caller must
  // Unpin with the same id exactly once per fetch. Safe to call from
  // many threads; concurrent fetches of distinct pages overlap their
  // disk reads, and concurrent fetches of the same page perform one
  // load (one miss) while the others wait and count hits.
  Result<char*> FetchPage(PageId page_id);

  // Asynchronously loads `page_id` into a frame without pinning it, so
  // a later FetchPage hits instead of stalling on disk. Best effort:
  // a page that is already resident, already queued, or unservable
  // (every frame pinned, queue full) is skipped. Returns true iff the
  // page was accepted into the prefetch queue. The actual I/O runs on
  // a lazily-started background thread; the per-frame io_pending
  // latch keeps the load invisible to eviction, fetches, and deletes
  // until it completes.
  bool Prefetch(PageId page_id);

  // Allocates a new zeroed page, pinned. `out_id` receives the id.
  Result<char*> NewPage(PageId* out_id);

  // Releases a pin; `dirty` marks the frame for write-back on
  // eviction/flush.
  Status UnpinPage(PageId page_id, bool dirty);

  // Writes back every dirty resident page.
  Status FlushAll();

  // Drops a page: discards any resident (even dirty) copy and returns
  // the id to the disk manager's free list. The page must be
  // unpinned. Used when a tensor relation is dropped so its pages are
  // recycled instead of bloating the spill file.
  Status DeletePage(PageId page_id);

  int64_t capacity_pages() const { return capacity_pages_; }
  int64_t capacity_bytes() const { return capacity_pages_ * kPageSize; }
  BufferPoolStats stats() const;
  DiskManager* disk() { return disk_; }

 private:
  struct Frame {
    PageId page_id = kInvalidPageId;
    AlignedBuffer data;  // kPageSize bytes, allocated on first use
    int pin_count = 0;
    bool dirty = false;
    // Per-frame latch: the frame is reserved for I/O (load, zeroing,
    // or victim write-back) with mu_ dropped. A latched frame is never
    // evicted, fetched, or deleted; waiters sleep on io_cv_ and
    // re-validate the page table afterwards.
    bool io_pending = false;
    // Loaded by the prefetcher and not yet pinned; the first pin
    // counts it as a useful prefetch and clears the flag.
    bool prefetched = false;
    uint64_t last_used = 0;  // LRU clock

    char* bytes() { return reinterpret_cast<char*>(data.data()); }
  };

  // Adds a pin to `frame`, keeping pinned_peak. Called with mu_ held.
  void PinLocked(Frame& frame);

  // Reserves a frame for the caller (io_pending set), evicting an
  // unpinned unlatched page if needed. Called with `lock` held; drops
  // and reacquires it around the victim's write-back, so the caller
  // must re-validate the page table afterwards.
  //
  // A victim whose write-back fails is left dirty and resident (its
  // latch cleared — no data is lost, no frame is wedged) and the next
  // LRU candidate is tried; only when every candidate fails does the
  // reservation surface Status::Unavailable. The "bufferpool.evict"
  // failpoint injects a write-back failure for the chosen victim.
  Result<int64_t> ReserveFrame(std::unique_lock<std::mutex>& lock);

  // Returns a reserved-but-unused frame to the free state. Called with
  // mu_ held.
  void ReleaseFrameLocked(int64_t idx);

  // Lazily spawns the prefetch worker. Called with mu_ held.
  void EnsurePrefetcherLocked();

  // The background thread: drains prefetch_queue_, loading each page
  // into an unpinned frame under the io_pending latch.
  void PrefetchLoop();

  // Bound on queued-but-not-loaded prefetches; beyond it Prefetch
  // sheds (the scan will just fault the page in normally).
  static constexpr size_t kMaxQueuedPrefetches = 256;

  DiskManager* const disk_;
  const int64_t capacity_pages_;
  mutable std::mutex mu_;
  std::condition_variable io_cv_;  // signaled when any latch clears
  std::vector<Frame> frames_;
  std::unordered_map<PageId, int64_t> page_table_;  // page -> frame idx
  uint64_t clock_ = 0;
  BufferPoolStats stats_;
  int64_t pinned_frames_ = 0;  // frames with pin_count > 0

  // Prefetch machinery, all guarded by mu_ except the thread handle.
  std::deque<PageId> prefetch_queue_;
  std::unordered_set<PageId> prefetch_queued_;  // dedupe + delete purge
  std::condition_variable prefetch_cv_;
  bool prefetch_stop_ = false;
  std::thread prefetcher_;
};

// RAII pin guard: unpins a page it read (clean) on scope exit.
class PageGuard {
 public:
  PageGuard(BufferPool* pool, PageId page_id)
      : pool_(pool), page_id_(page_id) {}
  ~PageGuard() { pool_->UnpinPage(page_id_, /*dirty=*/false); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

 private:
  BufferPool* pool_;
  PageId page_id_;
};

}  // namespace relserve

#endif  // RELSERVE_STORAGE_BUFFER_POOL_H_
