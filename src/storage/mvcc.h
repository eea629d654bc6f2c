// MVCC snapshot visibility for serve-while-ingest (DESIGN.md
// "Durability & snapshot isolation").
//
// Every committed write carries a version from a monotonic clock, and
// every row carries a [begin, end) version interval in a side table
// (the VisibilityMap). A reader pins a snapshot — the latest
// *published* version — before scanning, and sees exactly the rows
// whose interval contains that snapshot:
//
//   visible(row, snap)  :=  begin(row) <= snap
//                           && (end(row) == kLiveRow || end(row) > snap)
//
// The commit protocol (ServingSession::ApplyWrite) makes this work
// without per-row pending-transaction sentinels: storage mutations are
// applied *before* the commit version is published, so a concurrent
// reader that pinned its snapshot earlier can never observe a
// partially applied transaction — the new rows exist physically but
// their begin version is beyond the reader's snapshot.
//
// Rows appended outside the MVCC write path (bulk loads, legacy
// tests) have no interval entry and are treated as begin = 0: visible
// at every snapshot. The map pads itself lazily when MVCC writes land
// on a partially tracked table.

#ifndef RELSERVE_STORAGE_MVCC_H_
#define RELSERVE_STORAGE_MVCC_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <vector>

#include "common/result.h"

namespace relserve {

using Version = uint64_t;

// end-version sentinel: the row has not been deleted/superseded.
inline constexpr Version kLiveRow = 0;

// Monotonic commit-version source. Allocate() hands out the next
// version; Publish() makes it (and everything below it) visible to
// snapshot pinning. Commits allocate-apply-publish in that order, so
// LatestPublished() always names a fully applied prefix of history.
class VersionClock {
 public:
  Version Allocate() {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }

  void Publish(Version v) {
    Version cur = published_.load(std::memory_order_relaxed);
    while (cur < v && !published_.compare_exchange_weak(
                          cur, v, std::memory_order_release,
                          std::memory_order_relaxed)) {
    }
  }

  Version LatestPublished() const {
    return published_.load(std::memory_order_acquire);
  }

  // Recovery: move both counters past every version found in the log.
  void AdvanceTo(Version v) {
    Version cur = next_.load(std::memory_order_relaxed);
    while (cur < v + 1 && !next_.compare_exchange_weak(
                              cur, v + 1, std::memory_order_relaxed)) {
    }
    Publish(v);
  }

 private:
  std::atomic<Version> next_{1};
  std::atomic<Version> published_{0};
};

// Per-row [begin, end) version intervals for one table, indexed by
// physical row ordinal (insertion order — stable because the column
// store is append-only). Thread-safe: commits append/mark under the
// writer lock, scans evaluate visibility under the reader lock.
class VisibilityMap {
 public:
  // Registers the next appended row with the given begin version.
  void AppendRow(Version begin);

  // Accounts rows that were appended outside the MVCC path: every
  // ordinal below `rows` that is not yet tracked becomes begin = 0
  // (always visible). Called before MVCC appends on mixed tables.
  void PadTo(int64_t rows);

  // Closes a row's interval at `end` (delete, or supersede-by-update).
  // Ordinals beyond the tracked range are padded in first.
  Status MarkDeleted(int64_t row, Version end);

  bool IsVisible(int64_t row, Version snapshot) const;

  // True iff every row in [first, first + count) is visible — the
  // fragment-skip fast path of the columnar scan.
  bool AllVisible(int64_t first, int64_t count, Version snapshot) const;

  // Appends the offsets (relative to `first`) of the visible rows in
  // [first, first + count) to `sel`, ascending.
  void VisibleSelection(int64_t first, int64_t count, Version snapshot,
                        std::vector<int32_t>* sel) const;

  int64_t VisibleCount(int64_t first, int64_t count,
                       Version snapshot) const;

  int64_t tracked_rows() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return static_cast<int64_t>(begin_.size());
  }
  int64_t delete_count() const {
    return deletes_.load(std::memory_order_relaxed);
  }

 private:
  bool VisibleLocked(int64_t row, Version snapshot) const {
    if (row >= static_cast<int64_t>(begin_.size())) return true;
    return begin_[row] <= snapshot &&
           (end_[row] == kLiveRow || end_[row] > snapshot);
  }

  mutable std::shared_mutex mu_;
  std::vector<Version> begin_;
  std::vector<Version> end_;  // kLiveRow = open interval
  // Monotone begin versions let AllVisible answer from the last entry
  // alone; a PadTo after versioned appends breaks the order and drops
  // the map to the per-row path.
  bool monotone_ = true;
  std::atomic<int64_t> deletes_{0};
};

}  // namespace relserve

#endif  // RELSERVE_STORAGE_MVCC_H_
