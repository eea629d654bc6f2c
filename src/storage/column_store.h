// ColumnarTable: fragment-partitioned, column-major table storage.
//
// A table is split into fragments — horizontal partitions of
// `fragment_rows` rows (the morsel unit of fragment-parallel scans).
// Each sealed fragment stores one page stream per column through the
// BufferPool, so column streams inherit the CRC32C page checksums,
// quarantine-on-corruption, LRU eviction and prefetching. A scan that
// projects two of ten columns touches two page streams, not ten. It is
// the only table storage: every catalog table is a ColumnarTable.
//
// Column stream encoding (little-endian), one stream per
// (fragment, column):
//
//   [u8 value_type][i64 rows][u8 has_validity]
//   [(rows+7)/8 validity bytes]            when has_validity
//   payload:
//     kInt64 / kFloat64:  rows * 8 bytes, fixed width
//     kString:            [i64 total_bytes][u32 len]*rows [bytes...]
//     kFloatVector:       [i64 total_elems][u32 n]*rows [floats...]
//
// The open tail fragment accumulates appends in memory (a
// ColumnBatch) and seals to pages when it reaches `fragment_rows` or
// its payload reaches kMaxTailBytes, whichever comes first; scans see
// it as the last fragment. The byte cap bounds the tail's memory and
// a whole-fragment read when rows are wide (an image row is ~750 KB). Appends are single-writer, but
// scanning concurrently with appends is supported: appends and seals
// run under the writer half of an internal shared_mutex, fragment
// reads under the reader half, so a scan observes either the
// pre-append or post-append tail, never a torn one. Snapshot
// consistency on top of that is the VisibilityMap's job — rows
// committed after a reader pinned its snapshot are physically present
// but filtered out (DESIGN.md "Durability & snapshot isolation").

#ifndef RELSERVE_STORAGE_COLUMN_STORE_H_
#define RELSERVE_STORAGE_COLUMN_STORE_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/column_batch.h"
#include "relational/row.h"
#include "relational/schema.h"
#include "storage/buffer_pool.h"

namespace relserve {

class ColumnarTable {
 public:
  // ~1-4K rows per batch keeps a chunk of doubles inside L2 while
  // amortizing per-batch dispatch; 4096 doubles = 32 KiB = half a page.
  static constexpr int64_t kDefaultFragmentRows = 4096;
  // Payload bytes at which the open tail seals regardless of its row
  // count. Narrow tables never reach it (4096 rows of a few dozen
  // floats are a few hundred KB).
  static constexpr int64_t kMaxTailBytes = 32 * kPageSize;

  ColumnarTable(BufferPool* pool, Schema schema,
                int64_t fragment_rows = kDefaultFragmentRows);

  ColumnarTable(const ColumnarTable&) = delete;
  ColumnarTable& operator=(const ColumnarTable&) = delete;

  // InvalidArgument unless `row` has the schema's arity and column
  // types. AppendRow runs it; writers that must reject a row before
  // they log it (ServingSession::ApplyWrite) call it first.
  Status CheckRow(const Row& row) const;

  // Appends one row (checked by CheckRow); seals the tail fragment
  // automatically when it fills.
  Status AppendRow(const Row& row);

  // Column-wise append; may span multiple fragments.
  Status AppendBatch(const ColumnBatch& batch);

  // Appends one all-null row (exercises the validity bitmaps; the
  // Value layer has no NULL, so these read back as type defaults).
  Status AppendNullRow();

  // Flushes the open tail fragment to pages. Empty tails are skipped
  // unless `allow_empty` (tests use empty sealed fragments to probe
  // scan edge cases).
  Status SealActiveFragment(bool allow_empty = false);

  const Schema& schema() const { return schema_; }
  BufferPool* buffer_pool() const { return pool_; }
  int64_t num_rows() const {
    return num_rows_.load(std::memory_order_acquire);
  }
  int64_t fragment_rows() const { return fragment_rows_; }
  // Sealed fragments plus the open tail when it holds rows.
  int64_t num_fragments() const;
  int64_t FragmentRowCount(int64_t f) const;
  // First table row ordinal of fragment `f` — the base that maps a
  // within-fragment offset to the VisibilityMap's row index.
  int64_t FragmentStartRow(int64_t f) const;
  // Encoded bytes across sealed column streams.
  int64_t sealed_bytes() const {
    return sealed_bytes_.load(std::memory_order_relaxed);
  }

  // Reads fragment `f`, restricted to `columns` (table column
  // indices, ascending; nullptr = all). The returned batch's chunks
  // are positional over the requested columns. Fails with the
  // underlying storage error — DataLoss once a column page is
  // checksum-quarantined — and trips the "columnar.scan" failpoint.
  Result<ColumnBatch> ReadFragment(
      int64_t f, const std::vector<int>* columns = nullptr) const;

 private:
  struct ColumnStream {
    std::vector<PageId> pages;
    int64_t bytes = 0;  // encoded length
  };
  struct Fragment {
    int64_t rows = 0;
    int64_t start = 0;  // first table row ordinal in this fragment
    std::vector<ColumnStream> columns;
  };

  Status WriteStream(const std::string& encoded, ColumnStream* out);
  Status ReadStream(const ColumnStream& stream, std::string* out) const;

  // Callers hold mu_ exclusively.
  Status SealActiveLocked(bool allow_empty);
  // Accounts the tail's last row, already appended and counted in
  // active_.num_rows, and seals the tail when it reaches either cap.
  Status FinishAppendLocked();
  int64_t NumFragmentsLocked() const {
    return static_cast<int64_t>(fragments_.size()) +
           (active_.num_rows > 0 ? 1 : 0);
  }
  int64_t SealedRowsLocked() const {
    return fragments_.empty()
               ? 0
               : fragments_.back().start + fragments_.back().rows;
  }

  BufferPool* const pool_;
  const Schema schema_;
  const int64_t fragment_rows_;
  // Appends/seals exclusive, fragment reads shared: a reader sees the
  // tail either before or after a concurrent append, never mid-copy.
  mutable std::shared_mutex mu_;
  std::vector<Fragment> fragments_;
  ColumnBatch active_;  // open tail, not yet on pages
  int64_t active_bytes_ = 0;  // payload bytes in active_
  std::atomic<int64_t> num_rows_{0};
  std::atomic<int64_t> sealed_bytes_{0};
};

}  // namespace relserve

#endif  // RELSERVE_STORAGE_COLUMN_STORE_H_
