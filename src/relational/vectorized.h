// Vectorized (batch-at-a-time) execution over ColumnBatch.
//
// The row operators in operator.h pull one boxed Row per Next(); the
// functions here evaluate expressions over whole chunks — tight loops
// on contiguous int64/double arrays producing branch-free selection
// vectors — and scan a ColumnarTable fragment-parallel on the shared
// ThreadPool (morsel = fragment, grains from ScanCostModel). The
// semantics contract is exact: every query must produce bit-identical
// rows through either path, including the row evaluator's typed
// equality (Int64 3 != Float64 3.0), per-row AND/OR short-circuit
// (errors in an unevaluated branch are suppressed), and double
// arithmetic applied in the same order per row.
//
// ColumnarRowScan is the one row iterator over a table: it serves the
// fragments as boxed rows, so every row operator (joins, aggregates,
// sorts) composes over tables unchanged.

#ifndef RELSERVE_RELATIONAL_VECTORIZED_H_
#define RELSERVE_RELATIONAL_VECTORIZED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "relational/column_batch.h"
#include "relational/expression.h"
#include "relational/operator.h"
#include "resource/thread_pool.h"
#include "storage/column_store.h"
#include "storage/mvcc.h"

namespace relserve {

struct ColumnarScanOptions {
  // Predicate over the *table* schema; null = no filter.
  ExprPtr predicate;
  // Output columns as table indices; empty = all columns in order.
  std::vector<int> projection;
  // Fragment-parallel scan when a pool is given and the cost model
  // says the table is big enough.
  ThreadPool* pool = nullptr;
  bool force_serial = false;
  // Cap on emitted rows (applied after the filter); -1 = no cap.
  int64_t limit = -1;
  // MVCC snapshot read: rows of each fragment that are not visible at
  // `snapshot` are dropped before the predicate runs (the visible rows
  // are the predicate's initial selection). Fragments that are
  // entirely visible take the AllVisible fast path and skip per-row
  // checks. null = every row visible.
  const VisibilityMap* visibility = nullptr;
  Version snapshot = 0;
};

struct ColumnarScanOutput {
  std::vector<ColumnBatch> batches;  // fragment order, may hold empties
  Schema schema;                     // projection schema
  int64_t rows_scanned = 0;   // rows decoded from fragments
  int64_t bytes_scanned = 0;  // chunk payload bytes decoded
  int64_t rows_emitted = 0;   // rows surviving filter+limit
  int64_t nanos = 0;
  bool parallel = false;

  std::vector<Row> ToRows() const;
};

// Scans `table` with filter + projection pushdown. Fragments are
// decoded, filtered and compacted independently (deterministic
// fragment order in the output) and in parallel when profitable.
// Feeds measured cost back into ScanCostModel.
Result<ColumnarScanOutput> ColumnarScan(const ColumnarTable& table,
                                        const ColumnarScanOptions& opts);

// Row-at-a-time scan of a table: decodes one fragment at a time and
// serves boxed rows in insertion order, so row operators compose over
// tables.
class ColumnarRowScan : public RowIterator {
 public:
  explicit ColumnarRowScan(const ColumnarTable* table)
      : table_(table), schema_(table->schema()) {}

  Status Open() override {
    fragment_ = 0;
    row_ = 0;
    batch_ = ColumnBatch();
    return Status::OK();
  }
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return schema_; }
  int64_t SizeHint() const override { return table_->num_rows(); }

  // MVCC snapshot read: rows whose version interval does not contain
  // `snapshot` are skipped. Row ordinals follow insertion order —
  // exactly the VisibilityMap's row index.
  void set_visibility(const VisibilityMap* visibility,
                      Version snapshot) {
    visibility_ = visibility;
    snapshot_ = snapshot;
  }

 private:
  const ColumnarTable* table_;
  Schema schema_;
  int64_t fragment_ = 0;
  ColumnBatch batch_;
  int64_t row_ = 0;
  int64_t batch_start_ = 0;  // table ordinal of batch_ row 0
  const VisibilityMap* visibility_ = nullptr;
  Version snapshot_ = 0;
};

}  // namespace relserve

#endif  // RELSERVE_RELATIONAL_VECTORIZED_H_
