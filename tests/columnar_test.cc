// Columnar storage + vectorized scan tests. The heart of the suite is
// the bit-identity contract: every query must produce exactly the same
// rows through the row evaluator (MemScan over the source rows ->
// Filter -> Limit) and the vectorized path (ColumnarScan), including
// typed equality, per-row short-circuit and NULL-slot defaults.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "engine/physical_plan.h"
#include "optimizer/scan_cost.h"
#include "relational/column_batch.h"
#include "relational/expression.h"
#include "relational/operator.h"
#include "relational/vectorized.h"
#include "resource/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/column_store.h"
#include "storage/disk_manager.h"
#include "storage/mvcc.h"

namespace relserve {
namespace {

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"score", ValueType::kFloat64},
                 {"name", ValueType::kString},
                 {"features", ValueType::kFloatVector}});
}

Row TestRow(int64_t i) {
  return Row({Value(i), Value(static_cast<double>(i % 7) * 0.5),
              Value(std::string("n") + std::to_string(i % 5)),
              Value(std::vector<float>{static_cast<float>(i),
                                       static_cast<float>(i) * 0.5f})});
}

// The same rows (TestRow unless `make_row` says otherwise) held twice:
// as the source row vector the row evaluator reads, and as a columnar
// table. The row side never touches the column store, so the oracle
// stays independent of the code under test.
struct DualTable {
  DiskManager disk;
  BufferPool pool;
  ColumnarTable columnar;
  Schema schema = TestSchema();
  std::vector<Row> source;

  explicit DualTable(int64_t rows, int64_t fragment_rows = 8,
                     Row (*make_row)(int64_t) = TestRow)
      : pool(&disk, 256), columnar(&pool, TestSchema(), fragment_rows) {
    for (int64_t i = 0; i < rows; ++i) {
      source.push_back(make_row(i));
      EXPECT_TRUE(columnar.AppendRow(source.back()).ok());
    }
  }

  RowIteratorPtr RowScan() {
    return std::make_unique<MemScan>(&source, schema);
  }

  std::vector<Row> RowPath(ExprPtr predicate, int64_t limit = -1) {
    RowIteratorPtr plan = RowScan();
    if (predicate != nullptr) {
      plan = std::make_unique<Filter>(std::move(plan), predicate);
    }
    if (limit >= 0) {
      plan = std::make_unique<Limit>(std::move(plan), limit);
    }
    auto rows = Collect(plan.get());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? *rows : std::vector<Row>{};
  }

  std::vector<Row> ColumnarPath(ExprPtr predicate, int64_t limit = -1,
                                ThreadPool* tp = nullptr,
                                bool force_serial = false) {
    ColumnarScanOptions opts;
    opts.predicate = std::move(predicate);
    opts.pool = tp;
    opts.force_serial = force_serial;
    opts.limit = limit;
    auto out = ColumnarScan(columnar, opts);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out->ToRows() : std::vector<Row>{};
  }
};

void ExpectSameRows(const std::vector<Row>& a,
                    const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "row " << i;
  }
}

// --- ColumnChunk / ColumnBatch ---------------------------------------

TEST(ColumnChunkTest, RoundTripsAllTypes) {
  const Schema schema = TestSchema();
  ColumnBatch batch(schema);
  for (int64_t i = 0; i < 10; ++i) batch.AppendRow(TestRow(i));
  EXPECT_EQ(batch.num_rows, 10);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(batch.RowAt(i), TestRow(i)) << "row " << i;
  }
}

TEST(ColumnChunkTest, NullsUseLazyValidityBitmap) {
  ColumnChunk chunk(ValueType::kInt64);
  chunk.AppendValue(Value(int64_t{1}));
  EXPECT_FALSE(chunk.has_nulls());  // no bitmap until the first null
  chunk.AppendNull();
  chunk.AppendValue(Value(int64_t{3}));
  ASSERT_TRUE(chunk.has_nulls());
  EXPECT_TRUE(chunk.IsValid(0));
  EXPECT_TRUE(chunk.IsNull(1));
  EXPECT_TRUE(chunk.IsValid(2));
  // Null slots box the type default (the Value layer has no NULL).
  EXPECT_EQ(chunk.GetValue(1), Value(int64_t{0}));
  EXPECT_EQ(chunk.GetValue(2), Value(int64_t{3}));
}

TEST(ColumnBatchTest, FromRowsToRowsRoundTrip) {
  const Schema schema = TestSchema();
  std::vector<Row> rows;
  for (int64_t i = 0; i < 17; ++i) rows.push_back(TestRow(i));
  ColumnBatch batch = ColumnBatch::FromRows(schema, rows);
  ExpectSameRows(batch.ToRows(), rows);
}

// --- ColumnarTable ---------------------------------------------------

TEST(ColumnarTableTest, FragmentRoundTripThroughBufferPool) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  ColumnarTable table(&pool, TestSchema(), /*fragment_rows=*/4);
  for (int64_t i = 0; i < 11; ++i) {
    ASSERT_TRUE(table.AppendRow(TestRow(i)).ok());
  }
  EXPECT_EQ(table.num_rows(), 11);
  // 2 sealed fragments of 4 plus the open tail of 3.
  EXPECT_EQ(table.num_fragments(), 3);
  EXPECT_EQ(table.FragmentRowCount(0), 4);
  EXPECT_EQ(table.FragmentRowCount(2), 3);
  EXPECT_GT(table.sealed_bytes(), 0);

  int64_t i = 0;
  for (int64_t f = 0; f < table.num_fragments(); ++f) {
    auto batch = table.ReadFragment(f);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (int64_t r = 0; r < batch->num_rows; ++r, ++i) {
      EXPECT_EQ(batch->RowAt(r), TestRow(i));
    }
  }
  EXPECT_EQ(i, 11);
}

TEST(ColumnarTableTest, NullRowsSurviveSealAndDecode) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  ColumnarTable table(&pool, TestSchema(), /*fragment_rows=*/4);
  ASSERT_TRUE(table.AppendRow(TestRow(0)).ok());
  ASSERT_TRUE(table.AppendNullRow().ok());
  ASSERT_TRUE(table.AppendRow(TestRow(2)).ok());
  ASSERT_TRUE(table.SealActiveFragment().ok());

  auto batch = table.ReadFragment(0);
  ASSERT_TRUE(batch.ok());
  for (const ColumnChunk& chunk : batch->columns) {
    EXPECT_TRUE(chunk.IsValid(0));
    EXPECT_TRUE(chunk.IsNull(1));
    EXPECT_TRUE(chunk.IsValid(2));
  }
  EXPECT_EQ(batch->RowAt(0), TestRow(0));
  EXPECT_EQ(batch->RowAt(2), TestRow(2));
  // The null row decodes as type defaults.
  EXPECT_EQ(batch->RowAt(1),
            Row({Value(int64_t{0}), Value(0.0), Value(std::string()),
                 Value(std::vector<float>{})}));
}

TEST(ColumnarTableTest, EmptySealedFragmentsScanClean) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  ColumnarTable table(&pool, TestSchema(), /*fragment_rows=*/4);
  ASSERT_TRUE(table.SealActiveFragment(/*allow_empty=*/true).ok());
  ASSERT_TRUE(table.AppendRow(TestRow(0)).ok());
  ASSERT_TRUE(table.SealActiveFragment().ok());
  ASSERT_TRUE(table.SealActiveFragment(/*allow_empty=*/true).ok());
  EXPECT_EQ(table.num_rows(), 1);
  EXPECT_EQ(table.num_fragments(), 3);

  ColumnarScanOptions opts;
  auto out = ColumnarScan(table, opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->rows_emitted, 1);
  ExpectSameRows(out->ToRows(), {TestRow(0)});
}

TEST(ColumnarTableTest, FullyDeletedFragmentEmitsNothingUnderPredicate) {
  // 12 rows in fragments of 4, all committed at version 1; version 2
  // deletes every row of the middle fragment. A predicate scan at
  // snapshot 2 must drop that fragment whole, in both the
  // late-materialization branch (predicate columns a strict subset of
  // the output) and the plain branch (predicate covers the output).
  DualTable t(12, /*fragment_rows=*/4);
  VisibilityMap visibility;
  for (int64_t row = 0; row < 12; ++row) visibility.AppendRow(1);
  for (int64_t row = 4; row < 8; ++row) {
    ASSERT_TRUE(visibility.MarkDeleted(row, 2).ok());
  }
  for (bool late : {true, false}) {
    SCOPED_TRACE(late ? "late materialization" : "plain");
    ColumnarScanOptions opts;
    opts.predicate = Expression::Binary(
        ExprKind::kLt, Expression::Column(0),
        Expression::Literal(Value(int64_t{100})));
    if (!late) opts.projection = {0};
    opts.visibility = &visibility;
    opts.snapshot = 2;
    auto out = ColumnarScan(t.columnar, opts);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->batches.size(), 3u);
    EXPECT_EQ(out->batches[1].num_rows, 0);
    EXPECT_EQ(out->rows_emitted, 8);
    // The snapshot before the delete still sees all 12.
    opts.snapshot = 1;
    out = ColumnarScan(t.columnar, opts);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->rows_emitted, 12);
  }
}

TEST(ColumnarTableTest, BatchSizeEdges) {
  // Row counts straddling the fragment boundary: 1, N-1, N, N+1.
  constexpr int64_t kN = 4;
  for (int64_t rows : {int64_t{1}, kN - 1, kN, kN + 1}) {
    DualTable t(rows, kN);
    ExpectSameRows(t.ColumnarPath(nullptr), t.RowPath(nullptr));
  }
}

TEST(ColumnarTableTest, AppendBatchSpansFragments) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  ColumnarTable table(&pool, TestSchema(), /*fragment_rows=*/4);
  const Schema schema = TestSchema();
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(TestRow(i));
  ASSERT_TRUE(
      table.AppendBatch(ColumnBatch::FromRows(schema, rows)).ok());
  EXPECT_EQ(table.num_rows(), 10);
  ColumnarScanOptions opts;
  auto out = ColumnarScan(table, opts);
  ASSERT_TRUE(out.ok());
  ExpectSameRows(out->ToRows(), rows);
}

// --- Wide rows --------------------------------------------------------

Schema WideSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"features", ValueType::kFloatVector}});
}

// A FLOAT_VECTOR row of `floats` values whose bits depend on `seed`
// and the position, special values included.
Row WideRow(int64_t id, int64_t floats, uint32_t seed) {
  std::vector<float> v(floats);
  for (int64_t j = 0; j < floats; ++j) {
    const uint32_t bits = seed * 2654435761u + static_cast<uint32_t>(j);
    std::memcpy(&v[j], &bits, sizeof(bits));
  }
  if (floats > 2) {
    v[0] = std::numeric_limits<float>::quiet_NaN();
    v[floats - 1] = -0.0f;
  }
  return Row({Value(id), Value(std::move(v))});
}

// Drains the table through ColumnarRowScan and compares every row to
// `expect` byte for byte (Value equality would reject NaN == NaN).
void ExpectRowsBitExact(const ColumnarTable& table,
                        const std::vector<Row>& expect) {
  ColumnarRowScan scan(&table);
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ((*rows)[i].value(0).AsInt64(), expect[i].value(0).AsInt64());
    const std::vector<float>& got = (*rows)[i].value(1).AsFloatVector();
    const std::vector<float>& want = expect[i].value(1).AsFloatVector();
    ASSERT_EQ(got.size(), want.size()) << "row " << i;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * 4), 0)
        << "row " << i;
  }
}

TEST(ColumnarTableTest, WideRowBetweenSmallRowsReadsBackBitExact) {
  DiskManager disk;
  BufferPool pool(&disk, 4);  // fewer frames than the wide row's pages
  ColumnarTable table(&pool, WideSchema());
  // A row longer than 3 pages (like a wide image row) between two
  // small rows; sealing writes it through the 4 frames, so its pages
  // are evicted before the read.
  const std::vector<Row> rows = {
      WideRow(0, 3, 1), WideRow(1, 3 * kPageSize / 4 + 123, 2),
      WideRow(2, 5, 3)};
  for (const Row& row : rows) ASSERT_TRUE(table.AppendRow(row).ok());
  ASSERT_TRUE(table.SealActiveFragment().ok());
  EXPECT_GT(table.sealed_bytes(), 3 * kPageSize);
  EXPECT_GT(pool.stats().evictions, 0);
  ExpectRowsBitExact(table, rows);
}

TEST(ColumnarTableTest, ManyWideRowsSurviveEviction) {
  DiskManager disk;
  BufferPool pool(&disk, 3);
  ColumnarTable table(&pool, WideSchema(), /*fragment_rows=*/4);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) {
    rows.push_back(WideRow(i, kPageSize / 4 + 25, 10 + i));
    ASSERT_TRUE(table.AppendRow(rows.back()).ok());
  }
  // Two sealed fragments of 4 (pages long since evicted) plus the tail.
  EXPECT_EQ(table.num_fragments(), 3);
  ExpectRowsBitExact(table, rows);
  ASSERT_TRUE(table.SealActiveFragment().ok());
  ExpectRowsBitExact(table, rows);
}

TEST(ColumnarTableTest, TailSealsOnPayloadBytes) {
  DiskManager disk;
  BufferPool pool(&disk, 8);
  ColumnarTable table(&pool, WideSchema());
  // Rows of a quarter of the byte cap: the tail seals on bytes after
  // four of them, long before kDefaultFragmentRows.
  const int64_t floats = ColumnarTable::kMaxTailBytes / 16;
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) {
    rows.push_back(WideRow(i, floats, 100 + i));
    ASSERT_TRUE(table.AppendRow(rows.back()).ok());
  }
  EXPECT_EQ(table.num_fragments(), 3);
  EXPECT_EQ(table.FragmentRowCount(0), 4);
  EXPECT_EQ(table.FragmentRowCount(1), 4);
  EXPECT_EQ(table.FragmentRowCount(2), 2);
  ExpectRowsBitExact(table, rows);

  // Narrow rows never reach the cap: a full fragment of them seals on
  // the row count alone.
  ColumnarTable narrow(&pool, TestSchema());
  for (int64_t i = 0; i < ColumnarTable::kDefaultFragmentRows + 1; ++i) {
    ASSERT_TRUE(narrow.AppendRow(TestRow(i)).ok());
  }
  EXPECT_EQ(narrow.num_fragments(), 2);
  EXPECT_EQ(narrow.FragmentRowCount(0), ColumnarTable::kDefaultFragmentRows);
}

// --- Bit-identity: row pipeline vs vectorized path -------------------

TEST(BitIdentityTest, UnfilteredScan) {
  DualTable t(37);
  ExpectSameRows(t.ColumnarPath(nullptr), t.RowPath(nullptr));
}

TEST(BitIdentityTest, TypedEquality) {
  DualTable t(37);
  // Int64 column = Int64 literal: matches.
  ExprPtr eq_int = Expression::Binary(
      ExprKind::kEq, Expression::Column(0),
      Expression::Literal(Value(int64_t{5})));
  auto rows = t.RowPath(eq_int);
  EXPECT_EQ(rows.size(), 1u);
  ExpectSameRows(t.ColumnarPath(eq_int), rows);

  // Int64 column = Float64 literal: typed equality, never equal —
  // through both paths.
  ExprPtr eq_mixed = Expression::Binary(
      ExprKind::kEq, Expression::Column(0),
      Expression::Literal(Value(5.0)));
  EXPECT_TRUE(t.RowPath(eq_mixed).empty());
  EXPECT_TRUE(t.ColumnarPath(eq_mixed).empty());

  // String and float-vector equality.
  ExprPtr eq_str = Expression::Binary(
      ExprKind::kEq, Expression::Column(2),
      Expression::Literal(Value(std::string("n3"))));
  ExpectSameRows(t.ColumnarPath(eq_str), t.RowPath(eq_str));
  ExprPtr eq_vec = Expression::Binary(
      ExprKind::kEq, Expression::Column(3),
      Expression::Literal(Value(std::vector<float>{6.0f, 3.0f})));
  auto vec_rows = t.RowPath(eq_vec);
  EXPECT_EQ(vec_rows.size(), 1u);
  ExpectSameRows(t.ColumnarPath(eq_vec), vec_rows);
}

TEST(BitIdentityTest, ComparisonsArithmeticAndBand) {
  DualTable t(53);
  std::vector<ExprPtr> predicates;
  // score < 2.0
  predicates.push_back(Expression::Binary(
      ExprKind::kLt, Expression::Column(1),
      Expression::Literal(Value(2.0))));
  // id <= 10 (int widens to double exactly like the row evaluator)
  predicates.push_back(Expression::Binary(
      ExprKind::kLe, Expression::Column(0),
      Expression::Literal(Value(int64_t{10}))));
  // id + score < 20.5 (same double arithmetic order per row)
  predicates.push_back(Expression::Binary(
      ExprKind::kLt,
      Expression::Binary(ExprKind::kAdd, Expression::Column(0),
                         Expression::Column(1)),
      Expression::Literal(Value(20.5))));
  // |score - 1.0| <= 0.5 (the band predicate)
  predicates.push_back(Expression::AbsDiffLe(
      Expression::Column(1), Expression::Literal(Value(1.0)), 0.5));
  // Bare numeric truthiness: id * score (0 rows drop).
  predicates.push_back(Expression::Binary(
      ExprKind::kMul, Expression::Column(0), Expression::Column(1)));
  for (size_t i = 0; i < predicates.size(); ++i) {
    auto expect = t.RowPath(predicates[i]);
    EXPECT_FALSE(expect.empty()) << "predicate " << i;
    EXPECT_LT(expect.size(), 53u) << "predicate " << i;
    ExpectSameRows(t.ColumnarPath(predicates[i]), expect);
  }
}

// The score column cycles through the floating-point special values:
// NaN, signed zeros, infinities, denormals and huge magnitudes.
const std::vector<double>& SpecialValues() {
  static const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.5, 1e300, -1e300};
  return values;
}

Row SpecialRow(int64_t i) {
  Row row = TestRow(i);
  const std::vector<double>& values = SpecialValues();
  // Stride 5 is coprime with the 12 values: any 12 consecutive rows
  // hold every value once, and neighbouring rows differ.
  row.value(1) = Value(values[(i * 5) % values.size()]);
  return row;
}

// Row equality compares doubles with ==, which NaN never satisfies;
// compare the encoded bytes instead, so signed zeros must match too.
void ExpectSameBits(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    std::string x, y;
    a[i].SerializeTo(&x);
    b[i].SerializeTo(&y);
    EXPECT_EQ(x, y) << "row " << i;
  }
}

TEST(BitIdentityTest, SpecialValuesMatchRowEvaluator) {
  // Table sizes end the last fragment partway (fragments of 8 rows).
  for (int64_t rows : {3, 13, 67}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    DualTable t(rows, /*fragment_rows=*/8, SpecialRow);
    auto score = [] { return Expression::Column(1); };
    std::vector<ExprPtr> predicates;
    // Bare truthiness: NaN is truthy, both zeros are falsy.
    predicates.push_back(score());
    for (double v : SpecialValues()) {
      auto lit = [v] { return Expression::Literal(Value(v)); };
      predicates.push_back(Expression::Binary(ExprKind::kLt, score(), lit()));
      predicates.push_back(Expression::Binary(ExprKind::kLe, score(), lit()));
      predicates.push_back(Expression::Binary(ExprKind::kEq, score(), lit()));
      predicates.push_back(Expression::AbsDiffLe(score(), lit(), 1.5));
      predicates.push_back(
          Expression::Binary(ExprKind::kMul, score(), lit()));
    }
    for (const ExprPtr& pred : predicates) {
      SCOPED_TRACE(pred->ToString());
      ExpectSameBits(t.ColumnarPath(pred), t.RowPath(pred));
    }
    // Spot-check the reference itself: NaN fails every ordered
    // comparison, and 0.0 == -0.0.
    size_t nans = 0, zeros = 0;
    for (int64_t i = 0; i < rows; ++i) {
      const double v = SpecialRow(i).value(1).AsFloat64();
      nans += std::isnan(v);
      zeros += v == 0.0;
    }
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(t.RowPath(Expression::Binary(ExprKind::kLe, score(),
                                           Expression::Literal(Value(inf))))
                  .size(),
              static_cast<size_t>(rows) - nans);
    EXPECT_EQ(t.RowPath(Expression::Binary(ExprKind::kEq, score(),
                                           Expression::Literal(Value(-0.0))))
                  .size(),
              zeros);
  }
}

TEST(BitIdentityTest, BooleanConnectives) {
  DualTable t(53);
  ExprPtr lt = Expression::Binary(ExprKind::kLt, Expression::Column(0),
                                  Expression::Literal(Value(int64_t{30})));
  ExprPtr eq = Expression::Binary(
      ExprKind::kEq, Expression::Column(2),
      Expression::Literal(Value(std::string("n2"))));
  for (ExprKind kind : {ExprKind::kAnd, ExprKind::kOr}) {
    ExprPtr pred = Expression::Binary(kind, lt, eq);
    ExpectSameRows(t.ColumnarPath(pred), t.RowPath(pred));
  }
  ExprPtr negated = Expression::Not(
      Expression::Binary(ExprKind::kOr, lt, eq));
  ExpectSameRows(t.ColumnarPath(negated), t.RowPath(negated));
}

TEST(BitIdentityTest, AndShortCircuitSuppressesRightErrors) {
  DualTable t(20);
  // (id = -1) AND (bad column): the left side never passes, so the
  // right side's error must stay suppressed — both paths.
  ExprPtr guarded = Expression::Binary(
      ExprKind::kAnd,
      Expression::Binary(ExprKind::kEq, Expression::Column(0),
                         Expression::Literal(Value(int64_t{-1}))),
      Expression::Column(99));
  EXPECT_TRUE(t.RowPath(guarded).empty());
  ColumnarScanOptions opts;
  opts.predicate = guarded;
  auto out = ColumnarScan(t.columnar, opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->rows_emitted, 0);

  // Unguarded, the same bad reference fails identically.
  ColumnarScanOptions bad;
  bad.predicate = Expression::Column(99);
  Filter filter(t.RowScan(), bad.predicate);
  auto row_result = Collect(&filter);
  auto col_result = ColumnarScan(t.columnar, bad);
  ASSERT_FALSE(row_result.ok());
  ASSERT_FALSE(col_result.ok());
  EXPECT_EQ(col_result.status().ToString(),
            row_result.status().ToString());
}

TEST(BitIdentityTest, LimitPushdown) {
  DualTable t(37);
  ExprPtr pred = Expression::Binary(
      ExprKind::kLt, Expression::Column(1),
      Expression::Literal(Value(2.0)));
  for (int64_t limit : {0, 1, 7, 100}) {
    ExpectSameRows(t.ColumnarPath(pred, limit), t.RowPath(pred, limit));
  }
}

TEST(BitIdentityTest, ProjectionPushdown) {
  DualTable t(21);
  for (std::vector<int> proj :
       {std::vector<int>{3}, {1, 2}, {2, 0}, {0, 1, 2, 3}}) {
    ColumnarScanOptions opts;
    opts.projection = proj;
    auto out = ColumnarScan(t.columnar, opts);
    ASSERT_TRUE(out.ok());
    Project project(t.RowScan(), proj);
    auto expect = Collect(&project);
    ASSERT_TRUE(expect.ok());
    ExpectSameRows(out->ToRows(), *expect);
    EXPECT_EQ(out->schema.ToString(), project.schema().ToString());
  }
}

TEST(BitIdentityTest, PredicateOnUnprojectedColumn) {
  DualTable t(29);
  // Filter on score, emit only id: the scan must decode score for the
  // filter but keep it out of the output.
  ColumnarScanOptions opts;
  opts.projection = {0};
  opts.predicate = Expression::Binary(
      ExprKind::kLt, Expression::Column(1),
      Expression::Literal(Value(1.5)));
  auto out = ColumnarScan(t.columnar, opts);
  ASSERT_TRUE(out.ok());
  auto filter = std::make_unique<Filter>(t.RowScan(), opts.predicate);
  Project project(std::move(filter), {0});
  auto expect = Collect(&project);
  ASSERT_TRUE(expect.ok());
  ExpectSameRows(out->ToRows(), *expect);
}

TEST(BitIdentityTest, RowScanShimComposesWithRowOperators) {
  DualTable t(37);
  // The shim must serve the row-operator API bit-identically.
  ColumnarRowScan shim(&t.columnar);
  auto from_shim = Collect(&shim);
  ASSERT_TRUE(from_shim.ok());
  ExpectSameRows(*from_shim, t.RowPath(nullptr));
  EXPECT_EQ(shim.SizeHint(), 37);

  ExprPtr pred = Expression::Binary(
      ExprKind::kLt, Expression::Column(0),
      Expression::Literal(Value(int64_t{9})));
  Filter filter(std::make_unique<ColumnarRowScan>(&t.columnar), pred);
  auto filtered = Collect(&filter);
  ASSERT_TRUE(filtered.ok());
  ExpectSameRows(*filtered, t.RowPath(pred));
}

// --- Fragment parallelism --------------------------------------------

TEST(ParallelScanTest, ParallelMatchesSerial) {
  ScanCostModel::ResetForTest();
  DualTable t(20000, /*fragment_rows=*/512);
  ThreadPool pool(4);
  ExprPtr pred = Expression::Binary(
      ExprKind::kLt, Expression::Column(1),
      Expression::Literal(Value(1.7)));

  ColumnarScanOptions par;
  par.predicate = pred;
  par.pool = &pool;
  auto parallel = ColumnarScan(t.columnar, par);
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(parallel->parallel);  // big enough to fan out

  ColumnarScanOptions ser;
  ser.predicate = pred;
  ser.force_serial = true;
  auto serial = ColumnarScan(t.columnar, ser);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->parallel);

  ExpectSameRows(parallel->ToRows(), serial->ToRows());
  ExpectSameRows(serial->ToRows(), t.RowPath(pred));
  EXPECT_EQ(parallel->rows_scanned, 20000);
  EXPECT_EQ(serial->rows_scanned, 20000);
}

TEST(ParallelScanTest, TinyTableStaysSerial) {
  ScanCostModel::ResetForTest();
  DualTable t(16, /*fragment_rows=*/4);
  ThreadPool pool(4);
  ColumnarScanOptions opts;
  opts.pool = &pool;
  auto out = ColumnarScan(t.columnar, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->parallel);  // dispatch would cost more than the scan
}

TEST(ParallelScanTest, TelemetryCountsRowsAndBytes) {
  DualTable t(100, /*fragment_rows=*/16);
  ColumnarScanOptions opts;
  opts.predicate = Expression::Binary(
      ExprKind::kLt, Expression::Column(0),
      Expression::Literal(Value(int64_t{10})));
  auto out = ColumnarScan(t.columnar, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows_scanned, 100);  // decoded, pre-filter
  EXPECT_EQ(out->rows_emitted, 10);   // post-filter
  EXPECT_GT(out->bytes_scanned, 0);
  EXPECT_GT(out->nanos, 0);
}

TEST(ParallelScanTest, LateMaterializationReadsRestOnlyWhenRowsPass) {
  // The predicate reads only `score`. Each fragment decodes it first
  // and the other projected columns only when some row passed.
  DualTable t(37);
  auto scan = [&](ExprPtr predicate, std::vector<int> projection) {
    ColumnarScanOptions opts;
    opts.predicate = std::move(predicate);
    opts.projection = std::move(projection);
    auto out = ColumnarScan(t.columnar, opts);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : ColumnarScanOutput{};
  };
  auto score_lt = [](double v) {
    return Expression::Binary(ExprKind::kLt, Expression::Column(1),
                              Expression::Literal(Value(v)));
  };
  const int64_t score_bytes = scan(nullptr, {1}).bytes_scanned;
  const int64_t all_bytes = scan(nullptr, {}).bytes_scanned;
  ASSERT_GT(score_bytes, 0);
  ASSERT_LT(score_bytes, all_bytes);

  const ColumnarScanOutput none = scan(score_lt(-1.0), {});
  EXPECT_EQ(none.rows_emitted, 0);
  EXPECT_EQ(none.rows_scanned, 37);
  EXPECT_EQ(none.bytes_scanned, score_bytes);

  const ColumnarScanOutput every = scan(score_lt(100.0), {});
  EXPECT_EQ(every.rows_emitted, 37);
  EXPECT_EQ(every.bytes_scanned, all_bytes);
  // The filter column stays out of the output but is still read.
  EXPECT_EQ(scan(score_lt(100.0), {0}).bytes_scanned,
            scan(nullptr, {0, 1}).bytes_scanned);
}

TEST(ScanCostModelTest, LearnsFromObservations) {
  ScanCostModel::ResetForTest();
  EXPECT_DOUBLE_EQ(ScanCostModel::ColumnarNsPerCell(),
                   ScanCostModel::kSeedColumnarNsPerCell);
  // Feed consistently slower scans; the EWMA must move toward them.
  for (int i = 0; i < 50; ++i) {
    ScanCostModel::ObserveColumnarScan(/*cells=*/1000,
                                       /*nanos=*/10 * 1000);
  }
  EXPECT_GT(ScanCostModel::ColumnarNsPerCell(), 8.0);
  ScanCostModel::ResetForTest();
  EXPECT_DOUBLE_EQ(ScanCostModel::ColumnarNsPerCell(),
                   ScanCostModel::kSeedColumnarNsPerCell);
}

// --- Columnar gather (the GEMM-tile pivot) ---------------------------

TEST(ColumnarGatherTest, MatchesRowPivot) {
  DualTable t(37);
  ColumnarScanOptions opts;
  opts.projection = {3};
  auto out = ColumnarScan(t.columnar, opts);
  ASSERT_TRUE(out.ok());

  MemoryTracker tracker("test", 64 << 20);
  PhysicalStage stage;
  stage.kind = StageKind::kColumnarGather;
  auto tile = ExecuteColumnarGather(stage, out->batches,
                                    /*chunk_index=*/0, /*width=*/2,
                                    "features", &tracker);
  ASSERT_TRUE(tile.ok()) << tile.status().ToString();
  ASSERT_EQ(tile->shape().dim(0), 37);
  ASSERT_EQ(tile->shape().dim(1), 2);
  // The row-at-a-time pivot the gather replaces.
  auto rows = t.RowPath(nullptr);
  for (int64_t r = 0; r < 37; ++r) {
    const std::vector<float>& f = rows[r].value(3).AsFloatVector();
    EXPECT_EQ(tile->data()[r * 2 + 0], f[0]) << "row " << r;
    EXPECT_EQ(tile->data()[r * 2 + 1], f[1]) << "row " << r;
  }
  EXPECT_EQ(stage.stats.invocations.load(), 1);
  EXPECT_EQ(stage.stats.rows.load(), 37);
}

TEST(ColumnarGatherTest, RejectsWidthMismatchAndWrongType) {
  DualTable t(5);
  ColumnarScanOptions opts;
  auto out = ColumnarScan(t.columnar, opts);
  ASSERT_TRUE(out.ok());
  MemoryTracker tracker("test", 64 << 20);
  PhysicalStage stage;
  stage.kind = StageKind::kColumnarGather;
  // features are width 2; asking for 3 must fail per-row, not by
  // compensating across rows.
  auto bad_width = ExecuteColumnarGather(stage, out->batches, 3, 3,
                                         "features", &tracker);
  EXPECT_TRUE(bad_width.status().IsInvalidArgument());
  // Chunk 0 is the int64 id column.
  auto bad_type = ExecuteColumnarGather(stage, out->batches, 0, 2,
                                        "id", &tracker);
  EXPECT_TRUE(bad_type.status().IsInvalidArgument());
}

}  // namespace
}  // namespace relserve
