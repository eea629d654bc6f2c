#include <gtest/gtest.h>

#include <memory>

#include "relational/expression.h"
#include "relational/operator.h"
#include "relational/row.h"
#include "relational/schema.h"
#include "relational/vectorized.h"
#include "storage/buffer_pool.h"
#include "storage/column_store.h"

namespace relserve {
namespace {

Row MakeRow(std::vector<Value> values) { return Row(std::move(values)); }

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value(int64_t{5}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(2.5).type(), ValueType::kFloat64);
  EXPECT_EQ(Value(std::string("x")).type(), ValueType::kString);
  EXPECT_EQ(Value(std::vector<float>{1, 2}).type(),
            ValueType::kFloatVector);
  EXPECT_EQ(Value(int64_t{5}).AsNumeric(), 5.0);
  EXPECT_EQ(Value(2.5).AsNumeric(), 2.5);
}

TEST(ValueTest, EqualityAndHash) {
  EXPECT_EQ(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_NE(Value(int64_t{3}), Value(3.0));  // typed equality
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(int64_t{3}).Hash());
  EXPECT_EQ(Value(std::vector<float>{1, 2}).Hash(),
            Value(std::vector<float>{1, 2}).Hash());
}

TEST(SchemaTest, FieldIndexAndProject) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kFloat64}});
  EXPECT_EQ(*s.FieldIndex("b"), 1);
  EXPECT_TRUE(s.FieldIndex("z").status().IsNotFound());
  Schema p = s.Project({1});
  EXPECT_EQ(p.num_columns(), 1);
  EXPECT_EQ(p.column(0).name, "b");
}

TEST(SchemaTest, ConcatRenamesDuplicates) {
  Schema a({{"id", ValueType::kInt64}});
  Schema b({{"id", ValueType::kInt64}, {"x", ValueType::kFloat64}});
  Schema joined = a.Concat(b);
  EXPECT_EQ(joined.num_columns(), 3);
  EXPECT_EQ(joined.column(1).name, "id_r");
  EXPECT_EQ(joined.column(2).name, "x");
}

TEST(RowTest, SerializeRoundTripAllTypes) {
  Row row = MakeRow({Value(int64_t{-7}), Value(3.25),
                     Value(std::string("hello")),
                     Value(std::vector<float>{1.5f, -2.5f})});
  std::string bytes;
  row.SerializeTo(&bytes);
  auto back = Row::Deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, row);
}

TEST(RowTest, DeserializeRejectsGarbage) {
  std::string bytes = "\xff\x01\x02";
  EXPECT_FALSE(Row::Deserialize(bytes.data(), bytes.size()).ok());
}

TEST(ExpressionTest, ColumnAndLiteral) {
  Row row = MakeRow({Value(int64_t{10}), Value(2.5)});
  auto col = Expression::Column(1);
  EXPECT_EQ((*col->Evaluate(row)).AsFloat64(), 2.5);
  auto lit = Expression::Literal(Value(int64_t{3}));
  EXPECT_EQ((*lit->Evaluate(row)).AsInt64(), 3);
  EXPECT_TRUE(Expression::Column(9)->Evaluate(row).status()
                  .IsInvalidArgument());
}

TEST(ExpressionTest, ArithmeticAndComparison) {
  Row row = MakeRow({Value(4.0), Value(int64_t{3})});
  auto sum = Expression::Binary(ExprKind::kAdd, Expression::Column(0),
                                Expression::Column(1));
  EXPECT_EQ((*sum->Evaluate(row)).AsFloat64(), 7.0);
  auto lt = Expression::Binary(ExprKind::kLt, Expression::Column(1),
                               Expression::Column(0));
  EXPECT_TRUE(*lt->EvaluateBool(row));
  auto eq = Expression::Binary(
      ExprKind::kEq, Expression::Column(1),
      Expression::Literal(Value(int64_t{3})));
  EXPECT_TRUE(*eq->EvaluateBool(row));
}

TEST(ExpressionTest, BooleanShortCircuit) {
  Row row = MakeRow({Value(int64_t{0})});
  // (col0 != 0) AND (bad column ref): short-circuits before the error.
  auto bad = Expression::Column(99);
  auto guard = Expression::Binary(
      ExprKind::kAnd,
      Expression::Binary(ExprKind::kEq, Expression::Column(0),
                         Expression::Literal(Value(int64_t{1}))),
      bad);
  auto result = guard->EvaluateBool(row);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(*result);
}

TEST(ExpressionTest, AbsDiffLeIsTheBandPredicate) {
  Row row = MakeRow({Value(1.0), Value(1.4)});
  auto within = Expression::AbsDiffLe(Expression::Column(0),
                                      Expression::Column(1), 0.5);
  EXPECT_TRUE(*within->EvaluateBool(row));
  auto outside = Expression::AbsDiffLe(Expression::Column(0),
                                       Expression::Column(1), 0.3);
  EXPECT_FALSE(*outside->EvaluateBool(row));
}

TEST(ExpressionTest, ToStringIsReadable) {
  auto e = Expression::Binary(
      ExprKind::kAnd,
      Expression::Binary(ExprKind::kLt, Expression::Column(0),
                         Expression::Literal(Value(int64_t{5}))),
      Expression::Not(Expression::Column(1)));
  EXPECT_EQ(e->ToString(), "(($0 < 5) AND (NOT $1))");
}

class OperatorTest : public ::testing::Test {
 protected:
  OperatorTest() : disk_(), pool_(&disk_, 32) {}

  // The (id, score) rows 0..n-1 with score = id * 1.5.
  static std::vector<Row> SourceRows(int n) {
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      rows.push_back(MakeRow({Value(int64_t{i}), Value(i * 1.5)}));
    }
    return rows;
  }

  // A table of SourceRows(n), in fragments of 4 rows.
  std::unique_ptr<ColumnarTable> MakeTable(int n) {
    auto table =
        std::make_unique<ColumnarTable>(&pool_, schema_, /*fragment_rows=*/4);
    for (const Row& row : SourceRows(n)) {
      EXPECT_TRUE(table->AppendRow(row).ok());
    }
    return table;
  }

  Schema schema_ =
      Schema({{"id", ValueType::kInt64}, {"score", ValueType::kFloat64}});
  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(OperatorTest, TableScanReturnsAllRowsInOrder) {
  auto table = MakeTable(10);
  ColumnarRowScan scan(table.get());
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*rows)[i].value(0).AsInt64(), i);
  }
}

TEST_F(OperatorTest, TableScanIsRestartable) {
  auto table = MakeTable(3);
  ColumnarRowScan scan(table.get());
  ASSERT_TRUE(Collect(&scan).ok());
  auto again = Collect(&scan);  // Collect re-opens
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 3u);
}

TEST_F(OperatorTest, FilterKeepsMatching) {
  auto table = MakeTable(10);
  auto scan = std::make_unique<ColumnarRowScan>(table.get());
  auto pred = Expression::Binary(
      ExprKind::kLt, Expression::Column(1),
      Expression::Literal(Value(4.0)));  // score < 4 => id 0, 1, 2
  Filter filter(std::move(scan), pred);
  auto rows = Collect(&filter);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(OperatorTest, ProjectReordersColumns) {
  auto table = MakeTable(2);
  auto scan = std::make_unique<ColumnarRowScan>(table.get());
  Project project(std::move(scan), {1, 0});
  EXPECT_EQ(project.schema().column(0).name, "score");
  auto rows = Collect(&project);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[1].value(1).AsInt64(), 1);
}

TEST_F(OperatorTest, HashJoinMatchesEqualKeys) {
  std::vector<Row> left = {MakeRow({Value(int64_t{1}),
                                    Value(std::string("a"))}),
                           MakeRow({Value(int64_t{2}),
                                    Value(std::string("b"))}),
                           MakeRow({Value(int64_t{3}),
                                    Value(std::string("c"))})};
  std::vector<Row> right = {
      MakeRow({Value(int64_t{2}), Value(20.0)}),
      MakeRow({Value(int64_t{2}), Value(21.0)}),
      MakeRow({Value(int64_t{3}), Value(30.0)})};
  Schema ls({{"id", ValueType::kInt64}, {"tag", ValueType::kString}});
  Schema rs({{"id", ValueType::kInt64}, {"v", ValueType::kFloat64}});
  HashJoin join(std::make_unique<MemScan>(left, ls),
                std::make_unique<MemScan>(right, rs), 0, 0);
  auto rows = Collect(&join);
  ASSERT_TRUE(rows.ok());
  // id=2 fans out to 2 matches, id=3 to 1, id=1 to none.
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ(join.schema().num_columns(), 4);
}

TEST_F(OperatorTest, HashJoinEmptySides) {
  Schema s({{"id", ValueType::kInt64}});
  HashJoin join(std::make_unique<MemScan>(std::vector<Row>{}, s),
                std::make_unique<MemScan>(std::vector<Row>{}, s), 0, 0);
  auto rows = Collect(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(OperatorTest, SimilarityJoinBandSemantics) {
  Schema s({{"key", ValueType::kFloat64}, {"id", ValueType::kInt64}});
  std::vector<Row> left = {MakeRow({Value(1.0), Value(int64_t{0})}),
                           MakeRow({Value(5.0), Value(int64_t{1})})};
  std::vector<Row> right = {MakeRow({Value(1.2), Value(int64_t{10})}),
                            MakeRow({Value(1.6), Value(int64_t{11})}),
                            MakeRow({Value(4.9), Value(int64_t{12})}),
                            MakeRow({Value(9.0), Value(int64_t{13})})};
  SimilarityJoin join(std::make_unique<MemScan>(left, s),
                      std::make_unique<MemScan>(right, s), 0, 0, 0.5);
  auto rows = Collect(&join);
  ASSERT_TRUE(rows.ok());
  // left 0 (1.0) matches 1.2; left 1 (5.0) matches 4.9.
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].value(3).AsInt64(), 10);
  EXPECT_EQ((*rows)[1].value(3).AsInt64(), 12);
}

TEST_F(OperatorTest, SimilarityJoinInclusiveBoundary) {
  Schema s({{"key", ValueType::kFloat64}});
  std::vector<Row> left = {MakeRow({Value(1.0)})};
  std::vector<Row> right = {MakeRow({Value(1.5)}),
                            MakeRow({Value(0.5)})};
  SimilarityJoin join(std::make_unique<MemScan>(left, s),
                      std::make_unique<MemScan>(right, s), 0, 0, 0.5);
  auto rows = Collect(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // both endpoints included
}

TEST_F(OperatorTest, HashAggregateGlobalGroup) {
  auto table = MakeTable(5);  // scores 0, 1.5, 3, 4.5, 6
  auto scan = std::make_unique<ColumnarRowScan>(table.get());
  HashAggregate agg(std::move(scan), {},
                    {{AggFunc::kCount, -1, "n"},
                     {AggFunc::kSum, 1, "total"},
                     {AggFunc::kMin, 1, "lo"},
                     {AggFunc::kMax, 1, "hi"},
                     {AggFunc::kAvg, 1, "mean"}});
  auto rows = Collect(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  const Row& r = (*rows)[0];
  EXPECT_EQ(r.value(0).AsInt64(), 5);
  EXPECT_DOUBLE_EQ(r.value(1).AsFloat64(), 15.0);
  EXPECT_DOUBLE_EQ(r.value(2).AsFloat64(), 0.0);
  EXPECT_DOUBLE_EQ(r.value(3).AsFloat64(), 6.0);
  EXPECT_DOUBLE_EQ(r.value(4).AsFloat64(), 3.0);
}

TEST_F(OperatorTest, HashAggregateGroupsByKey) {
  Schema s({{"k", ValueType::kInt64}, {"v", ValueType::kFloat64}});
  std::vector<Row> rows = {MakeRow({Value(int64_t{1}), Value(10.0)}),
                           MakeRow({Value(int64_t{2}), Value(20.0)}),
                           MakeRow({Value(int64_t{1}), Value(30.0)})};
  HashAggregate agg(std::make_unique<MemScan>(rows, s), {0},
                    {{AggFunc::kSum, 1, "total"}});
  auto out = Collect(&agg);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  double sum_for_1 = 0;
  for (const Row& r : *out) {
    if (r.value(0).AsInt64() == 1) sum_for_1 = r.value(1).AsFloat64();
  }
  EXPECT_DOUBLE_EQ(sum_for_1, 40.0);
}

TEST_F(OperatorTest, TableScanComposesWithSortAndAggregate) {
  // Under heavier row operators the table scan must serve exactly what
  // a scan of the source rows serves.
  const std::vector<Row> source = SourceRows(30);
  ColumnarTable columnar(&pool_, schema_, /*fragment_rows=*/7);
  for (const Row& row : source) ASSERT_TRUE(columnar.AppendRow(row).ok());

  auto pred = Expression::Binary(ExprKind::kLe, Expression::Literal(Value(15.0)),
                                 Expression::Column(1));

  auto run_sort = [&](RowIteratorPtr scan) {
    auto filter = std::make_unique<Filter>(std::move(scan), pred);
    Sort sort(std::move(filter), /*key=*/0, /*descending=*/true);
    return Collect(&sort);
  };
  auto ref_sorted = run_sort(std::make_unique<MemScan>(&source, schema_));
  auto col_sorted = run_sort(std::make_unique<ColumnarRowScan>(&columnar));
  ASSERT_TRUE(ref_sorted.ok());
  ASSERT_TRUE(col_sorted.ok());
  ASSERT_EQ(ref_sorted->size(), col_sorted->size());
  for (size_t i = 0; i < ref_sorted->size(); ++i) {
    EXPECT_EQ((*ref_sorted)[i], (*col_sorted)[i]);
  }

  auto run_agg = [&](RowIteratorPtr scan) {
    auto filter = std::make_unique<Filter>(std::move(scan), pred);
    HashAggregate agg(std::move(filter), {},
                      {{AggFunc::kCount, -1, "n"}, {AggFunc::kSum, 1, "sum"}});
    return Collect(&agg);
  };
  auto ref_agg = run_agg(std::make_unique<MemScan>(&source, schema_));
  auto col_agg = run_agg(std::make_unique<ColumnarRowScan>(&columnar));
  ASSERT_TRUE(ref_agg.ok());
  ASSERT_TRUE(col_agg.ok());
  ASSERT_EQ(ref_agg->size(), 1u);
  EXPECT_EQ((*ref_agg)[0].value(0).AsInt64(), (*col_agg)[0].value(0).AsInt64());
  EXPECT_DOUBLE_EQ((*ref_agg)[0].value(1).AsFloat64(),
                   (*col_agg)[0].value(1).AsFloat64());
}

TEST_F(OperatorTest, PipelineScanFilterAggregate) {
  auto table = MakeTable(100);
  auto scan = std::make_unique<ColumnarRowScan>(table.get());
  auto pred = Expression::Binary(
      ExprKind::kLt, Expression::Column(0),
      Expression::Literal(Value(int64_t{50})));
  auto filter = std::make_unique<Filter>(std::move(scan), pred);
  HashAggregate agg(std::move(filter), {},
                    {{AggFunc::kCount, -1, "n"}});
  auto rows = Collect(&agg);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0].value(0).AsInt64(), 50);
}

}  // namespace
}  // namespace relserve
