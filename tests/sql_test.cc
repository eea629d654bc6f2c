#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "graph/model.h"
#include "relational/row.h"
#include "serving/model_versions.h"
#include "serving/serving_session.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/query_executor.h"
#include "workloads/datasets.h"

namespace relserve {
namespace sql {
namespace {

// --- Lexer -----------------------------------------------------------

TEST(LexerTest, TokenKinds) {
  auto tokens = Lex("SELECT a, 1.5 FROM t WHERE x >= 'hi'");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // incl. kEnd
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdentifier);
  EXPECT_TRUE((*tokens)[2].IsSymbol(","));
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kNumber);
  EXPECT_TRUE((*tokens)[4].IsKeyword("FROM"));
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kIdentifier);
  EXPECT_TRUE((*tokens)[8].IsSymbol(">="));
  EXPECT_EQ((*tokens)[9].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[9].text, "hi");
  EXPECT_EQ((*tokens)[10].kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Lex("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("FROM"));
  EXPECT_TRUE((*tokens)[2].IsKeyword("WHERE"));
}

TEST(LexerTest, NegativeAndDecimalNumbers) {
  auto tokens = Lex("-3 2.75");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "-3");
  EXPECT_EQ((*tokens)[1].text, "2.75");
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(Lex("SELECT ; FROM t").ok());
  EXPECT_FALSE(Lex("SELECT 'unterminated").ok());
}

// --- Parser ----------------------------------------------------------

TEST(ParserTest, MinimalSelect) {
  auto stmt = Parse("SELECT * FROM tx");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->items[0].kind, ItemKind::kStar);
  EXPECT_EQ(stmt->table, "tx");
  EXPECT_EQ(stmt->where, nullptr);
  EXPECT_FALSE(stmt->limit.has_value());
}

TEST(ParserTest, PredictItems) {
  auto stmt = Parse(
      "SELECT id, PREDICT(fraud) AS scores, "
      "PREDICT_CLASS(fraud, embedding) FROM tx LIMIT 10");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->items.size(), 3u);
  EXPECT_EQ(stmt->items[0].kind, ItemKind::kColumn);
  EXPECT_EQ(stmt->items[1].kind, ItemKind::kPredict);
  EXPECT_EQ(stmt->items[1].model, "fraud");
  EXPECT_EQ(stmt->items[1].feature_col, "features");
  EXPECT_EQ(stmt->items[1].alias, "scores");
  EXPECT_EQ(stmt->items[2].kind, ItemKind::kPredictClass);
  EXPECT_EQ(stmt->items[2].feature_col, "embedding");
  EXPECT_EQ(*stmt->limit, 10);
}

TEST(ParserTest, WherePrecedenceAndParens) {
  auto stmt =
      Parse("SELECT * FROM t WHERE a = 1 OR b < 2 AND NOT (c >= 3)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE(stmt->where, nullptr);
  // OR at the top (AND binds tighter).
  EXPECT_EQ(stmt->where->kind, PredicateKind::kOr);
  EXPECT_EQ(stmt->where->left->kind, PredicateKind::kComparison);
  EXPECT_EQ(stmt->where->right->kind, PredicateKind::kAnd);
  EXPECT_EQ(stmt->where->right->right->kind, PredicateKind::kNot);
}

TEST(ParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT * FROM").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t extra").ok());
  EXPECT_FALSE(Parse("SELECT PREDICT( FROM t").ok());
}

// --- Executor --------------------------------------------------------

class SqlExecTest : public ::testing::Test {
 protected:
  SqlExecTest() : session_(ServingConfig{}) {
    const Schema schema({{"id", ValueType::kInt64},
                         {"amount", ValueType::kFloat64},
                         {"features", ValueType::kFloatVector}});
    auto table = session_.CreateTable("tx", schema);
    EXPECT_TRUE(table.ok());
    for (int i = 0; i < 20; ++i) {
      std::vector<float> features(8, static_cast<float>(i) * 0.1f);
      rows_.emplace_back(std::vector<Value>{
          Value(int64_t{i}), Value(i * 10.0), Value(std::move(features))});
      EXPECT_TRUE((*table)->columnar->AppendRow(rows_.back()).ok());
    }
    auto model = BuildFFNN("scorer", {8, 16, 3}, 5);
    EXPECT_TRUE(model.ok());
    EXPECT_TRUE(session_.RegisterModel(std::move(*model)).ok());
  }

  // The deployed scorer run on the features of `ids` as one dense
  // batch: the reference SQL PREDICT must match bit for bit.
  Tensor DenseScores(const std::vector<int64_t>& ids) {
    auto input = Tensor::Create(Shape{static_cast<int64_t>(ids.size()), 8});
    EXPECT_TRUE(input.ok());
    for (size_t r = 0; r < ids.size(); ++r) {
      const auto& f = rows_[ids[r]].value(2).AsFloatVector();
      std::copy(f.begin(), f.end(), input->data() + r * 8);
    }
    auto out = session_.PredictBatch("scorer", *input);
    EXPECT_TRUE(out.ok()) << out.status();
    auto scores = out->ToTensor(session_.exec_context());
    EXPECT_TRUE(scores.ok());
    return *scores;
  }

  std::vector<Row> rows_;  // the rows of tx, in insertion order
  ServingSession session_;
};

TEST_F(SqlExecTest, SelectStar) {
  auto result = ExecuteQuery(&session_, "SELECT * FROM tx");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->schema.num_columns(), 3);
  EXPECT_EQ(result->rows.size(), 20u);
}

TEST_F(SqlExecTest, WhereAndLimit) {
  auto result = ExecuteQuery(
      &session_, "SELECT id FROM tx WHERE amount >= 50 LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].value(0).AsInt64(), 5);
  EXPECT_EQ(result->rows[2].value(0).AsInt64(), 7);
}

TEST_F(SqlExecTest, PredictAddsScoreVector) {
  auto result = ExecuteQuery(
      &session_, "SELECT id, PREDICT(scorer) AS p FROM tx WHERE id < 4");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->schema.column(1).name, "p");
  EXPECT_EQ(result->schema.column(1).type, ValueType::kFloatVector);
  const auto& scores = result->rows[0].value(1).AsFloatVector();
  ASSERT_EQ(scores.size(), 3u);
  float sum = 0;
  for (float s : scores) sum += s;
  EXPECT_NEAR(sum, 1.0f, 1e-4f);  // softmax row
}

TEST_F(SqlExecTest, PredictClassMatchesPredictArgmax) {
  auto result = ExecuteQuery(
      &session_, "SELECT PREDICT(scorer), PREDICT_CLASS(scorer) FROM tx");
  ASSERT_TRUE(result.ok()) << result.status();
  for (const Row& row : result->rows) {
    const auto& scores = row.value(0).AsFloatVector();
    const int64_t cls = row.value(1).AsInt64();
    int64_t best = 0;
    for (size_t c = 1; c < scores.size(); ++c) {
      if (scores[c] > scores[best]) best = static_cast<int64_t>(c);
    }
    EXPECT_EQ(cls, best);
  }
}

TEST_F(SqlExecTest, PredicateOnPredictInput) {
  // Inference over a filtered subset only.
  auto all = ExecuteQuery(&session_, "SELECT PREDICT_CLASS(scorer) FROM tx");
  auto some = ExecuteQuery(
      &session_, "SELECT PREDICT_CLASS(scorer) FROM tx WHERE id >= 10");
  ASSERT_TRUE(all.ok() && some.ok());
  ASSERT_EQ(some->rows.size(), 10u);
  // Row k of the filtered result equals row k+10 of the full result.
  for (size_t i = 0; i < some->rows.size(); ++i) {
    EXPECT_EQ(some->rows[i].value(0).AsInt64(),
              all->rows[i + 10].value(0).AsInt64());
  }
}

TEST_F(SqlExecTest, EmptyResultSkipsInference) {
  auto result = ExecuteQuery(
      &session_, "SELECT PREDICT(scorer) FROM tx WHERE amount < -1");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(SqlExecTest, ErrorsAreStatuses) {
  EXPECT_TRUE(ExecuteQuery(&session_, "SELECT * FROM missing")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      ExecuteQuery(&session_, "SELECT nope FROM tx").status().IsNotFound());
  EXPECT_TRUE(ExecuteQuery(&session_, "SELECT PREDICT(ghost) FROM tx")
                  .status()
                  .IsNotFound());
  // PREDICT over a non-vector column.
  EXPECT_TRUE(ExecuteQuery(&session_, "SELECT PREDICT(scorer, amount) FROM tx")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SqlExecTest, GlobalAggregates) {
  auto result = ExecuteQuery(
      &session_,
      "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount), "
      "MAX(amount) FROM tx WHERE id < 10");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  const Row& row = result->rows[0];
  EXPECT_EQ(row.value(0).AsInt64(), 10);
  EXPECT_DOUBLE_EQ(row.value(1).AsFloat64(), 450.0);  // 0+10+...+90
  EXPECT_DOUBLE_EQ(row.value(2).AsFloat64(), 45.0);
  EXPECT_DOUBLE_EQ(row.value(3).AsFloat64(), 0.0);
  EXPECT_DOUBLE_EQ(row.value(4).AsFloat64(), 90.0);
}

TEST_F(SqlExecTest, GroupByPredictClass) {
  // The flagship nested query: group rows by the model's decision.
  auto result = ExecuteQuery(
      &session_,
      "SELECT PREDICT_CLASS(scorer) AS cls, COUNT(*) AS n "
      "FROM tx GROUP BY cls");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->schema.column(0).name, "cls");
  EXPECT_EQ(result->schema.column(1).name, "n");
  int64_t total = 0;
  for (const Row& row : result->rows) {
    EXPECT_GE(row.value(0).AsInt64(), 0);
    EXPECT_LT(row.value(0).AsInt64(), 3);
    total += row.value(1).AsInt64();
  }
  EXPECT_EQ(total, 20);  // every row lands in exactly one group
}

TEST_F(SqlExecTest, GroupByBaseColumnWithAggOverAmount) {
  auto result = ExecuteQuery(
      &session_,
      "SELECT id, SUM(amount) AS total FROM tx WHERE id < 3 "
      "GROUP BY id");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST_F(SqlExecTest, GroupByValidation) {
  // Non-aggregate item missing from GROUP BY.
  EXPECT_TRUE(ExecuteQuery(&session_,
                           "SELECT id, amount, COUNT(*) FROM tx "
                           "GROUP BY id")
                  .status()
                  .IsInvalidArgument());
  // * with GROUP BY.
  EXPECT_TRUE(
      ExecuteQuery(&session_, "SELECT * FROM tx GROUP BY id")
          .status()
          .IsInvalidArgument());
  // SUM(*) is rejected at parse time.
  EXPECT_TRUE(ExecuteQuery(&session_, "SELECT SUM(*) FROM tx")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SqlExecTest, OrderByAscendingAndDescending) {
  auto desc = ExecuteQuery(
      &session_,
      "SELECT id, amount FROM tx ORDER BY amount DESC LIMIT 3");
  ASSERT_TRUE(desc.ok()) << desc.status();
  ASSERT_EQ(desc->rows.size(), 3u);
  EXPECT_EQ(desc->rows[0].value(0).AsInt64(), 19);
  EXPECT_EQ(desc->rows[2].value(0).AsInt64(), 17);
  auto asc = ExecuteQuery(
      &session_,
      "SELECT id, amount FROM tx ORDER BY amount LIMIT 2");
  ASSERT_TRUE(asc.ok());
  EXPECT_EQ(asc->rows[0].value(0).AsInt64(), 0);
  EXPECT_EQ(asc->rows[1].value(0).AsInt64(), 1);
}

TEST_F(SqlExecTest, OrderByAppliesToGroupedOutput) {
  auto result = ExecuteQuery(
      &session_,
      "SELECT PREDICT_CLASS(scorer) AS cls, COUNT(*) AS n FROM tx "
      "GROUP BY cls ORDER BY n DESC LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  // The single returned group is the most populous one.
  auto all = ExecuteQuery(
      &session_,
      "SELECT PREDICT_CLASS(scorer) AS cls, COUNT(*) AS n FROM tx "
      "GROUP BY cls");
  ASSERT_TRUE(all.ok());
  int64_t max_n = 0;
  for (const Row& row : all->rows) {
    max_n = std::max(max_n, row.value(1).AsInt64());
  }
  EXPECT_EQ(result->rows[0].value(1).AsInt64(), max_n);
}

TEST_F(SqlExecTest, OrderByUnknownColumnFails) {
  EXPECT_TRUE(ExecuteQuery(&session_,
                           "SELECT id FROM tx ORDER BY ghost")
                  .status()
                  .IsNotFound());
}

TEST_F(SqlExecTest, CreateInsertSelectRoundTrip) {
  auto created = ExecuteStatement(
      &session_,
      "CREATE TABLE sensors (id INT64, reading FLOAT64, "
      "embedding FLOAT_VECTOR)");
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_FALSE(created->has_rows);
  EXPECT_NE(created->message.find("created"), std::string::npos);
  EXPECT_NE((*session_.GetTable("sensors"))->columnar, nullptr);

  auto inserted = ExecuteStatement(
      &session_,
      "INSERT INTO sensors VALUES "
      "(1, 20.5, [0.1, 0.2]), (2, 21, [0.3, 0.4])");
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_NE(inserted->message.find("2 rows"), std::string::npos);

  auto rows = ExecuteStatement(
      &session_, "SELECT id, reading FROM sensors WHERE id = 2");
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(rows->has_rows);
  ASSERT_EQ(rows->query.rows.size(), 1u);
  // Int literal 21 was coerced to the FLOAT64 column.
  EXPECT_DOUBLE_EQ(rows->query.rows[0].value(1).AsFloat64(), 21.0);
}

TEST_F(SqlExecTest, ShowModelsListsDeployments) {
  // Nothing deployed yet: the statement succeeds with zero rows.
  auto empty = ExecuteStatement(&session_, "SHOW MODELS");
  ASSERT_TRUE(empty.ok()) << empty.status();
  ASSERT_TRUE(empty->has_rows);
  EXPECT_EQ(empty->query.rows.size(), 0u);

  ASSERT_TRUE(
      session_.Deploy("scorer", ServingMode::kForceRelational, 8)
          .ok());
  auto shown = ExecuteStatement(&session_, "show models");
  ASSERT_TRUE(shown.ok()) << shown.status();
  ASSERT_TRUE(shown->has_rows);
  ASSERT_EQ(shown->query.rows.size(), 1u);
  const Row& row = shown->query.rows[0];
  EXPECT_EQ(row.value(0).AsString(), "scorer");
  EXPECT_EQ(row.value(1).AsInt64(), 1);  // one compiled plan
  // One private deployment: physical == logical, nothing shared yet.
  const int64_t logical = row.value(2).AsInt64();
  const int64_t physical = row.value(3).AsInt64();
  EXPECT_GT(logical, 0);
  EXPECT_EQ(logical, physical);
  EXPECT_EQ(row.value(4).AsInt64(), 0);
  EXPECT_GT(row.value(5).AsInt64(), 0);

  // A second identical model dedups its weight blocks against the
  // first: physical bytes collapse, shared blocks show up.
  auto clone = BuildFFNN("scorer2", {8, 16, 3}, 5);
  ASSERT_TRUE(clone.ok());
  ASSERT_TRUE(session_.RegisterModel(std::move(*clone)).ok());
  ASSERT_TRUE(
      session_.Deploy("scorer2", ServingMode::kForceRelational, 8)
          .ok());
  auto both = ExecuteStatement(&session_, "SHOW MODELS");
  ASSERT_TRUE(both.ok());
  ASSERT_EQ(both->query.rows.size(), 2u);
  const Row& second = both->query.rows[1];
  EXPECT_EQ(second.value(0).AsString(), "scorer2");
  EXPECT_EQ(second.value(3).AsInt64(), 0);  // fully deduped
  EXPECT_EQ(second.value(4).AsInt64(), second.value(5).AsInt64());

  // Trailing garbage is a parse error, not a crash.
  EXPECT_FALSE(ExecuteStatement(&session_, "SHOW MODELS now").ok());
}

TEST_F(SqlExecTest, InsertValidatesSchema) {
  ASSERT_TRUE(ExecuteStatement(&session_,
                               "CREATE TABLE small (id INT64)")
                  .ok());
  // Wrong arity.
  EXPECT_TRUE(ExecuteStatement(&session_,
                               "INSERT INTO small VALUES (1, 2)")
                  .status()
                  .IsInvalidArgument());
  // Wrong type.
  EXPECT_TRUE(ExecuteStatement(&session_,
                               "INSERT INTO small VALUES ('x')")
                  .status()
                  .IsInvalidArgument());
  // Unknown table.
  EXPECT_TRUE(ExecuteStatement(&session_,
                               "INSERT INTO ghost VALUES (1)")
                  .status()
                  .IsNotFound());
  // Duplicate create.
  EXPECT_EQ(ExecuteStatement(&session_, "CREATE TABLE small (id INT64)")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(SqlExecTest, ExplainShowsPipelineAndModelPlan) {
  auto result = ExecuteStatement(
      &session_,
      "EXPLAIN SELECT id, PREDICT(scorer) FROM tx WHERE amount > 50 "
      "LIMIT 5");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->has_rows);
  EXPECT_NE(result->message.find("ColumnarScan tx"), std::string::npos);
  EXPECT_NE(result->message.find("Filter:"), std::string::npos);
  EXPECT_NE(result->message.find("Limit: 5"), std::string::npos);
  // The model's per-operator representation decisions are included.
  EXPECT_NE(result->message.find("MatMul"), std::string::npos);
  EXPECT_NE(result->message.find("udf"), std::string::npos);
}

TEST_F(SqlExecTest, ExplainAnalyzeRunsQueryAndShowsStageTimings) {
  auto result = ExecuteStatement(
      &session_,
      "EXPLAIN ANALYZE SELECT id, PREDICT(scorer) FROM tx "
      "WHERE amount > 50 LIMIT 5");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->has_rows);
  // The logical pipeline is still rendered...
  EXPECT_NE(result->message.find("ColumnarScan tx"), std::string::npos)
      << result->message;
  // ...plus the compiled physical plan with executed-stage stats: the
  // query actually ran, so every stage carries calls and timings.
  EXPECT_NE(result->message.find("PhysicalPlan scorer:"),
            std::string::npos)
      << result->message;
  EXPECT_NE(result->message.find("calls="), std::string::npos)
      << result->message;
  EXPECT_NE(result->message.find("avg_us="), std::string::npos)
      << result->message;
  EXPECT_NE(result->message.find("rows="), std::string::npos)
      << result->message;
}

TEST_F(SqlExecTest, ExplainShowsTheModelsKernelArms) {
  // EXPLAIN plans through the session, so a version's int8 arm shows
  // exactly where its deployment would run it.
  auto model = BuildFFNN("fraud", {8, 16, 2}, 1);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());
  ASSERT_TRUE(CreateQuantizedVersion(&session_, "fraud", 8, 1).ok());
  auto int8 = ExecuteStatement(
      &session_, "EXPLAIN SELECT PREDICT(fraud@int8, features) FROM tx");
  ASSERT_TRUE(int8.ok()) << int8.status();
  EXPECT_NE(int8->message.find("[int8]"), std::string::npos)
      << int8->message;
  auto base = ExecuteStatement(
      &session_, "EXPLAIN SELECT PREDICT(fraud, features) FROM tx");
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_EQ(base->message.find("[int8]"), std::string::npos)
      << base->message;
}

TEST_F(SqlExecTest, PlainExplainDoesNotExecute) {
  auto result = ExecuteStatement(
      &session_, "EXPLAIN SELECT id, PREDICT(scorer) FROM tx");
  ASSERT_TRUE(result.ok()) << result.status();
  // Without ANALYZE the physical stage stats are absent.
  EXPECT_EQ(result->message.find("calls="), std::string::npos)
      << result->message;
}

// --- Results against the row reference -----------------------------

TEST(ParserTest, CreateTableTakesNoStorageClause) {
  EXPECT_TRUE(ParseStatement("CREATE TABLE t (id INT64) STORAGE COLUMNAR")
                  .status()
                  .IsInvalidArgument());
  // STORAGE is not a keyword: columns may use the name.
  EXPECT_TRUE(ParseStatement("CREATE TABLE t (storage INT64)").ok());
}

TEST_F(SqlExecTest, FiltersMatchRowReference) {
  // Each WHERE against the same predicate evaluated on the source rows.
  struct Case {
    const char* where;
    bool (*keep)(int64_t id, double amount);
  };
  const Case cases[] = {
      {"id < 15 AND amount > 20",
       [](int64_t id, double a) { return id < 15 && a > 20; }},
      {"id = 3 OR NOT (amount <= 120)",
       [](int64_t id, double a) { return id == 3 || !(a <= 120); }},
      {"amount = 50.0", [](int64_t, double a) { return a == 50; }},
      // Typed equality: an INT64 never equals a FLOAT64 literal, nor a
      // FLOAT64 an INT64 one.
      {"id = 3.0", [](int64_t, double) { return false; }},
      {"amount = 50", [](int64_t, double) { return false; }},
      {"amount < -1", [](int64_t, double a) { return a < -1; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.where);
    auto result = ExecuteQuery(
        &session_, std::string("SELECT * FROM tx WHERE ") + c.where);
    ASSERT_TRUE(result.ok()) << result.status();
    std::vector<Row> expect;
    for (const Row& row : rows_) {
      if (c.keep(row.value(0).AsInt64(), row.value(1).AsFloat64())) {
        expect.push_back(row);
      }
    }
    EXPECT_EQ(result->rows, expect);
  }
  auto all = ExecuteQuery(&session_, "SELECT * FROM tx");
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->rows, rows_);
  auto agg = ExecuteQuery(&session_,
                          "SELECT COUNT(*), SUM(amount), AVG(amount) FROM tx "
                          "WHERE id < 10");
  ASSERT_TRUE(agg.ok()) << agg.status();
  ASSERT_EQ(agg->rows.size(), 1u);
  EXPECT_EQ(agg->rows[0].value(0).AsInt64(), 10);
  EXPECT_EQ(agg->rows[0].value(1).AsFloat64(), 450.0);
  EXPECT_EQ(agg->rows[0].value(2).AsFloat64(), 45.0);
}

TEST_F(SqlExecTest, PredictMatchesDenseBatch) {
  // Adaptive deploy on first use (a whole-batch first stage), then a
  // relation-centric first stage that streams the feature rows.
  for (const bool relational : {false, true}) {
    SCOPED_TRACE(relational ? "relational" : "adaptive");
    if (relational) {
      ASSERT_TRUE(session_
                      .Deploy("scorer", ServingMode::kForceRelational, 20)
                      .ok());
    }
    auto result = ExecuteQuery(
        &session_, "SELECT id, PREDICT(scorer) AS p FROM tx WHERE id < 4");
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->rows.size(), 4u);
    const Tensor expect = DenseScores({0, 1, 2, 3});
    for (int64_t r = 0; r < 4; ++r) {
      const auto& p = result->rows[r].value(1).AsFloatVector();
      ASSERT_EQ(p.size(), 3u);
      EXPECT_EQ(std::memcmp(p.data(), expect.data() + r * 3, 3 * 4), 0)
          << "row " << r;
    }

    auto grouped = ExecuteQuery(
        &session_,
        "SELECT PREDICT_CLASS(scorer) AS cls, COUNT(*) AS n FROM tx "
        "GROUP BY cls ORDER BY cls");
    ASSERT_TRUE(grouped.ok()) << grouped.status();
    std::vector<int64_t> ids(20);
    for (int64_t i = 0; i < 20; ++i) ids[i] = i;
    const Tensor all = DenseScores(ids);
    std::map<int64_t, int64_t> hist;
    for (int64_t r = 0; r < 20; ++r) {
      const float* row = all.data() + r * 3;
      ++hist[std::max_element(row, row + 3) - row];
    }
    ASSERT_EQ(grouped->rows.size(), hist.size());
    size_t i = 0;
    for (const auto& [cls, n] : hist) {
      EXPECT_EQ(grouped->rows[i].value(0).AsInt64(), cls);
      EXPECT_EQ(grouped->rows[i].value(1).AsInt64(), n);
      ++i;
    }
  }
}

TEST_F(SqlExecTest, ExplainShowsColumnarScan) {
  auto result = ExecuteStatement(
      &session_, "EXPLAIN SELECT id FROM tx WHERE amount > 50");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->message.find("ColumnarScan tx"),
            std::string::npos)
      << result->message;
  EXPECT_NE(result->message.find("fragments"), std::string::npos);
  EXPECT_NE(result->message.find("[columnar-scan]"), std::string::npos);
  EXPECT_NE(result->message.find("[columnar-gather]"),
            std::string::npos);
  // Without ANALYZE no stage counters are rendered.
  EXPECT_EQ(result->message.find("calls="), std::string::npos);
}

TEST_F(SqlExecTest, ExplainAnalyzeRendersColumnarScanStats) {
  auto result = ExecuteStatement(
      &session_,
      "EXPLAIN ANALYZE SELECT id FROM tx WHERE amount > 50");
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string& m = result->message;
  EXPECT_NE(m.find("[columnar-scan] scan tx"), std::string::npos)
      << m;
  // The execution ANALYZE just performed shows up in the counters:
  // 20 rows decoded, non-zero payload bytes.
  EXPECT_NE(m.find("calls="), std::string::npos) << m;
  EXPECT_NE(m.find("rows=20"), std::string::npos) << m;
  EXPECT_NE(m.find("bytes="), std::string::npos) << m;
  EXPECT_NE(m.find("scan cost:"), std::string::npos) << m;
}

TEST_F(SqlExecTest, ResultToStringRenders) {
  auto result = ExecuteQuery(
      &session_, "SELECT id, amount FROM tx LIMIT 2");
  ASSERT_TRUE(result.ok());
  const std::string text = result->ToString();
  EXPECT_NE(text.find("id"), std::string::npos);
  EXPECT_NE(text.find("amount"), std::string::npos);
}

}  // namespace
}  // namespace sql
}  // namespace relserve
