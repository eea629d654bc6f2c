// Parser for relserve's inference-query SQL dialect — the paper's
// motivating interface of "SQL queries nested with deep learning
// inferences":
//
//   SELECT <item> [, <item>]* FROM <table>
//     [WHERE <predicate>] [GROUP BY <name> [, <name>]*]
//     [ORDER BY <output-column> [ASC|DESC]] [LIMIT <n>]
//
// ORDER BY names a column of the *output* (a selected column, an
// alias, or an aggregate's name), and LIMIT then applies to the
// sorted rows.
//
//   item      := * | column [AS alias]
//              | PREDICT(model [, feature_column]) [AS alias]
//              | PREDICT_CLASS(model [, feature_column]) [AS alias]
//              | COUNT(*) | COUNT(name) | SUM(name) | AVG(name)
//              | MIN(name) | MAX(name)        [AS alias]
//   predicate := disjunction of conjunctions of comparisons
//   compare   := operand (= | != | < | <= | > | >=) operand
//   operand   := column | number | 'string'
//
// PREDICT adds the model's output row as a FLOAT_VECTOR column;
// PREDICT_CLASS adds the argmax class as an INT64 column. GROUP BY
// names may reference base columns or the alias of a PREDICT_CLASS
// item, so inference results can be grouped and aggregated:
//   SELECT PREDICT_CLASS(fraud) AS cls, COUNT(*) FROM tx GROUP BY cls

#ifndef RELSERVE_SQL_PARSER_H_
#define RELSERVE_SQL_PARSER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace relserve {
namespace sql {

// --- Predicate AST ----------------------------------------------------

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

struct Operand {
  bool is_column = false;
  std::string column;  // when is_column
  Value literal;       // otherwise
};

struct Comparison {
  Operand left;
  CompareOp op = CompareOp::kEq;
  Operand right;
};

struct Predicate;
using PredicatePtr = std::unique_ptr<Predicate>;

enum class PredicateKind { kComparison, kAnd, kOr, kNot };

struct Predicate {
  PredicateKind kind = PredicateKind::kComparison;
  Comparison comparison;       // kComparison
  PredicatePtr left, right;    // kAnd / kOr (kNot uses left)
};

// --- Select list --------------------------------------------------------

enum class ItemKind {
  kStar,
  kColumn,
  kPredict,
  kPredictClass,
  kAggregate,
};

enum class AggregateFunc { kCount, kSum, kAvg, kMin, kMax };

struct SelectItem {
  ItemKind kind = ItemKind::kColumn;
  std::string column;       // kColumn / kAggregate argument ("*" for
                            // COUNT(*))
  std::string model;        // kPredict / kPredictClass
  std::string feature_col;  // defaults to "features"
  AggregateFunc agg = AggregateFunc::kCount;  // kAggregate
  std::string alias;        // optional output name
};

struct SelectStatement {
  std::vector<SelectItem> items;
  std::string table;
  PredicatePtr where;                  // may be null
  std::vector<std::string> group_by;   // empty = no grouping
  std::optional<std::string> order_by;  // output column name
  bool order_desc = false;
  std::optional<int64_t> limit;
};

// --- DDL / DML ----------------------------------------------------------

struct CreateTableStatement {
  std::string table;
  std::vector<Column> columns;  // types: INT64/FLOAT64/STRING/
                                // FLOAT_VECTOR
};

struct InsertStatement {
  std::string table;
  // One Value list per inserted row; FLOAT_VECTOR literals use
  // bracket syntax: [1.0, 2.0, 3.0].
  std::vector<std::vector<Value>> rows;
};

// UPDATE <table> SET col = literal [, col = literal]* [WHERE ...]
struct SetClause {
  std::string column;
  Value value;
};

struct UpdateStatement {
  std::string table;
  std::vector<SetClause> sets;
  PredicatePtr where;  // may be null (updates every row)
};

// DELETE FROM <table> [WHERE ...]
struct DeleteStatement {
  std::string table;
  PredicatePtr where;  // may be null (deletes every row)
};

struct Statement {
  enum class Kind {
    kSelect,
    kExplainSelect,
    kCreateTable,
    kInsert,
    kUpdate,
    kDelete,
    kShowModels,
  };
  Kind kind = Kind::kSelect;
  // EXPLAIN ANALYZE: execute the query, then render the plan with the
  // accumulated per-stage timings (kExplainSelect only).
  bool analyze = false;
  SelectStatement select;        // kSelect / kExplainSelect
  CreateTableStatement create;   // kCreateTable
  InsertStatement insert;        // kInsert
  UpdateStatement update;        // kUpdate
  DeleteStatement del;           // kDelete
};

// Parses one SELECT statement.
Result<SelectStatement> Parse(const std::string& query);

// Parses any supported statement (SELECT / EXPLAIN [ANALYZE] SELECT /
// CREATE TABLE / INSERT INTO).
Result<Statement> ParseStatement(const std::string& query);

}  // namespace sql
}  // namespace relserve

#endif  // RELSERVE_SQL_PARSER_H_
