#include "sql/query_executor.h"

#include <algorithm>
#include <memory>

#include "engine/physical_plan.h"
#include "kernels/kernels.h"
#include "optimizer/scan_cost.h"
#include "relational/expression.h"
#include "relational/operator.h"
#include "relational/vectorized.h"
#include "sql/parser.h"

namespace relserve {
namespace sql {

namespace {

Result<ExprPtr> BindOperand(const Operand& operand,
                            const Schema& schema) {
  if (!operand.is_column) {
    return Expression::Literal(operand.literal);
  }
  RELSERVE_ASSIGN_OR_RETURN(int index,
                            schema.FieldIndex(operand.column));
  return Expression::Column(index);
}

Result<ExprPtr> BindPredicate(const Predicate& predicate,
                              const Schema& schema) {
  switch (predicate.kind) {
    case PredicateKind::kComparison: {
      RELSERVE_ASSIGN_OR_RETURN(
          ExprPtr left, BindOperand(predicate.comparison.left, schema));
      RELSERVE_ASSIGN_OR_RETURN(
          ExprPtr right,
          BindOperand(predicate.comparison.right, schema));
      switch (predicate.comparison.op) {
        case CompareOp::kEq:
          return Expression::Binary(ExprKind::kEq, left, right);
        case CompareOp::kNe:
          return Expression::Not(
              Expression::Binary(ExprKind::kEq, left, right));
        case CompareOp::kLt:
          return Expression::Binary(ExprKind::kLt, left, right);
        case CompareOp::kLe:
          return Expression::Binary(ExprKind::kLe, left, right);
        case CompareOp::kGt:  // a > b  ==  b < a
          return Expression::Binary(ExprKind::kLt, right, left);
        case CompareOp::kGe:  // a >= b ==  b <= a
          return Expression::Binary(ExprKind::kLe, right, left);
      }
      return Status::Internal("unhandled comparison");
    }
    case PredicateKind::kAnd:
    case PredicateKind::kOr: {
      RELSERVE_ASSIGN_OR_RETURN(ExprPtr left,
                                BindPredicate(*predicate.left, schema));
      RELSERVE_ASSIGN_OR_RETURN(
          ExprPtr right, BindPredicate(*predicate.right, schema));
      return Expression::Binary(predicate.kind == PredicateKind::kAnd
                                    ? ExprKind::kAnd
                                    : ExprKind::kOr,
                                left, right);
    }
    case PredicateKind::kNot: {
      RELSERVE_ASSIGN_OR_RETURN(ExprPtr inner,
                                BindPredicate(*predicate.left, schema));
      return Expression::Not(inner);
    }
  }
  return Status::Internal("unhandled predicate kind");
}

std::string AggName(AggregateFunc func) {
  switch (func) {
    case AggregateFunc::kCount:
      return "count";
    case AggregateFunc::kSum:
      return "sum";
    case AggregateFunc::kAvg:
      return "avg";
    case AggregateFunc::kMin:
      return "min";
    case AggregateFunc::kMax:
      return "max";
  }
  return "?";
}

std::string DefaultName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  switch (item.kind) {
    case ItemKind::kColumn:
      return item.column;
    case ItemKind::kPredict:
      return "predict_" + item.model;
    case ItemKind::kPredictClass:
      return "class_" + item.model;
    case ItemKind::kAggregate:
      return AggName(item.agg) +
             (item.column == "*" ? "" : "_" + item.column);
    case ItemKind::kStar:
      return "*";
  }
  return "?";
}

// ORDER BY (over output column names) + the post-sort LIMIT.
Status ApplyOrderAndLimit(const SelectStatement& stmt,
                          QueryResult* result) {
  if (stmt.order_by.has_value()) {
    RELSERVE_ASSIGN_OR_RETURN(
        int key, result->schema.FieldIndex(*stmt.order_by));
    auto less = [key](const Row& a, const Row& b) {
      const Value& va = a.value(key);
      const Value& vb = b.value(key);
      if (va.type() == ValueType::kString &&
          vb.type() == ValueType::kString) {
        return va.AsString() < vb.AsString();
      }
      return va.AsNumeric() < vb.AsNumeric();
    };
    std::stable_sort(result->rows.begin(), result->rows.end(), less);
    if (stmt.order_desc) {
      std::reverse(result->rows.begin(), result->rows.end());
    }
    if (stmt.limit.has_value() &&
        static_cast<int64_t>(result->rows.size()) > *stmt.limit) {
      result->rows.resize(*stmt.limit);
    }
  }
  return Status::OK();
}

// Grouped/aggregated evaluation over the extended relation.
Result<QueryResult> RunGrouped(const SelectStatement& stmt,
                               const Schema& extended_schema,
                               std::vector<Row> extended_rows) {
  // Every non-aggregate select item must be a GROUP BY name.
  for (const SelectItem& item : stmt.items) {
    if (item.kind == ItemKind::kAggregate) continue;
    if (item.kind == ItemKind::kStar) {
      return Status::InvalidArgument("* is not valid with GROUP BY");
    }
    const std::string name = item.kind == ItemKind::kColumn
                                 ? item.column
                                 : DefaultName(item);
    if (std::find(stmt.group_by.begin(), stmt.group_by.end(), name) ==
        stmt.group_by.end()) {
      return Status::InvalidArgument(
          "'" + name + "' must appear in GROUP BY or an aggregate");
    }
  }

  // Bind group keys and aggregate specs against the extended schema.
  std::vector<int> group_keys;
  for (const std::string& name : stmt.group_by) {
    RELSERVE_ASSIGN_OR_RETURN(int index,
                              extended_schema.FieldIndex(name));
    group_keys.push_back(index);
  }
  std::vector<AggSpec> specs;
  for (const SelectItem& item : stmt.items) {
    if (item.kind != ItemKind::kAggregate) continue;
    AggSpec spec;
    spec.output_name = DefaultName(item);
    switch (item.agg) {
      case AggregateFunc::kCount:
        spec.func = AggFunc::kCount;
        break;
      case AggregateFunc::kSum:
        spec.func = AggFunc::kSum;
        break;
      case AggregateFunc::kAvg:
        spec.func = AggFunc::kAvg;
        break;
      case AggregateFunc::kMin:
        spec.func = AggFunc::kMin;
        break;
      case AggregateFunc::kMax:
        spec.func = AggFunc::kMax;
        break;
    }
    if (item.column != "*") {
      RELSERVE_ASSIGN_OR_RETURN(
          spec.column, extended_schema.FieldIndex(item.column));
    }
    specs.push_back(std::move(spec));
  }

  HashAggregate agg(std::make_unique<MemScan>(std::move(extended_rows),
                                              extended_schema),
                    group_keys, specs);
  RELSERVE_ASSIGN_OR_RETURN(std::vector<Row> agg_rows, Collect(&agg));

  // Reproject (keys..., aggs...) into the select-list order.
  std::vector<int> out_indices;
  std::vector<Column> out_columns;
  int agg_cursor = 0;
  for (const SelectItem& item : stmt.items) {
    if (item.kind == ItemKind::kAggregate) {
      const int index =
          static_cast<int>(group_keys.size()) + agg_cursor;
      out_indices.push_back(index);
      out_columns.push_back(agg.schema().column(index));
      ++agg_cursor;
    } else {
      const std::string name = item.kind == ItemKind::kColumn
                                   ? item.column
                                   : DefaultName(item);
      const auto it =
          std::find(stmt.group_by.begin(), stmt.group_by.end(), name);
      const int index =
          static_cast<int>(it - stmt.group_by.begin());
      out_indices.push_back(index);
      Column column = agg.schema().column(index);
      column.name = DefaultName(item);
      out_columns.push_back(std::move(column));
    }
  }
  QueryResult result;
  result.schema = Schema(std::move(out_columns));
  result.rows.reserve(agg_rows.size());
  for (const Row& row : agg_rows) {
    std::vector<Value> values;
    values.reserve(out_indices.size());
    for (int index : out_indices) values.push_back(row.value(index));
    result.rows.emplace_back(std::move(values));
  }
  return result;
}

}  // namespace

std::string QueryResult::ToString(int64_t max_rows) const {
  std::string out = schema.ToString() + "\n";
  const int64_t n =
      std::min<int64_t>(max_rows, static_cast<int64_t>(rows.size()));
  for (int64_t i = 0; i < n; ++i) {
    out += rows[i].ToString() + "\n";
  }
  if (n < static_cast<int64_t>(rows.size())) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

namespace {

// Executes a parsed SELECT (defined below, after the helpers it
// needs). EXPLAIN ANALYZE runs the query through it before rendering.
Result<QueryResult> ExecuteSelect(ServingSession* session,
                                  const SelectStatement& stmt);

// EXPLAIN: the bound relational pipeline plus each referenced model's
// optimizer plan at the table's current cardinality. With `analyze`,
// each deployed model's compiled stage pipeline follows, including
// the per-stage wall times, rows, bytes and representation-fallback
// counts accumulated so far (the execution that EXPLAIN ANALYZE just
// performed included).
Result<std::string> ExplainSelect(ServingSession* session,
                                  const SelectStatement& stmt,
                                  bool analyze) {
  RELSERVE_ASSIGN_OR_RETURN(TableInfo * table,
                            session->GetTable(stmt.table));
  std::string out;
  const int64_t rows = table->columnar->num_rows();
  out += "ColumnarScan " + stmt.table + " (" + std::to_string(rows) +
         " rows, " + std::to_string(table->columnar->num_fragments()) +
         " fragments x " +
         std::to_string(table->columnar->fragment_rows()) +
         " rows/fragment)\n";
  if (stmt.where != nullptr) {
    RELSERVE_ASSIGN_OR_RETURN(ExprPtr predicate,
                              BindPredicate(*stmt.where, table->schema));
    out += "  Filter: " + predicate->ToString() + "\n";
  }
  if (!stmt.group_by.empty()) {
    out += "  GroupBy:";
    for (const std::string& key : stmt.group_by) out += " " + key;
    out += "\n";
  }
  if (stmt.limit.has_value()) {
    out += "  Limit: " + std::to_string(*stmt.limit) + "\n";
  }
  // The session-owned vectorized stages; with ANALYZE their counters
  // carry the execution this statement just performed.
  ServingSession::ColumnarTableStages* stages =
      session->ColumnarStages(stmt.table);
  out += "  " + RenderStandaloneStage(stages->scan, analyze) + "\n";
  out += "  " + RenderStandaloneStage(stages->gather, analyze) + "\n";
  if (analyze) out += "  " + ScanCostModel::ToString() + "\n";
  for (const SelectItem& item : stmt.items) {
    if (item.kind != ItemKind::kPredict &&
        item.kind != ItemKind::kPredictClass) {
      continue;
    }
    RELSERVE_ASSIGN_OR_RETURN(const Model* model,
                              session->GetModel(item.model));
    RELSERVE_ASSIGN_OR_RETURN(
        InferencePlan plan,
        session->Plan(item.model, ServingMode::kAdaptive,
                      std::max<int64_t>(1, rows)));
    out += plan.ToString(*model);
    if (analyze) {
      Result<std::shared_ptr<const PhysicalPlan>> physical =
          session->DeployedPhysicalPlan(item.model);
      if (physical.ok()) {
        out += (*physical)->ToString(/*analyze=*/true);
      } else {
        out += "PhysicalPlan " + item.model + ": (not deployed)\n";
      }
    }
  }
  return out;
}

}  // namespace

Result<StatementResult> ExecuteStatement(ServingSession* session,
                                         const std::string& sql) {
  RELSERVE_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  StatementResult result;
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      // Re-dispatch through the SELECT path below.
      break;
    }
    case Statement::Kind::kExplainSelect: {
      if (stmt.analyze) {
        // ANALYZE executes the query first (deploying referenced
        // models on first use) so the rendered stage pipeline carries
        // real timings; the row output is discarded.
        RELSERVE_RETURN_NOT_OK(
            ExecuteSelect(session, stmt.select).status());
      }
      RELSERVE_ASSIGN_OR_RETURN(
          result.message,
          ExplainSelect(session, stmt.select, stmt.analyze));
      return result;
    }
    case Statement::Kind::kCreateTable: {
      RELSERVE_RETURN_NOT_OK(
          session
              ->CreateTable(stmt.create.table, Schema(stmt.create.columns))
              .status());
      result.message = "created table " + stmt.create.table;
      return result;
    }
    case Statement::Kind::kInsert: {
      RELSERVE_ASSIGN_OR_RETURN(TableInfo * table,
                                session->GetTable(stmt.insert.table));
      std::vector<Row> rows;
      rows.reserve(stmt.insert.rows.size());
      for (const std::vector<Value>& values : stmt.insert.rows) {
        // Coerce int literals destined for FLOAT64 columns.
        std::vector<Value> coerced = values;
        const int n = std::min(static_cast<int>(coerced.size()),
                               table->schema.num_columns());
        for (int c = 0; c < n; ++c) {
          if (table->schema.column(c).type == ValueType::kFloat64 &&
              coerced[c].type() == ValueType::kInt64) {
            coerced[c] = Value(
                static_cast<double>(coerced[c].AsInt64()));
          }
        }
        rows.emplace_back(std::move(coerced));
      }
      // One atomic transaction through the WAL/MVCC write path. A row
      // of the wrong arity or types, a failed append or a failed commit
      // surfaces its typed Status here with zero rows applied — never
      // a silent success.
      RELSERVE_RETURN_NOT_OK(
          session->IngestRows(stmt.insert.table, rows));
      result.rows_affected = static_cast<int64_t>(rows.size());
      result.message = "inserted " + std::to_string(rows.size()) +
                       " rows into " + stmt.insert.table;
      return result;
    }
    case Statement::Kind::kShowModels: {
      // One row per deployed model: compiled plan count and the
      // logical-vs-physical weight bytes after shared-block
      // resolution through the session's PhysicalBlockIndex.
      result.has_rows = true;
      result.query.schema = Schema({
          Column{"model", ValueType::kString},
          Column{"plans", ValueType::kInt64},
          Column{"logical_bytes", ValueType::kInt64},
          Column{"physical_bytes", ValueType::kInt64},
          Column{"shared_blocks", ValueType::kInt64},
          Column{"total_blocks", ValueType::kInt64},
      });
      for (const ServingSession::DeployedModelInfo& info :
           session->ListDeployedModels()) {
        result.query.rows.emplace_back(std::vector<Value>{
            Value(info.name), Value(int64_t{info.num_plans}),
            Value(info.logical_weight_bytes),
            Value(info.physical_weight_bytes),
            Value(info.shared_blocks), Value(info.total_blocks)});
      }
      return result;
    }
    case Statement::Kind::kUpdate:
    case Statement::Kind::kDelete: {
      const bool is_update = stmt.kind == Statement::Kind::kUpdate;
      const std::string& table_name =
          is_update ? stmt.update.table : stmt.del.table;
      RELSERVE_ASSIGN_OR_RETURN(TableInfo * table,
                                session->GetTable(table_name));
      const Schema& schema = table->schema;
      const Predicate* where =
          is_update ? stmt.update.where.get() : stmt.del.where.get();
      ExprPtr predicate;
      if (where != nullptr) {
        RELSERVE_ASSIGN_OR_RETURN(predicate,
                                  BindPredicate(*where, schema));
      }
      std::vector<std::pair<int, Value>> sets;
      if (is_update) {
        for (const SetClause& set : stmt.update.sets) {
          RELSERVE_ASSIGN_OR_RETURN(int index,
                                    schema.FieldIndex(set.column));
          Value v = set.value;
          if (schema.column(index).type == ValueType::kFloat64 &&
              v.type() == ValueType::kInt64) {
            v = Value(static_cast<double>(v.AsInt64()));
          }
          if (v.type() != schema.column(index).type) {
            return Status::InvalidArgument(
                "column '" + set.column + "' expects " +
                ValueTypeName(schema.column(index).type) + ", got " +
                ValueTypeName(v.type()));
          }
          sets.emplace_back(index, std::move(v));
        }
      }
      // Collect target ordinals at a pinned snapshot: the scan walks
      // every physical row in insertion order (= VisibilityMap
      // ordinal); invisible rows — deleted, superseded, or committed
      // after the pin — are skipped before the WHERE runs.
      const Version snap = session->PinSnapshot();
      const VisibilityMap* vis = table->visibility.get();
      ColumnarRowScan scan(table->columnar.get());
      RELSERVE_RETURN_NOT_OK(scan.Open());
      std::vector<WriteOp> ops;
      Row row;
      int64_t ordinal = 0;
      while (true) {
        RELSERVE_ASSIGN_OR_RETURN(bool has, scan.Next(&row));
        if (!has) break;
        const int64_t ord = ordinal++;
        if (vis != nullptr && !vis->IsVisible(ord, snap)) continue;
        if (predicate != nullptr) {
          RELSERVE_ASSIGN_OR_RETURN(bool pass,
                                    predicate->EvaluateBool(row));
          if (!pass) continue;
        }
        WriteOp op;
        op.ordinal = ord;
        if (is_update) {
          op.kind = WriteOp::Kind::kUpdate;
          std::vector<Value> values = row.values();
          for (const auto& [index, v] : sets) values[index] = v;
          op.row = Row(std::move(values));
        } else {
          op.kind = WriteOp::Kind::kDelete;
        }
        ops.push_back(std::move(op));
      }
      const int64_t affected = static_cast<int64_t>(ops.size());
      RELSERVE_RETURN_NOT_OK(
          session->ApplyWrite(table_name, std::move(ops)));
      result.rows_affected = affected;
      result.message = (is_update ? "updated " : "deleted ") +
                       std::to_string(affected) + " rows in " +
                       table_name;
      return result;
    }
  }
  result.has_rows = true;
  RELSERVE_ASSIGN_OR_RETURN(result.query, ExecuteQuery(session, sql));
  return result;
}

Result<QueryResult> ExecuteQuery(ServingSession* session,
                                 const std::string& query) {
  RELSERVE_ASSIGN_OR_RETURN(SelectStatement stmt, Parse(query));
  return ExecuteSelect(session, stmt);
}

namespace {

Result<QueryResult> ExecuteSelect(ServingSession* session,
                                  const SelectStatement& stmt) {
  RELSERVE_ASSIGN_OR_RETURN(TableInfo * table,
                            session->GetTable(stmt.table));
  const Schema& schema = table->schema;
  // Pin one MVCC snapshot for the whole statement: every scan below
  // evaluates at it, so the result is a consistent cut of history
  // even while concurrent ingest commits land.
  const Version snapshot = session->PinSnapshot();

  ExprPtr predicate;
  if (stmt.where != nullptr) {
    RELSERVE_ASSIGN_OR_RETURN(predicate,
                              BindPredicate(*stmt.where, schema));
  }
  // With ORDER BY, LIMIT applies to the *sorted* output, so it cannot
  // be pushed into the pipeline.
  const bool push_limit =
      stmt.limit.has_value() && !stmt.order_by.has_value();

  // Filter + limit pushdown into the fragment-parallel scan; rows are
  // boxed once, after the filter. The filtered chunks stay in
  // `scanned` so PREDICT items can pivot them straight into GEMM tiles
  // below.
  ColumnarScanOptions opts;
  opts.predicate = predicate;
  opts.snapshot = snapshot;
  if (push_limit) opts.limit = *stmt.limit;
  RELSERVE_ASSIGN_OR_RETURN(ColumnarScanOutput scanned,
                            session->ScanColumnar(*table, opts));
  std::vector<Row> base_rows = scanned.ToRows();

  // Evaluate PREDICT items and append their values as extra columns
  // of an "extended" relation the select list (and any GROUP BY)
  // resolves against.
  std::vector<Column> extended_columns = schema.columns();
  std::vector<Row> extended_rows = std::move(base_rows);
  for (const SelectItem& item : stmt.items) {
    if (item.kind != ItemKind::kPredict &&
        item.kind != ItemKind::kPredictClass) {
      continue;
    }
    extended_columns.push_back(
        Column{DefaultName(item), item.kind == ItemKind::kPredict
                                      ? ValueType::kFloatVector
                                      : ValueType::kInt64});
    const int64_t n = static_cast<int64_t>(extended_rows.size());
    if (n == 0) continue;
    RELSERVE_ASSIGN_OR_RETURN(int col,
                              schema.FieldIndex(item.feature_col));
    const FeatureSource source{
        .scanned = &scanned, .column = col, .table = stmt.table};
    // Deploy on first use (adaptive), then reuse the deployment.
    Result<ExecOutput> out = session->Execute(item.model, source);
    if (!out.ok() && out.status().IsNotFound()) {
      RELSERVE_RETURN_NOT_OK(
          session->Deploy(item.model, ServingMode::kAdaptive, n)
              .status());
      out = session->Execute(item.model, source);
    }
    RELSERVE_RETURN_NOT_OK(out.status());
    RELSERVE_ASSIGN_OR_RETURN(Tensor scores,
                              out->ToTensor(session->exec_context()));
    const int64_t classes = scores.NumElements() / n;
    for (int64_t r = 0; r < n; ++r) {
      const float* row_scores = scores.data() + r * classes;
      if (item.kind == ItemKind::kPredict) {
        // A named cell, not a temporary, keeps GCC 12's
        // -Wmaybe-uninitialized false positive on the variant move quiet.
        Value cell(std::vector<float>(row_scores, row_scores + classes));
        extended_rows[r].Append(std::move(cell));
      } else {
        extended_rows[r].Append(Value(static_cast<int64_t>(
            std::max_element(row_scores, row_scores + classes) -
            row_scores)));
      }
    }
  }
  Schema extended_schema(extended_columns);

  const bool has_aggregates =
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& item) {
                    return item.kind == ItemKind::kAggregate;
                  });
  if (!stmt.group_by.empty() || has_aggregates) {
    RELSERVE_ASSIGN_OR_RETURN(
        QueryResult grouped,
        RunGrouped(stmt, extended_schema, std::move(extended_rows)));
    RELSERVE_RETURN_NOT_OK(ApplyOrderAndLimit(stmt, &grouped));
    return grouped;
  }

  // Plain projection over the extended relation.
  QueryResult result;
  std::vector<Column> out_columns;
  std::vector<int> out_indices;
  for (const SelectItem& item : stmt.items) {
    if (item.kind == ItemKind::kStar) {
      for (int c = 0; c < schema.num_columns(); ++c) {
        out_columns.push_back(schema.column(c));
        out_indices.push_back(c);
      }
      continue;
    }
    const std::string name = item.kind == ItemKind::kColumn
                                 ? item.column
                                 : DefaultName(item);
    RELSERVE_ASSIGN_OR_RETURN(int index,
                              extended_schema.FieldIndex(name));
    Column column = extended_schema.column(index);
    column.name = DefaultName(item);
    out_columns.push_back(std::move(column));
    out_indices.push_back(index);
  }
  result.schema = Schema(std::move(out_columns));
  result.rows.reserve(extended_rows.size());
  for (const Row& row : extended_rows) {
    std::vector<Value> values;
    values.reserve(out_indices.size());
    for (int index : out_indices) values.push_back(row.value(index));
    result.rows.emplace_back(std::move(values));
  }
  RELSERVE_RETURN_NOT_OK(ApplyOrderAndLimit(stmt, &result));
  return result;
}

}  // namespace

}  // namespace sql
}  // namespace relserve
