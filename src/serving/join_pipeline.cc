#include "serving/join_pipeline.h"

#include <cstring>
#include <memory>

#include "engine/hybrid_executor.h"
#include "kernels/kernels.h"
#include "optimizer/decomposition.h"
#include "relational/operator.h"
#include "relational/vectorized.h"

namespace relserve {

namespace {

struct SideInfo {
  TableInfo* table = nullptr;
  int key_col = -1;
  int feature_col = -1;
};

Result<SideInfo> ResolveSide(ServingSession* session,
                             const std::string& table_name,
                             const JoinInferenceSpec& spec) {
  SideInfo side;
  RELSERVE_ASSIGN_OR_RETURN(side.table, session->GetTable(table_name));
  RELSERVE_ASSIGN_OR_RETURN(side.key_col,
                            side.table->schema.FieldIndex(spec.key_col));
  RELSERVE_ASSIGN_OR_RETURN(
      side.feature_col, side.table->schema.FieldIndex(spec.feature_col));
  return side;
}

// A row scan of `table` at `snapshot`: deleted and superseded row
// versions never reach the model.
std::unique_ptr<ColumnarRowScan> SnapshotScan(const TableInfo& table,
                                              Version snapshot) {
  auto scan = std::make_unique<ColumnarRowScan>(table.columnar.get());
  scan->set_visibility(table.visibility.get(), snapshot);
  return scan;
}

// Runs the model all-UDF on an in-memory batch.
Result<Tensor> RunWholeModel(ServingSession* session, const Model& model,
                             const Tensor& input) {
  ExecContext* ctx = session->exec_context();
  RELSERVE_ASSIGN_OR_RETURN(
      std::unique_ptr<PhysicalPlan> plan,
      PhysicalPlan::Compile(
          &model, MakeForcedPlan(model, Repr::kUdf, input.shape().dim(0)),
          ctx));
  RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                            HybridExecutor::Run(*plan, input, ctx));
  return out.ToTensor(ctx);
}

}  // namespace

Result<JoinInferenceResult> RunJoinThenInfer(
    ServingSession* session, const JoinInferenceSpec& spec) {
  RELSERVE_ASSIGN_OR_RETURN(SideInfo d1,
                            ResolveSide(session, spec.d1_table, spec));
  RELSERVE_ASSIGN_OR_RETURN(SideInfo d2,
                            ResolveSide(session, spec.d2_table, spec));
  RELSERVE_ASSIGN_OR_RETURN(const Model* model,
                            session->GetModel(spec.model));

  // join(D1, D2) with the full wide tuples flowing through the join;
  // both sides read one snapshot.
  const Version snapshot = session->PinSnapshot();
  SimilarityJoin join(SnapshotScan(*d1.table, snapshot),
                      SnapshotScan(*d2.table, snapshot), d1.key_col,
                      d2.key_col, spec.epsilon);
  const int right_feature_col =
      d1.table->schema.num_columns() + d2.feature_col;

  // Concatenate the two feature vectors of every joined tuple.
  RELSERVE_RETURN_NOT_OK(join.Open());
  std::vector<float> staging;
  int64_t matches = 0;
  int64_t width = -1;
  Row row;
  while (true) {
    RELSERVE_ASSIGN_OR_RETURN(bool has, join.Next(&row));
    if (!has) break;
    const std::vector<float>& f1 =
        row.value(d1.feature_col).AsFloatVector();
    const std::vector<float>& f2 =
        row.value(right_feature_col).AsFloatVector();
    if (width < 0) width = static_cast<int64_t>(f1.size() + f2.size());
    staging.insert(staging.end(), f1.begin(), f1.end());
    staging.insert(staging.end(), f2.begin(), f2.end());
    ++matches;
  }
  if (matches == 0) {
    return Status::InvalidArgument("similarity join produced no rows");
  }
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor input,
      Tensor::FromData(Shape{matches, width}, staging,
                       session->working_memory()));

  JoinInferenceResult result;
  result.join_matches = matches;
  RELSERVE_ASSIGN_OR_RETURN(result.predictions,
                            RunWholeModel(session, *model, input));
  return result;
}

Result<JoinInferenceResult> RunDecomposedInfer(
    ServingSession* session, const JoinInferenceSpec& spec) {
  RELSERVE_ASSIGN_OR_RETURN(SideInfo d1,
                            ResolveSide(session, spec.d1_table, spec));
  RELSERVE_ASSIGN_OR_RETURN(SideInfo d2,
                            ResolveSide(session, spec.d2_table, spec));
  RELSERVE_ASSIGN_OR_RETURN(const Model* model,
                            session->GetModel(spec.model));
  if (!CanDecomposeFirstLayer(*model)) {
    return Status::InvalidArgument(
        "model's first layer does not reduce dimensionality; "
        "decomposition is not profitable");
  }
  ExecContext* ctx = session->exec_context();
  MemoryTracker* arena = session->working_memory();

  // Materialize each partition's features and keys once, both at one
  // snapshot.
  const Version snapshot = session->PinSnapshot();
  auto load_side = [&](const SideInfo& side, Tensor* features,
                       std::vector<double>* keys) -> Status {
    std::unique_ptr<ColumnarRowScan> scan =
        SnapshotScan(*side.table, snapshot);
    RELSERVE_RETURN_NOT_OK(scan->Open());
    std::vector<float> staging;
    Row row;
    int64_t n = 0;
    int64_t width = -1;
    while (true) {
      RELSERVE_ASSIGN_OR_RETURN(bool has, scan->Next(&row));
      if (!has) break;
      const std::vector<float>& f =
          row.value(side.feature_col).AsFloatVector();
      if (width < 0) width = static_cast<int64_t>(f.size());
      staging.insert(staging.end(), f.begin(), f.end());
      keys->push_back(row.value(side.key_col).AsNumeric());
      ++n;
    }
    if (n == 0) return Status::InvalidArgument("empty partition");
    RELSERVE_ASSIGN_OR_RETURN(
        *features, Tensor::FromData(Shape{n, width}, staging, arena));
    return Status::OK();
  };

  Tensor x1, x2;
  std::vector<double> keys1, keys2;
  RELSERVE_RETURN_NOT_OK(load_side(d1, &x1, &keys1));
  RELSERVE_RETURN_NOT_OK(load_side(d2, &x2, &keys2));

  // Push-down: partial first-layer products per partition.
  RELSERVE_ASSIGN_OR_RETURN(
      SplitWeights split,
      SplitFirstLayerWeights(*model, x1.shape().dim(1), arena));
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor p1, kernels::MatMul(x1, split.w1, /*transpose_b=*/true,
                                 arena, ctx->pool));
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor p2, kernels::MatMul(x2, split.w2, /*transpose_b=*/true,
                                 arena, ctx->pool));
  const int64_t hidden = p1.shape().dim(1);

  // The join now flows narrow tuples: (key, partition row index).
  Schema slim_schema({{"key", ValueType::kFloat64},
                      {"idx", ValueType::kInt64}});
  auto make_slim = [&](const std::vector<double>& keys) {
    std::vector<Row> rows;
    rows.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      rows.emplace_back(std::vector<Value>{
          Value(keys[i]), Value(static_cast<int64_t>(i))});
    }
    return std::make_unique<MemScan>(std::move(rows), slim_schema);
  };
  SimilarityJoin join(make_slim(keys1), make_slim(keys2), /*left_key=*/0,
                      /*right_key=*/0, spec.epsilon);
  RELSERVE_RETURN_NOT_OK(join.Open());
  std::vector<std::pair<int64_t, int64_t>> pairs;
  Row row;
  while (true) {
    RELSERVE_ASSIGN_OR_RETURN(bool has, join.Next(&row));
    if (!has) break;
    pairs.emplace_back(row.value(1).AsInt64(), row.value(3).AsInt64());
  }
  if (pairs.empty()) {
    return Status::InvalidArgument("similarity join produced no rows");
  }

  // Combine partials: H[m] = P1[i] + P2[j] (the distributed W x D).
  const int64_t matches = static_cast<int64_t>(pairs.size());
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor h, Tensor::Create(Shape{matches, hidden}, arena));
  for (int64_t m = 0; m < matches; ++m) {
    const float* a = p1.data() + pairs[m].first * hidden;
    const float* b = p2.data() + pairs[m].second * hidden;
    float* dst = h.data() + m * hidden;
    for (int64_t c = 0; c < hidden; ++c) dst[c] = a[c] + b[c];
  }

  // The rest of the model runs unchanged on the narrow activations.
  RELSERVE_ASSIGN_OR_RETURN(Model tail, BuildTailModel(*model));
  JoinInferenceResult result;
  result.join_matches = matches;
  RELSERVE_ASSIGN_OR_RETURN(result.predictions,
                            RunWholeModel(session, tail, h));
  return result;
}

}  // namespace relserve
