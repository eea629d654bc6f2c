#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "engine/external_runtime.h"
#include "graph/model.h"
#include "kernels/kernels.h"
#include "relational/operator.h"
#include "relational/vectorized.h"
#include "serving/model_versions.h"
#include "serving/join_pipeline.h"
#include "serving/request_scheduler.h"
#include "serving/serving_session.h"
#include "sql/query_executor.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

ServingConfig SmallConfig() {
  ServingConfig config;
  config.buffer_pool_pages = 256;
  config.working_memory_bytes = 64LL << 20;
  config.memory_threshold_bytes = 1LL << 20;
  config.block_rows = 16;
  config.block_cols = 16;
  config.num_threads = 2;
  return config;
}

class ServingTest : public ::testing::Test {
 protected:
  ServingTest() : session_(SmallConfig()) {}

  void LoadFraudSetup(int64_t rows = 100) {
    auto table =
        session_.CreateTable("tx", workloads::FeatureTableSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(workloads::FillFeatureTable(*table, rows, 28, 1).ok());
    auto model = BuildFFNN("fraud", {28, 64, 2}, 2);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());
  }

  Tensor PredictTable(const std::string& table) {
    auto out = session_.Predict("fraud", table);
    EXPECT_TRUE(out.ok()) << table << ": " << out.status();
    auto t = out->ToTensor(session_.exec_context());
    EXPECT_TRUE(t.ok());
    return *t;
  }

  // The compiled plans SHOW MODELS lists for `model` (0 if unlisted).
  int NumPlans(const std::string& model) {
    for (const auto& info : session_.ListDeployedModels()) {
      if (info.name == model) return info.num_plans;
    }
    return 0;
  }

  // Runs one SQL statement that must succeed.
  void Sql(const std::string& statement) {
    auto result = sql::ExecuteStatement(&session_, statement);
    ASSERT_TRUE(result.ok()) << statement << ": " << result.status();
  }

  ServingSession session_;
};

TEST_F(ServingTest, DeployReturnsInspectablePlan) {
  LoadFraudSetup();
  auto plan = session_.Deploy("fraud", ServingMode::kAdaptive, 100);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->AllUdf());  // small model under the threshold
  EXPECT_FALSE((*plan)->ToString(**session_.GetModel("fraud")).empty());
}

TEST_F(ServingTest, DeployUnknownModelFails) {
  EXPECT_TRUE(session_.Deploy("nope", ServingMode::kAdaptive, 1)
                  .status()
                  .IsNotFound());
}

TEST_F(ServingTest, PredictOverTable) {
  LoadFraudSetup(50);
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kAdaptive, 50).ok());
  auto out = session_.Predict("fraud", "tx");
  ASSERT_TRUE(out.ok()) << out.status();
  auto scores = out->ToTensor(session_.exec_context());
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->shape(), (Shape{50, 2}));
  for (int64_t r = 0; r < 50; ++r) {
    EXPECT_NEAR(scores->At(r, 0) + scores->At(r, 1), 1.0f, 1e-4f);
  }
}

TEST_F(ServingTest, PredictRequiresDeploy) {
  LoadFraudSetup();
  EXPECT_TRUE(
      session_.Predict("fraud", "tx").status().IsNotFound());
}

TEST_F(ServingTest, ForcedModesAgreeOnPredictions) {
  LoadFraudSetup(30);
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kForceUdf, 30).ok());
  const Tensor udf = PredictTable("tx");
  ASSERT_TRUE(
      session_.Deploy("fraud", ServingMode::kForceRelational, 30).ok());
  const Tensor rel = PredictTable("tx");
  EXPECT_LT(udf.MaxAbsDiff(rel), 1e-5f);
}

TEST_F(ServingTest, PredictRejectsNonVectorFeatureColumn) {
  LoadFraudSetup(20);
  for (const ServingMode mode :
       {ServingMode::kForceUdf, ServingMode::kForceRelational}) {
    ASSERT_TRUE(session_.Deploy("fraud", mode, 20).ok());
    // "id" is INT64: a typed error, never a crash or a garbage read.
    auto out = session_.Predict("fraud", "tx", "id");
    EXPECT_TRUE(out.status().IsInvalidArgument()) << out.status();
  }
}

TEST_F(ServingTest, StreamedColumnarPredictChargesGatherStage) {
  LoadFraudSetup(40);
  ASSERT_TRUE(
      session_.Deploy("fraud", ServingMode::kForceRelational, 40).ok());
  auto out = session_.Predict("fraud", "tx");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->blocked());
  const StageStats& gather = session_.ColumnarStages("tx")->gather.stats;
  EXPECT_EQ(gather.invocations.load(), 1);
  EXPECT_EQ(gather.rows.load(), 40);
}

TEST_F(ServingTest, RelationalPredictStreamsInput) {
  LoadFraudSetup(40);
  ASSERT_TRUE(
      session_.Deploy("fraud", ServingMode::kForceRelational, 40).ok());
  const int64_t before = session_.working_memory()->peak_bytes();
  auto out = session_.Predict("fraud", "tx");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->blocked());
  // Peak working memory grew by far less than the whole batch
  // (40 x 28 floats = 4480 B would be the materialized input alone;
  // blocks are 16x16).
  (void)before;
  EXPECT_GT(session_.exec_context()->stats.blocks_written, 0);
}

TEST_F(ServingTest, PredictBatchMatchesPredictOverTable) {
  LoadFraudSetup(20);
  // Rebuild the table's batch by hand.
  auto table = session_.GetTable("tx");
  ASSERT_TRUE(table.ok());
  ColumnarRowScan scan((*table)->columnar.get());
  ASSERT_TRUE(scan.Open().ok());
  auto input = Tensor::Create(Shape{20, 28});
  ASSERT_TRUE(input.ok());
  Row row;
  int64_t r = 0;
  while (true) {
    auto has = scan.Next(&row);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    const auto& f = row.value(1).AsFloatVector();
    std::copy(f.begin(), f.end(), input->data() + r * 28);
    ++r;
  }
  ASSERT_EQ(r, 20);
  // The table feed (gathered into one tile, or streamed into a block
  // relation) matches the dense feed bit for bit in every mode.
  for (const ServingMode mode :
       {ServingMode::kForceUdf, ServingMode::kForceRelational}) {
    ASSERT_TRUE(session_.Deploy("fraud", mode, 20).ok());
    const Tensor expected = PredictTable("tx");
    auto batch_out = session_.PredictBatch("fraud", *input);
    ASSERT_TRUE(batch_out.ok());
    auto got = batch_out->ToTensor(session_.exec_context());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(expected.MaxAbsDiff(*got), 0.0f);
  }
}

TEST_F(ServingTest, DlCentricOffloadMatchesInDatabase) {
  LoadFraudSetup(25);
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kForceUdf, 25).ok());
  ExternalRuntime runtime("sim-tf", 64LL << 20);
  ASSERT_TRUE(session_.OffloadModel("fraud", &runtime).ok());
  auto remote = session_.PredictViaRuntime("fraud", "tx");
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto local = session_.Predict("fraud", "tx");
  ASSERT_TRUE(local.ok());
  auto local_t = local->ToTensor(session_.exec_context());
  ASSERT_TRUE(local_t.ok());
  EXPECT_LT(local_t->MaxAbsDiff(*remote), 1e-6f);
  EXPECT_EQ(runtime.stats().requests.load(), 1);
}

// The runtime export scans one snapshot: a deleted row and the old
// version of an updated row never reach the model.
TEST_F(ServingTest, DlCentricOffloadSkipsDeletedAndSupersededRows) {
  Sql("CREATE TABLE t (id INT64, features FLOAT_VECTOR)");
  Sql("INSERT INTO t VALUES (1, [0.1, 0.2, 0.3, 0.4]), "
      "(2, [0.5, 0.6, 0.7, 0.8]), (3, [0.9, 1.0, 1.1, 1.2]), "
      "(4, [1.3, 1.4, 1.5, 1.6])");
  Sql("DELETE FROM t WHERE id = 2");
  Sql("UPDATE t SET features = [2.0, 2.1, 2.2, 2.3] WHERE id = 3");
  auto model = BuildFFNN("m", {4, 8, 2}, 3);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());
  ASSERT_TRUE(session_.Deploy("m", ServingMode::kForceUdf, 3).ok());
  ExternalRuntime runtime("sim-tf", 64LL << 20);
  ASSERT_TRUE(session_.OffloadModel("m", &runtime).ok());

  auto remote = session_.PredictViaRuntime("m", "t");
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto local = session_.Predict("m", "t");
  ASSERT_TRUE(local.ok()) << local.status();
  auto local_t = local->ToTensor(session_.exec_context());
  ASSERT_TRUE(local_t.ok());
  EXPECT_EQ(remote->shape().dim(0), 3);
  ASSERT_EQ(remote->shape(), local_t->shape());
  EXPECT_EQ(local_t->MaxAbsDiff(*remote), 0.0f);
}

TEST_F(ServingTest, PredictViaRuntimeWithoutOffloadFails) {
  LoadFraudSetup();
  EXPECT_TRUE(session_.PredictViaRuntime("fraud", "tx")
                  .status()
                  .IsNotFound());
}

TEST_F(ServingTest, CacheServesRepeatsAndMatchesModel) {
  LoadFraudSetup();
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kForceUdf, 8).ok());
  ApproxResultCache::Config config;
  config.max_distance = 1e-6f;  // effectively exact
  ASSERT_TRUE(session_.EnableApproxCache("fraud", 28, config).ok());

  auto batch = workloads::GenBatch(8, Shape{28}, 3);
  ASSERT_TRUE(batch.ok());
  auto first = session_.PredictWithCache("fraud", *batch);
  ASSERT_TRUE(first.ok()) << first.status();
  auto cache = session_.GetApproxCache("fraud");
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ((*cache)->stats().hits, 0);
  EXPECT_EQ((*cache)->size(), 8);

  auto second = session_.PredictWithCache("fraud", *batch);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*cache)->stats().hits, 8);
  EXPECT_LT(first->MaxAbsDiff(*second), 1e-5f);

  // Cached predictions equal direct model output.
  auto direct = session_.PredictBatch("fraud", *batch);
  ASSERT_TRUE(direct.ok());
  auto direct_t = direct->ToTensor(session_.exec_context());
  ASSERT_TRUE(direct_t.ok());
  EXPECT_LT(first->MaxAbsDiff(*direct_t), 1e-5f);

  // An empty batch: no hit, no miss, the same answer PredictBatch gives.
  auto empty = Tensor::Create(Shape{0, 28});
  ASSERT_TRUE(empty.ok());
  auto cached_empty = session_.PredictWithCache("fraud", *empty);
  ASSERT_TRUE(cached_empty.ok()) << cached_empty.status();
  auto direct_empty = session_.PredictBatch("fraud", *empty);
  ASSERT_TRUE(direct_empty.ok()) << direct_empty.status();
  EXPECT_EQ(cached_empty->shape(), direct_empty->tensor.shape());
}

TEST_F(ServingTest, ApproxCacheRejectsDimOtherThanSampleWidth) {
  LoadFraudSetup();
  ApproxResultCache::Config config;
  // Non-positive (the index would abort), 2^32 + 16 (an int narrowing
  // would make a 16-wide cache) and width + 1 (every insert would
  // fail): each is a typed failure that leaves no cache behind.
  for (const int64_t dim : {int64_t{0}, int64_t{-1},
                            (int64_t{1} << 32) + 16, int64_t{29}}) {
    EXPECT_TRUE(session_.EnableApproxCache("fraud", dim, config)
                    .IsInvalidArgument())
        << dim;
  }
  EXPECT_TRUE(session_.GetApproxCache("fraud").status().IsNotFound());
  EXPECT_TRUE(session_.EnableApproxCache("nope", 28, config).IsNotFound());
  ASSERT_TRUE(session_.EnableApproxCache("fraud", 28, config).ok());
  auto cache = session_.GetApproxCache("fraud");
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ((*cache)->index().dim(), 28);
}

TEST_F(ServingTest, ExactCacheTierHasNoAccuracyCost) {
  LoadFraudSetup();
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kForceUdf, 8).ok());
  ASSERT_TRUE(session_.EnableExactCache("fraud").ok());

  auto batch = workloads::GenBatch(8, Shape{28}, 3);
  ASSERT_TRUE(batch.ok());
  auto first = session_.PredictWithCache("fraud", *batch);
  ASSERT_TRUE(first.ok()) << first.status();
  auto cache = session_.GetExactCache("fraud");
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ((*cache)->stats().hits, 0);

  // Identical bytes: all hits, bit-identical predictions.
  auto second = session_.PredictWithCache("fraud", *batch);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*cache)->stats().hits, 8);
  EXPECT_FLOAT_EQ(first->MaxAbsDiff(*second), 0.0f);

  // A perturbed batch misses the exact tier entirely.
  auto nudged = batch->Clone();
  ASSERT_TRUE(nudged.ok());
  nudged->data()[0] += 1e-6f;
  auto third = session_.PredictWithCache("fraud", *nudged);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*cache)->stats().hits, 8 + 7);  // only row 0 missed
}

TEST_F(ServingTest, ExactTierConsultedBeforeApprox) {
  LoadFraudSetup();
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kForceUdf, 4).ok());
  ASSERT_TRUE(session_.EnableExactCache("fraud").ok());
  ApproxResultCache::Config config;
  config.max_distance = 100.0f;  // approx would hit everything
  ASSERT_TRUE(session_.EnableApproxCache("fraud", 28, config).ok());

  auto batch = workloads::GenBatch(4, Shape{28}, 9);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(session_.PredictWithCache("fraud", *batch).ok());
  ASSERT_TRUE(session_.PredictWithCache("fraud", *batch).ok());
  auto exact = session_.GetExactCache("fraud");
  auto approx = session_.GetApproxCache("fraud");
  ASSERT_TRUE(exact.ok() && approx.ok());
  // Second pass was served by the exact tier; the approximate index
  // never saw those lookups.
  EXPECT_EQ((*exact)->stats().hits, 4);
  EXPECT_EQ((*approx)->stats().hits, 0);
}

TEST_F(ServingTest, CacheRequiredForPredictWithCache) {
  LoadFraudSetup();
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kForceUdf, 4).ok());
  auto batch = workloads::GenBatch(4, Shape{28}, 9);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(session_.PredictWithCache("fraud", *batch)
                  .status()
                  .IsNotFound());
}

TEST_F(ServingTest, JoinPipelineNaiveMatchesDecomposed) {
  auto d1 =
      session_.CreateTable("d1", workloads::PartitionedTableSchema());
  auto d2 =
      session_.CreateTable("d2", workloads::PartitionedTableSchema());
  ASSERT_TRUE(d1.ok() && d2.ok());
  ASSERT_TRUE(
      workloads::FillBoschPartitions(*d1, *d2, 60, 12, 0.05, 11).ok());
  auto model = BuildFFNN("bosch", {24, 8, 2}, 4);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());

  JoinInferenceSpec spec;
  spec.d1_table = "d1";
  spec.d2_table = "d2";
  spec.epsilon = 0.2;
  spec.model = "bosch";

  auto naive = RunJoinThenInfer(&session_, spec);
  ASSERT_TRUE(naive.ok()) << naive.status();
  auto decomposed = RunDecomposedInfer(&session_, spec);
  ASSERT_TRUE(decomposed.ok()) << decomposed.status();
  EXPECT_EQ(naive->join_matches, decomposed->join_matches);
  EXPECT_EQ(naive->predictions.shape(),
            decomposed->predictions.shape());
  EXPECT_LT(naive->predictions.MaxAbsDiff(decomposed->predictions),
            1e-4f);
}

// Both join sides scan one snapshot, naive and decomposed: after a
// DELETE on one side and an UPDATE on the other, the join sees exactly
// the visible rows — the same result as tables that only ever held
// those rows.
TEST_F(ServingTest, JoinInferenceSkipsDeletedAndSupersededRows) {
  for (const char* table : {"d1", "d2", "r1", "r2"}) {
    Sql(std::string("CREATE TABLE ") + table +
        " (id INT64, sim_key FLOAT64, features FLOAT_VECTOR)");
  }
  const std::string rows[] = {"(1, 1.0, [0.1, 0.2])", "(2, 2.0, [0.3, 0.4])",
                              "(3, 3.0, [0.5, 0.6])", "(4, 4.0, [0.7, 0.8])"};
  const std::string updated = "(3, 3.0, [0.9, 1.0])";
  Sql("INSERT INTO d1 VALUES " + rows[0] + ", " + rows[1] + ", " +
      rows[2] + ", " + rows[3]);
  Sql("INSERT INTO d2 VALUES " + rows[0] + ", " + rows[1] + ", " +
      rows[2] + ", " + rows[3]);
  Sql("DELETE FROM d1 WHERE id = 2");
  Sql("UPDATE d2 SET features = [0.9, 1.0] WHERE id = 3");
  // The visible rows, in the physical order the scans emit them (an
  // UPDATE appends the new version).
  Sql("INSERT INTO r1 VALUES " + rows[0] + ", " + rows[2] + ", " +
      rows[3]);
  Sql("INSERT INTO r2 VALUES " + rows[0] + ", " + rows[1] + ", " +
      rows[3] + ", " + updated);
  auto model = BuildFFNN("m", {4, 3, 2}, 3);  // 4 -> 3 decomposes
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());

  for (auto run : {RunJoinThenInfer, RunDecomposedInfer}) {
    JoinInferenceSpec spec;
    spec.d1_table = "d1";
    spec.d2_table = "d2";
    spec.epsilon = 0.1;
    spec.model = "m";
    auto joined = run(&session_, spec);
    ASSERT_TRUE(joined.ok()) << joined.status();
    spec.d1_table = "r1";
    spec.d2_table = "r2";
    auto reference = run(&session_, spec);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(joined->join_matches, 3);
    EXPECT_EQ(reference->join_matches, 3);
    ASSERT_EQ(joined->predictions.shape(),
              reference->predictions.shape());
    EXPECT_EQ(joined->predictions.MaxAbsDiff(reference->predictions),
              0.0f);
  }
}

TEST_F(ServingTest, DecomposedRejectsNonReducingModel) {
  auto d1 =
      session_.CreateTable("d1", workloads::PartitionedTableSchema());
  auto d2 =
      session_.CreateTable("d2", workloads::PartitionedTableSchema());
  ASSERT_TRUE(d1.ok() && d2.ok());
  ASSERT_TRUE(
      workloads::FillBoschPartitions(*d1, *d2, 10, 4, 0.05, 1).ok());
  auto model = BuildFFNN("wide", {8, 64, 2}, 4);  // 8 -> 64 expands
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());
  JoinInferenceSpec spec;
  spec.d1_table = "d1";
  spec.d2_table = "d2";
  spec.model = "wide";
  EXPECT_TRUE(
      RunDecomposedInfer(&session_, spec).status().IsInvalidArgument());
}

TEST_F(ServingTest, AotCompilesDistinctPlanVariants) {
  // A model whose big first layer flips representation with batch
  // size under the 1 MiB test threshold.
  auto model = BuildFFNN("sized", {2000, 64, 4}, 2);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());
  // batch 1/2 share the all-UDF signature; the large batches lower at
  // least the first layer. Variants dedupe by signature, so fewer
  // plans than batch sizes are compiled.
  auto variants = session_.DeployAot("sized", {1, 2, 2000, 4000});
  ASSERT_TRUE(variants.ok()) << variants.status();
  EXPECT_GE(*variants, 2);
  EXPECT_LT(*variants, 4);
  EXPECT_EQ(NumPlans("sized"), *variants);

  // Runtime selection: both batch regimes serve without Deploy().
  auto small = workloads::GenBatch(1, Shape{2000}, 1);
  ASSERT_TRUE(small.ok());
  auto small_out = session_.PredictBatch("sized", *small);
  ASSERT_TRUE(small_out.ok()) << small_out.status();
  EXPECT_FALSE(small_out->blocked());
  auto large = workloads::GenBatch(4000, Shape{2000}, 1);
  ASSERT_TRUE(large.ok());
  auto large_out = session_.PredictBatch("sized", *large);
  ASSERT_TRUE(large_out.ok()) << large_out.status();

  // The two variants compute the same function.
  auto small_t = small_out->ToTensor(session_.exec_context());
  ASSERT_TRUE(small_t.ok());
  auto large_t = large_out->ToTensor(session_.exec_context());
  ASSERT_TRUE(large_t.ok());
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(small_t->At(0, c), large_t->At(0, c), 1e-4f);
  }
}

TEST_F(ServingTest, AotRequiresBatchSizes) {
  LoadFraudSetup();
  EXPECT_TRUE(
      session_.DeployAot("fraud", {}).status().IsInvalidArgument());
  EXPECT_EQ(NumPlans("fraud"), 0);
}

// The int8 packs a compiled plan stores, and how many of its stages
// run the int8 arm.
struct Int8Packs {
  int64_t bytes = 0;
  int stages = 0;
};

Int8Packs CountInt8Packs(const PhysicalPlan& plan) {
  Int8Packs packs;
  std::set<const kernels::Weight*> seen;
  for (const auto& stage : plan.stages()) {
    if (stage->weight == nullptr || !stage->weight->int8()) continue;
    EXPECT_EQ(stage->label.rfind("int8-matmul", 0), 0u) << stage->label;
    packs.stages += 1;
    if (seen.insert(stage->weight).second) {
      packs.bytes += stage->weight->ByteSize();
    }
  }
  return packs;
}

TEST_F(ServingTest, QuantizedVersionTradeoff) {
  LoadFraudSetup();
  auto versions = CreateQuantizedVersion(&session_, "fraud",
                                         /*probe_batch=*/32, 7);
  ASSERT_TRUE(versions.ok()) << versions.status();
  ASSERT_EQ(versions->size(), 2u);
  const ModelVersion& base = (*versions)[0];
  const ModelVersion& int8 = (*versions)[1];
  EXPECT_EQ(base.model_name, "fraud");
  EXPECT_EQ(int8.model_name, "fraud@int8");
  // The version stores only the int8 packs of fraud's two matmul
  // weights (28->64, 64->2). Each output channel holds its row padded
  // to a multiple of 32 lanes, a 4-byte scale and an 8-byte row sum:
  // 64 * (32 + 12) + 2 * (64 + 12) = 2968 B, against 7944 B of fp32
  // weights and biases in the base (0.37x).
  EXPECT_EQ(base.weight_bytes, 7944);
  EXPECT_EQ(int8.weight_bytes, 2968);
  EXPECT_LT(int8.weight_bytes * 5, base.weight_bytes * 2);
  // Small but nonzero output error.
  EXPECT_GT(int8.max_output_error, 0.0f);
  EXPECT_LT(int8.max_output_error, 0.2f);
  // The quantized version is a registered, servable model, and the
  // bytes it reports are the int8 packs its deployed plan stores.
  ASSERT_TRUE(
      session_.Deploy("fraud@int8", ServingMode::kForceUdf, 8).ok());
  auto batch = workloads::GenBatch(8, Shape{28}, 5);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(session_.PredictBatch("fraud@int8", *batch).ok());
  auto deployed = session_.DeployedPhysicalPlan("fraud@int8");
  ASSERT_TRUE(deployed.ok());
  EXPECT_EQ(CountInt8Packs(**deployed).bytes, int8.weight_bytes);

  // SLA selection: a loose bound picks the small version, a bound
  // tighter than the measured error falls back to the base, an
  // impossible bound finds nothing.
  auto loose = SelectVersionForSla(*versions, 1.0f);
  ASSERT_TRUE(loose.ok());
  EXPECT_EQ(*loose, "fraud@int8");
  auto tight = SelectVersionForSla(
      *versions, int8.max_output_error / 2);
  ASSERT_TRUE(tight.ok());
  EXPECT_EQ(*tight, "fraud");
  EXPECT_TRUE(SelectVersionForSla(*versions, -1.0f)
                  .status()
                  .IsNotFound());
}

TEST_F(ServingTest, QuantizedVersionSharesEveryBaseWeightBuffer) {
  LoadFraudSetup();
  ASSERT_TRUE(CreateQuantizedVersion(&session_, "fraud", 32, 7).ok());
  const Model* base = *session_.GetModel("fraud");
  const Model* version = *session_.GetModel("fraud@int8");
  ASSERT_EQ(version->weights().size(), base->weights().size());
  for (const auto& [name, weight] : base->weights()) {
    auto shared = version->GetWeight(name);
    ASSERT_TRUE(shared.ok()) << name;
    EXPECT_EQ((*shared)->data(), weight.data()) << name;
  }
  EXPECT_EQ((*version->GetWeight("w1"))->data(),
            (*base->GetWeight("w1"))->data());
  EXPECT_EQ((*version->GetWeight("b1"))->data(),
            (*base->GetWeight("b1"))->data());
}

TEST_F(ServingTest, QuantizedVersionRunsInt8InEveryUdfMode) {
  LoadFraudSetup();
  auto versions = CreateQuantizedVersion(&session_, "fraud", 32, 7);
  ASSERT_TRUE(versions.ok()) << versions.status();
  const int64_t pack_bytes = (*versions)[1].weight_bytes;
  for (ServingMode mode : {ServingMode::kForceUdf, ServingMode::kAdaptive}) {
    ASSERT_TRUE(session_.Deploy("fraud@int8", mode, 8).ok());
    auto deployed = session_.DeployedPhysicalPlan("fraud@int8");
    ASSERT_TRUE(deployed.ok());
    const Int8Packs packs = CountInt8Packs(**deployed);
    EXPECT_EQ(packs.stages, 2);
    EXPECT_EQ(packs.bytes, pack_bytes);
  }
  // The base keeps its fp32 arm.
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kAdaptive, 8).ok());
  EXPECT_EQ(CountInt8Packs(**session_.DeployedPhysicalPlan("fraud")).stages,
            0);

  // AoT compiles the same arm: batches 1 and 32 share one all-UDF int8
  // variant, which binds the int8 packs plus the base's fp32 biases.
  // With nothing else deployed, the arena holds only the biases
  // fraud@int8's plans bind (the int8 packs live outside it).
  ASSERT_TRUE(session_.Undeploy("fraud").ok());
  ASSERT_TRUE(session_.Undeploy("fraud@int8").ok());
  const int64_t undeployed_bytes = session_.working_memory()->used_bytes();
  auto compiled = session_.DeployAot("fraud@int8", {1, 32});
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(*compiled, 1);
  const Model* base = *session_.GetModel("fraud");
  const int64_t bias_bytes = (*base->GetWeight("b0"))->ByteSize() +
                             (*base->GetWeight("b1"))->ByteSize();
  bool listed = false;
  for (const auto& info : session_.ListDeployedModels()) {
    if (info.name != "fraud@int8") continue;
    listed = true;
    EXPECT_EQ(info.num_plans, 1);
    EXPECT_EQ(info.logical_weight_bytes, pack_bytes + bias_bytes);
  }
  EXPECT_TRUE(listed);
  for (int64_t rows : {1, 32}) {
    auto batch = workloads::GenBatch(rows, Shape{28}, 11);
    ASSERT_TRUE(batch.ok());
    EXPECT_TRUE(session_.PredictBatch("fraud@int8", *batch).ok()) << rows;
  }

  // A Deploy()-ed plan beside the AoT variant: one model, two plans.
  // One Undeploy drops both: the model leaves SHOW MODELS, the arena
  // gets every byte of both plans back, and the next predict is a
  // typed NotFound.
  ASSERT_TRUE(
      session_.Deploy("fraud@int8", ServingMode::kForceUdf, 8).ok());
  EXPECT_EQ(NumPlans("fraud@int8"), 2);
  EXPECT_GT(session_.working_memory()->used_bytes(), undeployed_bytes);
  ASSERT_TRUE(session_.Undeploy("fraud@int8").ok());
  auto shown = sql::ExecuteStatement(&session_, "SHOW MODELS");
  ASSERT_TRUE(shown.ok()) << shown.status();
  EXPECT_EQ(shown->query.rows.size(), 0u);
  EXPECT_EQ(session_.working_memory()->used_bytes(), undeployed_bytes);
  auto batch = workloads::GenBatch(8, Shape{28}, 11);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(
      session_.PredictBatch("fraud@int8", *batch).status().IsNotFound());
  EXPECT_TRUE(
      session_.DeployedPhysicalPlan("fraud@int8").status().IsNotFound());
  EXPECT_TRUE(session_.Undeploy("fraud@int8").IsNotFound());
}

TEST_F(ServingTest, QuantizedVersionOfWideFfnnTakesUnderThirtyPercent) {
  // At wider layers the per-channel scale and row sum amortize: the
  // packs approach a quarter of the fp32 bytes (0.26x here).
  auto model = BuildFFNN("wide", {256, 512, 16}, 4);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());
  auto versions = CreateQuantizedVersion(&session_, "wide", 16, 3);
  ASSERT_TRUE(versions.ok()) << versions.status();
  const ModelVersion& base = (*versions)[0];
  const ModelVersion& int8 = (*versions)[1];
  EXPECT_EQ(int8.weight_bytes, 512 * (256 + 12) + 16 * (512 + 12));
  EXPECT_LE(int8.weight_bytes * 10, base.weight_bytes * 3);
  EXPECT_GT(int8.max_output_error, 0.0f);
}

// fp32 UDF-centric matmuls run on B panels packed at deploy, which
// replace the resident fp32 copy; the int8 version's matmuls run its
// int8 packs instead. Prepacking keeps every output bit: each batch
// size (short tiles, a full tile and past it) equals a reference that
// walks the graph with kernels::MatMul on the model's weights and the
// same epilogue kernels.
TEST_F(ServingTest, FpMatMulStagesRunOnPrepackedWeights) {
  LoadFraudSetup();
  ASSERT_TRUE(CreateQuantizedVersion(&session_, "fraud", 32, 7).ok());
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kForceUdf, 8).ok());
  ASSERT_TRUE(
      session_.Deploy("fraud@int8", ServingMode::kForceUdf, 8).ok());
  const Model* model = *session_.GetModel("fraud");
  auto plan = session_.DeployedPhysicalPlan("fraud");
  ASSERT_TRUE(plan.ok());
  int packed_stages = 0;
  for (const auto& stage : (*plan)->stages()) {
    if (stage->kind != StageKind::kMatMul) continue;
    ASSERT_NE(stage->weight->panel(), nullptr) << stage->label;
    auto weight =
        model->GetWeight(model->nodes()[stage->node_id].weight_name);
    ASSERT_TRUE(weight.ok());
    EXPECT_EQ(stage->weight->n, (*weight)->shape().dim(0));
    EXPECT_EQ(stage->weight->k, (*weight)->shape().dim(1));
    packed_stages += 1;
  }
  EXPECT_EQ(packed_stages, 2);
  auto int8_plan = session_.DeployedPhysicalPlan("fraud@int8");
  ASSERT_TRUE(int8_plan.ok());
  for (const auto& stage : (*int8_plan)->stages()) {
    if (stage->kind != StageKind::kMatMul) continue;
    EXPECT_EQ(stage->weight->panel(), nullptr) << stage->label;
    EXPECT_NE(stage->weight->int8(), nullptr) << stage->label;
  }

  for (const int64_t rows : {1, 5, 7, 64}) {
    SCOPED_TRACE(testing::Message() << "batch " << rows);
    auto batch = workloads::GenBatch(rows, Shape{28}, 13);
    ASSERT_TRUE(batch.ok());
    auto out = session_.PredictBatch("fraud", *batch);
    ASSERT_TRUE(out.ok()) << out.status();
    auto got = out->ToTensor(session_.exec_context());
    ASSERT_TRUE(got.ok());
    auto want = batch->Clone();
    ASSERT_TRUE(want.ok());
    for (const Node& node : model->nodes()) {
      const Tensor* weight = nullptr;
      if (!node.weight_name.empty()) {
        weight = *model->GetWeight(node.weight_name);
      }
      switch (node.kind) {
        case OpKind::kInput:
          break;
        case OpKind::kMatMul: {
          auto product = kernels::MatMul(*want, *weight,
                                         /*transpose_b=*/true);
          ASSERT_TRUE(product.ok());
          want = std::move(product);
          break;
        }
        case OpKind::kBiasAdd:
          ASSERT_TRUE(kernels::BiasAddInPlace(&*want, *weight).ok());
          break;
        case OpKind::kRelu:
          kernels::ReluInPlace(&*want);
          break;
        case OpKind::kSoftmax:
          ASSERT_TRUE(kernels::SoftmaxRowsInPlace(&*want).ok());
          break;
        default:
          FAIL() << "unexpected node in an FFNN";
      }
    }
    ASSERT_EQ(got->shape(), want->shape());
    EXPECT_EQ(0, std::memcmp(got->data(), want->data(),
                             static_cast<size_t>(got->ByteSize())));
  }
}

TEST_F(ServingTest, RedeployReleasesOldResidentWeights) {
  LoadFraudSetup();
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kForceUdf, 10).ok());
  const int64_t after_first = session_.working_memory()->used_bytes();
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kForceUdf, 10).ok());
  EXPECT_EQ(session_.working_memory()->used_bytes(), after_first);
}

TEST_F(ServingTest, SchedulerMatchesDirectCall) {
  LoadFraudSetup();
  ASSERT_TRUE(session_.Deploy("fraud", ServingMode::kForceUdf, 8).ok());
  auto batch = workloads::GenBatch(3, Shape{28}, 11);
  ASSERT_TRUE(batch.ok());
  auto direct = session_.PredictBatch("fraud", *batch);
  ASSERT_TRUE(direct.ok());
  auto expected = direct->ToTensor(session_.exec_context());
  ASSERT_TRUE(expected.ok());

  RequestScheduler scheduler(&session_, SchedulerConfig{});
  auto got = scheduler.PredictBatch("fraud", *batch);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->shape(), expected->shape());
  EXPECT_EQ(got->MaxAbsDiff(*expected), 0.0f);

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted.load(), 1);
  EXPECT_EQ(stats.batches.load(), 1);
  EXPECT_EQ(stats.total_rows.load(), 3);
}

}  // namespace
}  // namespace relserve
