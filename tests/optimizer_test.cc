#include <gtest/gtest.h>

#include "graph/model.h"
#include "graph/model_zoo.h"
#include "optimizer/decomposition.h"
#include "optimizer/optimizer.h"

namespace relserve {
namespace {

TEST(EstimatorTest, MatMulFollowsPaperRule) {
  // m x k inputs, k x n weight: estimate = (m*k + k*n + m*n) floats.
  auto model = BuildFFNN("m", {100, 50, 10}, 1);
  ASSERT_TRUE(model.ok());
  const int64_t batch = 32;
  auto bytes = EstimateNodeBytes(*model, /*node_id=*/1, batch);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, (batch * 100 + 100 * 50 + batch * 50) * 4);
}

TEST(EstimatorTest, ElementwiseOpsCountInAndOut) {
  auto model = BuildFFNN("m", {10, 20, 2}, 1);
  ASSERT_TRUE(model.ok());
  // Node 3 is the Relu over [batch, 20].
  auto bytes = EstimateNodeBytes(*model, 3, 8);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, (8 * 20 + 8 * 20) * 4);
}

TEST(EstimatorTest, GrowsWithBatch) {
  auto model = BuildFFNN("m", {10, 20, 2}, 1);
  ASSERT_TRUE(model.ok());
  auto small = EstimateNodeBytes(*model, 1, 1);
  auto large = EstimateNodeBytes(*model, 1, 1000);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GT(*large, *small);
}

TEST(OptimizerTest, SmallModelIsAllUdf) {
  auto model = BuildFFNN("fraud", {28, 256, 2}, 1);
  ASSERT_TRUE(model.ok());
  RuleBasedOptimizer opt(64LL << 20);  // 64 MB threshold
  auto plan = opt.Optimize(*model, 1000);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->AllUdf());
}

// A batch size whose byte estimate overflows int64 is a typed
// InvalidArgument. Unchecked, 2^58 read as negative estimates and
// 2^62 wrapped to a few KiB per node: an all-UDF plan.
TEST(OptimizerTest, OverflowingBatchIsInvalidArgument) {
  auto model = BuildFFNN("fraud", {28, 256, 2}, 1);
  ASSERT_TRUE(model.ok());
  RuleBasedOptimizer opt(64LL << 20);
  for (const int shift : {58, 62}) {
    const int64_t batch = int64_t{1} << shift;
    EXPECT_TRUE(opt.Optimize(*model, batch).status().IsInvalidArgument())
        << "2^" << shift;
    // The first matmul's input, [batch, 28] floats, no longer fits.
    EXPECT_TRUE(
        EstimateNodeBytes(*model, 1, batch).status().IsInvalidArgument())
        << "2^" << shift;
  }
  // A huge batch that still fits int64 plans every node
  // relation-centric.
  auto plan = opt.Optimize(*model, int64_t{1} << 40);
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const NodeDecision& d : plan->decisions) {
    EXPECT_GT(d.estimated_bytes, 0);
    EXPECT_EQ(d.repr, Repr::kRelational) << "node " << d.node_id;
  }
}

TEST(OptimizerTest, LargeLayerGoesRelational) {
  // Amazon-14k-FC at 1% scale: the first matmul's weight alone is
  // ~24 MB, far above a 4 MB threshold.
  auto spec = zoo::Table1FcSpecs(0.01)[3];
  auto model = zoo::BuildFromSpec(spec, 1);
  ASSERT_TRUE(model.ok());
  RuleBasedOptimizer opt(4LL << 20);
  auto plan = opt.Optimize(*model, 100);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->AllUdf());
  EXPECT_EQ(plan->decisions[1].repr, Repr::kRelational);  // big matmul
  // Tiny output-layer softmax stays UDF.
  EXPECT_EQ(plan->decisions.back().repr, Repr::kUdf);
}

TEST(OptimizerTest, ThresholdBoundaryIsStrictlyGreater) {
  auto model = BuildFFNN("m", {10, 10, 10}, 1);
  ASSERT_TRUE(model.ok());
  auto bytes = EstimateNodeBytes(*model, 1, 4);
  ASSERT_TRUE(bytes.ok());
  // Threshold exactly equal to the estimate: stays UDF ("exceeds").
  RuleBasedOptimizer at(*bytes);
  auto plan = at.Optimize(*model, 4);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->decisions[1].repr, Repr::kUdf);
  RuleBasedOptimizer below(*bytes - 1);
  plan = below.Optimize(*model, 4);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->decisions[1].repr, Repr::kRelational);
}

TEST(OptimizerTest, BatchSizeFlipsDecision) {
  auto model = BuildFFNN("m", {1000, 100, 10}, 1);
  ASSERT_TRUE(model.ok());
  RuleBasedOptimizer opt(1LL << 20);  // 1 MB
  auto small = opt.Optimize(*model, 1);
  auto large = opt.Optimize(*model, 10000);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_EQ(small->decisions[1].repr, Repr::kUdf);
  EXPECT_EQ(large->decisions[1].repr, Repr::kRelational);
}

TEST(OptimizerTest, PlanExplainIsReadable) {
  auto model = BuildFFNN("m", {4, 4, 2}, 1);
  ASSERT_TRUE(model.ok());
  RuleBasedOptimizer opt(1 << 20);
  auto plan = opt.Optimize(*model, 2);
  ASSERT_TRUE(plan.ok());
  const std::string text = plan->ToString(*model);
  EXPECT_NE(text.find("MatMul"), std::string::npos);
  EXPECT_NE(text.find("udf"), std::string::npos);
}

TEST(DecompositionTest, ApplicabilityCheck) {
  auto reducing = BuildFFNN("m", {968, 256, 2}, 1);
  ASSERT_TRUE(reducing.ok());
  EXPECT_TRUE(CanDecomposeFirstLayer(*reducing));
  auto expanding = BuildFFNN("m", {28, 256, 2}, 1);
  ASSERT_TRUE(expanding.ok());
  EXPECT_FALSE(CanDecomposeFirstLayer(*expanding));
}

TEST(DecompositionTest, SplitWeightsPartitionColumns) {
  auto model = BuildFFNN("m", {10, 4, 2}, 3);
  ASSERT_TRUE(model.ok());
  auto split = SplitFirstLayerWeights(*model, 6, nullptr);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->w1.shape(), (Shape{4, 6}));
  EXPECT_EQ(split->w2.shape(), (Shape{4, 4}));
  auto w = model->GetWeight("w0");
  ASSERT_TRUE(w.ok());
  EXPECT_FLOAT_EQ(split->w1.At(2, 3), (*w)->At(2, 3));
  EXPECT_FLOAT_EQ(split->w2.At(2, 1), (*w)->At(2, 7));
}

TEST(DecompositionTest, SplitRejectsBadWidth) {
  auto model = BuildFFNN("m", {10, 4, 2}, 3);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(SplitFirstLayerWeights(*model, 0, nullptr).ok());
  EXPECT_FALSE(SplitFirstLayerWeights(*model, 10, nullptr).ok());
}

TEST(DecompositionTest, TailModelSkipsFirstMatMul) {
  auto model = BuildFFNN("m", {10, 4, 2}, 3);
  ASSERT_TRUE(model.ok());
  auto tail = BuildTailModel(*model);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->sample_shape(), (Shape{4}));
  // input + bias + relu + matmul + bias + softmax
  EXPECT_EQ(tail->nodes().size(), 6u);
  EXPECT_EQ(tail->node(1).kind, OpKind::kBiasAdd);
  EXPECT_TRUE(tail->GetWeight("b0").ok());
  EXPECT_TRUE(tail->GetWeight("w1").ok());
  EXPECT_FALSE(tail->GetWeight("w0").ok());  // pushed down
}

}  // namespace
}  // namespace relserve
