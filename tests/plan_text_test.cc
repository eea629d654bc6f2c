// Golden-text tests for plan rendering: InferencePlan::ToString (the
// logical annotation) and PhysicalPlan::ToString (the compiled stage
// pipeline EXPLAIN shows). Catches silent IR drift — a fusion-rule or
// lowering change must show up here as a diff, deliberately.

#include <gtest/gtest.h>

#include <cstring>

#include "engine/hybrid_executor.h"
#include "engine/physical_plan.h"
#include "engine/physical_plan.h"
#include "graph/model.h"
#include "optimizer/optimizer.h"
#include "storage/buffer_pool.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

class PlanTextTest : public ::testing::Test {
 protected:
  PlanTextTest() : disk_(), pool_(&disk_, 256), tracker_("work") {
    ctx_.tracker = &tracker_;
    ctx_.buffer_pool = &pool_;
    ctx_.block_rows = 8;
    ctx_.block_cols = 8;
  }

  Result<std::unique_ptr<PhysicalPlan>> Compile(
      const Model& model, const InferencePlan& plan,
      bool fuse = true) {
    PhysicalPlan::Options options;
    options.fuse_elementwise = fuse;
    return PhysicalPlan::Compile(&model, plan, &ctx_, options);
  }

  DiskManager disk_;
  BufferPool pool_;
  MemoryTracker tracker_;
  ExecContext ctx_;
};

TEST_F(PlanTextTest, LogicalPlanGolden) {
  auto model = BuildFFNN("m", {4, 3, 2}, 7);
  ASSERT_TRUE(model.ok());
  const InferencePlan plan = MakeForcedPlan(*model, Repr::kUdf, 2);
  EXPECT_EQ(plan.ToString(*model),
            "Plan for m @ batch 2 (threshold 0 B)\n"
            "  #0 Input est=0B -> udf\n"
            "  #1 MatMul est=0B -> udf\n"
            "  #2 BiasAdd est=0B -> udf\n"
            "  #3 Relu est=0B -> udf\n"
            "  #4 MatMul est=0B -> udf\n"
            "  #5 BiasAdd est=0B -> udf\n"
            "  #6 Softmax est=0B -> udf\n");
}

TEST_F(PlanTextTest, AllUdfPhysicalGolden) {
  auto model = BuildFFNN("m", {4, 3, 2}, 7);
  ASSERT_TRUE(model.ok());
  auto plan = Compile(*model, MakeForcedPlan(*model, Repr::kUdf, 2));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->ToString(),
            "PhysicalPlan m: 2 stages, 4 fused ops\n"
            "  [0] matmul(w0)+bias+relu udf out=[batch, 3]"
            " est=0B flops=0\n"
            "  [1] matmul(w1)+bias+softmax udf out=[batch, 2]"
            " est=0B flops=0\n");
}

TEST_F(PlanTextTest, AllRelationalPhysicalGolden) {
  auto model = BuildFFNN("m", {4, 3, 2}, 7);
  ASSERT_TRUE(model.ok());
  auto plan =
      Compile(*model, MakeForcedPlan(*model, Repr::kRelational, 2));
  ASSERT_TRUE(plan.ok());
  // Softmax needs whole rows: it cannot ride the block-matmul
  // epilogue and lowers to its own row-strip stage.
  EXPECT_EQ((*plan)->ToString(),
            "PhysicalPlan m: 4 stages, 3 fused ops\n"
            "  [0] input-chunk relational out=[batch, 4]"
            " est=0B flops=0\n"
            "  [1] block-matmul(w0)+bias+relu relational"
            " out=[batch, 3] est=0B flops=0\n"
            "  [2] block-matmul(w1)+bias relational out=[batch, 2]"
            " est=0B flops=0\n"
            "  [3] block-softmax relational out=[batch, 2]"
            " est=0B flops=0\n");
}

TEST_F(PlanTextTest, MixedPhysicalGoldenWithTransition) {
  auto model = BuildFFNN("m", {4, 3, 2}, 7);
  ASSERT_TRUE(model.ok());
  // First layer relational, second UDF: the compiler must emit an
  // explicit blocked->whole transition at the boundary.
  InferencePlan mixed = MakeForcedPlan(*model, Repr::kRelational, 2);
  for (int id = 4; id <= 6; ++id) {
    mixed.decisions[id].repr = Repr::kUdf;
  }
  auto plan = Compile(*model, mixed);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->ToString(),
            "PhysicalPlan m: 4 stages, 4 fused ops\n"
            "  [0] input-chunk relational out=[batch, 4]"
            " est=0B flops=0\n"
            "  [1] block-matmul(w0)+bias+relu relational"
            " out=[batch, 3] est=0B flops=0\n"
            "  [2] to-whole udf out=[batch, 3] est=12B flops=0\n"
            "  [3] matmul(w1)+bias+softmax udf out=[batch, 2]"
            " est=0B flops=0\n");
}

// A bias and relu the optimizer left UDF-centric between two
// relational matmuls ride the first join's per-block epilogue: the
// activation stays blocked into the second join, with no to-whole /
// to-blocked round trip, and the output keeps the unfused plan's bits.
TEST_F(PlanTextTest, UdfBiasReluFusesIntoBlockJoin) {
  auto model = BuildFFNN("m", {20, 19, 13, 2}, 7);
  ASSERT_TRUE(model.ok());
  InferencePlan mixed = MakeForcedPlan(*model, Repr::kRelational, 11);
  for (int id = 5; id <= 6; ++id) {  // b1, relu after w1
    ASSERT_TRUE(model->nodes()[id].kind == OpKind::kBiasAdd ||
                model->nodes()[id].kind == OpKind::kRelu);
    mixed.decisions[id].repr = Repr::kUdf;
  }
  auto fused = Compile(*model, mixed);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ((*fused)->ToString(),
            "PhysicalPlan m: 5 stages, 5 fused ops\n"
            "  [0] input-chunk relational out=[batch, 20]"
            " est=0B flops=0\n"
            "  [1] block-matmul(w0)+bias+relu relational"
            " out=[batch, 19] est=0B flops=0\n"
            "  [2] block-matmul(w1)+bias+relu relational"
            " out=[batch, 13] est=0B flops=0\n"
            "  [3] block-matmul(w2)+bias relational out=[batch, 2]"
            " est=0B flops=0\n"
            "  [4] block-softmax relational out=[batch, 2]"
            " est=0B flops=0\n");
  // The optimizer's decisions are untouched.
  EXPECT_EQ((*fused)->logical_plan().decisions[5].repr, Repr::kUdf);

  auto unfused = Compile(*model, mixed, /*fuse=*/false);
  ASSERT_TRUE(unfused.ok());
  EXPECT_NE((*unfused)->ToString().find("to-whole"), std::string::npos);
  auto input = workloads::GenBatch(11, Shape{20}, 3);
  ASSERT_TRUE(input.ok());
  auto run = [&](const PhysicalPlan& plan) {
    auto out = HybridExecutor::Run(plan, *input, &ctx_);
    EXPECT_TRUE(out.ok());
    auto t = out->ToTensor(&ctx_);
    EXPECT_TRUE(t.ok());
    return *t;
  };
  const Tensor want = run(**unfused);
  const Tensor got = run(**fused);
  ASSERT_EQ(want.NumElements(), got.NumElements());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           static_cast<size_t>(want.ByteSize())));
}

TEST_F(PlanTextTest, UnfusedPhysicalGolden) {
  auto model = BuildFFNN("m", {4, 3, 2}, 7);
  ASSERT_TRUE(model.ok());
  auto plan = Compile(*model, MakeForcedPlan(*model, Repr::kUdf, 2),
                      /*fuse=*/false);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->ToString(),
            "PhysicalPlan m: 6 stages, 0 fused ops (fusion disabled)\n"
            "  [0] matmul(w0) udf out=[batch, 3] est=0B flops=0\n"
            "  [1] elementwise+bias udf out=[batch, 3]"
            " est=0B flops=0\n"
            "  [2] elementwise+relu udf out=[batch, 3]"
            " est=0B flops=0\n"
            "  [3] matmul(w1) udf out=[batch, 2] est=0B flops=0\n"
            "  [4] elementwise+bias udf out=[batch, 2]"
            " est=0B flops=0\n"
            "  [5] elementwise+softmax udf out=[batch, 2]"
            " est=0B flops=0\n");
}

TEST_F(PlanTextTest, AnalyzeRenderingCarriesStageStats) {
  auto model = BuildFFNN("m", {4, 3, 2}, 7);
  ASSERT_TRUE(model.ok());
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 2), &ctx_);
  ASSERT_TRUE(compiled.ok());
  auto input = workloads::GenBatch(2, Shape{4}, 3);
  ASSERT_TRUE(input.ok());
  auto out = HybridExecutor::Run(**compiled, *input, &ctx_);
  ASSERT_TRUE(out.ok());

  const std::string text = (*compiled)->ToString(true);
  EXPECT_NE(text.find("calls=1"), std::string::npos) << text;
  EXPECT_NE(text.find("rows=2"), std::string::npos) << text;
  EXPECT_NE(text.find("avg_us="), std::string::npos) << text;
  // bytes = batch * out_width * 4 for the final stage.
  EXPECT_NE(text.find("bytes=16"), std::string::npos) << text;
  int64_t invocations = 0;
  for (const auto& stage : (*compiled)->stages()) {
    invocations += stage->stats.invocations;
  }
  EXPECT_EQ(invocations, 2);
}

// The optimizer annotates cost and footprint; compilation sums them
// over fused stages so EXPLAIN shows per-stage work.
TEST_F(PlanTextTest, CompiledStagesCarryOptimizerAnnotations) {
  auto model = BuildFFNN("m", {4, 3, 2}, 7);
  ASSERT_TRUE(model.ok());
  RuleBasedOptimizer optimizer(/*memory_threshold_bytes=*/1 << 20);
  auto plan = optimizer.Optimize(*model, 2);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->decisions[1].estimated_flops, 0.0);
  auto physical = Compile(*model, *plan);
  ASSERT_TRUE(physical.ok());
  const auto& stages = (*physical)->stages();
  ASSERT_EQ(stages.size(), 2u);
  // Stage 0 fuses matmul+bias+relu: its flops must exceed the matmul
  // node's alone.
  EXPECT_GT(stages[0]->estimated_flops,
            plan->decisions[1].estimated_flops);
  EXPECT_GT(stages[0]->estimated_bytes, 0);
}

}  // namespace
}  // namespace relserve
