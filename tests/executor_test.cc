#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "engine/block_ops.h"
#include "engine/hybrid_executor.h"
#include "engine/physical_plan.h"
#include "graph/model.h"
#include "graph/model_zoo.h"
#include "kernels/kernels.h"
#include "optimizer/optimizer.h"
#include "storage/buffer_pool.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : disk_(), pool_(&disk_, 256), tracker_("work") {
    ctx_.tracker = &tracker_;
    ctx_.buffer_pool = &pool_;
    ctx_.block_rows = 8;
    ctx_.block_cols = 8;
  }

  Result<Tensor> RunWithPlan(const Model& model, InferencePlan plan,
                             const Tensor& input) {
    RELSERVE_ASSIGN_OR_RETURN(
        std::unique_ptr<PhysicalPlan> compiled,
        PhysicalPlan::Compile(&model, std::move(plan), &ctx_));
    RELSERVE_ASSIGN_OR_RETURN(
        ExecOutput out, HybridExecutor::Run(*compiled, input, &ctx_));
    return out.ToTensor(&ctx_);
  }

  Result<Tensor> RunWithOptions(const Model& model, InferencePlan plan,
                                const Tensor& input, bool fuse) {
    PhysicalPlan::Options options;
    options.fuse_elementwise = fuse;
    RELSERVE_ASSIGN_OR_RETURN(
        std::unique_ptr<PhysicalPlan> compiled,
        PhysicalPlan::Compile(&model, std::move(plan), &ctx_, options));
    RELSERVE_ASSIGN_OR_RETURN(
        ExecOutput out, HybridExecutor::Run(*compiled, input, &ctx_));
    return out.ToTensor(&ctx_);
  }

  DiskManager disk_;
  BufferPool pool_;
  MemoryTracker tracker_;
  ExecContext ctx_;
};

TEST_F(ExecutorTest, UdfFfnnMatchesManualComputation) {
  auto model = BuildFFNN("m", {3, 4, 2}, 5);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(2, Shape{3}, 9);
  ASSERT_TRUE(input.ok());

  auto got = RunWithPlan(*model, MakeForcedPlan(*model, Repr::kUdf, 0), *input);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->shape(), (Shape{2, 2}));

  // Manual forward pass with the kernels.
  auto h = kernels::MatMul(*input, **model->GetWeight("w0"), true);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(
      kernels::BiasAddInPlace(&*h, **model->GetWeight("b0")).ok());
  kernels::ReluInPlace(&*h);
  auto o = kernels::MatMul(*h, **model->GetWeight("w1"), true);
  ASSERT_TRUE(o.ok());
  ASSERT_TRUE(
      kernels::BiasAddInPlace(&*o, **model->GetWeight("b1")).ok());
  ASSERT_TRUE(kernels::SoftmaxRowsInPlace(&*o).ok());
  EXPECT_LT(got->MaxAbsDiff(*o), 1e-6f);
}

TEST_F(ExecutorTest, RelationalFfnnMatchesUdf) {
  auto model = BuildFFNN("m", {20, 30, 5}, 5);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(17, Shape{20}, 9);
  ASSERT_TRUE(input.ok());
  auto udf = RunWithPlan(*model, MakeForcedPlan(*model, Repr::kUdf, 0), *input);
  auto rel = RunWithPlan(*model, MakeForcedPlan(*model, Repr::kRelational, 0),
                         *input);
  ASSERT_TRUE(udf.ok());
  ASSERT_TRUE(rel.ok());
  EXPECT_LT(udf->MaxAbsDiff(*rel), 1e-5f);
}

TEST_F(ExecutorTest, MixedPlanMatchesUdf) {
  auto model = BuildFFNN("m", {12, 40, 3}, 2);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(10, Shape{12}, 4);
  ASSERT_TRUE(input.ok());
  // First layer relational, rest UDF: exercises the blocked->whole
  // transition mid-model.
  InferencePlan mixed = MakeForcedPlan(*model, Repr::kUdf, 0);
  mixed.decisions[0].repr = Repr::kRelational;
  mixed.decisions[1].repr = Repr::kRelational;
  mixed.decisions[2].repr = Repr::kRelational;
  auto udf = RunWithPlan(*model, MakeForcedPlan(*model, Repr::kUdf, 0), *input);
  auto got = RunWithPlan(*model, std::move(mixed), *input);
  ASSERT_TRUE(udf.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_LT(udf->MaxAbsDiff(*got), 1e-5f);
  EXPECT_GE(ctx_.stats.assembles, 1);
}

TEST_F(ExecutorTest, UdfCnnMatchesRelationalCnn) {
  ConvLayerSpec conv{3, 2, 2, 1, /*relu=*/true, /*maxpool=*/false};
  auto model = BuildCNN("cnn", Shape{6, 6, 2}, {conv}, {}, 3);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(2, Shape{6, 6, 2}, 11);
  ASSERT_TRUE(input.ok());
  auto udf = RunWithPlan(*model, MakeForcedPlan(*model, Repr::kUdf, 0), *input);
  auto rel = RunWithPlan(*model, MakeForcedPlan(*model, Repr::kRelational, 0),
                         *input);
  ASSERT_TRUE(udf.ok());
  ASSERT_TRUE(rel.ok());
  // Relational conv output stays blocked [batch, pixels*channels];
  // compare flattened.
  auto udf_flat = udf->Reshape(rel->shape());
  ASSERT_TRUE(udf_flat.ok());
  EXPECT_LT(udf_flat->MaxAbsDiff(*rel), 1e-5f);
}

TEST_F(ExecutorTest, CnnWithPoolAndFcRuns) {
  auto model = zoo::BuildCachingCnn(4);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(3, Shape{28, 28, 1}, 8);
  ASSERT_TRUE(input.ok());
  auto out = RunWithPlan(*model, MakeForcedPlan(*model, Repr::kUdf, 0), *input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{3, 10}));
  // Softmax rows sum to 1.
  for (int64_t r = 0; r < 3; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 10; ++c) sum += out->At(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST_F(ExecutorTest, UdfOomsWhenArenaTooSmallButRelationalSucceeds) {
  auto model = BuildFFNN("m", {64, 128, 4}, 6);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(64, Shape{64}, 3);
  ASSERT_TRUE(input.ok());

  // Arena smaller than weights + activations: whole-tensor prepare or
  // execution must OOM.
  MemoryTracker small("small", 40 * 1024);
  ExecContext tight = ctx_;
  tight.tracker = &small;
  auto udf_compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &tight);
  bool oomed = false;
  if (!udf_compiled.ok()) {
    oomed = udf_compiled.status().IsOutOfMemory();
  } else {
    auto out = HybridExecutor::Run(**udf_compiled, *input, &tight);
    oomed = !out.ok() && out.status().IsOutOfMemory();
  }
  EXPECT_TRUE(oomed);

  // The same arena runs the model relation-centric: block working set
  // fits.
  MemoryTracker small2("small2", 40 * 1024);
  ExecContext tight2 = ctx_;
  tight2.tracker = &small2;
  auto rel_compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kRelational, 0), &tight2);
  ASSERT_TRUE(rel_compiled.ok()) << rel_compiled.status();
  auto out = HybridExecutor::Run(**rel_compiled, *input, &tight2);
  ASSERT_TRUE(out.ok()) << out.status();
  auto tensor = out->ToTensor(&ctx_);  // assemble via the big arena
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ(tensor->shape(), (Shape{64, 4}));
}

TEST_F(ExecutorTest, RunOnStoreMatchesRunOnTensor) {
  auto model = BuildFFNN("m", {10, 16, 3}, 7);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(9, Shape{10}, 2);
  ASSERT_TRUE(input.ok());
  auto plan = MakeForcedPlan(*model, Repr::kRelational, 0);
  auto compiled = PhysicalPlan::Compile(&*model, plan, &ctx_);
  ASSERT_TRUE(compiled.ok());

  auto from_tensor = HybridExecutor::Run(**compiled, *input, &ctx_);
  ASSERT_TRUE(from_tensor.ok());
  auto expected = from_tensor->ToTensor(&ctx_);
  ASSERT_TRUE(expected.ok());

  auto writer = blockops::MatrixStreamWriter::Create(9, 10, &ctx_);
  ASSERT_TRUE(writer.ok());
  for (int64_t r = 0; r < 9; ++r) {
    ASSERT_TRUE(writer->AppendRow(input->data() + r * 10).ok());
  }
  auto store = writer->Finish();
  ASSERT_TRUE(store.ok());
  auto from_store =
      HybridExecutor::RunOnStore(**compiled, std::move(*store), &ctx_);
  ASSERT_TRUE(from_store.ok());
  auto got = from_store->ToTensor(&ctx_);
  ASSERT_TRUE(got.ok());
  EXPECT_LT(expected->MaxAbsDiff(*got), 1e-5f);
}

TEST_F(ExecutorTest, InputTensorIsNotMutated) {
  auto model = BuildFFNN("m", {4, 4, 2}, 1);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(2, Shape{4}, 5);
  ASSERT_TRUE(input.ok());
  auto before = input->Clone();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(
      RunWithPlan(*model, MakeForcedPlan(*model, Repr::kUdf, 0), *input).ok());
  EXPECT_FLOAT_EQ(input->MaxAbsDiff(*before), 0.0f);
}

TEST_F(ExecutorTest, ArenaFullyReleasedAfterQuery) {
  auto model = BuildFFNN("m", {8, 16, 2}, 1);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(4, Shape{8}, 5);
  ASSERT_TRUE(input.ok());
  {
    auto compiled = PhysicalPlan::Compile(
        &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx_);
    ASSERT_TRUE(compiled.ok());
    auto out = HybridExecutor::Run(**compiled, *input, &ctx_);
    ASSERT_TRUE(out.ok());
  }
  // Prepared weights and all intermediates are out of scope.
  EXPECT_EQ(tracker_.used_bytes(), 0);
}

// Fusing the bias/relu/softmax epilogue into the producing stage must
// not perturb a single bit: the fused path calls the same kernels in
// the same order on the same buffers. Exercised across odd/tail shapes
// where blocked layouts leave partial 8x8 blocks.
TEST_F(ExecutorTest, FusedMatchesUnfusedBitIdenticalUdf) {
  auto model = BuildFFNN("m", {13, 7, 5, 3}, 5);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(9, Shape{13}, 21);
  ASSERT_TRUE(input.ok());
  auto fused = RunWithOptions(*model, MakeForcedPlan(*model, Repr::kUdf, 0),
                              *input, /*fuse=*/true);
  auto plain = RunWithOptions(*model, MakeForcedPlan(*model, Repr::kUdf, 0),
                              *input, /*fuse=*/false);
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_FLOAT_EQ(fused->MaxAbsDiff(*plain), 0.0f);
}

TEST_F(ExecutorTest, FusedMatchesUnfusedBitIdenticalRelational) {
  // 13/7/5/3 widths and batch 9 are all non-multiples of the 8x8 block
  // geometry, so every stage sees ragged tail blocks.
  auto model = BuildFFNN("m", {13, 7, 5, 3}, 5);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(9, Shape{13}, 21);
  ASSERT_TRUE(input.ok());
  auto fused = RunWithOptions(
      *model, MakeForcedPlan(*model, Repr::kRelational, 0), *input,
      /*fuse=*/true);
  auto plain = RunWithOptions(
      *model, MakeForcedPlan(*model, Repr::kRelational, 0), *input,
      /*fuse=*/false);
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_FLOAT_EQ(fused->MaxAbsDiff(*plain), 0.0f);
}

TEST_F(ExecutorTest, FusedMatchesUnfusedBitIdenticalMixed) {
  auto model = BuildFFNN("m", {13, 7, 5, 3}, 5);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(9, Shape{13}, 21);
  ASSERT_TRUE(input.ok());
  // First layer relational, rest UDF: fusion must stay bit-exact
  // across the repr transition too.
  InferencePlan mixed = MakeForcedPlan(*model, Repr::kUdf, 0);
  mixed.decisions[0].repr = Repr::kRelational;
  mixed.decisions[1].repr = Repr::kRelational;
  mixed.decisions[2].repr = Repr::kRelational;
  mixed.decisions[3].repr = Repr::kRelational;
  InferencePlan mixed2;
  mixed2.decisions = mixed.decisions;
  auto fused = RunWithOptions(*model, std::move(mixed), *input,
                              /*fuse=*/true);
  auto plain = RunWithOptions(*model, std::move(mixed2), *input,
                              /*fuse=*/false);
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_FLOAT_EQ(fused->MaxAbsDiff(*plain), 0.0f);
}

TEST_F(ExecutorTest, FusedMatchesUnfusedBitIdenticalConv) {
  ConvLayerSpec conv{3, 2, 2, 1, /*relu=*/true, /*maxpool=*/false};
  auto model = BuildCNN("cnn", Shape{7, 7, 3}, {conv}, {5}, 3);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(3, Shape{7, 7, 3}, 13);
  ASSERT_TRUE(input.ok());
  for (Repr repr : {Repr::kUdf, Repr::kRelational}) {
    auto fused = RunWithOptions(*model, MakeForcedPlan(*model, repr, 0),
                                *input, /*fuse=*/true);
    auto plain = RunWithOptions(*model, MakeForcedPlan(*model, repr, 0),
                                *input, /*fuse=*/false);
    ASSERT_TRUE(fused.ok()) << fused.status();
    ASSERT_TRUE(plain.ok()) << plain.status();
    EXPECT_FLOAT_EQ(fused->MaxAbsDiff(*plain), 0.0f);
  }
}

TEST_F(ExecutorTest, StageStatsAccumulateAcrossRuns) {
  auto model = BuildFFNN("m", {4, 3, 2}, 7);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(2, Shape{4}, 3);
  ASSERT_TRUE(input.ok());
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx_);
  ASSERT_TRUE(compiled.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(HybridExecutor::Run(**compiled, *input, &ctx_).ok());
  }
  for (const auto& stage : (*compiled)->stages()) {
    EXPECT_EQ(stage->stats.invocations.load(), 3);
    EXPECT_EQ(stage->stats.rows.load(), 6);
  }
}

// Two relation-centric joins of one shape (the sql_spill benchmark's
// 768x768 pair, scaled down) read equal times because they do equal
// work, not because one stage's time is counted twice: one call
// records each stage once, and the stage times fit in the call.
TEST_F(ExecutorTest, EqualJoinsAreEachTimedOncePerCall) {
  auto model = BuildFFNN("m", {8, 64, 64, 64, 4}, 5);
  ASSERT_TRUE(model.ok());
  constexpr int64_t kBatch = 16;
  // Only the two 64x64 matmuls (24 KiB each) pass the 16 KiB threshold.
  auto plan = RuleBasedOptimizer(16 << 10).Optimize(*model, kBatch);
  ASSERT_TRUE(plan.ok());
  auto compiled = PhysicalPlan::Compile(&*model, *plan, &ctx_);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const auto& stages = (*compiled)->stages();
  std::vector<const PhysicalStage*> joins;
  for (const auto& stage : stages) {
    if (stage->kind == StageKind::kBlockMatMul) joins.push_back(stage.get());
  }
  ASSERT_EQ(joins.size(), 2u) << (*compiled)->ToString();
  EXPECT_EQ(joins[0]->in_sample, joins[1]->in_sample);
  EXPECT_EQ(joins[0]->out_sample, joins[1]->out_sample);

  auto input = workloads::GenBatch(kBatch, Shape{8}, 3);
  ASSERT_TRUE(input.ok());
  ASSERT_TRUE(HybridExecutor::Run(**compiled, *input, &ctx_).ok());
  std::vector<int64_t> calls_before;
  int64_t nanos_before = 0;
  for (const auto& stage : stages) {
    calls_before.push_back(stage->stats.invocations.load());
    nanos_before += stage->stats.nanos.load();
  }
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(HybridExecutor::Run(**compiled, *input, &ctx_).ok());
  const int64_t wall_nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  int64_t nanos_after = 0;
  for (size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(stages[i]->stats.invocations.load(), calls_before[i] + 1)
        << stages[i]->label;
    nanos_after += stages[i]->stats.nanos.load();
  }
  EXPECT_LE(nanos_after - nanos_before, wall_nanos);
}

}  // namespace
}  // namespace relserve
