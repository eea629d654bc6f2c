// Property-style parameterized sweeps over the core invariants:
//  (1) every execution plan computes the same function;
//  (2) block geometry never changes results;
//  (3) the optimizer's decisions are monotone in batch and threshold;
//  (4) memory accounting always returns to zero.

#include <gtest/gtest.h>

#include <tuple>

#include "engine/hybrid_executor.h"
#include "engine/physical_plan.h"
#include "graph/model.h"
#include "optimizer/optimizer.h"
#include "storage/buffer_pool.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

// --- (1) + (2): representation and blocking invariance ---------------

class PlanEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::vector<int64_t>,  // model dims
                     int64_t,               // batch
                     int64_t>> {};          // block size

TEST_P(PlanEquivalenceTest, RelationalMatchesUdfForAllGeometries) {
  const auto& [dims, batch, block] = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 512);
  MemoryTracker tracker("work");
  ExecContext ctx;
  ctx.tracker = &tracker;
  ctx.buffer_pool = &pool;
  ctx.block_rows = block;
  ctx.block_cols = block;

  auto model = BuildFFNN("m", dims, /*seed=*/dims[0] + batch, nullptr);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(batch, Shape{dims[0]}, batch);
  ASSERT_TRUE(input.ok());

  auto run = [&](Repr repr) -> Result<Tensor> {
    RELSERVE_ASSIGN_OR_RETURN(
        std::unique_ptr<PhysicalPlan> compiled,
        PhysicalPlan::Compile(&*model, MakeForcedPlan(*model, repr, 0),
                               &ctx));
    RELSERVE_ASSIGN_OR_RETURN(
        ExecOutput out, HybridExecutor::Run(*compiled, *input, &ctx));
    return out.ToTensor(&ctx);
  };
  {
    auto udf = run(Repr::kUdf);
    auto rel = run(Repr::kRelational);
    ASSERT_TRUE(udf.ok()) << udf.status();
    ASSERT_TRUE(rel.ok()) << rel.status();
    EXPECT_LT(udf->MaxAbsDiff(*rel), 1e-4f);
  }
  // Property (4): with the outputs out of scope, the arena is empty.
  EXPECT_EQ(tracker.used_bytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(std::vector<int64_t>{5, 9, 3},
                          std::vector<int64_t>{33, 17, 8},
                          std::vector<int64_t>{64, 64, 64},
                          std::vector<int64_t>{20, 50, 30, 4}),
        ::testing::Values(int64_t{1}, int64_t{7}, int64_t{32}),
        ::testing::Values(int64_t{4}, int64_t{16}, int64_t{64})));

// --- (2) continued: block size never changes the relational result ---

class BlockSizeInvarianceTest
    : public ::testing::TestWithParam<int64_t> {};

TEST_P(BlockSizeInvarianceTest, ResultIndependentOfBlockSize) {
  const int64_t block = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 512);
  MemoryTracker tracker("work");
  ExecContext ctx;
  ctx.tracker = &tracker;
  ctx.buffer_pool = &pool;
  ctx.block_rows = block;
  ctx.block_cols = block;

  auto model = BuildFFNN("m", {23, 31, 6}, 77, nullptr);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(19, Shape{23}, 5);
  ASSERT_TRUE(input.ok());
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kRelational, 0), &ctx);
  ASSERT_TRUE(compiled.ok());
  auto out = HybridExecutor::Run(**compiled, *input, &ctx);
  ASSERT_TRUE(out.ok());
  auto got = out->ToTensor(&ctx);
  ASSERT_TRUE(got.ok());

  // Reference: plain UDF execution (block-size independent).
  auto ref_compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx);
  ASSERT_TRUE(ref_compiled.ok());
  auto ref_out = HybridExecutor::Run(**ref_compiled, *input, &ctx);
  ASSERT_TRUE(ref_out.ok());
  auto ref = ref_out->ToTensor(&ctx);
  ASSERT_TRUE(ref.ok());
  EXPECT_LT(ref->MaxAbsDiff(*got), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockSizeInvarianceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 64));

// --- (3): optimizer monotonicity --------------------------------------

class OptimizerMonotoneTest
    : public ::testing::TestWithParam<int64_t> {};

TEST_P(OptimizerMonotoneTest,
       RelationalDecisionsGrowWithBatchAndShrinkWithThreshold) {
  const int64_t batch = GetParam();
  auto model = BuildFFNN("m", {500, 200, 20}, 1);
  ASSERT_TRUE(model.ok());

  auto count_relational = [&](int64_t threshold,
                              int64_t b) -> int64_t {
    RuleBasedOptimizer opt(threshold);
    auto plan = opt.Optimize(*model, b);
    EXPECT_TRUE(plan.ok());
    int64_t n = 0;
    for (const auto& d : plan->decisions) {
      if (d.repr == Repr::kRelational) ++n;
    }
    return n;
  };

  // More batch => at least as many relational operators.
  EXPECT_LE(count_relational(1 << 20, batch),
            count_relational(1 << 20, batch * 4));
  // Higher threshold => at most as many relational operators.
  EXPECT_GE(count_relational(1 << 16, batch),
            count_relational(1 << 22, batch));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimizerMonotoneTest,
                         ::testing::Values(1, 8, 64, 512));

// --- (4): arena accounting under failure ------------------------------

class OomRecoveryTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(OomRecoveryTest, FailedQueriesLeakNothing) {
  const int64_t limit = GetParam();
  DiskManager disk;
  BufferPool pool(&disk, 64);
  MemoryTracker tracker("tight", limit);
  ExecContext ctx;
  ctx.tracker = &tracker;
  ctx.buffer_pool = &pool;
  ctx.block_rows = 8;
  ctx.block_cols = 8;

  auto model = BuildFFNN("m", {64, 96, 8}, 3, nullptr);
  ASSERT_TRUE(model.ok());
  auto input = workloads::GenBatch(32, Shape{64}, 2);
  ASSERT_TRUE(input.ok());
  {
    auto compiled = PhysicalPlan::Compile(
        &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx);
    if (compiled.ok()) {
      auto out = HybridExecutor::Run(**compiled, *input, &ctx);
      // Whether it succeeded or OOMed is limit-dependent; either way
      // nothing may stay charged after everything leaves scope.
      (void)out;
    } else {
      EXPECT_TRUE(compiled.status().IsOutOfMemory());
    }
  }
  EXPECT_EQ(tracker.used_bytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OomRecoveryTest,
                         ::testing::Values(int64_t{1} << 12,
                                           int64_t{1} << 14,
                                           int64_t{1} << 16,
                                           int64_t{1} << 18,
                                           int64_t{1} << 24));

}  // namespace
}  // namespace relserve
