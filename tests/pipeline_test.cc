#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "engine/hybrid_executor.h"
#include "engine/pipeline_executor.h"
#include "graph/model.h"
#include "graph/model_zoo.h"
#include "optimizer/optimizer.h"
#include "resource/bounded_queue.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 4; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, PopAfterCloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  q.Close();
  EXPECT_FALSE(q.Push(2));
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, BackpressureBlocksProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    q.Push(2);
    second_pushed = true;
  });
  // Producer must be blocked while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.Push(2));  // woken by Close, push fails
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : tracker_("pipeline") { ctx_.tracker = &tracker_; }

  Result<Tensor> RunBatch(const PhysicalPlan& plan, const Tensor& input) {
    RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                              HybridExecutor::Run(plan, input, &ctx_));
    return out.ToTensor(&ctx_);
  }

  MemoryTracker tracker_;
  ExecContext ctx_;
};

TEST_F(PipelineTest, MatchesBatchExecutionFfnn) {
  auto model = BuildFFNN("m", {12, 24, 5}, 3);
  ASSERT_TRUE(model.ok());
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx_);
  ASSERT_TRUE(compiled.ok());
  auto input = workloads::GenBatch(100, Shape{12}, 7);
  ASSERT_TRUE(input.ok());
  auto batch = RunBatch(**compiled, *input);
  ASSERT_TRUE(batch.ok());
  PipelineConfig config;
  config.micro_batch_rows = 16;  // ragged tail: 100 = 6*16 + 4
  auto piped = PipelineExecutor::Run(**compiled, *input, &ctx_, config);
  ASSERT_TRUE(piped.ok()) << piped.status();
  EXPECT_EQ(piped->shape(), batch->shape());
  EXPECT_EQ(batch->MaxAbsDiff(*piped), 0.0f);
}

TEST_F(PipelineTest, MatchesBatchExecutionCnn) {
  auto model = zoo::BuildCachingCnn(2);
  ASSERT_TRUE(model.ok());
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx_);
  ASSERT_TRUE(compiled.ok());
  auto input = workloads::GenBatch(10, Shape{28, 28, 1}, 5);
  ASSERT_TRUE(input.ok());
  auto batch = RunBatch(**compiled, *input);
  ASSERT_TRUE(batch.ok());
  PipelineConfig config;
  config.micro_batch_rows = 3;
  auto piped = PipelineExecutor::Run(**compiled, *input, &ctx_, config);
  ASSERT_TRUE(piped.ok()) << piped.status();
  EXPECT_EQ(piped->shape(), batch->shape());
  EXPECT_EQ(batch->MaxAbsDiff(*piped), 0.0f);
}

class PipelineChunkSweep : public PipelineTest,
                           public ::testing::WithParamInterface<int64_t> {
};

TEST_P(PipelineChunkSweep, AnyMicroBatchSizeIsEquivalent) {
  auto model = BuildFFNN("m", {8, 16, 4}, 9);
  ASSERT_TRUE(model.ok());
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx_);
  ASSERT_TRUE(compiled.ok());
  auto input = workloads::GenBatch(37, Shape{8}, 1);
  ASSERT_TRUE(input.ok());
  auto batch = RunBatch(**compiled, *input);
  ASSERT_TRUE(batch.ok());
  PipelineConfig config;
  config.micro_batch_rows = GetParam();
  auto piped = PipelineExecutor::Run(**compiled, *input, &ctx_, config);
  ASSERT_TRUE(piped.ok());
  EXPECT_EQ(batch->MaxAbsDiff(*piped), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineChunkSweep,
                         ::testing::Values(1, 2, 5, 16, 37, 64));

TEST_F(PipelineTest, KernelArmsPipelineBitIdentically) {
  // Int8 hidden layer and a fused top-k head: both quantize or select
  // per row, so micro-batching is bit-transparent.
  auto model = BuildFFNN("m", {32, 64, 200}, 7);
  ASSERT_TRUE(model.ok());
  OptimizerTuning tuning;
  tuning.enable_int8 = true;
  tuning.topk = 5;
  auto plan = RuleBasedOptimizer(1LL << 40).Optimize(*model, 37);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(AssignKernelArms(*model, tuning, &*plan).ok());
  auto compiled = PhysicalPlan::Compile(&*model, *plan, &ctx_);
  ASSERT_TRUE(compiled.ok());
  bool has_int8 = false;
  bool has_topk = false;
  for (const auto& stage : (*compiled)->stages()) {
    has_int8 |= stage->weight != nullptr && stage->weight->int8();
    has_topk |= stage->kind == StageKind::kMatMulTopK;
  }
  EXPECT_TRUE(has_int8);
  EXPECT_TRUE(has_topk);
  auto input = workloads::GenBatch(37, Shape{32}, 3);
  ASSERT_TRUE(input.ok());
  auto batch = RunBatch(**compiled, *input);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->shape(), (Shape{37, 10}));
  PipelineConfig config;
  config.micro_batch_rows = 5;
  auto piped = PipelineExecutor::Run(**compiled, *input, &ctx_, config);
  ASSERT_TRUE(piped.ok()) << piped.status();
  EXPECT_EQ(piped->shape(), batch->shape());
  EXPECT_EQ(batch->MaxAbsDiff(*piped), 0.0f);
}

TEST_F(PipelineTest, EveryStageRunsOncePerMicroBatch) {
  auto model = BuildFFNN("m", {12, 24, 5}, 3);
  ASSERT_TRUE(model.ok());
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx_);
  ASSERT_TRUE(compiled.ok());
  auto input = workloads::GenBatch(100, Shape{12}, 7);
  ASSERT_TRUE(input.ok());
  PipelineConfig config;
  config.micro_batch_rows = 16;  // 7 micro-batches, the last ragged
  ASSERT_TRUE(
      PipelineExecutor::Run(**compiled, *input, &ctx_, config).ok());
  const auto& stages = (*compiled)->stages();
  for (const auto& stage : stages) {
    EXPECT_EQ(stage->stats.invocations.load(), 7) << stage->label;
    EXPECT_EQ(stage->stats.rows.load(), 100) << stage->label;
  }
}

TEST_F(PipelineTest, BoundedPeakMemory) {
  // A deep-ish model over a big batch: the pipeline's peak arena use
  // must stay near (stages x queue x micro-batch), far below the
  // whole-batch activations.
  auto model = BuildFFNN("m", {256, 512, 512, 8}, 1);
  ASSERT_TRUE(model.ok());
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx_);
  ASSERT_TRUE(compiled.ok());
  auto input = workloads::GenBatch(2048, Shape{256}, 4);
  ASSERT_TRUE(input.ok());

  tracker_.ResetPeak();
  auto batch = RunBatch(**compiled, *input);
  ASSERT_TRUE(batch.ok());
  const int64_t batch_peak = tracker_.peak_bytes();

  tracker_.ResetPeak();
  PipelineConfig config;
  config.micro_batch_rows = 32;
  auto piped = PipelineExecutor::Run(**compiled, *input, &ctx_, config);
  ASSERT_TRUE(piped.ok());
  const int64_t pipe_peak = tracker_.peak_bytes();

  EXPECT_EQ(batch->MaxAbsDiff(*piped), 0.0f);
  // Pipeline holds micro-batches, not whole activations (the output
  // tensor dominates its peak).
  EXPECT_LT(pipe_peak, batch_peak / 2);
}

TEST_F(PipelineTest, RejectsRelationalPlans) {
  auto model = BuildFFNN("m", {8, 8, 2}, 1);
  ASSERT_TRUE(model.ok());
  DiskManager disk;
  BufferPool pool(&disk, 32);
  ExecContext rel_ctx = ctx_;
  rel_ctx.buffer_pool = &pool;
  InferencePlan plan;
  for (const Node& node : model->nodes()) {
    plan.decisions.push_back(
        NodeDecision{node.id, Repr::kRelational, 0});
  }
  auto compiled = PhysicalPlan::Compile(&*model, plan, &rel_ctx);
  ASSERT_TRUE(compiled.ok());
  auto input = workloads::GenBatch(4, Shape{8}, 1);
  ASSERT_TRUE(input.ok());
  EXPECT_TRUE(PipelineExecutor::Run(**compiled, *input, &rel_ctx)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PipelineTest, PropagatesStageOom) {
  auto model = BuildFFNN("m", {64, 128, 8}, 1);
  ASSERT_TRUE(model.ok());
  // Prepare with an unlimited arena, then execute with a tiny one so
  // the failure happens mid-pipeline.
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx_);
  ASSERT_TRUE(compiled.ok());
  auto input = workloads::GenBatch(512, Shape{64}, 1);
  ASSERT_TRUE(input.ok());
  MemoryTracker tiny("tiny", 64 * 1024);
  ExecContext tight;
  tight.tracker = &tiny;
  PipelineConfig config;
  config.micro_batch_rows = 128;
  auto out = PipelineExecutor::Run(**compiled, *input, &tight, config);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsOutOfMemory());
  // Nothing leaked even on the failure path.
  EXPECT_EQ(tiny.used_bytes(), 0);
}

TEST_F(PipelineTest, RejectsBadConfig) {
  auto model = BuildFFNN("m", {4, 4, 2}, 1);
  ASSERT_TRUE(model.ok());
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx_);
  ASSERT_TRUE(compiled.ok());
  auto input = workloads::GenBatch(4, Shape{4}, 1);
  ASSERT_TRUE(input.ok());
  PipelineConfig config;
  config.micro_batch_rows = 0;
  EXPECT_TRUE(PipelineExecutor::Run(**compiled, *input, &ctx_, config)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace relserve
