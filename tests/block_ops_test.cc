#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "engine/block_ops.h"
#include "engine/hybrid_executor.h"
#include "kernels/cpu_features.h"
#include "kernels/kernels.h"
#include "kernels/micro_kernel.h"
#include "resource/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace relserve {
namespace {

using kernels::SimdLevel;

// Pins the active SIMD level for one scope; restores detection after.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    kernels::SetActiveSimdLevel(level);
  }
  ~ScopedSimdLevel() {
    kernels::SetActiveSimdLevel(kernels::DetectSimdLevel());
  }
};

// The levels this host runs: scalar, and the detected one (on an
// AVX-512F host the avx2 level runs the 32-wide zmm tile).
std::vector<SimdLevel> HostLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (kernels::DetectSimdLevel() != SimdLevel::kScalar) {
    levels.push_back(kernels::DetectSimdLevel());
  }
  return levels;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.ByteSize())) == 0;
}

// A stage's fused bias add then relu, as the plan compiles it.
std::vector<EpilogueOp> BiasRelu(const Tensor* bias) {
  EpilogueOp add;
  add.op = OpKind::kBiasAdd;
  add.bias = bias;
  EpilogueOp relu;
  relu.op = OpKind::kRelu;
  return {add, relu};
}

class BlockOpsTest : public ::testing::Test {
 protected:
  BlockOpsTest()
      : disk_(), pool_(&disk_, 64), tracker_("scratch") {
    ctx_.tracker = &tracker_;
    ctx_.buffer_pool = &pool_;
    ctx_.block_rows = 4;
    ctx_.block_cols = 4;
  }

  Tensor RandomMatrix(int64_t rows, int64_t cols, int seed = 1) {
    auto t = Tensor::Create(Shape{rows, cols});
    EXPECT_TRUE(t.ok());
    for (int64_t i = 0; i < rows * cols; ++i) {
      t->data()[i] = std::sin(static_cast<float>(i * seed + 1));
    }
    return *t;
  }

  DiskManager disk_;
  BufferPool pool_;
  MemoryTracker tracker_;
  ExecContext ctx_;
};

TEST_F(BlockOpsTest, ChunkAssembleRoundTrip) {
  Tensor m = RandomMatrix(10, 7);
  auto store = blockops::ChunkMatrix(m, &ctx_);
  ASSERT_TRUE(store.ok());
  auto back = blockops::Assemble(**store, &ctx_);
  ASSERT_TRUE(back.ok());
  EXPECT_FLOAT_EQ(m.MaxAbsDiff(*back), 0.0f);
  EXPECT_EQ(ctx_.stats.chunkings, 1);
  EXPECT_EQ(ctx_.stats.assembles, 1);
}

TEST_F(BlockOpsTest, ChunkLeavesNoScratchCharged) {
  Tensor m = RandomMatrix(16, 16);
  auto store = blockops::ChunkMatrix(m, &ctx_);
  ASSERT_TRUE(store.ok());
  // All block payloads flushed to pages: arena back to zero.
  EXPECT_EQ(tracker_.used_bytes(), 0);
  // Peak was only one block, not the whole matrix.
  EXPECT_LE(tracker_.peak_bytes(), 4 * 4 * 4);
}

TEST_F(BlockOpsTest, BlockMatMulMatchesDenseKernel) {
  Tensor x = RandomMatrix(9, 11, 1);
  Tensor w = RandomMatrix(6, 11, 2);  // weight layout [out, in]
  auto expected = kernels::MatMul(x, w, /*transpose_b=*/true);
  ASSERT_TRUE(expected.ok());

  auto x_store = blockops::ChunkMatrix(x, &ctx_);
  auto w_store = blockops::ChunkMatrix(w, &ctx_, /*share_weights=*/true);
  ASSERT_TRUE(x_store.ok() && w_store.ok());
  auto c_store = blockops::BlockMatMul(**x_store, **w_store, &ctx_);
  ASSERT_TRUE(c_store.ok());
  auto c = blockops::Assemble(**c_store, &ctx_);
  ASSERT_TRUE(c.ok());
  EXPECT_LT(expected->MaxAbsDiff(*c), 1e-5f);
}

TEST_F(BlockOpsTest, BlockMatMulRejectsInnerMismatch) {
  auto x = blockops::ChunkMatrix(RandomMatrix(4, 5), &ctx_);
  auto w = blockops::ChunkMatrix(RandomMatrix(4, 6), &ctx_,
                                 /*share_weights=*/true);
  ASSERT_TRUE(x.ok() && w.ok());
  EXPECT_TRUE(blockops::BlockMatMul(**x, **w, &ctx_)
                  .status()
                  .IsInvalidArgument());
}

// The join reads only panel weight stores, the kind a deployed plan
// builds; a row-major weight relation is refused, not converted.
TEST_F(BlockOpsTest, BlockMatMulRejectsRowMajorWeights) {
  auto x = blockops::ChunkMatrix(RandomMatrix(4, 6), &ctx_);
  auto w = blockops::ChunkMatrix(RandomMatrix(5, 6), &ctx_);
  ASSERT_TRUE(x.ok() && w.ok());
  EXPECT_FALSE((*w)->holds_panels());
  EXPECT_TRUE(blockops::BlockMatMul(**x, **w, &ctx_)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(BlockOpsTest, BlockReluAndBiasMatchWholeTensor) {
  Tensor m = RandomMatrix(6, 10);
  auto bias = Tensor::Create(Shape{10});
  ASSERT_TRUE(bias.ok());
  for (int i = 0; i < 10; ++i) bias->data()[i] = 0.1f * i - 0.4f;

  Tensor expected = *m.Clone();
  ASSERT_TRUE(kernels::BiasAddInPlace(&expected, *bias).ok());
  kernels::ReluInPlace(&expected);

  auto store = blockops::ChunkMatrix(m, &ctx_);
  ASSERT_TRUE(store.ok());
  const std::vector<EpilogueOp> ops = BiasRelu(&*bias);
  const blockops::BlockFn epilogue =
      MakeBlockEpilogue(ops, ctx_.block_cols);
  auto mapped = blockops::MapBlocks(**store, epilogue, &ctx_);
  ASSERT_TRUE(mapped.ok());
  auto got = blockops::Assemble(**mapped, &ctx_);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(SameBits(expected, *got));
}

TEST_F(BlockOpsTest, BlockSoftmaxMatchesWholeTensor) {
  Tensor m = RandomMatrix(7, 9);
  Tensor expected = *m.Clone();
  ASSERT_TRUE(kernels::SoftmaxRowsInPlace(&expected).ok());

  auto store = blockops::ChunkMatrix(m, &ctx_);
  ASSERT_TRUE(store.ok());
  auto soft = blockops::BlockSoftmaxRows(**store, &ctx_);
  ASSERT_TRUE(soft.ok());
  auto got = blockops::Assemble(**soft, &ctx_);
  ASSERT_TRUE(got.ok());
  EXPECT_LT(expected.MaxAbsDiff(*got), 1e-6f);
}

TEST_F(BlockOpsTest, MapBlocksPreservesGeometryAndCoordinates) {
  Tensor m = RandomMatrix(10, 6);
  auto store = blockops::ChunkMatrix(m, &ctx_);
  ASSERT_TRUE(store.ok());
  auto doubled = blockops::MapBlocks(
      **store,
      [](int64_t, int64_t, Tensor* payload) {
        for (int64_t i = 0; i < payload->NumElements(); ++i) {
          payload->data()[i] *= 2.0f;
        }
        return Status::OK();
      },
      &ctx_);
  ASSERT_TRUE(doubled.ok());
  auto got = blockops::Assemble(**doubled, &ctx_);
  ASSERT_TRUE(got.ok());
  for (int64_t i = 0; i < m.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(got->data()[i], 2.0f * m.data()[i]);
  }
}

TEST_F(BlockOpsTest, RowAppenderStreamsRows) {
  const int64_t rows = 3, width = 10;
  auto appender = blockops::BlockedRowAppender::Create(rows, width, &ctx_);
  ASSERT_TRUE(appender.ok());
  Tensor m = RandomMatrix(rows, width);
  for (int64_t r = 0; r < rows; ++r) {
    // Append in two uneven chunks to exercise partial-block paths.
    ASSERT_TRUE(appender->Append(m.data() + r * width, 7).ok());
    ASSERT_TRUE(appender->Append(m.data() + r * width + 7, 3).ok());
    ASSERT_TRUE(appender->EndRow().ok());
  }
  auto store = appender->Finish();
  ASSERT_TRUE(store.ok());
  auto got = blockops::Assemble(**store, &ctx_);
  ASSERT_TRUE(got.ok());
  EXPECT_FLOAT_EQ(m.MaxAbsDiff(*got), 0.0f);
}

TEST_F(BlockOpsTest, RowAppenderRejectsIncompleteRow) {
  auto appender = blockops::BlockedRowAppender::Create(1, 10, &ctx_);
  ASSERT_TRUE(appender.ok());
  float v[3] = {1, 2, 3};
  ASSERT_TRUE(appender->Append(v, 3).ok());
  EXPECT_TRUE(appender->EndRow().IsInvalidArgument());
  EXPECT_FALSE(appender->Finish().ok());
}

TEST_F(BlockOpsTest, LoadRowExtractsSingleRow) {
  Tensor m = RandomMatrix(9, 13);
  auto store = blockops::ChunkMatrix(m, &ctx_);
  ASSERT_TRUE(store.ok());
  for (int64_t r : {int64_t{0}, int64_t{4}, int64_t{8}}) {
    auto row = blockops::LoadRow(**store, r, &ctx_);
    ASSERT_TRUE(row.ok());
    ASSERT_EQ(row->shape(), (Shape{13}));
    for (int64_t c = 0; c < 13; ++c) {
      EXPECT_FLOAT_EQ(row->data()[c], m.At(r, c));
    }
  }
  EXPECT_TRUE(
      blockops::LoadRow(**store, 9, &ctx_).status().IsInvalidArgument());
}

TEST_F(BlockOpsTest, MatrixStreamWriterMatchesChunkMatrix) {
  Tensor m = RandomMatrix(11, 9);
  auto writer = blockops::MatrixStreamWriter::Create(11, 9, &ctx_);
  ASSERT_TRUE(writer.ok());
  for (int64_t r = 0; r < 11; ++r) {
    ASSERT_TRUE(writer->AppendRow(m.data() + r * 9).ok());
  }
  auto store = writer->Finish();
  ASSERT_TRUE(store.ok());
  auto got = blockops::Assemble(**store, &ctx_);
  ASSERT_TRUE(got.ok());
  EXPECT_FLOAT_EQ(m.MaxAbsDiff(*got), 0.0f);
}

TEST_F(BlockOpsTest, MatrixStreamJoinsAgainstChunkedWeights) {
  // The streamed store's column blocking must align with ChunkMatrix
  // weights for BlockMatMul (this is the Predict streaming path).
  Tensor x = RandomMatrix(10, 9, 1);
  Tensor w = RandomMatrix(5, 9, 2);
  auto writer = blockops::MatrixStreamWriter::Create(10, 9, &ctx_);
  ASSERT_TRUE(writer.ok());
  for (int64_t r = 0; r < 10; ++r) {
    ASSERT_TRUE(writer->AppendRow(x.data() + r * 9).ok());
  }
  auto x_store = writer->Finish();
  auto w_store = blockops::ChunkMatrix(w, &ctx_, /*share_weights=*/true);
  ASSERT_TRUE(x_store.ok() && w_store.ok());
  auto c_store = blockops::BlockMatMul(**x_store, **w_store, &ctx_);
  ASSERT_TRUE(c_store.ok());
  auto c = blockops::Assemble(**c_store, &ctx_);
  auto expected = kernels::MatMul(x, w, true);
  ASSERT_TRUE(c.ok() && expected.ok());
  EXPECT_LT(expected->MaxAbsDiff(*c), 1e-5f);
}

TEST_F(BlockOpsTest, MatrixStreamWriterRejectsOverAndUnderflow) {
  auto writer = blockops::MatrixStreamWriter::Create(2, 3, &ctx_);
  ASSERT_TRUE(writer.ok());
  float row[3] = {1, 2, 3};
  ASSERT_TRUE(writer->AppendRow(row).ok());
  EXPECT_FALSE(writer->Finish().ok());  // underflow
}

TEST_F(BlockOpsTest, ParallelBlockMatMulBitIdenticalToSerial) {
  // The morsel-parallel join/aggregation must produce the exact same
  // bits as the serial plan: each output block owns its accumulator
  // and aggregates inner blocks in the same order.
  Tensor x = RandomMatrix(37, 29, 1);
  Tensor w = RandomMatrix(23, 29, 2);

  auto run = [&](ExecContext* ctx) -> Tensor {
    auto x_store = blockops::ChunkMatrix(x, ctx);
    auto w_store = blockops::ChunkMatrix(w, ctx, /*share_weights=*/true);
    EXPECT_TRUE(x_store.ok() && w_store.ok());
    auto c_store = blockops::BlockMatMul(**x_store, **w_store, ctx);
    EXPECT_TRUE(c_store.ok());
    auto c = blockops::Assemble(**c_store, ctx);
    EXPECT_TRUE(c.ok());
    return *c;
  };

  Tensor serial = run(&ctx_);  // ctx_.pool == nullptr

  ThreadPool pool(4);
  DiskManager par_disk;
  BufferPool par_pages(&par_disk, 64);
  ExecContext par_ctx;
  par_ctx.tracker = &tracker_;
  par_ctx.buffer_pool = &par_pages;
  par_ctx.pool = &pool;
  par_ctx.block_rows = 4;
  par_ctx.block_cols = 4;
  for (int round = 0; round < 5; ++round) {
    Tensor parallel = run(&par_ctx);
    ASSERT_EQ(serial.NumElements(), parallel.NumElements());
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.NumElements() * sizeof(float)),
              0)
        << "round " << round;
  }
}

TEST_F(BlockOpsTest, ParallelElementwiseOpsMatchSerial) {
  Tensor m = RandomMatrix(33, 21);
  auto bias = Tensor::Create(Shape{21});
  ASSERT_TRUE(bias.ok());
  for (int i = 0; i < 21; ++i) bias->data()[i] = 0.05f * i - 0.3f;

  const std::vector<EpilogueOp> ops = BiasRelu(&*bias);
  auto run = [&](ExecContext* ctx) -> Tensor {
    auto store = blockops::ChunkMatrix(m, ctx);
    EXPECT_TRUE(store.ok());
    auto relued = blockops::MapBlocks(
        **store, MakeBlockEpilogue(ops, ctx->block_cols), ctx);
    EXPECT_TRUE(relued.ok());
    auto soft = blockops::BlockSoftmaxRows(**relued, ctx);
    EXPECT_TRUE(soft.ok());
    auto got = blockops::Assemble(**soft, ctx);
    EXPECT_TRUE(got.ok());
    return *got;
  };

  Tensor serial = run(&ctx_);

  ThreadPool pool(4);
  DiskManager par_disk;
  BufferPool par_pages(&par_disk, 64);
  ExecContext par_ctx;
  par_ctx.tracker = &tracker_;
  par_ctx.buffer_pool = &par_pages;
  par_ctx.pool = &pool;
  par_ctx.block_rows = 4;
  par_ctx.block_cols = 4;
  Tensor parallel = run(&par_ctx);
  ASSERT_EQ(serial.NumElements(), parallel.NumElements());
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                        serial.NumElements() * sizeof(float)),
            0);
}

TEST_F(BlockOpsTest, ParallelExecStatsStayExact) {
  // Counter totals must not lose updates when morsels race.
  ThreadPool pool(4);
  ExecContext par_ctx;
  par_ctx.tracker = &tracker_;
  par_ctx.buffer_pool = &pool_;
  par_ctx.pool = &pool;
  par_ctx.block_rows = 4;
  par_ctx.block_cols = 4;
  Tensor m = RandomMatrix(16, 16);
  auto store = blockops::ChunkMatrix(m, &par_ctx);
  ASSERT_TRUE(store.ok());
  const int64_t written_after_chunk = par_ctx.stats.blocks_written.load();
  EXPECT_EQ(written_after_chunk, 16);  // 4x4 geometry -> 16 blocks
  const std::vector<EpilogueOp> ops = {EpilogueOp{OpKind::kRelu}};
  auto relued = blockops::MapBlocks(
      **store, MakeBlockEpilogue(ops, par_ctx.block_cols), &par_ctx);
  ASSERT_TRUE(relued.ok());
  EXPECT_EQ(par_ctx.stats.blocks_read.load(), 16);
  EXPECT_EQ(par_ctx.stats.blocks_written.load(),
            written_after_chunk + 16);
}

// Geometries of the packed-weight join: block rows that are not a
// multiple of the 16/32-wide slivers nor of the 6-row tile, a ragged
// last inner block, inner blocks wider than one kc block, and weight
// blocks taller than one nc block.
struct JoinShape {
  int64_t rows, inner, out, block_rows, block_cols;
};
constexpr JoinShape kJoinShapes[] = {
    {45, 83, 50, 20, 24},   // 20-row blocks, K ragged at 11
    {13, 37, 7, 5, 9},      // tiny blocks, every tile an edge tile
    {7, 600, 40, 40, 300},  // 300-wide inner blocks: two kc blocks each
    {5, 8, 1030, 1030, 8},  // one 1030-row weight block: two nc blocks
};

// The join over weight blocks stored as B panels gives GemmInto's
// bits: each output element continues one ascending-k chain across
// the inner blocks, as the whole-matrix product does.
TEST_F(BlockOpsTest, PackedWeightJoinBitIdenticalToGemmInto) {
  for (const SimdLevel level : HostLevels()) {
    ScopedSimdLevel scoped(level);
    for (const JoinShape& js : kJoinShapes) {
      SCOPED_TRACE(testing::Message()
                   << kernels::SimdLevelName(level) << " x=[" << js.rows
                   << "," << js.inner << "] w=[" << js.out << ","
                   << js.inner << "] block " << js.block_rows << "x"
                   << js.block_cols);
      ctx_.block_rows = js.block_rows;
      ctx_.block_cols = js.block_cols;
      Tensor x = RandomMatrix(js.rows, js.inner, 1);
      Tensor w = RandomMatrix(js.out, js.inner, 2);
      auto want = kernels::MatMul(x, w, /*transpose_b=*/true);
      auto x_store = blockops::ChunkMatrix(x, &ctx_);
      auto w_store = blockops::ChunkMatrix(w, &ctx_, /*share_weights=*/true);
      ASSERT_TRUE(want.ok() && x_store.ok() && w_store.ok());
      EXPECT_TRUE((*w_store)->holds_panels());
      auto c_store = blockops::BlockMatMul(**x_store, **w_store, &ctx_);
      ASSERT_TRUE(c_store.ok()) << c_store.status();
      auto got = blockops::Assemble(**c_store, &ctx_);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameBits(*want, *got));
      // The panels unpack to the weight itself.
      auto back = blockops::Assemble(**w_store, &ctx_);
      ASSERT_TRUE(back.ok());
      EXPECT_TRUE(SameBits(w, *back));
    }
  }
}

// Panels packed at one SIMD level and joined at another: the panel
// width is the host's, so each step reads its block as it is and
// keeps the running level's bits.
TEST_F(BlockOpsTest, PackedWeightJoinPackedAtAnotherLevel) {
  const JoinShape js = kJoinShapes[0];
  ctx_.block_rows = js.block_rows;
  ctx_.block_cols = js.block_cols;
  Tensor x = RandomMatrix(js.rows, js.inner, 1);
  Tensor w = RandomMatrix(js.out, js.inner, 2);
  for (const auto& [pack_level, run_level] :
       {std::pair{kernels::DetectSimdLevel(), SimdLevel::kScalar},
        std::pair{SimdLevel::kScalar, kernels::DetectSimdLevel()}}) {
    SCOPED_TRACE(testing::Message()
                 << "packed at " << kernels::SimdLevelName(pack_level)
                 << ", run at " << kernels::SimdLevelName(run_level));
    auto w_store = [&, pack_level = pack_level] {
      ScopedSimdLevel scoped(pack_level);
      return blockops::ChunkMatrix(w, &ctx_, /*share_weights=*/true);
    }();
    ASSERT_TRUE(w_store.ok());
    ScopedSimdLevel scoped(run_level);
    auto want = kernels::MatMul(x, w, /*transpose_b=*/true);
    auto x_store = blockops::ChunkMatrix(x, &ctx_);
    ASSERT_TRUE(want.ok() && x_store.ok());
    auto c_store = blockops::BlockMatMul(**x_store, **w_store, &ctx_);
    ASSERT_TRUE(c_store.ok()) << c_store.status();
    auto got = blockops::Assemble(**c_store, &ctx_);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameBits(*want, *got));
  }
}

// Row strips of the packed-weight join run on pool workers at once
// (more strips than threads, so each strip is its own morsel), with
// a fused epilogue, and keep the serial bits.
TEST_F(BlockOpsTest, PackedWeightJoinStripsConcurrentBitIdentical) {
  Tensor x = RandomMatrix(37, 29, 1);
  Tensor w = RandomMatrix(23, 29, 2);
  const blockops::BlockFn relu = [](int64_t, int64_t, Tensor* payload) {
    kernels::ReluInPlace(payload);
    return Status::OK();
  };
  auto run = [&](ExecContext* ctx) -> Tensor {
    auto x_store = blockops::ChunkMatrix(x, ctx);
    auto w_store = blockops::ChunkMatrix(w, ctx, /*share_weights=*/true);
    EXPECT_TRUE(x_store.ok() && w_store.ok());
    auto c_store = blockops::BlockMatMul(**x_store, **w_store, ctx, &relu);
    EXPECT_TRUE(c_store.ok());
    auto c = blockops::Assemble(**c_store, ctx);
    EXPECT_TRUE(c.ok());
    return *c;
  };
  const Tensor serial = run(&ctx_);  // 10 row strips of 4 rows

  ThreadPool pool(3);
  DiskManager par_disk;
  BufferPool par_pages(&par_disk, 64);
  ExecContext par_ctx;
  par_ctx.tracker = &tracker_;
  par_ctx.buffer_pool = &par_pages;
  par_ctx.pool = &pool;
  par_ctx.block_rows = 4;
  par_ctx.block_cols = 4;
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(SameBits(serial, run(&par_ctx))) << "round " << round;
  }
}

// A row strip's blocks are fetched once for every weight block they
// join: 3 strips x 2 inner blocks of X, plus 3 x 2 weight blocks per
// strip.
TEST_F(BlockOpsTest, JoinFetchesEachStripBlockOnce) {
  auto x = blockops::ChunkMatrix(RandomMatrix(12, 8, 1), &ctx_);
  auto w = blockops::ChunkMatrix(RandomMatrix(12, 8, 2), &ctx_,
                                 /*share_weights=*/true);
  ASSERT_TRUE(x.ok() && w.ok());
  const int64_t before = ctx_.stats.blocks_read.load();
  ASSERT_TRUE(blockops::BlockMatMul(**x, **w, &ctx_).ok());
  EXPECT_EQ(ctx_.stats.blocks_read.load() - before, 3 * 2 + 3 * 3 * 2);
}

// With a wide inner dimension the X strip does not fit the working-
// memory share, so each join step fetches its X block and a worker
// holds a few blocks, not a strip; under an unlimited arena the strip
// is fetched once. Both keep GemmInto's bits.
TEST_F(BlockOpsTest, WideInnerJoinHoldsAFewBlocks) {
  ctx_.block_rows = 8;
  ctx_.block_cols = 8;
  constexpr int64_t kInner = 8 * 128;  // a 32 KiB strip per 8 rows
  Tensor x = RandomMatrix(16, kInner, 1);
  Tensor w = RandomMatrix(24, kInner, 2);
  auto want = kernels::MatMul(x, w, /*transpose_b=*/true);
  ASSERT_TRUE(want.ok());
  struct Arena {
    int64_t limit;
    int64_t x_reads;  // 2 strips x 128 inner blocks, per jb or once
  };
  for (const Arena& arena : {Arena{128 << 10, 2 * 3 * 128},
                             Arena{MemoryTracker::kUnlimited, 2 * 128}}) {
    SCOPED_TRACE(testing::Message() << "arena limit " << arena.limit);
    MemoryTracker tracker("join", arena.limit);
    ctx_.tracker = &tracker;
    auto x_store = blockops::ChunkMatrix(x, &ctx_);
    auto w_store = blockops::ChunkMatrix(w, &ctx_, /*share_weights=*/true);
    ASSERT_TRUE(x_store.ok() && w_store.ok());
    tracker.ResetPeak();
    const int64_t used = tracker.used_bytes();
    const int64_t reads = ctx_.stats.blocks_read.load();
    auto c_store = blockops::BlockMatMul(**x_store, **w_store, &ctx_);
    ASSERT_TRUE(c_store.ok()) << c_store.status();
    EXPECT_EQ(ctx_.stats.blocks_read.load() - reads,
              arena.x_reads + 2 * 3 * 128);
    const int64_t peak = tracker.peak_bytes() - used;
    if (arena.limit == MemoryTracker::kUnlimited) {
      EXPECT_GE(peak, 8 * kInner * 4);
    } else {
      // One X block, one weight panel (8 rows padded to at most 32)
      // and one accumulator.
      EXPECT_LE(peak, 4 << 10);
    }
    auto got = blockops::Assemble(**c_store, &ctx_);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameBits(*want, *got));
    ctx_.tracker = &tracker_;
  }
}

// One row strip on a 4-thread pool: its six output blocks split into
// three morsels of two (each fetching the strip once) instead of
// running one after another, with the serial bits.
TEST_F(BlockOpsTest, SingleStripJoinSplitsOutputBlocksAcrossThreads) {
  Tensor x = RandomMatrix(4, 12, 1);
  Tensor w = RandomMatrix(24, 12, 2);
  auto run = [&](ExecContext* ctx, int64_t* reads) -> Tensor {
    auto x_store = blockops::ChunkMatrix(x, ctx);
    auto w_store = blockops::ChunkMatrix(w, ctx, /*share_weights=*/true);
    EXPECT_TRUE(x_store.ok() && w_store.ok());
    const int64_t before = ctx->stats.blocks_read.load();
    auto c_store = blockops::BlockMatMul(**x_store, **w_store, ctx);
    EXPECT_TRUE(c_store.ok());
    *reads = ctx->stats.blocks_read.load() - before;
    auto c = blockops::Assemble(**c_store, ctx);
    EXPECT_TRUE(c.ok());
    return *c;
  };
  int64_t serial_reads = 0;
  const Tensor serial = run(&ctx_, &serial_reads);
  EXPECT_EQ(serial_reads, 3 + 6 * 3);

  ThreadPool pool(4);
  ExecContext par_ctx;
  par_ctx.tracker = &tracker_;
  par_ctx.buffer_pool = &pool_;
  par_ctx.pool = &pool;
  par_ctx.block_rows = 4;
  par_ctx.block_cols = 4;
  for (int round = 0; round < 5; ++round) {
    int64_t reads = 0;
    EXPECT_TRUE(SameBits(serial, run(&par_ctx, &reads))) << "round "
                                                         << round;
    EXPECT_EQ(reads, 3 * 3 + 6 * 3);
  }
}

// The join reads each weight panel where its frames hold it. With
// 100-deep inner blocks a sliver is 100 x nr floats (12,800 bytes at
// nr = 32), so slivers straddle the 64 KiB pages of a 256-row weight
// block and are gathered alone. Each pool keeps GemmInto's bits on
// every level the host runs: the 64-frame default; the documented
// minimum of a serial join, 2 frames; and a 4-thread pool at its
// minimum, 6 frames, where the one row strip splits its ragged jb
// range into 3 morsels and the GEMM its rows into macro-tiles.
TEST_F(BlockOpsTest, InPlaceJoinBitIdenticalOnSmallPools) {
  ctx_.block_rows = 256;
  ctx_.block_cols = 100;
  Tensor x = RandomMatrix(200, 250, 1);  // one strip, K ragged at 50
  Tensor w = RandomMatrix(600, 250, 2);  // jb blocks 256, 256, 88
  ThreadPool threads(4);
  struct Run {
    int64_t frames;
    ThreadPool* pool;
  };
  for (const SimdLevel level : HostLevels()) {
    ScopedSimdLevel scoped(level);
    auto want = kernels::MatMul(x, w, /*transpose_b=*/true);
    ASSERT_TRUE(want.ok());
    for (const Run& run : {Run{64, nullptr}, Run{2, nullptr},
                           Run{6, &threads}}) {
      SCOPED_TRACE(testing::Message()
                   << kernels::SimdLevelName(level) << ", " << run.frames
                   << " frames, " << (run.pool != nullptr ? 4 : 0)
                   << " pool threads");
      DiskManager disk;
      BufferPool pages(&disk, run.frames);
      ExecContext ctx;
      ctx.tracker = &tracker_;
      ctx.buffer_pool = &pages;
      ctx.pool = run.pool;
      ctx.block_rows = ctx_.block_rows;
      ctx.block_cols = ctx_.block_cols;
      auto x_store = blockops::ChunkMatrix(x, &ctx);
      auto w_store = blockops::ChunkMatrix(w, &ctx, /*share_weights=*/true);
      ASSERT_TRUE(x_store.ok() && w_store.ok());
      auto c_store = blockops::BlockMatMul(**x_store, **w_store, &ctx);
      ASSERT_TRUE(c_store.ok()) << c_store.status();
      auto got = blockops::Assemble(**c_store, &ctx);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameBits(*want, *got));
    }
  }
}

// A serial join pins at most one weight block's pages plus one X
// block's pages at once — in fact one page at a time.
TEST_F(BlockOpsTest, SerialJoinPinsAtMostOneBlockPair) {
  ctx_.block_rows = 256;
  ctx_.block_cols = 256;
  DiskManager disk;
  BufferPool pages(&disk, 8);
  ctx_.buffer_pool = &pages;
  auto x_store = blockops::ChunkMatrix(RandomMatrix(300, 512, 1), &ctx_);
  auto w_store = blockops::ChunkMatrix(RandomMatrix(300, 512, 2), &ctx_,
                                       /*share_weights=*/true);
  ASSERT_TRUE(x_store.ok() && w_store.ok());
  ASSERT_TRUE(blockops::BlockMatMul(**x_store, **w_store, &ctx_).ok());
  const int64_t block_pages =
      static_cast<int64_t>((*w_store)->entries()[0].pages.size() +
                           (*x_store)->entries()[0].pages.size());
  EXPECT_GT(pages.stats().pinned_peak, 0);
  EXPECT_LE(pages.stats().pinned_peak, block_pages);
}

TEST_F(BlockOpsTest, RequiresBufferPool) {
  ExecContext no_pool;
  no_pool.tracker = &tracker_;
  Tensor m = RandomMatrix(4, 4);
  EXPECT_TRUE(blockops::ChunkMatrix(m, &no_pool)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace relserve
