// Block-level tensor operators over BlockStores — the physical
// implementation of the relation-centric representation.
//
// BlockMatMul is literally the paper's "join followed by aggregation"
// (Sec. 2, Sec. 7.1): the X relation {(i, k, payload)} joins the W
// relation {(j, k, payload)} on the inner block index k, each matched
// pair contributes a partial product, and partials aggregate by output
// coordinate (i, j). The physical plan here is an index-nested-loop
// join driven by row strips of X, each output block's partials
// aggregating in one accumulator before a single write. The weight
// relation stores every block as its GEMM B panel (packed at deploy),
// and a join step sweeps the micro-kernel over it where the buffer
// pool holds it, one pinned page at a time; X blocks are packed into
// A panels straight from their pages. Resident per worker: one packed
// X block (or, when the strips of all workers fit 1/8 of the
// working-memory limit, its packed strip of block_rows x K floats),
// one accumulator, one B sliver of scratch and one pinned page — so a
// join completes on (pool threads + 2) frames: a page per morsel
// runner (the workers and the calling thread) and one the prefetcher
// may be loading.
//
// Execution is morsel-parallel over ctx->pool (serial when null): one
// morsel per row strip (joins — split into output-block ranges when
// there are fewer strips than threads — and softmax) or block entry
// (maps). Every morsel owns its accumulators and aggregates in the
// same order as the serial plan, so results are bit-identical to
// serial execution.

#ifndef RELSERVE_ENGINE_BLOCK_OPS_H_
#define RELSERVE_ENGINE_BLOCK_OPS_H_

#include <functional>
#include <memory>

#include "common/result.h"
#include "engine/exec_context.h"
#include "storage/block_store.h"
#include "tensor/tensor.h"

namespace relserve {
namespace blockops {

// Chunks an in-memory matrix into a new buffer-pool-backed store with
// the context's block geometry, using O(block) scratch memory. With
// `share_weights` set — the deploy-time weight path — each [out, in]
// block is stored as its PackWeightTransB panel, and with a block
// index on the context the panels resolve through the
// content-addressed index so identical blocks across deployed models
// share pages. Activation chunking leaves it false:
// transient stores are row-major, write-once/drop, and dedup there is
// pure hashing overhead.
Result<std::unique_ptr<BlockStore>> ChunkMatrix(
    const Tensor& m, ExecContext* ctx, bool share_weights = false);

// Assembles a store back into a whole tensor charged to the context
// arena (may OOM — that is the point of the experiment). Panels of a
// weight store unpack to their blocks.
Result<Tensor> Assemble(const BlockStore& store, ExecContext* ctx);

// A fused elementwise pass over one freshly computed output block
// (row_block, col_block, payload), applied before the block is written
// to the store — how matmul epilogues (bias add / relu) ride the block
// join in the same pass over the data instead of re-scanning the
// relation per operator. May run from several pool workers at once; it
// must be thread-safe (pure per-block transforms are).
using BlockFn = std::function<Status(int64_t, int64_t, Tensor*)>;

// C = X * W^T as block join + aggregation.
//   x: [rows, inner] blocked row-major; w: [out, inner] blocked
//   (weight layout), a ChunkMatrix panel store (share_weights) — any
//   other is InvalidArgument.
// Result store has shape [rows, out]; every output bit equals GemmInto
// over the same blocks. When `epilogue` is non-null it is applied to
// each output block's accumulator before the single write —
// bit-identical to a separate blockwise pass, minus one full
// read/write of the relation.
Result<std::unique_ptr<BlockStore>> BlockMatMul(
    const BlockStore& x, const BlockStore& w, ExecContext* ctx,
    const BlockFn* epilogue = nullptr);

// Applies `fn` to every block payload, producing a new store with the
// same geometry. `fn` receives the block's (row_block, col_block) and
// may be invoked from several pool workers concurrently — it must be
// thread-safe (pure per-block transforms are).
Result<std::unique_ptr<BlockStore>> MapBlocks(
    const BlockStore& input,
    const std::function<Status(int64_t, int64_t, Tensor*)>& fn,
    ExecContext* ctx);

// Row-wise softmax. Needs whole rows, so it assembles one row-block
// strip (block_rows x total_cols) at a time.
Result<std::unique_ptr<BlockStore>> BlockSoftmaxRows(
    const BlockStore& input, ExecContext* ctx);

// Appends logical rows of a fixed-width matrix into a block store in
// sequential chunks — used by the relation-centric convolution to
// stream each image's output feature map into the next activation
// relation without materializing it.
class BlockedRowAppender {
 public:
  // Creates a store of shape [num_rows, row_width] with row-strip
  // blocks (block_rows=1, block_cols=ctx block area) and positions the
  // cursor at (0, 0).
  static Result<BlockedRowAppender> Create(int64_t num_rows,
                                           int64_t row_width,
                                           ExecContext* ctx);

  // Appends `n` values to the current row. Must not overflow the row.
  Status Append(const float* values, int64_t n);

  // Finishes the current row (it must be exactly full) and moves to
  // the next.
  Status EndRow();

  // Releases the completed store (all rows must be ended).
  Result<std::unique_ptr<BlockStore>> Finish();

 private:
  BlockedRowAppender() = default;

  ExecContext* ctx_ = nullptr;
  std::unique_ptr<BlockStore> store_;
  int64_t num_rows_ = 0;
  int64_t row_width_ = 0;
  int64_t block_width_ = 0;
  int64_t current_row_ = 0;
  int64_t current_col_ = 0;
  Tensor pending_;  // current partial block
};

// Loads one logical row [width] of a store as a tensor (used to pull a
// single image out of an activation relation).
Result<Tensor> LoadRow(const BlockStore& store, int64_t row,
                       ExecContext* ctx);

// Streams a [rows, cols] matrix into a block relation one row at a
// time — how a table scan feeds a batch too large to materialize.
// The emitted geometry keeps the context's column blocking (so the
// store joins correctly against chunked weights in BlockMatMul) but
// shrinks the row-strip height so the internal buffer stays at one
// nominal block:  strip_rows = max(1, block_rows*block_cols / cols).
class MatrixStreamWriter {
 public:
  static Result<MatrixStreamWriter> Create(int64_t rows, int64_t cols,
                                           ExecContext* ctx);

  // Appends one full row (`cols` floats).
  Status AppendRow(const float* row);

  // All rows must have been appended.
  Result<std::unique_ptr<BlockStore>> Finish();

 private:
  MatrixStreamWriter() = default;

  Status FlushStrip();

  ExecContext* ctx_ = nullptr;
  std::unique_ptr<BlockStore> store_;
  Tensor strip_;            // [strip_rows, cols] staging buffer
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t strip_rows_ = 0;  // nominal strip height
  int64_t next_row_ = 0;    // rows appended so far
  int64_t in_strip_ = 0;    // rows buffered in the current strip
};

}  // namespace blockops
}  // namespace relserve

#endif  // RELSERVE_ENGINE_BLOCK_OPS_H_
