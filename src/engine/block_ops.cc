#include "engine/block_ops.h"

#include <atomic>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "kernels/gemm_packed.h"
#include "kernels/kernels.h"

namespace relserve {
namespace blockops {

namespace {

// (row_block, col_block) -> entry index for O(1) join probes.
using BlockIndex = std::unordered_map<int64_t, int64_t>;

BlockIndex IndexEntries(const BlockStore& store) {
  const int64_t num_cb = store.geometry().NumColBlocks();
  BlockIndex index;
  index.reserve(store.entries().size());
  for (int64_t i = 0; i < static_cast<int64_t>(store.entries().size());
       ++i) {
    const BlockStore::BlockEntry& e = store.entries()[i];
    index[e.row_block * num_cb + e.col_block] = i;
  }
  return index;
}

Result<std::unique_ptr<BlockStore>> NewStore(ExecContext* ctx,
                                             BlockedShape geometry,
                                             bool panels = false) {
  if (ctx->buffer_pool == nullptr) {
    return Status::InvalidArgument(
        "relation-centric execution needs a buffer pool");
  }
  return std::make_unique<BlockStore>(ctx->buffer_pool, geometry,
                                      panels);
}

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// A BlockMatMul morsel keeps its X strip resident only while the
// strips of all concurrent morsels fit this fraction (1/8) of the
// working-memory limit.
constexpr int64_t kStripCacheShare = 8;

// Runs body(i) for each i in [0, n) as ParallelFor morsels (serial
// when the pool is absent or there is a single task). On error the
// remaining morsels are skipped and one of the failing statuses is
// returned; blocks already written to the output store are recycled
// with it.
Status ParallelBlockTasks(ThreadPool* pool, int64_t n,
                          const std::function<Status(int64_t)>& body) {
  if (pool == nullptr || n <= 1) {
    for (int64_t i = 0; i < n; ++i) {
      RELSERVE_RETURN_NOT_OK(body(i));
    }
    return Status::OK();
  }
  std::mutex mu;
  Status first;
  std::atomic<bool> failed{false};
  pool->ParallelFor(
      0, n,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if (failed.load(std::memory_order_relaxed)) return;
          Status s = body(i);
          if (!s.ok()) {
            failed.store(true, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mu);
            if (first.ok()) first = std::move(s);
          }
        }
      },
      /*grain=*/1);
  return first;
}

}  // namespace

Result<std::unique_ptr<BlockStore>> ChunkMatrix(const Tensor& m,
                                                ExecContext* ctx,
                                                bool share_weights) {
  if (m.shape().ndim() != 2) {
    return Status::InvalidArgument("ChunkMatrix expects a matrix");
  }
  BlockedShape geometry{m.shape().dim(0), m.shape().dim(1),
                        ctx->block_rows, ctx->block_cols};
  std::unique_ptr<BlockStore> store;
  if (share_weights && ctx->block_index != nullptr) {
    store = std::make_unique<BlockStore>(
        ctx->block_index, geometry, /*tolerance=*/0.0f, /*panels=*/true);
  } else {
    RELSERVE_ASSIGN_OR_RETURN(store,
                              NewStore(ctx, geometry, share_weights));
  }
  if (!share_weights) {
    RELSERVE_RETURN_NOT_OK(store->PutMatrix(m, ctx->tracker));
  } else {
    // One block and its panel at a time. Packing is deterministic, so
    // identical blocks still resolve to one physical block.
    for (int64_t rb = 0; rb < geometry.NumRowBlocks(); ++rb) {
      for (int64_t cb = 0; cb < geometry.NumColBlocks(); ++cb) {
        RELSERVE_ASSIGN_OR_RETURN(
            TensorBlock block,
            ExtractBlock(m, geometry, rb, cb, ctx->tracker));
        RELSERVE_ASSIGN_OR_RETURN(
            kernels::Weight packed,
            kernels::PackWeightTransB(block.data, ctx->tracker));
        RELSERVE_RETURN_NOT_OK(store->Put(TensorBlock{
            rb, cb, std::get<Tensor>(std::move(packed.payload))}));
      }
    }
  }
  ctx->stats.chunkings.Add();
  ctx->stats.blocks_written.Add(
      static_cast<int64_t>(store->entries().size()));
  return store;
}

Result<Tensor> Assemble(const BlockStore& store, ExecContext* ctx) {
  ctx->stats.assembles.Add();
  ctx->stats.blocks_read.Add(
      static_cast<int64_t>(store.entries().size()));
  if (!store.holds_panels()) return store.ToMatrix(ctx->tracker);
  const BlockedShape& g = store.geometry();
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor out, Tensor::Zeros(Shape{g.rows, g.cols}, ctx->tracker));
  const std::vector<BlockStore::BlockEntry>& entries = store.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const BlockStore::BlockEntry& entry = entries[i];
    // The next panel's pages load while this one unpacks.
    if (i + 1 < entries.size()) store.PrefetchEntry(entries[i + 1]);
    // A panel's payload rows are padded to whole slivers; the block's
    // own rows come from the geometry.
    RELSERVE_ASSIGN_OR_RETURN(TensorBlock panel, store.Get(entry));
    kernels::UnpackWeightTransB(
        panel.data.data(), g.RowsInBlock(entry.row_block), entry.cols,
        kernels::ActivePanelNr(),
        out.data() + entry.row_block * g.block_rows * g.cols +
            entry.col_block * g.block_cols,
        g.cols);
  }
  return out;
}

Result<std::unique_ptr<BlockStore>> BlockMatMul(
    const BlockStore& x, const BlockStore& w, ExecContext* ctx,
    const BlockFn* epilogue) {
  const BlockedShape& xg = x.geometry();
  const BlockedShape& wg = w.geometry();
  if (xg.cols != wg.cols) {
    return Status::InvalidArgument(
        "BlockMatMul inner dimension mismatch: x cols " +
        std::to_string(xg.cols) + " vs w cols " +
        std::to_string(wg.cols));
  }
  if (xg.block_cols != wg.block_cols) {
    return Status::InvalidArgument(
        "BlockMatMul inner block width mismatch");
  }
  if (x.holds_panels()) {
    return Status::InvalidArgument("BlockMatMul x must be row-major");
  }
  if (!w.holds_panels()) {
    return Status::InvalidArgument(
        "BlockMatMul w must be a panel store (ChunkMatrix with "
        "share_weights)");
  }
  BlockedShape cg{xg.rows, wg.rows, xg.block_rows, wg.block_rows};
  RELSERVE_ASSIGN_OR_RETURN(std::unique_ptr<BlockStore> c,
                            NewStore(ctx, cg));

  const BlockIndex x_index = IndexEntries(x);
  const BlockIndex w_index = IndexEntries(w);
  const int64_t inner_blocks = xg.NumColBlocks();
  const int64_t num_rb = xg.NumRowBlocks();
  const int64_t num_jb = wg.NumRowBlocks();
  if (num_rb == 0 || num_jb == 0) return c;
  auto find = [](const BlockIndex& index, const BlockStore& store,
                 int64_t rb, int64_t cb) -> const BlockStore::BlockEntry* {
    const auto it =
        index.find(rb * store.geometry().NumColBlocks() + cb);
    return it == index.end() ? nullptr : &store.entries()[it->second];
  };

  // Morsel = one row strip rb of X and a range of its output blocks
  // jb, joined in (jb, kb) order: each output block (rb, jb)
  // aggregates its partials over kb in ascending order into its own
  // accumulator before the single write, so results are bit-identical
  // to the serial plan no matter how morsels land on threads. A strip
  // is one morsel unless the pool has more threads than there are
  // strips; then its jb range splits so every thread gets a morsel.
  const int64_t threads =
      ctx->pool != nullptr ? ctx->pool->num_threads() : 1;
  const int64_t jb_span =
      CeilDiv(num_jb, std::min(num_jb, CeilDiv(threads, num_rb)));
  const int64_t ranges = CeilDiv(num_jb, jb_span);
  const int64_t morsels = num_rb * ranges;
  // Intra-GEMM parallelism is only worth adding when there are still
  // too few morsels to occupy the pool; it partitions the packed
  // macro-tiles (row ranges of C), which also preserves each
  // element's accumulation order.
  ThreadPool* inner_pool =
      (ctx->pool != nullptr && morsels < threads) ? ctx->pool : nullptr;
  // A morsel packs each X block it joins into the micro-kernel's A
  // panels straight from its pages. It keeps its strip's packed blocks
  // (RoundUp(block_rows, kMr) x K floats) across its output blocks,
  // packing each once instead of once per jb, only while the strips
  // of all concurrent morsels fit 1/kStripCacheShare of the
  // working-memory limit. Otherwise — a wide K — it packs the X block
  // of every join step into one panel.
  const int64_t limit = ctx->tracker != nullptr
                            ? ctx->tracker->limit_bytes()
                            : MemoryTracker::kUnlimited;
  const int64_t strip_bytes =
      kernels::internal::PackedASize(xg.block_rows, xg.cols) *
      static_cast<int64_t>(sizeof(float));
  const bool cache_strip =
      jb_span > 1 && strip_bytes <= limit / kStripCacheShare /
                                        std::min(morsels, threads);

  auto compute_morsel = [&](int64_t t) -> Status {
    const int64_t rb = t / ranges;
    const int64_t jb_lo = (t % ranges) * jb_span;
    const int64_t jb_hi = std::min(num_jb, jb_lo + jb_span);
    const int64_t m = xg.RowsInBlock(rb);
    // Start the first weight block's pages loading under the first X
    // pack.
    if (const auto* first = find(w_index, w, jb_lo, 0)) {
      w.PrefetchEntry(*first);
    }
    // Packed X blocks, the strip's (slot kb) or one reused per step
    // (slot 0), each packed from its pages; packed_kb[slot] is the
    // block a slot holds.
    std::vector<Tensor> x_panels(cache_strip ? inner_blocks : 1);
    std::vector<int64_t> packed_kb(x_panels.size(), -1);
    // A weight sliver split across two pages is gathered here.
    RELSERVE_ASSIGN_OR_RETURN(
        Tensor straddle,
        Tensor::Create(
            Shape{kernels::internal::PanelSliverFloats(xg.block_cols)},
            ctx->tracker));
    Tensor acc;  // the morsel's; a ragged last jb gets its own shape
    for (int64_t jb = jb_lo; jb < jb_hi; ++jb) {
      const int64_t n = cg.ColsInBlock(jb);
      if (!acc.is_valid() || acc.shape().dim(1) != n) {
        RELSERVE_ASSIGN_OR_RETURN(
            acc, Tensor::Create(Shape{m, n}, ctx->tracker));
      }
      // The first partial writes the accumulator, later ones add to
      // it: a chain started from a stored +0.0 would give the same
      // bits.
      bool written = false;
      // The join on the inner block index kb.
      for (int64_t kb = 0; kb < inner_blocks; ++kb) {
        const BlockStore::BlockEntry* xe = find(x_index, x, rb, kb);
        const BlockStore::BlockEntry* we = find(w_index, w, jb, kb);
        if (xe == nullptr || we == nullptr) {
          continue;  // absent block == all-zero contribution
        }
        const int64_t slot = cache_strip ? kb : 0;
        Tensor& x_panel = x_panels[slot];
        if (packed_kb[slot] != kb) {
          if (!x_panel.is_valid()) {
            RELSERVE_ASSIGN_OR_RETURN(
                x_panel, Tensor::Create(
                             Shape{kernels::internal::PackedASize(
                                 m, cache_strip ? xe->cols : xg.block_cols)},
                             ctx->tracker));
          }
          RELSERVE_RETURN_NOT_OK(x.VisitPages(
              *xe, [&](int64_t pos, const float* src, int64_t count) {
                kernels::internal::PackARun(src, pos, count, m, xe->cols,
                                            x_panel.data());
                return Status::OK();
              }));
          packed_kb[slot] = kb;
          ctx->stats.blocks_read.Add();
        }
        // Overlap I/O with compute: the next join step's pages load
        // while this partial product runs.
        const bool last_kb = kb + 1 == inner_blocks;
        if (!last_kb || jb + 1 < jb_hi) {
          const int64_t next_jb = last_kb ? jb + 1 : jb;
          const int64_t next_kb = last_kb ? 0 : kb + 1;
          if (const auto* wn = find(w_index, w, next_jb, next_kb)) {
            w.PrefetchEntry(*wn);
          }
          if (!cache_strip || next_jb == jb_lo) {
            if (const auto* xn = find(x_index, x, rb, next_kb)) {
              x.PrefetchEntry(*xn);
            }
          }
        }
        const int64_t k = xg.ColsInBlock(kb);
        // The weight block's panel, read in place one pinned page at
        // a time.
        ctx->stats.blocks_read.Add();
        RELSERVE_RETURN_NOT_OK(w.VisitPages(
            *we, [&](int64_t pos, const float* run, int64_t count) {
              return kernels::internal::GemmPanelRun(
                  m, n, k, x_panel.data(), pos, run, count, acc.data(),
                  /*ldc=*/n, /*accumulate=*/written, inner_pool,
                  straddle.data());
            }));
        written = true;
      }
      if (!written) std::memset(acc.data(), 0, acc.ByteSize());
      if (epilogue != nullptr) {
        RELSERVE_RETURN_NOT_OK((*epilogue)(rb, jb, &acc));
      }
      RELSERVE_RETURN_NOT_OK(c->Put(TensorBlock{rb, jb, acc}));
      ctx->stats.blocks_written.Add();
    }
    return Status::OK();
  };
  RELSERVE_RETURN_NOT_OK(
      ParallelBlockTasks(ctx->pool, morsels, compute_morsel));
  return c;
}

Result<std::unique_ptr<BlockStore>> MapBlocks(
    const BlockStore& input,
    const std::function<Status(int64_t, int64_t, Tensor*)>& fn,
    ExecContext* ctx) {
  RELSERVE_ASSIGN_OR_RETURN(std::unique_ptr<BlockStore> out,
                            NewStore(ctx, input.geometry()));
  const int64_t n = static_cast<int64_t>(input.entries().size());
  RELSERVE_RETURN_NOT_OK(ParallelBlockTasks(
      ctx->pool, n, [&](int64_t i) -> Status {
        const BlockStore::BlockEntry& entry = input.entries()[i];
        RELSERVE_ASSIGN_OR_RETURN(TensorBlock block,
                                  input.Get(entry, ctx->tracker));
        ctx->stats.blocks_read.Add();
        // Pipeline the scan: the next entry's pages load while this
        // block's transform computes.
        if (i + 1 < n) input.PrefetchEntry(input.entries()[i + 1]);
        RELSERVE_RETURN_NOT_OK(
            fn(block.row_block, block.col_block, &block.data));
        RELSERVE_RETURN_NOT_OK(out->Put(block));
        ctx->stats.blocks_written.Add();
        return Status::OK();
      }));
  return out;
}

Result<std::unique_ptr<BlockStore>> BlockSoftmaxRows(
    const BlockStore& input, ExecContext* ctx) {
  const BlockedShape& g = input.geometry();
  RELSERVE_ASSIGN_OR_RETURN(std::unique_ptr<BlockStore> out,
                            NewStore(ctx, g));
  const BlockIndex index = IndexEntries(input);
  const int64_t num_cb = g.NumColBlocks();
  // Morsel = one row-block strip: softmax normalizes within a row, so
  // strips are independent.
  RELSERVE_RETURN_NOT_OK(ParallelBlockTasks(
      ctx->pool, g.NumRowBlocks(), [&](int64_t rb) -> Status {
    const int64_t br = g.RowsInBlock(rb);
    // Assemble one row strip: needs whole rows for the normalization.
    RELSERVE_ASSIGN_OR_RETURN(
        Tensor strip, Tensor::Zeros(Shape{br, g.cols}, ctx->tracker));
    for (int64_t cb = 0; cb < num_cb; ++cb) {
      const auto it = index.find(rb * num_cb + cb);
      if (it == index.end()) continue;
      if (cb + 1 < num_cb) {
        const auto next = index.find(rb * num_cb + cb + 1);
        if (next != index.end()) {
          input.PrefetchEntry(input.entries()[next->second]);
        }
      }
      RELSERVE_RETURN_NOT_OK(input.ReadInto(input.entries()[it->second],
                                            strip.data() + cb * g.block_cols,
                                            g.cols));
      ctx->stats.blocks_read.Add();
    }
    RELSERVE_RETURN_NOT_OK(kernels::SoftmaxRowsInPlace(&strip));
    for (int64_t cb = 0; cb < num_cb; ++cb) {
      const int64_t bc = g.ColsInBlock(cb);
      const int64_t col0 = cb * g.block_cols;
      RELSERVE_ASSIGN_OR_RETURN(
          Tensor payload, Tensor::Create(Shape{br, bc}, ctx->tracker));
      for (int64_t r = 0; r < br; ++r) {
        std::memcpy(payload.data() + r * bc,
                    strip.data() + r * g.cols + col0,
                    bc * sizeof(float));
      }
      RELSERVE_RETURN_NOT_OK(
          out->Put(TensorBlock{rb, cb, std::move(payload)}));
      ctx->stats.blocks_written.Add();
    }
    return Status::OK();
  }));
  return out;
}

Result<BlockedRowAppender> BlockedRowAppender::Create(int64_t num_rows,
                                                      int64_t row_width,
                                                      ExecContext* ctx) {
  BlockedRowAppender appender;
  appender.ctx_ = ctx;
  appender.num_rows_ = num_rows;
  appender.row_width_ = row_width;
  // Keep each row-strip block the same element count as a regular
  // block so working-set accounting is uniform.
  appender.block_width_ =
      std::min(row_width, ctx->block_rows * ctx->block_cols);
  BlockedShape geometry{num_rows, row_width, 1, appender.block_width_};
  RELSERVE_ASSIGN_OR_RETURN(appender.store_, NewStore(ctx, geometry));
  return appender;
}

Status BlockedRowAppender::Append(const float* values, int64_t n) {
  while (n > 0) {
    if (current_col_ >= row_width_) {
      return Status::InvalidArgument("row overflow in appender");
    }
    const int64_t cb = current_col_ / block_width_;
    const int64_t block_cols =
        store_->geometry().ColsInBlock(cb);
    const int64_t offset_in_block = current_col_ % block_width_;
    if (!pending_.is_valid()) {
      RELSERVE_ASSIGN_OR_RETURN(
          pending_, Tensor::Zeros(Shape{1, block_cols}, ctx_->tracker));
    }
    const int64_t take = std::min(n, block_cols - offset_in_block);
    std::memcpy(pending_.data() + offset_in_block, values,
                take * sizeof(float));
    values += take;
    n -= take;
    current_col_ += take;
    if (current_col_ % block_width_ == 0 ||
        current_col_ == row_width_) {
      RELSERVE_RETURN_NOT_OK(
          store_->Put(TensorBlock{current_row_, cb, std::move(pending_)}));
      ctx_->stats.blocks_written.Add();
      pending_ = Tensor();
    }
  }
  return Status::OK();
}

Status BlockedRowAppender::EndRow() {
  if (current_col_ != row_width_) {
    return Status::InvalidArgument(
        "EndRow with " + std::to_string(current_col_) + "/" +
        std::to_string(row_width_) + " values written");
  }
  current_col_ = 0;
  ++current_row_;
  return Status::OK();
}

Result<std::unique_ptr<BlockStore>> BlockedRowAppender::Finish() {
  if (current_row_ != num_rows_) {
    return Status::InvalidArgument(
        "Finish with " + std::to_string(current_row_) + "/" +
        std::to_string(num_rows_) + " rows written");
  }
  return std::move(store_);
}

Result<MatrixStreamWriter> MatrixStreamWriter::Create(int64_t rows,
                                                      int64_t cols,
                                                      ExecContext* ctx) {
  if (rows <= 0 || cols <= 0) {
    return Status::InvalidArgument("empty matrix stream");
  }
  MatrixStreamWriter writer;
  writer.ctx_ = ctx;
  writer.rows_ = rows;
  writer.cols_ = cols;
  const int64_t block_elems = ctx->block_rows * ctx->block_cols;
  writer.strip_rows_ = std::max<int64_t>(
      1, std::min(rows, block_elems / std::max<int64_t>(1, cols)));
  BlockedShape geometry{rows, cols, writer.strip_rows_,
                        ctx->block_cols};
  RELSERVE_ASSIGN_OR_RETURN(writer.store_, NewStore(ctx, geometry));
  RELSERVE_ASSIGN_OR_RETURN(
      writer.strip_,
      Tensor::Create(Shape{writer.strip_rows_, cols}, ctx->tracker));
  return writer;
}

Status MatrixStreamWriter::FlushStrip() {
  if (in_strip_ == 0) return Status::OK();
  const int64_t rb = (next_row_ - in_strip_) / strip_rows_;
  const BlockedShape& g = store_->geometry();
  for (int64_t cb = 0; cb < g.NumColBlocks(); ++cb) {
    const int64_t bc = g.ColsInBlock(cb);
    const int64_t col0 = cb * g.block_cols;
    RELSERVE_ASSIGN_OR_RETURN(
        Tensor payload,
        Tensor::Create(Shape{in_strip_, bc}, ctx_->tracker));
    for (int64_t r = 0; r < in_strip_; ++r) {
      std::memcpy(payload.data() + r * bc,
                  strip_.data() + r * cols_ + col0, bc * sizeof(float));
    }
    RELSERVE_RETURN_NOT_OK(
        store_->Put(TensorBlock{rb, cb, std::move(payload)}));
    ctx_->stats.blocks_written.Add();
  }
  in_strip_ = 0;
  return Status::OK();
}

Status MatrixStreamWriter::AppendRow(const float* row) {
  if (next_row_ >= rows_) {
    return Status::InvalidArgument("matrix stream overflow");
  }
  std::memcpy(strip_.data() + in_strip_ * cols_, row,
              cols_ * sizeof(float));
  ++in_strip_;
  ++next_row_;
  if (in_strip_ == strip_rows_) {
    RELSERVE_RETURN_NOT_OK(FlushStrip());
  }
  return Status::OK();
}

Result<std::unique_ptr<BlockStore>> MatrixStreamWriter::Finish() {
  if (next_row_ != rows_) {
    return Status::InvalidArgument(
        "matrix stream finished with " + std::to_string(next_row_) +
        "/" + std::to_string(rows_) + " rows");
  }
  RELSERVE_RETURN_NOT_OK(FlushStrip());
  return std::move(store_);
}

Result<Tensor> LoadRow(const BlockStore& store, int64_t row,
                       ExecContext* ctx) {
  const BlockedShape& g = store.geometry();
  if (row < 0 || row >= g.rows) {
    return Status::InvalidArgument("row out of range");
  }
  RELSERVE_ASSIGN_OR_RETURN(Tensor out,
                            Tensor::Zeros(Shape{g.cols}, ctx->tracker));
  const BlockIndex index = IndexEntries(store);
  const int64_t rb = row / g.block_rows;
  const int64_t offset = row % g.block_rows;
  const int64_t num_cb = g.NumColBlocks();
  for (int64_t cb = 0; cb < num_cb; ++cb) {
    const auto it = index.find(rb * num_cb + cb);
    if (it == index.end()) continue;
    RELSERVE_ASSIGN_OR_RETURN(
        TensorBlock block,
        store.Get(store.entries()[it->second], ctx->tracker));
    ctx->stats.blocks_read.Add();
    const int64_t bc = block.data.shape().dim(1);
    std::memcpy(out.data() + cb * g.block_cols,
                block.data.data() + offset * bc, bc * sizeof(float));
  }
  return out;
}

}  // namespace blockops
}  // namespace relserve
