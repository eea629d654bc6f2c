#include "engine/hybrid_executor.h"

#include <algorithm>
#include <chrono>

#include "engine/block_ops.h"
#include "kernels/kernels.h"
#include "kernels/topk.h"

namespace relserve {

namespace {

// The runner's rolling activation: exactly one of tensor/store set.
struct Activation {
  Tensor tensor;
  std::unique_ptr<BlockStore> store;
  // Whether `tensor` is writable (false while it aliases the caller's
  // input buffer).
  bool owned = false;

  bool blocked() const { return store != nullptr; }
};

// Blocked -> whole (or reshape a whole tensor to the expected shape).
// Idempotent: compiled ReprTransition stages and the per-stage entry
// guards both funnel through here, so a runtime representation drift
// (a fallback left the activation whole where the plan expects
// blocked, or vice versa) self-corrects at the next stage.
Status EnsureWhole(Activation* act, const Shape& expected,
                   ExecContext* ctx) {
  if (act->blocked()) {
    RELSERVE_ASSIGN_OR_RETURN(Tensor assembled,
                              blockops::Assemble(*act->store, ctx));
    RELSERVE_ASSIGN_OR_RETURN(act->tensor,
                              assembled.Reshape(expected));
    act->store.reset();
    act->owned = true;
    return Status::OK();
  }
  if (act->tensor.shape() != expected) {
    RELSERVE_ASSIGN_OR_RETURN(act->tensor,
                              act->tensor.Reshape(expected));
  }
  return Status::OK();
}

// Whole -> blocked matrix [batch, width].
Status EnsureBlocked(Activation* act, int64_t batch, ExecContext* ctx) {
  if (act->blocked()) return Status::OK();
  const int64_t width = act->tensor.NumElements() / batch;
  RELSERVE_ASSIGN_OR_RETURN(Tensor flat,
                            act->tensor.Reshape(Shape{batch, width}));
  RELSERVE_ASSIGN_OR_RETURN(act->store,
                            blockops::ChunkMatrix(flat, ctx));
  act->tensor = Tensor();
  act->owned = false;
  return Status::OK();
}

// Makes the whole tensor writable for in-place ops.
Status EnsureOwned(Activation* act, ExecContext* ctx) {
  if (act->owned) return Status::OK();
  RELSERVE_ASSIGN_OR_RETURN(act->tensor,
                            act->tensor.Clone(ctx->tracker));
  act->owned = true;
  return Status::OK();
}

// Applies a stage's fused elementwise chain to the whole activation,
// in plan order — the same kernel calls the unfused path makes, on
// the same buffer, so results are bit-identical.
Status ApplyWholeEpilogue(const std::vector<EpilogueOp>& ops,
                          Activation* act, ExecContext* ctx) {
  if (ops.empty()) return Status::OK();
  RELSERVE_RETURN_NOT_OK(EnsureOwned(act, ctx));
  for (const EpilogueOp& op : ops) {
    switch (op.op) {
      case OpKind::kBiasAdd:
        RELSERVE_RETURN_NOT_OK(
            kernels::BiasAddInPlace(&act->tensor, *op.bias));
        break;
      case OpKind::kRelu:
        kernels::ReluInPlace(&act->tensor);
        break;
      case OpKind::kSoftmax:
        RELSERVE_RETURN_NOT_OK(
            kernels::SoftmaxRowsInPlace(&act->tensor));
        break;
      default:
        return Status::InvalidArgument("bad epilogue op");
    }
  }
  return Status::OK();
}

}  // namespace

blockops::BlockFn MakeBlockEpilogue(const std::vector<EpilogueOp>& ops,
                                    int64_t nominal_block_cols) {
  return [&ops, nominal_block_cols](int64_t, int64_t cb,
                                    Tensor* payload) -> Status {
    for (const EpilogueOp& op : ops) {
      switch (op.op) {
        case OpKind::kBiasAdd:
          kernels::BiasAddInPlace(
              payload, op.bias->data() + cb * nominal_block_cols);
          break;
        case OpKind::kRelu:
          kernels::ReluInPlace(payload);
          break;
        default:
          return Status::InvalidArgument("bad block epilogue op");
      }
    }
    return Status::OK();
  };
}

namespace {

// Relation-centric convolution: streams each image through the
// im2col ("spatial rewriting") relation and a broadcast join with the
// kernel relation, appending output feature-map rows into the next
// activation relation. Working set: one image + one im2col block +
// one output strip. A fused relu applies to each strip as it is
// produced.
Status RelationalConv(const PhysicalStage& stage, int64_t batch,
                      Activation* act, ExecContext* ctx) {
  const Tensor* kernel = stage.kernel;
  const Shape in_shape = stage.InShape(batch);
  const Shape out_shape = stage.OutShape(batch);
  const int64_t h = in_shape.dim(1);
  const int64_t w = in_shape.dim(2);
  const int64_t c = in_shape.dim(3);
  const int64_t out_c = kernel->shape().dim(0);
  const int64_t kh = kernel->shape().dim(1);
  const int64_t kw = kernel->shape().dim(2);
  const int64_t patch = kh * kw * c;
  const int64_t out_pixels = out_shape.dim(1) * out_shape.dim(2);
  const bool fuse_relu = !stage.epilogue.empty();
  RELSERVE_ASSIGN_OR_RETURN(Tensor kernel_mat,
                            kernel->Reshape(Shape{out_c, patch}));

  // Pixel rows per chunk, sized so both the im2col block and the
  // output strip stay near one nominal block.
  const int64_t block_elems = ctx->block_rows * ctx->block_cols;
  const int64_t rows_per_chunk = std::max<int64_t>(
      1, block_elems / std::max<int64_t>(patch, out_c));

  RELSERVE_ASSIGN_OR_RETURN(
      blockops::BlockedRowAppender appender,
      blockops::BlockedRowAppender::Create(batch, out_pixels * out_c,
                                           ctx));
  for (int64_t img = 0; img < batch; ++img) {
    RELSERVE_ASSIGN_OR_RETURN(Tensor row,
                              blockops::LoadRow(*act->store, img, ctx));
    RELSERVE_ASSIGN_OR_RETURN(Tensor image,
                              row.Reshape(Shape{h, w, c}));
    for (int64_t p0 = 0; p0 < out_pixels; p0 += rows_per_chunk) {
      const int64_t p1 = std::min(out_pixels, p0 + rows_per_chunk);
      RELSERVE_ASSIGN_OR_RETURN(
          Tensor cols,
          Tensor::Create(Shape{p1 - p0, patch}, ctx->tracker));
      RELSERVE_RETURN_NOT_OK(
          kernels::Im2ColRowsInto(image, kh, kw, stage.stride, p0, p1,
                                  &cols));
      RELSERVE_ASSIGN_OR_RETURN(
          Tensor strip,
          kernels::MatMul(cols, kernel_mat, /*transpose_b=*/true,
                          ctx->tracker, ctx->pool));
      if (fuse_relu) kernels::ReluInPlace(&strip);
      RELSERVE_RETURN_NOT_OK(
          appender.Append(strip.data(), strip.NumElements()));
    }
    RELSERVE_RETURN_NOT_OK(appender.EndRow());
  }
  RELSERVE_ASSIGN_OR_RETURN(act->store, appender.Finish());
  act->tensor = Tensor();
  act->owned = false;
  return Status::OK();
}

}  // namespace

Result<Tensor> ExecOutput::ToTensor(ExecContext* ctx) const {
  if (!blocked()) return tensor;
  return blockops::Assemble(*store, ctx);
}

namespace {

// Executes one compiled stage, transforming `act` in place. On
// failure the activation's logical value is untouched (mutations go
// through RELSERVE_ASSIGN_OR_RETURN, which assigns only on success;
// the Ensure* helpers at most change its representation), which is
// what makes the per-stage representation fallback sound: the stage
// can be re-executed UDF-centric.
Status RunStage(const PhysicalStage& stage, int64_t batch,
                Activation* act, ExecContext* ctx) {
  switch (stage.kind) {
    case StageKind::kInputChunk:
      return EnsureBlocked(act, batch, ctx);
    case StageKind::kReprTransition:
      if (stage.to_blocked) return EnsureBlocked(act, batch, ctx);
      return EnsureWhole(act, stage.InShape(batch), ctx);
    case StageKind::kMatMul: {
      RELSERVE_RETURN_NOT_OK(
          EnsureWhole(act, stage.InShape(batch), ctx));
      RELSERVE_ASSIGN_OR_RETURN(
          act->tensor, kernels::MatMul(act->tensor, *stage.weight,
                                       ctx->tracker, ctx->pool));
      act->owned = true;
      return ApplyWholeEpilogue(stage.epilogue, act, ctx);
    }
    case StageKind::kMatMulTopK: {
      RELSERVE_RETURN_NOT_OK(
          EnsureWhole(act, stage.InShape(batch), ctx));
      kernels::TopKOptions opts;
      opts.k = stage.topk;
      // The fused epilogue compiles into the kernel's options: bias
      // and relu apply pre-selection, softmax to the k survivors.
      for (const EpilogueOp& op : stage.epilogue) {
        switch (op.op) {
          case OpKind::kBiasAdd:
            opts.bias = op.bias;
            break;
          case OpKind::kRelu:
            opts.relu = true;
            break;
          case OpKind::kSoftmax:
            opts.softmax = true;
            break;
          default:
            return Status::InvalidArgument("bad top-k epilogue op");
        }
      }
      RELSERVE_ASSIGN_OR_RETURN(
          Tensor out, Tensor::Create(Shape{batch, 2 * stage.topk},
                                     ctx->tracker));
      RELSERVE_RETURN_NOT_OK(kernels::MatMulTopKInto(
          act->tensor, *stage.weight, opts, &out, ctx->pool));
      act->tensor = std::move(out);
      act->owned = true;
      return Status::OK();
    }
    case StageKind::kBlockMatMul: {
      RELSERVE_RETURN_NOT_OK(EnsureBlocked(act, batch, ctx));
      if (act->store->geometry().block_cols !=
          stage.blocked_weight->geometry().block_cols) {
        // Upstream row-strip stores (e.g. relational conv output) use
        // a wider strip blocking than the chunked weight; re-chunk the
        // activation to the join geometry.
        RELSERVE_RETURN_NOT_OK(
            EnsureWhole(act, stage.InShape(batch), ctx));
        RELSERVE_RETURN_NOT_OK(EnsureBlocked(act, batch, ctx));
      }
      blockops::BlockFn fused;
      const blockops::BlockFn* epilogue = nullptr;
      if (!stage.epilogue.empty()) {
        // Output blocking of the join: C's column blocks follow W's
        // row blocks.
        fused = MakeBlockEpilogue(
            stage.epilogue, stage.blocked_weight->geometry().block_rows);
        epilogue = &fused;
      }
      RELSERVE_ASSIGN_OR_RETURN(
          act->store,
          blockops::BlockMatMul(*act->store, *stage.blocked_weight, ctx,
                                epilogue));
      return Status::OK();
    }
    case StageKind::kConv2D: {
      RELSERVE_RETURN_NOT_OK(
          EnsureWhole(act, stage.InShape(batch), ctx));
      RELSERVE_ASSIGN_OR_RETURN(
          act->tensor,
          kernels::Conv2D(act->tensor, *stage.kernel, stage.stride,
                          ctx->tracker, ctx->pool));
      act->owned = true;
      return ApplyWholeEpilogue(stage.epilogue, act, ctx);
    }
    case StageKind::kRelationalConv: {
      RELSERVE_RETURN_NOT_OK(EnsureBlocked(act, batch, ctx));
      return RelationalConv(stage, batch, act, ctx);
    }
    case StageKind::kMaxPool: {
      RELSERVE_RETURN_NOT_OK(
          EnsureWhole(act, stage.InShape(batch), ctx));
      RELSERVE_ASSIGN_OR_RETURN(
          act->tensor, kernels::MaxPool2x2(act->tensor, ctx->tracker));
      act->owned = true;
      return ApplyWholeEpilogue(stage.epilogue, act, ctx);
    }
    case StageKind::kFlatten: {
      // A blocked activation is already a [batch, width] relation.
      if (act->blocked()) return Status::OK();
      RELSERVE_ASSIGN_OR_RETURN(
          act->tensor, act->tensor.Reshape(stage.OutShape(batch)));
      return Status::OK();
    }
    case StageKind::kElementwise: {
      RELSERVE_RETURN_NOT_OK(
          EnsureWhole(act, stage.InShape(batch), ctx));
      return ApplyWholeEpilogue(stage.epilogue, act, ctx);
    }
    case StageKind::kBlockElementwise: {
      RELSERVE_RETURN_NOT_OK(EnsureBlocked(act, batch, ctx));
      blockops::BlockFn fn = MakeBlockEpilogue(
          stage.epilogue, act->store->geometry().block_cols);
      RELSERVE_ASSIGN_OR_RETURN(
          act->store, blockops::MapBlocks(*act->store, fn, ctx));
      return Status::OK();
    }
    case StageKind::kBlockSoftmax: {
      RELSERVE_RETURN_NOT_OK(EnsureBlocked(act, batch, ctx));
      RELSERVE_ASSIGN_OR_RETURN(
          act->store, blockops::BlockSoftmaxRows(*act->store, ctx));
      return Status::OK();
    }
    case StageKind::kColumnarScan:
    case StageKind::kColumnarGather:
      // Relational input stages; they run before the model pipeline
      // (ColumnarScan / ExecuteColumnarGather) and never compile into
      // a PhysicalPlan.
      return Status::Internal("columnar stage inside a model plan");
  }
  return Status::InvalidArgument("bad stage kind");
}

// Re-executes a relation-centric stage UDF-centric after a
// storage-tier failure — same math on whole tensors, so the result is
// bit-identical; only the physical plan differs. The blocked weight's
// pages are typically still hot in the pool even when fresh storage
// I/O is failing.
Status RunStageUdfFallback(const PhysicalStage& stage, int64_t batch,
                           Activation* act, ExecContext* ctx) {
  switch (stage.kind) {
    case StageKind::kInputChunk:
    case StageKind::kReprTransition:
      // The whole-tensor path simply does not need the blocked form;
      // downstream stages re-block (or fall back themselves).
      return Status::OK();
    case StageKind::kBlockMatMul: {
      RELSERVE_RETURN_NOT_OK(
          EnsureWhole(act, stage.InShape(batch), ctx));
      RELSERVE_ASSIGN_OR_RETURN(
          Tensor weight, blockops::Assemble(*stage.blocked_weight, ctx));
      RELSERVE_ASSIGN_OR_RETURN(
          act->tensor,
          kernels::MatMul(act->tensor, weight, /*transpose_b=*/true,
                          ctx->tracker, ctx->pool));
      act->owned = true;
      return ApplyWholeEpilogue(stage.epilogue, act, ctx);
    }
    case StageKind::kRelationalConv: {
      RELSERVE_RETURN_NOT_OK(
          EnsureWhole(act, stage.InShape(batch), ctx));
      RELSERVE_ASSIGN_OR_RETURN(
          act->tensor,
          kernels::Conv2D(act->tensor, *stage.kernel, stage.stride,
                          ctx->tracker, ctx->pool));
      act->owned = true;
      return ApplyWholeEpilogue(stage.epilogue, act, ctx);
    }
    case StageKind::kBlockElementwise: {
      RELSERVE_RETURN_NOT_OK(
          EnsureWhole(act, stage.InShape(batch), ctx));
      return ApplyWholeEpilogue(stage.epilogue, act, ctx);
    }
    case StageKind::kBlockSoftmax: {
      RELSERVE_RETURN_NOT_OK(
          EnsureWhole(act, stage.InShape(batch), ctx));
      RELSERVE_RETURN_NOT_OK(EnsureOwned(act, ctx));
      return kernels::SoftmaxRowsInPlace(&act->tensor);
    }
    default:
      // Stages that already execute whole-tensor (maxpool under a
      // relational decision): retry the same path.
      return RunStage(stage, batch, act, ctx);
  }
}

// Storage-tier failures that representation fallback can route
// around. OutOfMemory is excluded deliberately: the UDF path uses
// MORE memory than the relational one, so falling back would make an
// OOM worse, not better.
bool IsStorageFailure(const Status& status) {
  return status.IsIOError() || status.IsUnavailable() ||
         status.IsDataLoss();
}

// Runs one stage with the representation fallback and the per-stage
// accounting: wall time, rows and bytes into the plan's StageStats.
// Both schedules (RunPlan's whole-batch loop
// and PipelineExecutor's micro-batch stream) go through here.
Status ExecuteStage(const PhysicalStage& stage, int64_t batch,
                    Activation* act, ExecContext* ctx) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  Status s = RunStage(stage, batch, act, ctx);
  if (!s.ok() && stage.repr == Repr::kRelational && IsStorageFailure(s)) {
    // Graceful degradation: the relation-centric stage hit the
    // (failing) storage tier; re-execute just this stage UDF-centric —
    // same math, same bits, different physical plan.
    s = RunStageUdfFallback(stage, batch, act, ctx);
    if (s.ok()) {
      ctx->stats.repr_fallbacks.Add();
      stage.stats.fallbacks.Add();
    }
  }
  RELSERVE_RETURN_NOT_OK(s);
  const int64_t nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count();
  stage.stats.Record(
      nanos, batch,
      batch * stage.OutElemsPerRow() * static_cast<int64_t>(sizeof(float)));
  return Status::OK();
}

Result<ExecOutput> RunPlan(const PhysicalPlan& plan, Activation act,
                           int64_t batch, ExecContext* ctx) {
  for (const std::unique_ptr<PhysicalStage>& stage : plan.stages()) {
    RELSERVE_RETURN_NOT_OK(ExecuteStage(*stage, batch, &act, ctx));
  }

  ExecOutput out;
  if (act.blocked()) {
    out.store = std::move(act.store);
  } else {
    // Final shape as compiled (e.g. [batch, classes]).
    std::vector<int64_t> dims;
    dims.reserve(plan.output_sample().size() + 1);
    dims.push_back(batch);
    for (int64_t d : plan.output_sample()) dims.push_back(d);
    RELSERVE_ASSIGN_OR_RETURN(
        out.tensor, act.tensor.Reshape(Shape(std::move(dims))));
  }
  return out;
}

}  // namespace

Result<ExecOutput> HybridExecutor::Run(const PhysicalPlan& plan,
                                       const Tensor& input,
                                       ExecContext* ctx) {
  if (input.shape().ndim() < 1) {
    return Status::InvalidArgument("input must have a batch dimension");
  }
  Activation act;
  act.tensor = input;
  act.owned = false;
  return RunPlan(plan, std::move(act), input.shape().dim(0), ctx);
}

Result<Tensor> HybridExecutor::RunChunk(const PhysicalStage& stage,
                                        Tensor chunk, ExecContext* ctx) {
  if (chunk.shape().ndim() < 1) {
    return Status::InvalidArgument("chunk must have a batch dimension");
  }
  const int64_t rows = chunk.shape().dim(0);
  Activation act;
  act.tensor = std::move(chunk);
  act.owned = true;
  RELSERVE_RETURN_NOT_OK(ExecuteStage(stage, rows, &act, ctx));
  RELSERVE_RETURN_NOT_OK(EnsureWhole(&act, stage.OutShape(rows), ctx));
  return std::move(act.tensor);
}

Result<ExecOutput> HybridExecutor::RunOnStore(
    const PhysicalPlan& plan, std::unique_ptr<BlockStore> input_store,
    ExecContext* ctx) {
  if (input_store == nullptr) {
    return Status::InvalidArgument("null input store");
  }
  const int64_t batch = input_store->geometry().rows;
  Activation act;
  act.store = std::move(input_store);
  return RunPlan(plan, std::move(act), batch, ctx);
}

}  // namespace relserve
