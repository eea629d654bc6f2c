// HybridExecutor: the stage runner over compiled physical plans.
//
// This is the paper's "middle ground": any subgraph may execute
// UDF-centric (whole tensors in the working arena) or
// relation-centric (block relations through the buffer pool), with
// transitions between the two. A plan of all-UDF nodes is the pure
// UDF-centric architecture; all-relational is the pure
// relation-centric architecture; the adaptive optimizer emits mixes.
//
// All of those decisions are taken once, at deploy time, by
// PhysicalPlan::Compile. Serving a request is a flat loop over the
// compiled stages — no graph walking, no per-request dispatch on
// op kind x representation, elementwise chains fused into their
// producer — that records per-stage wall time, rows and bytes into
// the plan's StageStats (rendered by EXPLAIN ANALYZE).
//
// Every allocation on the UDF path is charged to the context arena, so
// an operator whose whole-tensor footprint exceeds the arena comes
// back as Status::OutOfMemory — the Table 3 outcome. A storage-tier
// failure inside a relation-centric stage re-executes just that stage
// UDF-centric (same math, same bits), preserving PR-4's graceful
// degradation.

#ifndef RELSERVE_ENGINE_HYBRID_EXECUTOR_H_
#define RELSERVE_ENGINE_HYBRID_EXECUTOR_H_

#include <memory>

#include "common/result.h"
#include "engine/block_ops.h"
#include "engine/exec_context.h"
#include "engine/physical_plan.h"
#include "storage/block_store.h"
#include "tensor/tensor.h"

namespace relserve {

// The result of an inference: whole tensor if the final stage ran
// UDF-centric, block relation if it ran relation-centric (a
// larger-than-memory output stays blocked, as LandCover's feature map
// must).
struct ExecOutput {
  Tensor tensor;
  std::unique_ptr<BlockStore> store;

  bool blocked() const { return store != nullptr; }

  // Materializes the output as a whole tensor (assembling a blocked
  // result through the arena, which may OOM if it truly does not fit).
  Result<Tensor> ToTensor(ExecContext* ctx) const;
};

class HybridExecutor {
 public:
  // `input` is the batched feature tensor, batch on dim 0, sample
  // dims matching the model's sample shape.
  static Result<ExecOutput> Run(const PhysicalPlan& plan,
                                const Tensor& input, ExecContext* ctx);

  // Runs one stage of a compiled plan on a whole-tensor chunk
  // ([rows, sample...], handed over so in-place epilogues may reuse
  // it), with the same fallback and StageStats accounting
  // as Run. Returns the stage's output whole. This is the entry point
  // of the pipelined schedule (PipelineExecutor).
  static Result<Tensor> RunChunk(const PhysicalStage& stage, Tensor chunk,
                                 ExecContext* ctx);

  // Runs on an input that is already a block relation
  // ([batch, sample_width]) — used when the batch itself exceeds the
  // working arena and was streamed into the store straight from a
  // table scan, never materialized whole.
  static Result<ExecOutput> RunOnStore(
      const PhysicalPlan& plan, std::unique_ptr<BlockStore> input_store,
      ExecContext* ctx);
};

// A stage's fused bias/relu chain as a per-block pass (the epilogue of
// BlockMatMul or MapBlocks): block cb adds the bias slice from column
// cb * nominal_block_cols, read in place. `ops` must outlive it.
blockops::BlockFn MakeBlockEpilogue(const std::vector<EpilogueOp>& ops,
                                    int64_t nominal_block_cols);

}  // namespace relserve

#endif  // RELSERVE_ENGINE_HYBRID_EXECUTOR_H_
