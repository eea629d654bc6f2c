// PipelineExecutor: the paper's Sec. 5(2) — DL-style pipelining inside
// the RDBMS, as a second schedule over the same compiled plan the
// stage runner executes. Each PhysicalStage of the plan gets
// one worker; workers are connected by bounded queues of micro-batches
// and run every chunk through HybridExecutor::RunChunk, so pipelined
// runs get the same fused epilogues, kernel arms (int8, sparse, fused
// top-k) and EXPLAIN ANALYZE stage counters as whole-batch runs — and
// the same bits, since every stage computes each row independently.
//
// This is the *other* parallelism regime the paper contrasts with the
// RDBMS's data parallelism: peak memory is bounded by
//   stages x queue_capacity x micro-batch activation size
// instead of whole-batch activations, and no global shuffle is needed
// between operators. (With one worker per stage it also overlaps
// operator compute across micro-batches on multicore hosts.)

#ifndef RELSERVE_ENGINE_PIPELINE_EXECUTOR_H_
#define RELSERVE_ENGINE_PIPELINE_EXECUTOR_H_

#include <cstdint>

#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/physical_plan.h"
#include "tensor/tensor.h"

namespace relserve {

struct PipelineConfig {
  // Rows per in-flight micro-batch.
  int64_t micro_batch_rows = 64;
  // Bounded queue depth between adjacent stages (backpressure).
  int64_t queue_capacity = 2;
};

class PipelineExecutor {
 public:
  // Runs the compiled plan as a stage-per-worker stream pipeline over
  // `input` ([batch, sample...]). Every node must have been compiled
  // with the UDF representation (stages execute whole micro-batch
  // tensors). Returns the assembled [batch, out...] prediction.
  static Result<Tensor> Run(const PhysicalPlan& plan,
                            const Tensor& input, ExecContext* ctx,
                            PipelineConfig config = PipelineConfig());
};

}  // namespace relserve

#endif  // RELSERVE_ENGINE_PIPELINE_EXECUTOR_H_
