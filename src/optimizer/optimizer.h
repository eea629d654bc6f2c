// The rule-based adaptive optimizer of the paper's Sec. 7.1.
//
// For every operator it estimates the memory requirement as the sum of
// the operator's input, weight, and output sizes (for a matmul with
// inputs m x k and k x n this is exactly the paper's
// m*k + k*n + m*n rule) and selects the relation-centric
// representation when the estimate exceeds a configurable threshold,
// the UDF-centric representation otherwise.

#ifndef RELSERVE_OPTIMIZER_OPTIMIZER_H_
#define RELSERVE_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>

#include "common/result.h"
#include "graph/model.h"
#include "optimizer/plan.h"

namespace relserve {

// Estimated working-set bytes of one operator at `batch_size`:
// input activation + weight + output activation (float32).
// InvalidArgument when the estimate overflows int64.
Result<int64_t> EstimateNodeBytes(const Model& model, int node_id,
                                  int64_t batch_size);

// Break-even density of the sparse arm, calibrated from the kernels'
// measured throughput ratio: the CSR chain sustains roughly 1/4 of
// the packed fp32 GEMM's effective FLOP rate (indexed gathers vs
// contiguous FMA), so sparse wins once >75% of the multiplies are
// skippable.
inline constexpr double kSparseDensityThreshold = 0.25;

// Kernel-arm knobs for the optimizer. Defaults leave every arm off so
// existing deployments (and golden plan texts) are unchanged; a model
// opts in when it is registered (ServingSession::RegisterModel).
struct OptimizerTuning {
  // Consider the deploy-time int8 quantized arm for UDF-centric
  // matmuls.
  bool enable_int8 = false;
  // Consider the CSR sparse arm when the measured weight density falls
  // below kSparseDensityThreshold.
  bool enable_sparse = false;
  // > 0 fuses a top-k epilogue into the model's final matmul (the
  // classification head) so the full logits row is never materialized.
  int64_t topk = 0;
};

// Assigns `tuning`'s kernel arms to `plan`: the sparse or int8 arm to
// every UDF-centric matmul, and the fused top-k epilogue to the last
// matmul when that one runs UDF-centric. Relational nodes keep the
// dense arm whatever built the plan.
Status AssignKernelArms(const Model& model, const OptimizerTuning& tuning,
                        InferencePlan* plan);

class RuleBasedOptimizer {
 public:
  // `memory_threshold_bytes` mirrors the paper's 2 GB constant.
  explicit RuleBasedOptimizer(int64_t memory_threshold_bytes)
      : memory_threshold_bytes_(memory_threshold_bytes) {}

  // Chooses a representation per node. Input nodes follow their own
  // footprint (a batch too large to materialize is chunked on entry).
  // Every matmul keeps the dense arm; AssignKernelArms picks others.
  Result<InferencePlan> Optimize(const Model& model,
                                 int64_t batch_size) const;

  int64_t memory_threshold_bytes() const {
    return memory_threshold_bytes_;
  }

 private:
  int64_t memory_threshold_bytes_;
};

}  // namespace relserve

#endif  // RELSERVE_OPTIMIZER_OPTIMIZER_H_
