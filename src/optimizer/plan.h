// InferencePlan: the optimizer's per-operator representation choice.

#ifndef RELSERVE_OPTIMIZER_PLAN_H_
#define RELSERVE_OPTIMIZER_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/model.h"

namespace relserve {

// The in-database representations the adaptive optimizer chooses
// between per operator (paper Sec. 7.1). DL-centric offload is a
// whole-query decision made above this level (ServingSession).
enum class Repr {
  kUdf,         // whole-tensor execution inside the RDBMS process
  kRelational,  // tensor-as-block-relation execution
};

const char* ReprName(Repr repr);

// Per-matmul kernel backend choice. Orthogonal to Repr: the arm picks
// HOW a UDF-centric matmul multiplies, not where its tensors live.
enum class KernelArm {
  kDense,   // fp32 packed GEMM (the default)
  kInt8,    // deploy-time-quantized int8 weights, dynamic activations
  kSparse,  // CSR weight kernel for mostly-zero layers
};

const char* KernelArmName(KernelArm arm);

struct NodeDecision {
  int node_id = -1;
  Repr repr = Repr::kUdf;
  // The optimizer's memory estimate for the operator (inputs + weights
  // + outputs), in bytes.
  int64_t estimated_bytes = 0;
  // Arithmetic cost estimate; physical-plan compilation sums this over
  // fused stages so EXPLAIN can show per-stage work.
  double estimated_flops = 0;
  // Kernel backend for matmul nodes (dense fp32 unless the optimizer
  // picked the quantized or sparse arm).
  KernelArm arm = KernelArm::kDense;
  // Measured fraction of nonzero weight entries; 1.0 when not measured.
  // Drives the sparse-arm decision and is shown by EXPLAIN.
  double weight_density = 1.0;
  // > 0 requests the fused matmul + top-k epilogue on this node (the
  // extreme-classification head); the stage then emits [batch, 2k]
  // instead of the full logits row.
  int64_t topk = 0;
};

struct InferencePlan {
  int64_t batch_size = 0;
  int64_t memory_threshold_bytes = 0;
  std::vector<NodeDecision> decisions;  // index == node id

  bool AllUdf() const {
    for (const NodeDecision& d : decisions) {
      if (d.repr != Repr::kUdf) return false;
    }
    return true;
  }

  bool AnyRelational() const { return !AllUdf(); }

  // Human-readable EXPLAIN-style rendering.
  std::string ToString(const Model& model) const;
};

// A plan that pins every node to one representation — the pure
// UDF-centric / pure relation-centric architectures the paper
// compares against (ServingMode::kForceUdf / kForceRelational).
// Estimates stay zero: forced plans bypass the cost model by design.
InferencePlan MakeForcedPlan(const Model& model, Repr repr,
                             int64_t batch_size);

}  // namespace relserve

#endif  // RELSERVE_OPTIMIZER_PLAN_H_
