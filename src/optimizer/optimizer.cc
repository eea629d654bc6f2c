#include "optimizer/optimizer.h"

#include <cstdio>

#include "kernels/sparse_gemm.h"

namespace relserve {

const char* ReprName(Repr repr) {
  switch (repr) {
    case Repr::kUdf:
      return "udf";
    case Repr::kRelational:
      return "relational";
  }
  return "?";
}

const char* KernelArmName(KernelArm arm) {
  switch (arm) {
    case KernelArm::kDense:
      return "dense";
    case KernelArm::kInt8:
      return "int8";
    case KernelArm::kSparse:
      return "sparse";
  }
  return "?";
}

std::string InferencePlan::ToString(const Model& model) const {
  std::string out = "Plan for " + model.name() + " @ batch " +
                    std::to_string(batch_size) + " (threshold " +
                    std::to_string(memory_threshold_bytes) + " B)\n";
  for (const NodeDecision& d : decisions) {
    const Node& node = model.node(d.node_id);
    out += "  #" + std::to_string(d.node_id) + " " +
           OpKindName(node.kind) + " est=" +
           std::to_string(d.estimated_bytes) + "B -> " +
           ReprName(d.repr);
    // Kernel-arm annotations render only when non-default so plans
    // without the quantized/sparse arms keep their historical text.
    if (d.arm == KernelArm::kInt8) {
      out += " [int8]";
    } else if (d.arm == KernelArm::kSparse) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " [sparse d=%.3f]",
                    d.weight_density);
      out += buf;
    }
    if (d.topk > 0) {
      out += " +topk(" + std::to_string(d.topk) + ")";
    }
    out += "\n";
  }
  return out;
}

InferencePlan MakeForcedPlan(const Model& model, Repr repr,
                             int64_t batch_size) {
  InferencePlan plan;
  plan.batch_size = batch_size;
  plan.memory_threshold_bytes = 0;
  plan.decisions.reserve(model.nodes().size());
  for (const Node& node : model.nodes()) {
    NodeDecision decision;
    decision.node_id = node.id;
    decision.repr = repr;
    plan.decisions.push_back(decision);
  }
  return plan;
}

namespace {

// Adds the float32 bytes of `shape` to `*total`; false when the
// product or the sum overflows int64.
bool AddFloatBytes(const Shape& shape, int64_t* total) {
  int64_t bytes = sizeof(float);
  for (int64_t d : shape.dims()) {
    if (__builtin_mul_overflow(bytes, d, &bytes)) return false;
  }
  return !__builtin_add_overflow(*total, bytes, total);
}

}  // namespace

Result<int64_t> EstimateNodeBytes(const Model& model, int node_id,
                                  int64_t batch_size) {
  RELSERVE_ASSIGN_OR_RETURN(std::vector<Shape> shapes,
                            model.InferShapes(batch_size));
  const Node& node = model.node(node_id);
  int64_t bytes = 0;
  bool fits = AddFloatBytes(shapes[node_id], &bytes);  // output
  if (fits && node.input >= 0) {
    fits = AddFloatBytes(shapes[node.input], &bytes);  // input
  }
  if (fits && !node.weight_name.empty()) {
    RELSERVE_ASSIGN_OR_RETURN(const Tensor* w,
                              model.GetWeight(node.weight_name));
    fits = !__builtin_add_overflow(bytes, w->ByteSize(), &bytes);
  }
  if (!fits) {
    return Status::InvalidArgument(
        "batch size " + std::to_string(batch_size) +
        " overflows the byte estimate of node #" + std::to_string(node_id));
  }
  return bytes;
}

Status AssignKernelArms(const Model& model, const OptimizerTuning& tuning,
                        InferencePlan* plan) {
  for (NodeDecision& decision : plan->decisions) {
    const Node& node = model.node(decision.node_id);
    if (node.kind != OpKind::kMatMul || node.weight_name.empty() ||
        decision.repr != Repr::kUdf) {
      continue;
    }
    if (tuning.enable_sparse) {
      RELSERVE_ASSIGN_OR_RETURN(const Tensor* w,
                                model.GetWeight(node.weight_name));
      RELSERVE_ASSIGN_OR_RETURN(decision.weight_density,
                                kernels::MeasureWeightDensity(*w));
      if (decision.weight_density < kSparseDensityThreshold) {
        decision.arm = KernelArm::kSparse;
      }
    }
    if (tuning.enable_int8 && decision.arm == KernelArm::kDense) {
      decision.arm = KernelArm::kInt8;
    }
  }
  if (tuning.topk > 0) {
    // The fused top-k epilogue targets the classification head: the
    // LAST matmul of the graph, provided it runs UDF-centric
    // (whole-tensor stages are where the fusion hooks live).
    for (auto it = plan->decisions.rbegin(); it != plan->decisions.rend();
         ++it) {
      if (model.node(it->node_id).kind != OpKind::kMatMul) continue;
      if (it->repr == Repr::kUdf) {
        it->topk = tuning.topk;
      }
      break;
    }
  }
  return Status::OK();
}

Result<InferencePlan> RuleBasedOptimizer::Optimize(
    const Model& model, int64_t batch_size) const {
  InferencePlan plan;
  plan.batch_size = batch_size;
  plan.memory_threshold_bytes = memory_threshold_bytes_;
  plan.decisions.reserve(model.nodes().size());
  for (const Node& node : model.nodes()) {
    NodeDecision decision;
    decision.node_id = node.id;
    RELSERVE_ASSIGN_OR_RETURN(
        decision.estimated_bytes,
        EstimateNodeBytes(model, node.id, batch_size));
    decision.repr = (decision.estimated_bytes > memory_threshold_bytes_)
                        ? Repr::kRelational
                        : Repr::kUdf;
    if (node.kind != OpKind::kInput) {
      RELSERVE_ASSIGN_OR_RETURN(
          decision.estimated_flops,
          model.EstimateNodeFlops(node.id, batch_size));
    }
    plan.decisions.push_back(decision);
  }
  return plan;
}

}  // namespace relserve
