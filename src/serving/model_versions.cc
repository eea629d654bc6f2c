#include "serving/model_versions.h"

#include <set>

#include "engine/hybrid_executor.h"
#include "workloads/datasets.h"

namespace relserve {

namespace {

struct ProbeResult {
  Tensor output;
  int64_t int8_bytes = 0;  // int8 packs the probed plan stores
};

// Runs a registered model whole-tensor on `input` through the
// session's context, under the plan a kForceUdf deploy would install
// (the model's kernel arms included).
Result<ProbeResult> ProbeRun(ServingSession* session,
                             const std::string& model_name,
                             const Tensor& input) {
  RELSERVE_ASSIGN_OR_RETURN(const Model* model,
                            session->GetModel(model_name));
  RELSERVE_ASSIGN_OR_RETURN(
      InferencePlan logical,
      session->Plan(model_name, ServingMode::kForceUdf,
                    input.shape().dim(0)));
  ExecContext* ctx = session->exec_context();
  RELSERVE_ASSIGN_OR_RETURN(
      std::unique_ptr<PhysicalPlan> plan,
      PhysicalPlan::Compile(model, std::move(logical), ctx));
  ProbeResult result;
  std::set<const kernels::Weight*> packs;
  for (const auto& stage : plan->stages()) {
    const kernels::Weight* w = stage->weight;
    if (w != nullptr && w->int8() != nullptr && packs.insert(w).second) {
      result.int8_bytes += w->ByteSize();
    }
  }
  RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                            HybridExecutor::Run(*plan, input, ctx));
  RELSERVE_ASSIGN_OR_RETURN(result.output, out.ToTensor(ctx));
  return result;
}

}  // namespace

Result<std::vector<ModelVersion>> CreateQuantizedVersion(
    ServingSession* session, const std::string& base_model,
    int64_t probe_batch, uint64_t seed) {
  RELSERVE_ASSIGN_OR_RETURN(const Model* base,
                            session->GetModel(base_model));
  // The base graph over buffer-sharing copies of every base weight:
  // the version holds no weight bytes of its own.
  Model version(base_model + "@int8", base->sample_shape());
  for (const Node& node : base->nodes()) {
    if (node.kind == OpKind::kInput) {
      version.AddNode(OpKind::kInput);
    } else {
      version.AddNode(node.kind, node.weight_name, node.stride,
                      node.input);
    }
  }
  for (const auto& [name, weight] : base->weights()) {
    RELSERVE_RETURN_NOT_OK(version.AddWeight(name, weight));
  }
  const std::string version_name = version.name();
  OptimizerTuning int8;
  int8.enable_int8 = true;
  RELSERVE_RETURN_NOT_OK(session->RegisterModel(std::move(version), int8));

  // Measure the int8 arm's output deviation on a probe batch.
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor probe,
      workloads::GenBatch(probe_batch, base->sample_shape(), seed));
  RELSERVE_ASSIGN_OR_RETURN(ProbeResult reference,
                            ProbeRun(session, base_model, probe));
  RELSERVE_ASSIGN_OR_RETURN(ProbeResult approx,
                            ProbeRun(session, version_name, probe));
  const float error = reference.output.MaxAbsDiff(approx.output);

  std::vector<ModelVersion> versions;
  versions.push_back(
      ModelVersion{base_model, base->TotalWeightBytes(), 0.0f});
  versions.push_back(
      ModelVersion{version_name, approx.int8_bytes, error});
  return versions;
}

Result<std::string> SelectVersionForSla(
    const std::vector<ModelVersion>& versions, float max_error) {
  const ModelVersion* best = nullptr;
  for (const ModelVersion& v : versions) {
    if (v.max_output_error > max_error) continue;
    if (best == nullptr || v.weight_bytes < best->weight_bytes) {
      best = &v;
    }
  }
  if (best == nullptr) {
    return Status::NotFound("no model version satisfies error bound " +
                            std::to_string(max_error));
  }
  return best->model_name;
}

}  // namespace relserve
