#include "engine/external_runtime.h"

#include "engine/connector.h"
#include "engine/hybrid_executor.h"

namespace relserve {

ExternalRuntime::ExternalRuntime(std::string name,
                                 int64_t memory_limit_bytes,
                                 ThreadPool* pool)
    : tracker_(std::move(name), memory_limit_bytes), pool_(pool) {
  ctx_.tracker = &tracker_;
  ctx_.pool = pool_;
  ctx_.buffer_pool = nullptr;
}

Status ExternalRuntime::RegisterModel(const Model* model) {
  if (models_.count(model->name()) > 0) {
    return Status::AlreadyExists("model '" + model->name() +
                                 "' already registered");
  }
  // Every node whole-tensor: the only mode a decoupled framework has
  // here.
  RELSERVE_ASSIGN_OR_RETURN(
      std::unique_ptr<PhysicalPlan> plan,
      PhysicalPlan::Compile(model, MakeForcedPlan(*model, Repr::kUdf, 0),
                            &ctx_));
  models_.emplace(model->name(), std::move(plan));
  return Status::OK();
}

Result<std::string> ExternalRuntime::Infer(
    const std::string& model_name, const std::string& request_bytes) {
  auto it = models_.find(model_name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + model_name +
                            "' not registered in runtime");
  }
  stats_.requests.Add();
  stats_.bytes_received.Add(static_cast<int64_t>(request_bytes.size()));

  // The received buffer occupies runtime memory until decode finishes.
  const int64_t wire_bytes = static_cast<int64_t>(request_bytes.size());
  RELSERVE_RETURN_NOT_OK(tracker_.Allocate(wire_bytes));
  Result<Tensor> input =
      Connector::DecodeFeatureStream(request_bytes, &tracker_);
  tracker_.Release(wire_bytes);
  RELSERVE_RETURN_NOT_OK(input.status());

  // A framework feeds the model in the sample shape it expects.
  const PhysicalPlan& plan = *it->second;
  std::vector<int64_t> dims = {input->shape().dim(0)};
  for (int64_t d : plan.model().sample_shape().dims()) dims.push_back(d);
  RELSERVE_ASSIGN_OR_RETURN(Tensor shaped,
                            input->Reshape(Shape(std::move(dims))));

  RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                            HybridExecutor::Run(plan, shaped, &ctx_));
  RELSERVE_ASSIGN_OR_RETURN(Tensor prediction, out.ToTensor(&ctx_));
  RELSERVE_ASSIGN_OR_RETURN(std::string response,
                            Connector::EncodeTensor(prediction));
  stats_.bytes_sent.Add(static_cast<int64_t>(response.size()));
  return response;
}

}  // namespace relserve
