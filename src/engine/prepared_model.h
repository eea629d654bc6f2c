// PreparedModel: a model compiled against an execution plan and an
// ExecContext — the artifact produced when a model is "loaded into the
// RDBMS".
//
// Since the physical-plan refactor this is a thin owner of a
// PhysicalPlan: Prepare runs PhysicalPlan::Compile, which binds the
// weights (whole tensors made resident in the working arena for
// UDF-centric nodes, relation-centric matmul weights chunked into
// buffer-pool-backed block stores) and lowers the node graph to fused
// stages. If even making the resident weights fit fails, Prepare
// reports OutOfMemory — mirroring the paper's observation that
// "simply the weight matrix exceeds the threshold" for Amazon-14k.

#ifndef RELSERVE_ENGINE_PREPARED_MODEL_H_
#define RELSERVE_ENGINE_PREPARED_MODEL_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/physical_plan.h"
#include "graph/model.h"
#include "optimizer/plan.h"
#include "storage/block_store.h"

namespace relserve {

class PreparedModel {
 public:
  static Result<PreparedModel> Prepare(
      const Model* model, InferencePlan plan, ExecContext* ctx,
      PhysicalPlan::Options options = PhysicalPlan::Options());

  PreparedModel(PreparedModel&&) = default;
  PreparedModel& operator=(PreparedModel&&) = default;

  const Model& model() const { return physical_->model(); }
  const InferencePlan& plan() const {
    return physical_->logical_plan();
  }

  // The compiled stage pipeline (stable address for the lifetime of
  // this PreparedModel — stages hold pointers into it).
  const PhysicalPlan& physical() const { return *physical_; }

 private:
  PreparedModel() = default;

  std::unique_ptr<PhysicalPlan> physical_;
};

}  // namespace relserve

#endif  // RELSERVE_ENGINE_PREPARED_MODEL_H_
