// PhysicalPlan: the deploy-time-compiled execution pipeline.
//
// The adaptive optimizer's InferencePlan is a *logical* annotation —
// one representation decision per model-graph node. Compiling it once
// at deploy time produces this physical IR: a flat sequence of typed
// stages with every run-time-invariant decision already taken:
//
//   - weights are bound (resident tensors / chunked block relations —
//     the residency policy lives here, not in the executor),
//   - representations are frozen and explicit ReprTransition stages
//     mark every compile-time blocked<->whole boundary,
//   - fusible elementwise chains (bias add / relu / softmax) are
//     collapsed into the preceding matmul/conv stage as an epilogue
//     that rides the kernel layer's vectorized elementwise strips in
//     the same pass over the output — the relation-centric win is one
//     materialized block relation per fused group instead of one per
//     operator,
//   - per-sample shapes, cost and footprint annotations are
//     precomputed, so serving a request is a single loop over stages
//     with zero graph walking, zero re-optimization and zero
//     shape inference.
//
// The executor (HybridExecutor) is a small runner over this IR; the
// SQL layer's EXPLAIN / EXPLAIN ANALYZE renders it; per-stage wall
// time, row and byte counters accumulate in the plan itself (Counters —
// many requests execute one plan concurrently). A future GPU or
// remote backend targets the same IR by implementing its stage kinds.
//
// Plans are batch-invariant: every node shape is [batch, fixed...] so
// stages store per-sample dims and rebuild concrete shapes from the
// request's batch size — one compiled plan serves every batch size
// that maps to the same representation signature (the AoT story).

#ifndef RELSERVE_ENGINE_PHYSICAL_PLAN_H_
#define RELSERVE_ENGINE_PHYSICAL_PLAN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/counter.h"
#include "common/result.h"
#include "engine/exec_context.h"
#include "graph/model.h"
#include "kernels/kernels.h"
#include "optimizer/plan.h"
#include "relational/column_batch.h"
#include "storage/block_store.h"
#include "tensor/tensor.h"

namespace relserve {

enum class StageKind {
  kInputChunk,        // stream/chunk the input batch into a block relation
  kReprTransition,    // explicit blocked <-> whole boundary
  kMatMul,            // whole-tensor GEMM (+ fused epilogue)
  kMatMulTopK,        // matmul + fused top-k epilogue; emits [batch, 2k]
  kBlockMatMul,       // block join + aggregation (+ fused epilogue)
  kConv2D,            // whole-tensor im2col conv (+ fused epilogue)
  kRelationalConv,    // streamed per-image im2col conv (+ fused relu)
  kMaxPool,           // whole-tensor 2x2 pool (both representations)
  kFlatten,           // logical reshape; no data movement when blocked
  kElementwise,       // standalone whole-tensor elementwise chain
  kBlockElementwise,  // standalone blockwise elementwise chain
  kBlockSoftmax,      // row-strip softmax over a block relation
  kColumnarScan,      // vectorized fragment-parallel table scan
  kColumnarGather,    // column chunks -> packed GEMM input tile
};

const char* StageKindName(StageKind kind);

// One elementwise operator fused into a stage epilogue (or into a
// standalone elementwise stage). The bias tensor is bound at compile
// time for kBiasAdd.
struct EpilogueOp {
  OpKind op = OpKind::kRelu;  // kBiasAdd | kRelu | kSoftmax
  const Tensor* bias = nullptr;
  int node_id = -1;
};

// Run-time counters of one stage, accumulated across every execution
// of the owning plan; concurrent requests share the plan. EXPLAIN
// ANALYZE renders these.
struct StageStats {
  Counter invocations;
  Counter nanos;
  Counter rows;
  Counter bytes;      // activation bytes produced
  Counter fallbacks;  // UDF re-executions (storage failure on the
                      // relational path)

  // Adds one invocation's wall time, rows and bytes.
  void Record(int64_t call_nanos, int64_t call_rows, int64_t call_bytes) {
    invocations.Add();
    nanos.Add(call_nanos);
    rows.Add(call_rows);
    bytes.Add(call_bytes);
  }
};

struct PhysicalStage {
  StageKind kind = StageKind::kFlatten;
  // The primary graph node this stage executes (the transition before
  // a node carries that consumer's id).
  int node_id = -1;
  Repr repr = Repr::kUdf;
  // Rendered name, e.g. "matmul(w0)+bias+relu".
  std::string label;

  // Pre-bound operands; pointers into the owning plan's weight maps.
  // A kMatMul or kMatMulTopK stage binds `weight`, whose payload is
  // the optimizer's kernel arm, frozen; a kBlockMatMul stage binds
  // `blocked_weight`; a conv stage binds its resident `kernel`.
  const kernels::Weight* weight = nullptr;
  const BlockStore* blocked_weight = nullptr;
  const Tensor* kernel = nullptr;
  int64_t stride = 1;
  // kMatMulTopK: classes kept per row; out_sample is [2 * topk].
  int64_t topk = 0;
  // Measured weight density of the sparse arm (EXPLAIN annotation).
  double weight_density = 1.0;
  std::vector<EpilogueOp> epilogue;

  // Per-sample geometry (batch dim excluded), frozen at compile time.
  std::vector<int64_t> in_sample;
  std::vector<int64_t> out_sample;
  // kReprTransition: true = whole -> blocked, false = blocked -> whole.
  bool to_blocked = false;

  // Optimizer annotations (summed over fused nodes).
  int64_t estimated_bytes = 0;
  double estimated_flops = 0;

  mutable StageStats stats;

  // Concrete shapes for a request's batch size.
  Shape InShape(int64_t batch) const;
  Shape OutShape(int64_t batch) const;
  int64_t OutElemsPerRow() const;
};

// EXPLAIN-style one-line rendering of a stage that lives outside a
// compiled model plan (the relational scan/gather stages a serving
// session keeps per table). With `analyze`, appends the same
// calls/rows/avg_us/bytes counters PhysicalPlan::ToString renders.
std::string RenderStandaloneStage(const PhysicalStage& stage,
                                  bool analyze);

// Receives validated feature rows: `count` rows of the feature
// width, contiguous and row-major.
using FeatureSink =
    std::function<Status(const float* rows, int64_t count)>;

// The columnar -> tensor pivot: hands the float-vector feature chunk
// (slot `chunk_index` of each batch) to `sink` one chunk at a time,
// straight from the chunks' flattened payloads — no Row/Value
// materialization. A row that is not a FLOAT_VECTOR of `width` floats
// is a typed InvalidArgument; trips the "columnar.pivot" failpoint. Stats (invocations, nanos,
// rows, bytes) accumulate into `stage`.
Status GatherColumnar(const PhysicalStage& stage,
                      const std::vector<ColumnBatch>& batches,
                      int chunk_index, int64_t width,
                      const std::string& column_name,
                      const FeatureSink& sink);

// GatherColumnar into a packed [total_rows, width] GEMM input tile,
// one memcpy per chunk.
Result<Tensor> ExecuteColumnarGather(
    const PhysicalStage& stage,
    const std::vector<ColumnBatch>& batches, int chunk_index,
    int64_t width, const std::string& column_name,
    MemoryTracker* tracker);

// Deploy-time weight accounting of one compiled plan. Logical bytes
// are what naive per-model storage would hold; physical bytes are
// what this plan actually allocated after resolving blocks through
// the shared PhysicalBlockIndex (equal when no index is configured).
// SHOW MODELS and bench_multitenant render these.
struct WeightFootprint {
  int64_t logical_bytes = 0;
  int64_t physical_bytes = 0;
  // Weight blocks resolved to a physical block another deployment
  // (or an earlier weight of this one) already owns, out of all
  // weight blocks the plan bound.
  int64_t shared_blocks = 0;
  int64_t total_blocks = 0;
};

class PhysicalPlan {
 public:
  struct Options {
    // Collapse elementwise chains into the producing matmul/conv
    // stage. Off = one stage per node (the bench ablation switch).
    bool fuse_elementwise = true;
  };

  // Compiles the annotated logical plan: binds weights (resident /
  // chunked per the representation decisions; OutOfMemory when even
  // the resident set does not fit the context's arena), lowers nodes
  // to fused stages, and precomputes shapes and footprints. The model
  // must outlive the plan; stages hold pointers into the plan, so it
  // stays where Compile put it.
  static Result<std::unique_ptr<PhysicalPlan>> Compile(
      const Model* model, InferencePlan plan, ExecContext* ctx,
      Options options);
  static Result<std::unique_ptr<PhysicalPlan>> Compile(
      const Model* model, InferencePlan plan, ExecContext* ctx) {
    return Compile(model, std::move(plan), ctx, Options());
  }

  const Model& model() const { return *model_; }
  const InferencePlan& logical_plan() const { return plan_; }
  const Options& options() const { return options_; }
  const std::vector<std::unique_ptr<PhysicalStage>>& stages() const {
    return stages_;
  }
  // Elementwise ops riding another stage's epilogue (dispatches saved
  // per request).
  int num_fused_ops() const { return num_fused_ops_; }
  // Sample dims of the model output node.
  const std::vector<int64_t>& output_sample() const {
    return output_sample_;
  }

  // Deploy-time weight accounting (stable after Compile).
  const WeightFootprint& weight_footprint() const { return footprint_; }

  // EXPLAIN rendering of the stage pipeline. With `analyze`, appends
  // the accumulated per-stage wall times, rows, bytes and fallback
  // counts (relaxed reads — safe while requests execute).
  std::string ToString(bool analyze = false) const;

  // Releases the plan's references on shared resident weight blocks
  // (blocked weights release theirs through their BlockStores).
  ~PhysicalPlan();

 private:
  PhysicalPlan() = default;

  const Model* model_ = nullptr;
  InferencePlan plan_;
  Options options_;
  int num_fused_ops_ = 0;
  std::vector<int64_t> output_sample_;
  // Weight residency: whole tensors for conv kernels and biases,
  // block relations of B panels for relation-centric matmuls, and one
  // deploy-time kernels::Weight per UDF-centric matmul weight (its
  // panel, int8 pack or CSR form replaces the fp32 copy; panels are
  // shared through the block index like any resident weight).
  // Node-based maps: stage pointers stay valid across moves.
  std::map<std::string, Tensor> resident_;
  std::map<std::string, std::unique_ptr<BlockStore>> blocked_;
  std::map<std::string, kernels::Weight> weights_;
  // Ref-counted handles on shared resident weights (the index the
  // session owns outlives every plan compiled against it).
  PhysicalBlockIndex* block_index_ = nullptr;
  std::vector<PhysicalBlockId> interned_resident_;
  WeightFootprint footprint_;
  std::vector<std::unique_ptr<PhysicalStage>> stages_;
};

}  // namespace relserve

#endif  // RELSERVE_ENGINE_PHYSICAL_PLAN_H_
