#include "engine/physical_plan.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/failpoint.h"
#include "engine/block_ops.h"

namespace relserve {

const char* StageKindName(StageKind kind) {
  switch (kind) {
    case StageKind::kInputChunk:
      return "input-chunk";
    case StageKind::kReprTransition:
      return "repr-transition";
    case StageKind::kMatMul:
      return "matmul";
    case StageKind::kMatMulTopK:
      return "matmul-topk";
    case StageKind::kBlockMatMul:
      return "block-matmul";
    case StageKind::kConv2D:
      return "conv2d";
    case StageKind::kRelationalConv:
      return "rel-conv";
    case StageKind::kMaxPool:
      return "maxpool";
    case StageKind::kFlatten:
      return "flatten";
    case StageKind::kElementwise:
      return "elementwise";
    case StageKind::kBlockElementwise:
      return "block-elementwise";
    case StageKind::kBlockSoftmax:
      return "block-softmax";
    case StageKind::kColumnarScan:
      return "columnar-scan";
    case StageKind::kColumnarGather:
      return "columnar-gather";
  }
  return "?";
}

namespace {

// " | calls=... rows=... avg_us=... bytes=..." (relaxed reads — safe
// while requests execute). Shared by plan and standalone renderings.
void AppendStageStats(const StageStats& stats, std::string* out) {
  const int64_t calls = stats.invocations;
  const int64_t nanos = stats.nanos;
  const int64_t rows = stats.rows;
  const int64_t bytes = stats.bytes;
  const int64_t fallbacks = stats.fallbacks;
  char avg[32];
  std::snprintf(avg, sizeof(avg), "%.1f",
                calls > 0 ? static_cast<double>(nanos) / 1e3 /
                                static_cast<double>(calls)
                          : 0.0);
  *out += " | calls=" + std::to_string(calls) + " rows=" +
          std::to_string(rows) + " avg_us=" + avg + " bytes=" +
          std::to_string(bytes);
  if (fallbacks > 0) {
    *out += " fallbacks=" + std::to_string(fallbacks);
  }
}

Shape WithBatch(int64_t batch, const std::vector<int64_t>& sample) {
  std::vector<int64_t> dims;
  dims.reserve(sample.size() + 1);
  dims.push_back(batch);
  for (int64_t d : sample) dims.push_back(d);
  return Shape(std::move(dims));
}

int64_t SampleElems(const std::vector<int64_t>& sample) {
  int64_t n = 1;
  for (int64_t d : sample) n *= d;
  return n;
}

std::string EpilogueSuffix(const EpilogueOp& op) {
  switch (op.op) {
    case OpKind::kBiasAdd:
      return "+bias";
    case OpKind::kRelu:
      return "+relu";
    case OpKind::kSoftmax:
      return "+softmax";
    default:
      return "+?";
  }
}

std::string SampleString(const std::vector<int64_t>& sample) {
  std::string out = "[batch";
  for (int64_t d : sample) out += ", " + std::to_string(d);
  return out + "]";
}

// May `node` (an elementwise op with representation `rel`) ride
// `open`'s epilogue? Requires a stage kind that produces a freshly
// writable activation, for softmax matrix-shaped output (row
// normalization needs rank-2), and a representation match — except
// on a block stage, whose per-block epilogue applies a bias or
// relu with the same per-element ops either representation would: the
// activation then stays blocked into the next join instead of taking
// a to-whole / to-blocked round trip.
bool CanAttach(const PhysicalStage& open, OpKind op, bool rel) {
  const bool block_stage = open.kind == StageKind::kBlockMatMul ||
                           open.kind == StageKind::kBlockElementwise;
  if (rel != (open.repr == Repr::kRelational) && !block_stage) {
    return false;
  }
  switch (open.kind) {
    case StageKind::kMatMul:
    case StageKind::kConv2D:
    case StageKind::kMaxPool:
    case StageKind::kElementwise:
      if (op == OpKind::kSoftmax) return open.out_sample.size() == 1;
      return op == OpKind::kBiasAdd || op == OpKind::kRelu;
    case StageKind::kMatMulTopK:
      // The fused top-k kernel owns the whole epilogue contract: bias
      // and relu apply per channel block before selection, softmax
      // renormalizes the k survivors after it.
      return op == OpKind::kBiasAdd || op == OpKind::kRelu ||
             op == OpKind::kSoftmax;
    case StageKind::kBlockMatMul:
    case StageKind::kBlockElementwise:
      // Softmax needs whole rows; it gets its own row-strip stage.
      return op == OpKind::kBiasAdd || op == OpKind::kRelu;
    case StageKind::kRelationalConv:
      // The streamed conv strips are [pixels, out_c] slices of one
      // image row; only position-independent ops fuse.
      return op == OpKind::kRelu;
    default:
      return false;
  }
}

// The deploy-time operand of one UDF-centric matmul weight in the
// kernel arm the optimizer froze.
Result<kernels::Weight> BuildWeight(const Tensor& w, KernelArm arm,
                                    MemoryTracker* tracker) {
  switch (arm) {
    case KernelArm::kInt8: {
      // 0.26-0.37x the fp32 bytes on the zoo FFNNs.
      RELSERVE_ASSIGN_OR_RETURN(kernels::Int8Weight q,
                                kernels::QuantizeWeightPerChannel(w));
      return kernels::Weight(std::move(q));
    }
    case KernelArm::kSparse: {
      RELSERVE_ASSIGN_OR_RETURN(kernels::CsrWeight csr,
                                kernels::BuildCsrWeight(w));
      return kernels::Weight(std::move(csr));
    }
    case KernelArm::kDense:
      break;
  }
  return kernels::PackWeightTransB(w, tracker);
}

}  // namespace

Shape PhysicalStage::InShape(int64_t batch) const {
  return WithBatch(batch, in_sample);
}

Shape PhysicalStage::OutShape(int64_t batch) const {
  return WithBatch(batch, out_sample);
}

int64_t PhysicalStage::OutElemsPerRow() const {
  return SampleElems(out_sample);
}

PhysicalPlan::~PhysicalPlan() {
  // Drop the plan's references on shared resident weights. The
  // canonical buffers themselves are refcounted Tensors, so the order
  // against resident_'s destruction is immaterial; the index entry
  // (and its accounting) dies at the last referencing plan.
  if (block_index_ == nullptr) return;
  for (const PhysicalBlockId id : interned_resident_) {
    block_index_->Release(id);
  }
}

Result<std::unique_ptr<PhysicalPlan>> PhysicalPlan::Compile(
    const Model* model, InferencePlan plan, ExecContext* ctx,
    Options options) {
  if (plan.decisions.size() != model->nodes().size()) {
    return Status::InvalidArgument("plan does not cover the model");
  }
  std::unique_ptr<PhysicalPlan> pp(new PhysicalPlan());
  pp->model_ = model;
  pp->plan_ = std::move(plan);
  pp->options_ = options;

  // --- Weight residency --------------------------------------------
  // Weights of relation-centric matmuls are chunked into block
  // relations (only O(block) scratch charged); fp32 UDF-centric
  // matmul weights are packed into the GEMM's B panels; everything
  // else is made resident whole in the working arena. If even the
  // resident set does not fit, compilation reports OutOfMemory — the
  // paper's Amazon-14k outcome.
  //
  // Holds one resident buffer for the plan and books it in the
  // footprint. With a block index the buffer is interned: a
  // byte-identical one another deployment (or an earlier weight of
  // this one) holds is shared and charges nothing; a miss keeps a
  // copy cloned into `clone_into` (null = `payload`'s own buffer).
  auto hold = [&](const Tensor& payload,
                  MemoryTracker* clone_into) -> Result<Tensor> {
    pp->footprint_.logical_bytes += payload.ByteSize();
    pp->footprint_.total_blocks += 1;
    if (ctx->block_index == nullptr) {
      pp->footprint_.physical_bytes += payload.ByteSize();
      if (clone_into == nullptr) return payload;
      return payload.Clone(clone_into);
    }
    RELSERVE_ASSIGN_OR_RETURN(
        PhysicalBlockIndex::Interned interned,
        ctx->block_index->InternResident(payload, /*tolerance=*/0.0f,
                                         clone_into));
    pp->block_index_ = ctx->block_index;
    pp->interned_resident_.push_back(interned.id);
    if (interned.deduped) {
      pp->footprint_.shared_blocks += 1;
    } else {
      pp->footprint_.physical_bytes += payload.ByteSize();
    }
    return std::move(interned.payload);
  };
  for (const Node& node : model->nodes()) {
    if (node.weight_name.empty()) continue;
    const NodeDecision& nd = pp->plan_.decisions[node.id];
    const Repr repr = nd.repr;
    RELSERVE_ASSIGN_OR_RETURN(const Tensor* weight,
                              model->GetWeight(node.weight_name));
    const bool chunkable =
        node.kind == OpKind::kMatMul && repr == Repr::kRelational;
    if (chunkable) {
      if (pp->blocked_.count(node.weight_name) > 0) continue;
      // Weight chunks route through the shared block index when the
      // context carries one: N fine-tuned variants resolve identical
      // blocks to the same ref-counted pages.
      RELSERVE_ASSIGN_OR_RETURN(
          std::unique_ptr<BlockStore> store,
          blockops::ChunkMatrix(*weight, ctx, /*share_weights=*/true));
      pp->footprint_.logical_bytes += store->TotalBytes();
      pp->footprint_.physical_bytes +=
          store->TotalBytes() - store->shared_bytes();
      pp->footprint_.shared_blocks += store->shared_blocks();
      pp->footprint_.total_blocks +=
          static_cast<int64_t>(store->entries().size());
      pp->blocked_.emplace(node.weight_name, std::move(store));
    } else if (node.kind == OpKind::kMatMul) {
      // One operand per weight, built once at deploy in the stage's
      // kernel arm; it replaces the fp32 resident copy. A panel spares
      // every request the B packing (a top-k head reads one channel
      // block's slice of it at a time); packing is deterministic, so
      // identical variants share a panel through the block index.
      if (pp->weights_.count(node.weight_name) > 0) continue;
      RELSERVE_ASSIGN_OR_RETURN(kernels::Weight built,
                                BuildWeight(*weight, nd.arm, ctx->tracker));
      if (Tensor* panel = std::get_if<Tensor>(&built.payload)) {
        RELSERVE_ASSIGN_OR_RETURN(*panel,
                                  hold(*panel, /*clone_into=*/nullptr));
      } else {
        pp->footprint_.logical_bytes += built.ByteSize();
        pp->footprint_.physical_bytes += built.ByteSize();
        pp->footprint_.total_blocks += 1;
      }
      pp->weights_.emplace(node.weight_name, std::move(built));
    } else {
      if (pp->resident_.count(node.weight_name) > 0) continue;
      // Conv2D kernels are small even for the paper's large conv
      // workloads (the feature maps explode, not the kernels), so
      // they stay resident in both representations; biases likewise.
      RELSERVE_ASSIGN_OR_RETURN(Tensor resident,
                                hold(*weight, ctx->tracker));
      pp->resident_.emplace(node.weight_name, std::move(resident));
    }
  }

  // --- Shape precomputation ----------------------------------------
  // Every node shape is [batch, fixed...]; compiling at batch 1
  // yields the batch-invariant sample dims.
  RELSERVE_ASSIGN_OR_RETURN(std::vector<Shape> shapes,
                            model->InferShapes(1));
  auto sample_dims = [&shapes](int id) {
    const std::vector<int64_t>& dims = shapes[id].dims();
    return std::vector<int64_t>(dims.begin() + 1, dims.end());
  };
  pp->output_sample_ = sample_dims(model->output_node());

  // --- Lowering -----------------------------------------------------
  auto annotate = [&](PhysicalStage* s, int node_id) {
    const NodeDecision& d = pp->plan_.decisions[node_id];
    s->estimated_bytes = d.estimated_bytes;
    s->estimated_flops = d.estimated_flops;
  };
  auto new_stage = [&](StageKind kind, const Node& node,
                       Repr repr) -> PhysicalStage* {
    auto s = std::make_unique<PhysicalStage>();
    s->kind = kind;
    s->node_id = node.id;
    s->repr = repr;
    s->stride = node.stride;
    s->in_sample =
        node.input >= 0 ? sample_dims(node.input) : sample_dims(node.id);
    s->out_sample = sample_dims(node.id);
    annotate(s.get(), node.id);
    pp->stages_.push_back(std::move(s));
    return pp->stages_.back().get();
  };
  // An explicit compile-time representation boundary ahead of
  // `consumer`. At run time it is "ensure" semantics (idempotent), so
  // a fallback that already changed the activation's representation
  // passes through unharmed.
  auto emit_transition = [&](bool to_blocked, const Node& consumer) {
    PhysicalStage* t = new_stage(StageKind::kReprTransition, consumer,
                                 to_blocked ? Repr::kRelational
                                            : Repr::kUdf);
    t->to_blocked = to_blocked;
    t->out_sample = t->in_sample;  // transitions move, not compute
    t->label = to_blocked ? "to-blocked" : "to-whole";
    t->estimated_flops = 0;
    t->estimated_bytes = SampleElems(t->in_sample) *
                         static_cast<int64_t>(sizeof(float));
  };

  enum class Form { kWhole, kBlocked };
  Form cur = Form::kWhole;
  PhysicalStage* open = nullptr;  // fusion candidate
  int open_node = -1;             // last node lowered so far

  for (const Node& node : model->nodes()) {
    const NodeDecision& d = pp->plan_.decisions[node.id];
    const bool rel = d.repr == Repr::kRelational;
    switch (node.kind) {
      case OpKind::kInput: {
        if (rel) {
          PhysicalStage* s =
              new_stage(StageKind::kInputChunk, node, Repr::kRelational);
          s->label = "input-chunk";
          cur = Form::kBlocked;
        } else {
          cur = Form::kWhole;
        }
        open = nullptr;
        break;
      }
      case OpKind::kMatMul: {
        if (rel && cur != Form::kBlocked) {
          emit_transition(/*to_blocked=*/true, node);
          cur = Form::kBlocked;
        }
        if (!rel && cur != Form::kWhole) {
          emit_transition(/*to_blocked=*/false, node);
          cur = Form::kWhole;
        }
        const bool topk_head = !rel && d.topk > 0;
        PhysicalStage* s = new_stage(
            rel ? StageKind::kBlockMatMul
                : (topk_head ? StageKind::kMatMulTopK
                             : StageKind::kMatMul),
            node, d.repr);
        if (rel) {
          s->blocked_weight = pp->blocked_.at(node.weight_name).get();
          s->label = "block-matmul(" + node.weight_name + ")";
        } else if (d.arm == KernelArm::kSparse) {
          s->weight = &pp->weights_.at(node.weight_name);
          s->weight_density = d.weight_density;
          char dens[32];
          std::snprintf(dens, sizeof(dens), "d=%.3f",
                        d.weight_density);
          s->label =
              "sparse-matmul(" + node.weight_name + "," + dens + ")";
        } else {
          s->weight = &pp->weights_.at(node.weight_name);
          s->label = (d.arm == KernelArm::kInt8 ? "int8-matmul("
                                                 : "matmul(") +
                     node.weight_name + ")";
        }
        if (topk_head) {
          // The stage emits the packed [k values, k indices] row, not
          // the full logits row — frozen here so every downstream
          // shape (and the stats byte accounting) reflects the
          // never-materialized head.
          s->topk = d.topk;
          s->label += "+topk(" + std::to_string(d.topk) + ")";
          s->out_sample = {2 * d.topk};
        }
        cur = rel ? Form::kBlocked : Form::kWhole;
        open = s;
        break;
      }
      case OpKind::kConv2D: {
        if (rel && cur != Form::kBlocked) {
          emit_transition(/*to_blocked=*/true, node);
          cur = Form::kBlocked;
        }
        if (!rel && cur != Form::kWhole) {
          emit_transition(/*to_blocked=*/false, node);
          cur = Form::kWhole;
        }
        PhysicalStage* s = new_stage(
            rel ? StageKind::kRelationalConv : StageKind::kConv2D, node,
            d.repr);
        s->kernel = &pp->resident_.at(node.weight_name);
        s->label = (rel ? "rel-conv(" : "conv2d(") + node.weight_name +
                   ")";
        cur = rel ? Form::kBlocked : Form::kWhole;
        open = s;
        break;
      }
      case OpKind::kMaxPool: {
        // No block-relation pooling kernel: windows straddle block
        // boundaries and the op only appears in small CNNs, so both
        // representations execute it whole-tensor.
        if (cur != Form::kWhole) {
          emit_transition(/*to_blocked=*/false, node);
          cur = Form::kWhole;
        }
        PhysicalStage* s = new_stage(StageKind::kMaxPool, node, d.repr);
        s->label = "maxpool";
        open = s;
        break;
      }
      case OpKind::kFlatten: {
        // A blocked activation is already a [batch, width] relation;
        // whole tensors reshape for free. Kept as a stage so EXPLAIN
        // shows the logical boundary.
        PhysicalStage* s = new_stage(StageKind::kFlatten, node, d.repr);
        s->label = "flatten";
        open = nullptr;
        break;
      }
      case OpKind::kBiasAdd:
      case OpKind::kRelu:
      case OpKind::kSoftmax: {
        EpilogueOp op;
        op.op = node.kind;
        op.node_id = node.id;
        if (node.kind == OpKind::kBiasAdd) {
          op.bias = &pp->resident_.at(node.weight_name);
        }
        // A top-k head MUST absorb its elementwise consumers even with
        // fusion disabled: the epilogue is part of the stage's kernel
        // contract (a standalone softmax over the packed [values,
        // indices] row would be nonsense), not an optimization.
        const bool topk_open =
            open != nullptr && open->kind == StageKind::kMatMulTopK;
        const bool attachable =
            (options.fuse_elementwise || topk_open) && open != nullptr &&
            node.input == open_node && CanAttach(*open, node.kind, rel);
        if (attachable) {
          open->label += EpilogueSuffix(op);
          open->epilogue.push_back(op);
          if (!topk_open) {
            // Top-k stages keep their frozen [2k] sample — the fused
            // ops don't change the packed output row.
            open->out_sample = sample_dims(node.id);
          }
          open->estimated_flops += d.estimated_flops;
          pp->num_fused_ops_ += 1;
          break;
        }
        if (rel && node.kind == OpKind::kSoftmax) {
          if (cur != Form::kBlocked) {
            emit_transition(/*to_blocked=*/true, node);
            cur = Form::kBlocked;
          }
          PhysicalStage* s =
              new_stage(StageKind::kBlockSoftmax, node, d.repr);
          s->label = "block-softmax";
          open = nullptr;  // nothing fuses across a row-strip pass
          break;
        }
        if (rel) {
          if (cur != Form::kBlocked) {
            emit_transition(/*to_blocked=*/true, node);
            cur = Form::kBlocked;
          }
          PhysicalStage* s =
              new_stage(StageKind::kBlockElementwise, node, d.repr);
          s->label = "block-elementwise" + EpilogueSuffix(op);
          s->epilogue.push_back(op);
          open = s;
          break;
        }
        if (cur != Form::kWhole) {
          emit_transition(/*to_blocked=*/false, node);
          cur = Form::kWhole;
        }
        PhysicalStage* s =
            new_stage(StageKind::kElementwise, node, d.repr);
        s->label = "elementwise" + EpilogueSuffix(op);
        s->epilogue.push_back(op);
        open = s;
        break;
      }
    }
    open_node = node.id;
  }
  // A fused top-k head changes the plan's output contract: the model
  // output is the packed [batch, 2k] top-k relation, not the full
  // logits matrix.
  if (!pp->stages_.empty() &&
      pp->stages_.back()->kind == StageKind::kMatMulTopK) {
    pp->output_sample_ = pp->stages_.back()->out_sample;
  }
  return pp;
}

std::string PhysicalPlan::ToString(bool analyze) const {
  std::string out = "PhysicalPlan " + model_->name() + ": " +
                    std::to_string(stages_.size()) + " stages, " +
                    std::to_string(num_fused_ops_) + " fused op" +
                    (num_fused_ops_ == 1 ? "" : "s") +
                    (options_.fuse_elementwise ? ""
                                               : " (fusion disabled)") +
                    "\n";
  for (size_t i = 0; i < stages_.size(); ++i) {
    const PhysicalStage& s = *stages_[i];
    char flops[32];
    std::snprintf(flops, sizeof(flops), "%.4g", s.estimated_flops);
    out += "  [" + std::to_string(i) + "] " + s.label + " " +
           ReprName(s.repr) + " out=" + SampleString(s.out_sample) +
           " est=" + std::to_string(s.estimated_bytes) + "B flops=" +
           flops;
    if (analyze) AppendStageStats(s.stats, &out);
    out += "\n";
  }
  return out;
}

std::string RenderStandaloneStage(const PhysicalStage& stage,
                                  bool analyze) {
  // Appending keeps GCC 12's -Wrestrict false positive on inlined
  // string concatenation quiet.
  std::string out = "[";
  out += StageKindName(stage.kind);
  out += "] ";
  out += stage.label;
  if (analyze) AppendStageStats(stage.stats, &out);
  return out;
}

namespace {

// InvalidArgument unless a feature cell of `type` holding `row_width`
// floats can feed a model whose input is `width` wide.
Status CheckFeatureVector(const std::string& column_name, ValueType type,
                          int64_t row_width, int64_t width) {
  if (type != ValueType::kFloatVector) {
    return Status::InvalidArgument("column '" + column_name +
                                   "' is not a feature vector");
  }
  if (row_width != width) {
    return Status::InvalidArgument(
        "column '" + column_name + "' row has width " +
        std::to_string(row_width) + ", model expects " +
        std::to_string(width));
  }
  return Status::OK();
}

}  // namespace

Status GatherColumnar(const PhysicalStage& stage,
                      const std::vector<ColumnBatch>& batches,
                      int chunk_index, int64_t width,
                      const std::string& column_name,
                      const FeatureSink& sink) {
  RELSERVE_RETURN_NOT_OK(failpoint::InjectedStatus("columnar.pivot"));
  const auto t0 = std::chrono::steady_clock::now();
  int64_t total_rows = 0;
  for (const ColumnBatch& batch : batches) {
    if (batch.num_rows == 0) continue;
    const ColumnChunk& chunk = batch.columns[chunk_index];
    const bool vectors = chunk.type == ValueType::kFloatVector;
    for (int64_t r = 0; r < chunk.length; ++r) {
      // Offsets exist only for float-vector chunks.
      const int64_t row_width =
          vectors ? chunk.vec_offsets[r + 1] - chunk.vec_offsets[r] : 0;
      RELSERVE_RETURN_NOT_OK(
          CheckFeatureVector(column_name, chunk.type, row_width, width));
    }
    // Widths validated uniform, so the chunk's flattened payload
    // already *is* the row-major slice of `chunk.length` rows.
    RELSERVE_RETURN_NOT_OK(sink(chunk.vec_data.data(), chunk.length));
    total_rows += chunk.length;
  }
  const int64_t nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  stage.stats.Record(nanos, total_rows,
                     total_rows * width * sizeof(float));
  return Status::OK();
}

Result<Tensor> ExecuteColumnarGather(
    const PhysicalStage& stage,
    const std::vector<ColumnBatch>& batches, int chunk_index,
    int64_t width, const std::string& column_name,
    MemoryTracker* tracker) {
  int64_t total_rows = 0;
  for (const ColumnBatch& batch : batches) {
    total_rows += batch.num_rows;
  }
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor tile, Tensor::Create(Shape{total_rows, width}, tracker));
  float* dst = tile.data();
  RELSERVE_RETURN_NOT_OK(GatherColumnar(
      stage, batches, chunk_index, width, column_name,
      [&dst, width](const float* rows, int64_t count) {
        std::memcpy(dst, rows, count * width * sizeof(float));
        dst += count * width;
        return Status::OK();
      }));
  return tile;
}

}  // namespace relserve
