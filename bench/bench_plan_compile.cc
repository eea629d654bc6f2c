// Dispatch-overhead microbenchmark for compile-once physical plans:
// per-request latency of (a) a graph-walking interpreter that
// re-resolves every node and weight per request (the architecture this
// PR removed — reconstructed locally as the baseline), (b) the
// compiled PhysicalPlan with elementwise fusion disabled, and (c) the
// compiled fused pipeline. Also reports one-time compile cost.
//
// Claim under test: on small-batch FFNN inference, where per-node
// dispatch is a visible fraction of the request, compiled+fused must
// be at least as fast as the interpreter; on large-batch relational
// plans (kernel-bound) fusion must not regress.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "engine/hybrid_executor.h"
#include "engine/physical_plan.h"
#include "graph/model.h"
#include "kernels/kernels.h"
#include "optimizer/optimizer.h"
#include "storage/buffer_pool.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

// The pre-compilation execution model: walk the logical graph per
// request, switch on OpKind per node, and fetch the weight from the
// model per node. Whole-tensor only — enough to isolate dispatch
// overhead against the compiled UDF pipeline, which runs the same
// kernels.
Result<Tensor> InterpretUdf(const Model& model,
                            const InferencePlan& plan,
                            const Tensor& input, ExecContext* ctx) {
  // Per-request shape inference and per-node decision lookups: the
  // work the interpreter repeated on every call and compilation now
  // does once at deploy time.
  RELSERVE_ASSIGN_OR_RETURN(std::vector<Shape> shapes,
                            model.InferShapes(input.shape().dim(0)));
  (void)shapes;  // the interpreter consulted these for Ensure* reshapes
  const Tensor* cur = &input;
  Tensor owned;
  for (const Node& node : model.nodes()) {
    if (node.kind != OpKind::kInput &&
        plan.decisions[node.id].repr != Repr::kUdf) {
      return Status::InvalidArgument("interpreter is UDF-only");
    }
    switch (node.kind) {
      case OpKind::kInput:
        break;
      case OpKind::kMatMul: {
        RELSERVE_ASSIGN_OR_RETURN(const Tensor* w,
                                  model.GetWeight(node.weight_name));
        RELSERVE_ASSIGN_OR_RETURN(
            owned, kernels::MatMul(*cur, *w, /*transpose_b=*/true,
                                   ctx->tracker, ctx->pool));
        cur = &owned;
        break;
      }
      case OpKind::kBiasAdd: {
        RELSERVE_ASSIGN_OR_RETURN(const Tensor* b,
                                  model.GetWeight(node.weight_name));
        RELSERVE_RETURN_NOT_OK(kernels::BiasAddInPlace(&owned, *b));
        break;
      }
      case OpKind::kRelu:
        kernels::ReluInPlace(&owned);
        break;
      case OpKind::kSoftmax:
        RELSERVE_RETURN_NOT_OK(kernels::SoftmaxRowsInPlace(&owned));
        break;
      default:
        return Status::InvalidArgument("unsupported op in interpreter");
    }
  }
  return owned;
}

struct Harness {
  Harness() : pool(&disk, 1024), tracker("bench") {
    ctx.tracker = &tracker;
    ctx.buffer_pool = &pool;
    ctx.block_rows = 64;
    ctx.block_cols = 64;
  }
  DiskManager disk;
  BufferPool pool;
  MemoryTracker tracker;
  ExecContext ctx;
};

Result<double> TimeRequests(int repeats, int iters,
                            const std::function<Status()>& fn) {
  RELSERVE_ASSIGN_OR_RETURN(
      double best, bench::TimeBest(repeats, [&]() -> Status {
        for (int i = 0; i < iters; ++i) RELSERVE_RETURN_NOT_OK(fn());
        return Status::OK();
      }));
  return best / iters;
}

Status RunSmallBatch(int repeats) {
  Harness h;
  RELSERVE_ASSIGN_OR_RETURN(Model model,
                            BuildFFNN("ffnn", {64, 128, 64, 10}, 3));
  const int iters = 500;
  std::printf("\nSmall-batch FFNN {64,128,64,10} (dispatch-bound)\n");
  bench::PrintRow({"Batch", "Interp(us)", "Unfused(us)", "Fused(us)",
                   "Speedup"});
  bench::PrintRule(5);
  const InferencePlan udf_plan = MakeForcedPlan(model, Repr::kUdf, 1);
  for (int64_t batch : {1, 4, 16}) {
    RELSERVE_ASSIGN_OR_RETURN(Tensor input,
                              workloads::GenBatch(batch, Shape{64}, 7));

    RELSERVE_ASSIGN_OR_RETURN(
        double interp, TimeRequests(repeats, iters, [&]() -> Status {
          return InterpretUdf(model, udf_plan, input, &h.ctx).status();
        }));

    PhysicalPlan::Options unfused_opts;
    unfused_opts.fuse_elementwise = false;
    RELSERVE_ASSIGN_OR_RETURN(
        std::unique_ptr<PhysicalPlan> unfused,
        PhysicalPlan::Compile(&model,
                              MakeForcedPlan(model, Repr::kUdf, batch),
                              &h.ctx, unfused_opts));
    RELSERVE_ASSIGN_OR_RETURN(
        double plain, TimeRequests(repeats, iters, [&]() -> Status {
          return HybridExecutor::Run(*unfused, input, &h.ctx).status();
        }));

    Timer compile_timer;
    RELSERVE_ASSIGN_OR_RETURN(
        std::unique_ptr<PhysicalPlan> compiled,
        PhysicalPlan::Compile(&model,
                              MakeForcedPlan(model, Repr::kUdf, batch),
                              &h.ctx));
    const double compile_us = compile_timer.ElapsedSeconds() * 1e6;
    RELSERVE_ASSIGN_OR_RETURN(
        double fused, TimeRequests(repeats, iters, [&]() -> Status {
          return HybridExecutor::Run(*compiled, input, &h.ctx).status();
        }));

    char interp_s[32], plain_s[32], fused_s[32], speedup[32];
    std::snprintf(interp_s, sizeof(interp_s), "%.2f", interp * 1e6);
    std::snprintf(plain_s, sizeof(plain_s), "%.2f", plain * 1e6);
    std::snprintf(fused_s, sizeof(fused_s), "%.2f", fused * 1e6);
    std::snprintf(speedup, sizeof(speedup), "%.2fx", interp / fused);
    bench::PrintRow({std::to_string(batch), interp_s, plain_s, fused_s,
                     speedup});
    bench::PrintBenchJson(
        "plan_compile",
        {{"arch", bench::JsonStr("ffnn_small_batch")},
         {"batch", std::to_string(batch)},
         {"interp_us", bench::JsonNum(interp * 1e6)},
         {"compiled_unfused_us", bench::JsonNum(plain * 1e6)},
         {"compiled_fused_us", bench::JsonNum(fused * 1e6)},
         {"compile_once_us", bench::JsonNum(compile_us)},
         {"fused_stages",
          std::to_string(compiled->stages().size())},
         {"fused_ops",
          std::to_string(compiled->num_fused_ops())}});
  }
  return Status::OK();
}

Status RunLargeBatchRelational(int repeats) {
  Harness h;
  RELSERVE_ASSIGN_OR_RETURN(Model model,
                            BuildFFNN("ffnn", {128, 256, 64, 10}, 3));
  const int64_t batch = 1024;
  RELSERVE_ASSIGN_OR_RETURN(Tensor input,
                            workloads::GenBatch(batch, Shape{128}, 9));
  std::printf(
      "\nLarge-batch relational FFNN {128,256,64,10} @ %lld "
      "(kernel-bound)\n",
      static_cast<long long>(batch));
  bench::PrintRow({"Config", "ms/req"});
  bench::PrintRule(2);

  double times[2];
  for (int fused = 0; fused < 2; ++fused) {
    PhysicalPlan::Options options;
    options.fuse_elementwise = fused == 1;
    RELSERVE_ASSIGN_OR_RETURN(
        std::unique_ptr<PhysicalPlan> compiled,
        PhysicalPlan::Compile(
            &model, MakeForcedPlan(model, Repr::kRelational, batch),
            &h.ctx, options));
    RELSERVE_ASSIGN_OR_RETURN(
        times[fused], TimeRequests(repeats, 3, [&]() -> Status {
          return HybridExecutor::Run(*compiled, input, &h.ctx).status();
        }));
    char ms[32];
    std::snprintf(ms, sizeof(ms), "%.3f", times[fused] * 1e3);
    bench::PrintRow({fused ? "relational fused" : "relational unfused",
                     ms});
  }
  bench::PrintBenchJson(
      "plan_compile",
      {{"arch", bench::JsonStr("ffnn_relational_large_batch")},
       {"batch", std::to_string(batch)},
       {"compiled_unfused_us", bench::JsonNum(times[0] * 1e6)},
       {"compiled_fused_us", bench::JsonNum(times[1] * 1e6)}});
  return Status::OK();
}

int Run() {
  const int repeats = bench::RepeatsFromEnv();
  std::printf(
      "Compile-once physical plans: per-request dispatch overhead\n"
      "interp = per-request graph walk, unfused/fused = compiled "
      "PhysicalPlan\n");
  Status s = RunSmallBatch(repeats);
  if (s.ok()) s = RunLargeBatchRelational(repeats);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "\nExpected shape: fused <= interp at small batch (fewer "
      "dispatches,\nno intermediate passes); fusion is neutral at "
      "large batch where\nGEMM dominates.\n");
  return 0;
}

}  // namespace
}  // namespace relserve

int main() { return relserve::Run(); }
