// Kernel-substrate throughput: GFLOP/s for GEMM, GEMM against a
// transposed (weight-layout) B, and im2col Conv2D, across square and
// skinny shapes, comparing the portable scalar micro-kernel against
// the runtime-dispatched SIMD path at 1/4/8 pool threads.
//
// This bench is the kernels' before/after record in EXPERIMENTS.md
// and the measured rates a calibrated latency estimate would start
// from (no planning decision reads them yet). It also measures the
// int8 quantized GEMM arm against the fp32 weight-layout GEMM at the
// same shapes. Each measurement also emits a BENCH_JSON line
// (grep ^BENCH_JSON) like bench_parallel_scaling. On hardware without
// AVX2+FMA the "dispatched" rows legitimately equal the scalar rows —
// the dispatcher has nothing faster to select.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "kernels/cpu_features.h"
#include "kernels/int8_gemm.h"
#include "kernels/kernels.h"
#include "kernels/micro_kernel.h"
#include "resource/thread_pool.h"

namespace relserve {
namespace {

using kernels::SimdLevel;

Result<Tensor> FilledTensor(Shape shape, float seed) {
  RELSERVE_ASSIGN_OR_RETURN(Tensor t, Tensor::Create(std::move(shape)));
  float* data = t.data();
  const int64_t n = t.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    data[i] = seed + static_cast<float>(i % 13) * 0.07f;
  }
  return t;
}

struct GemmShape {
  const char* kind;  // "square" or "skinny"
  int64_t m, n, k;
};

// One timed measurement at an explicit ISA level; restores nothing —
// the caller owns the active level.
Result<double> TimeGemm(const GemmShape& shape, bool transpose_b,
                        int repeats, ThreadPool* pool) {
  RELSERVE_ASSIGN_OR_RETURN(Tensor a,
                            FilledTensor(Shape{shape.m, shape.k}, 0.5f));
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor b, FilledTensor(transpose_b ? Shape{shape.n, shape.k}
                                         : Shape{shape.k, shape.n},
                             0.25f));
  RELSERVE_ASSIGN_OR_RETURN(Tensor c,
                            Tensor::Create(Shape{shape.m, shape.n}));
  return bench::TimeBest(repeats, [&]() -> Status {
    return kernels::GemmInto(a, b, transpose_b, /*accumulate=*/false,
                             &c, pool);
  });
}

// Times the int8 quantized arm on a weight-layout (transposed-B)
// shape. The effective-GFLOP/s metric counts the same 2mnk fp32
// multiplies the dense path would do, so rows are directly comparable
// with gemm_tb.
Result<double> TimeInt8Gemm(const GemmShape& shape, int repeats,
                            ThreadPool* pool) {
  RELSERVE_ASSIGN_OR_RETURN(Tensor a,
                            FilledTensor(Shape{shape.m, shape.k}, 0.5f));
  RELSERVE_ASSIGN_OR_RETURN(Tensor w,
                            FilledTensor(Shape{shape.n, shape.k}, 0.25f));
  RELSERVE_ASSIGN_OR_RETURN(kernels::Int8Weight qw,
                            kernels::QuantizeWeightPerChannel(w));
  RELSERVE_ASSIGN_OR_RETURN(Tensor c,
                            Tensor::Create(Shape{shape.m, shape.n}));
  return bench::TimeBest(repeats, [&]() -> Status {
    return kernels::Int8GemmTransBInto(a, qw, &c, pool);
  });
}

Result<double> TimeConv(int repeats, ThreadPool* pool, double* flops) {
  const int64_t n = 4, h = 64, w = 64, c = 32, oc = 64, kh = 3, kw = 3;
  const int64_t oh = h - kh + 1, ow = w - kw + 1;
  *flops = 2.0 * n * oh * ow * oc * kh * kw * c;
  RELSERVE_ASSIGN_OR_RETURN(Tensor input,
                            FilledTensor(Shape{n, h, w, c}, 0.5f));
  RELSERVE_ASSIGN_OR_RETURN(Tensor kernel,
                            FilledTensor(Shape{oc, kh, kw, c}, 0.25f));
  return bench::TimeBest(repeats, [&]() -> Status {
    RELSERVE_ASSIGN_OR_RETURN(
        Tensor out,
        kernels::Conv2D(input, kernel, /*stride=*/1, nullptr, pool));
    (void)out;
    return Status::OK();
  });
}

// The fp32 GEMM backend a level runs (kAvx2 runs the zmm tile on
// AVX-512F hosts).
const char* Fp32BackendName(SimdLevel level) {
  return kernels::internal::GetKernelBackend(level)->name;
}

void EmitRow(const char* op, const char* kind, int64_t m, int64_t n,
             int64_t k, const char* isa, int threads, double seconds,
             double flops, double scalar_seconds) {
  const double gflops = flops / seconds / 1e9;
  const double speedup = scalar_seconds / seconds;
  char shape_cell[48], gflops_cell[32], speedup_cell[32];
  std::snprintf(shape_cell, sizeof(shape_cell), "%lldx%lldx%lld",
                static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k));
  std::snprintf(gflops_cell, sizeof(gflops_cell), "%.2f", gflops);
  std::snprintf(speedup_cell, sizeof(speedup_cell), "%.2fx", speedup);
  bench::PrintRow({op, kind, shape_cell, isa, std::to_string(threads),
                   gflops_cell, speedup_cell});
  bench::PrintBenchJson(
      "kernels", {{"op", bench::JsonStr(op)},
                  {"shape", bench::JsonStr(kind)},
                  {"m", std::to_string(m)},
                  {"n", std::to_string(n)},
                  {"k", std::to_string(k)},
                  {"isa", bench::JsonStr(isa)},
                  {"threads", std::to_string(threads)},
                  {"latency_s", bench::JsonNum(seconds)},
                  {"gflops", bench::JsonNum(gflops)},
                  {"speedup_vs_scalar", bench::JsonNum(speedup)}});
}

int Run() {
  const int repeats = bench::RepeatsFromEnv(3);
  const SimdLevel dispatched = kernels::DetectSimdLevel();
  std::printf(
      "Kernel micro-benchmarks: scalar vs dispatched (%s) micro-kernel "
      "path\n\n",
      kernels::SimdLevelName(dispatched));
  bench::PrintRow({"Op", "Kind", "Shape(mxnxk)", "ISA", "Threads",
                   "GFLOP/s", "vs-scalar"});
  bench::PrintRule(7);

  const GemmShape shapes[] = {
      {"square", 128, 128, 128},
      {"square", 512, 512, 512},
      {"skinny", 1024, 64, 2048},   // FFNN hidden layer at large batch
      {"skinny", 64, 2048, 1024},   // few rows, wide output
  };
  const int thread_counts[] = {1, 4, 8};
  const SimdLevel levels[] = {SimdLevel::kScalar, dispatched};

  for (const bool transpose_b : {false, true}) {
    const char* op = transpose_b ? "gemm_tb" : "gemm";
    for (const GemmShape& shape : shapes) {
      const double flops =
          2.0 * static_cast<double>(shape.m) * shape.n * shape.k;
      for (int threads : thread_counts) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
        double scalar_seconds = 0.0;
        for (const SimdLevel level : levels) {
          kernels::SetActiveSimdLevel(level);
          Result<double> seconds =
              TimeGemm(shape, transpose_b, repeats, pool.get());
          if (!seconds.ok()) {
            std::printf("%s failed: %s\n", op,
                        seconds.status().ToString().c_str());
            return 1;
          }
          if (level == SimdLevel::kScalar) scalar_seconds = *seconds;
          EmitRow(op, shape.kind, shape.m, shape.n, shape.k,
                  Fp32BackendName(level), threads, *seconds, flops,
                  scalar_seconds);
        }
      }
      std::printf("\n");
    }
  }

  // Int8 quantized arm vs the fp32 weight-layout GEMM it replaces.
  // Effective GFLOP/s counts the dense-equivalent 2mnk multiplies, so
  // "vs-fp32" is the end-to-end kernel-arm speedup the optimizer buys
  // by quantizing (target: >= 1.8x at 512^3 single-thread on AVX2).
  std::printf("Int8 quantized arm (effective GFLOP/s, dense-equivalent "
              "work):\n");
  for (const GemmShape& shape : shapes) {
    const double flops =
        2.0 * static_cast<double>(shape.m) * shape.n * shape.k;
    for (int threads : thread_counts) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      kernels::SetActiveSimdLevel(dispatched);
      Result<double> fp32_seconds =
          TimeGemm(shape, /*transpose_b=*/true, repeats, pool.get());
      if (!fp32_seconds.ok()) {
        std::printf("gemm_tb failed: %s\n",
                    fp32_seconds.status().ToString().c_str());
        return 1;
      }
      for (const SimdLevel level : levels) {
        kernels::SetActiveSimdLevel(level);
        Result<double> seconds = TimeInt8Gemm(shape, repeats, pool.get());
        if (!seconds.ok()) {
          std::printf("gemm_int8 failed: %s\n",
                      seconds.status().ToString().c_str());
          return 1;
        }
        const double gflops = flops / *seconds / 1e9;
        const double vs_fp32 = *fp32_seconds / *seconds;
        char shape_cell[48], gflops_cell[32], speedup_cell[32];
        std::snprintf(shape_cell, sizeof(shape_cell), "%lldx%lldx%lld",
                      static_cast<long long>(shape.m),
                      static_cast<long long>(shape.n),
                      static_cast<long long>(shape.k));
        std::snprintf(gflops_cell, sizeof(gflops_cell), "%.2f", gflops);
        std::snprintf(speedup_cell, sizeof(speedup_cell), "%.2fx vs fp32",
                      vs_fp32);
        bench::PrintRow({"gemm_int8", shape.kind, shape_cell,
                         kernels::SimdLevelName(level),
                         std::to_string(threads), gflops_cell,
                         speedup_cell});
        bench::PrintBenchJson(
            "kernels",
            {{"op", bench::JsonStr("gemm_int8")},
             {"shape", bench::JsonStr(shape.kind)},
             {"m", std::to_string(shape.m)},
             {"n", std::to_string(shape.n)},
             {"k", std::to_string(shape.k)},
             {"isa", bench::JsonStr(kernels::SimdLevelName(level))},
             {"threads", std::to_string(threads)},
             {"latency_s", bench::JsonNum(*seconds)},
             {"gflops", bench::JsonNum(gflops)},
             {"speedup_vs_fp32", bench::JsonNum(vs_fp32)}});
      }
    }
    std::printf("\n");
  }

  for (int threads : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    double scalar_seconds = 0.0;
    for (const SimdLevel level : levels) {
      kernels::SetActiveSimdLevel(level);
      double flops = 0.0;
      Result<double> seconds = TimeConv(repeats, pool.get(), &flops);
      if (!seconds.ok()) {
        std::printf("conv2d failed: %s\n",
                    seconds.status().ToString().c_str());
        return 1;
      }
      if (level == SimdLevel::kScalar) scalar_seconds = *seconds;
      EmitRow("conv2d", "im2col", 4 * 62 * 62, 64, 3 * 3 * 32,
              Fp32BackendName(level), threads, *seconds, flops,
              scalar_seconds);
    }
  }
  kernels::SetActiveSimdLevel(dispatched);

  std::printf(
      "\nGFLOP/s = 2mnk / best-of-%d latency. The dispatched path must "
      "be >= 3x the\nscalar path at 512x512x512 single-thread on AVX2 "
      "hardware; on hardware\nwithout AVX2+FMA both rows coincide by "
      "design.\n",
      repeats);
  return 0;
}

}  // namespace
}  // namespace relserve

int main() { return relserve::Run(); }
