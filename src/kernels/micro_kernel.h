// Internal micro-kernel backend interface for the packed GEMM layer
// and the vectorized elementwise strips.
//
// Layering (GotoBLAS-style):
//
//   kernels.cc           public API, shape checks
//     gemm_packed.cc     cache blocking (mc, kc, nc), panel packing,
//                        ThreadPool parallelism over macro-tiles
//       micro_kernel_*   one register-tiled inner kernel per ISA,
//                        selected at runtime via cpu_features
//
// The packed operand layout has one shape for every backend; only the
// column-sliver width nr varies, and it is a field of the backend, so
// the blocking loops and the pack routines stay ISA-independent:
//
//   A panel  (kMr-tall row slivers):  a_panel[p * kMr + i] = A[i, p]
//   B panel  (nr-wide column slivers): b_panel[p * nr + j] = B[p, j]
//
// with i < kMr, j < nr zero-padded past the matrix edge, p < kc. The
// width is a property of the host, not of the SIMD level: the scalar
// tile runs at the host vector tile's width (ActivePanelNr() in
// kernels.h), so every backend the dispatcher picks reads one panel
// layout, and a B panel packed once at deploy (kernels::Weight) runs
// at any level. A micro-kernel call computes the
// full kMr x nr register tile
//   C[i, j] ⊕= Σ_p a_panel[p*kMr+i] * b_panel[p*nr+j]
// accumulating directly into C in ascending-p order (⊕ is += when
// `accumulate`, otherwise the chain starts from 0); an edge call
// computes only the live rows and columns, each by the same chain. Keeping the
// per-element accumulation a single ascending-k chain makes the
// scalar backend bit-identical to the historical triple-loop kernel;
// the AVX2 backend differs only by FMA rounding within the chain. The
// AVX-512 backend runs the same chain of fused multiply-adds per
// element as AVX2 — a wider vector only puts more independent chains
// side by side — so it is bit-identical to AVX2.

#ifndef RELSERVE_KERNELS_MICRO_KERNEL_H_
#define RELSERVE_KERNELS_MICRO_KERNEL_H_

#include <cstdint>

#include "kernels/cpu_features.h"

namespace relserve {
namespace kernels {
namespace internal {

// Register tile height, shared by every backend. The width is the
// backend's `nr`: kNr = 16 (two 8-float ymm vectors; 12 ymm
// accumulators + 2 B loads + 1 A broadcast = 15 of 16 ymm regs) for
// AVX2, kWideNr = 32 (two 16-float zmm vectors) for AVX-512, and the
// host's vector width for the scalar tile.
inline constexpr int64_t kMr = 6;
inline constexpr int64_t kNr = 16;
inline constexpr int64_t kWideNr = 32;

// Cache blocking. kKc * nr floats (one B micro-panel: 16 KiB at
// nr = 16, 32 KiB at nr = 32) is the L1 working set; kMc * kKc floats
// (one packed A macro-panel, 72 KiB) targets L2; kKc * kNc floats (one
// packed B macro-panel, 1 MiB) targets L3. kMc must be a multiple of
// kMr; kNc is a multiple of every backend's nr.
inline constexpr int64_t kKc = 256;
inline constexpr int64_t kMc = 72;
inline constexpr int64_t kNc = 1024;
static_assert(kMc % kMr == 0, "macro tile must hold whole row slivers");
static_assert(kNc % kWideNr == 0, "B macro-panel must hold whole slivers");

// One ISA's kernel set. Function pointers are resolved once per call
// into the packed driver (the table itself is immutable static data).
struct KernelBackend {
  SimdLevel level;
  const char* name;  // self-description for benches
  int64_t nr;        // register-tile width = B sliver width (floats)

  // Full kMr x nr tile accumulating into C (leading dimension ldc).
  void (*gemm_tile)(int64_t kc, const float* a_panel,
                    const float* b_panel, float* c, int64_t ldc,
                    bool accumulate);
  // Edge tile: only rows [0, m_r) and columns [0, n_r) of the tile
  // are read and written, straight in C (the vector backends mask
  // the columns and run one of six row-count kernels); panels are
  // zero-padded, so reading the full sliver is always safe.
  void (*gemm_tile_edge)(int64_t kc, const float* a_panel,
                         const float* b_panel, float* c, int64_t ldc,
                         bool accumulate, int64_t m_r, int64_t n_r);

  // Elementwise strips (all exact per-element ops; no reassociation
  // except row_sum, which reduces in vector lanes).
  void (*relu)(float* x, int64_t n);                     // x = max(x,0)
  void (*add)(float* a, const float* b, int64_t n);      // a += b
  void (*scale)(float* x, float s, int64_t n);           // x *= s
  float (*row_max)(const float* x, int64_t n);           // max, n >= 1
};

// Always available, at the host's panel width (ActivePanelNr()).
const KernelBackend* GetScalarBackend();
// The same tile at sliver width `nr` (kNr or kWideNr) — lets tests run
// the layout another host would.
const KernelBackend* GetScalarBackend(int64_t nr);

// Returns nullptr when this build (or platform) has no AVX2 backend;
// callers must then use the scalar backend regardless of cpuid.
const KernelBackend* GetAvx2Backend();

// AVX-512F upgrade of the AVX2 backend (6 x 32 zmm tile): nullptr
// unless both the build and the running CPU support it. Its results
// are bit-identical to AVX2's, so it slots under the kAvx2 dispatch
// level interchangeably.
const KernelBackend* GetAvx512Backend();

// Backend for `level`, degrading to scalar when the requested backend
// is not compiled in.
inline const KernelBackend* GetKernelBackend(SimdLevel level) {
  if (level == SimdLevel::kAvx2) {
    const KernelBackend* avx512 = GetAvx512Backend();
    if (avx512 != nullptr) return avx512;
    const KernelBackend* avx2 = GetAvx2Backend();
    if (avx2 != nullptr) return avx2;
  }
  return GetScalarBackend();
}

}  // namespace internal
}  // namespace kernels
}  // namespace relserve

#endif  // RELSERVE_KERNELS_MICRO_KERNEL_H_
