// Portable scalar micro-kernel backend — the guaranteed-correct
// fallback for hardware without AVX2+FMA (and the reference point for
// the dispatch tests). The compiler may auto-vectorize these loops
// with whatever the baseline ISA offers; that never changes results
// because every output element keeps its own independent ascending-k
// accumulation chain and the baseline target has no FMA contraction.

#include <algorithm>

#include "kernels/kernels.h"
#include "kernels/micro_kernel.h"

namespace relserve {
namespace kernels {
namespace internal {
namespace {

// The tile runs at either vector width (NR = kNr or kWideNr): every
// element keeps its own chain, so the width changes no bit.
//
// Generic tile: rows [0, m_r) x cols [0, n_r), m_r <= kMr, n_r <= NR.
// Accumulates directly from the existing C values (or from zero), so
// the per-element float chain is exactly the historical
//   c = ((c0 + a0*b0) + a1*b1) + ...
// no matter how many kc blocks the driver splits k into.
template <int64_t NR>
void ScalarTileEdge(int64_t kc, const float* a_panel,
                    const float* b_panel, float* c, int64_t ldc,
                    bool accumulate, int64_t m_r, int64_t n_r) {
  // One accumulator row at a time (NR floats fit the baseline vector
  // registers, so the j-loop auto-vectorizes without spilling; a full
  // kMr x kNr accumulator block would not).
  for (int64_t i = 0; i < m_r; ++i) {
    float acc[NR];
    float* c_row = c + i * ldc;
    for (int64_t j = 0; j < n_r; ++j) {
      acc[j] = accumulate ? c_row[j] : 0.0f;
    }
    for (int64_t p = 0; p < kc; ++p) {
      const float a_ip = a_panel[p * kMr + i];
      const float* b = b_panel + p * NR;
      for (int64_t j = 0; j < n_r; ++j) {
        acc[j] += a_ip * b[j];
      }
    }
    for (int64_t j = 0; j < n_r; ++j) c_row[j] = acc[j];
  }
}

// Full tile: same row-at-a-time shape with compile-time bounds.
template <int64_t NR>
void ScalarTile(int64_t kc, const float* a_panel, const float* b_panel,
                float* c, int64_t ldc, bool accumulate) {
  for (int64_t i = 0; i < kMr; ++i) {
    float acc[NR];
    float* c_row = c + i * ldc;
    if (accumulate) {
      for (int64_t j = 0; j < NR; ++j) acc[j] = c_row[j];
    } else {
      for (int64_t j = 0; j < NR; ++j) acc[j] = 0.0f;
    }
    for (int64_t p = 0; p < kc; ++p) {
      const float a_ip = a_panel[p * kMr + i];
      const float* b = b_panel + p * NR;
      for (int64_t j = 0; j < NR; ++j) {
        acc[j] += a_ip * b[j];
      }
    }
    for (int64_t j = 0; j < NR; ++j) c_row[j] = acc[j];
  }
}

void ScalarRelu(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = std::max(x[i], 0.0f);
}

void ScalarAdd(float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) a[i] += b[i];
}

void ScalarScale(float* x, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= s;
}

float ScalarRowMax(const float* x, int64_t n) {
  float m = x[0];
  for (int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

constexpr KernelBackend kScalarBackend = {
    SimdLevel::kScalar,  "scalar",   kNr,       ScalarTile<kNr>,
    ScalarTileEdge<kNr>, ScalarRelu, ScalarAdd, ScalarScale,
    ScalarRowMax,
};
constexpr KernelBackend kWideScalarBackend = {
    SimdLevel::kScalar,      "scalar",   kWideNr,   ScalarTile<kWideNr>,
    ScalarTileEdge<kWideNr>, ScalarRelu, ScalarAdd, ScalarScale,
    ScalarRowMax,
};

}  // namespace

const KernelBackend* GetScalarBackend(int64_t nr) {
  return nr == kWideNr ? &kWideScalarBackend : &kScalarBackend;
}

const KernelBackend* GetScalarBackend() {
  return GetScalarBackend(ActivePanelNr());
}

}  // namespace internal
}  // namespace kernels
}  // namespace relserve
