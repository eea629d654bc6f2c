// AVX2+FMA micro-kernel backend.
//
// This is the only translation unit compiled with -mavx2 -mfma (set
// per-file in src/CMakeLists.txt, x86 builds only); nothing here runs
// unless the cpuid probe in cpu_features.cc reported AVX2+FMA+OSXSAVE,
// so the rest of the binary stays executable on baseline hardware.
//
// The 6x16 register tile uses 12 ymm accumulators, two B-vector loads
// and one A broadcast per k step — 15 of the 16 ymm registers — and
// issues two FMAs per accumulator row per step. Per output element the
// accumulation is still one ascending-k chain; results differ from the
// scalar backend only by FMA rounding (the multiply-add is fused).
// On AVX-512F hosts the kAvx2 level runs the bit-identical 6x32 tile of
// micro_kernel_avx512.cc instead, which borrows this file's
// elementwise strips.

#include "kernels/micro_kernel.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>

#include "common/aligned_alloc.h"

namespace relserve {
namespace kernels {
namespace internal {
namespace {

void Avx2Tile(int64_t kc, const float* a_panel, const float* b_panel,
              float* c, int64_t ldc, bool accumulate) {
  __m256 acc0a, acc0b, acc1a, acc1b, acc2a, acc2b;
  __m256 acc3a, acc3b, acc4a, acc4b, acc5a, acc5b;
  if (accumulate) {
    acc0a = _mm256_loadu_ps(c + 0 * ldc);
    acc0b = _mm256_loadu_ps(c + 0 * ldc + 8);
    acc1a = _mm256_loadu_ps(c + 1 * ldc);
    acc1b = _mm256_loadu_ps(c + 1 * ldc + 8);
    acc2a = _mm256_loadu_ps(c + 2 * ldc);
    acc2b = _mm256_loadu_ps(c + 2 * ldc + 8);
    acc3a = _mm256_loadu_ps(c + 3 * ldc);
    acc3b = _mm256_loadu_ps(c + 3 * ldc + 8);
    acc4a = _mm256_loadu_ps(c + 4 * ldc);
    acc4b = _mm256_loadu_ps(c + 4 * ldc + 8);
    acc5a = _mm256_loadu_ps(c + 5 * ldc);
    acc5b = _mm256_loadu_ps(c + 5 * ldc + 8);
  } else {
    acc0a = acc0b = acc1a = acc1b = acc2a = acc2b = _mm256_setzero_ps();
    acc3a = acc3b = acc4a = acc4b = acc5a = acc5b = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = a_panel + p * kMr;
    // Packed panels start on a 64-byte boundary and every B sliver is
    // kNr floats, so these 32-byte loads are always aligned.
    const __m256 b0 = _mm256_load_ps(b_panel + p * kNr);
    const __m256 b1 = _mm256_load_ps(b_panel + p * kNr + 8);
    __m256 ai;
    ai = _mm256_broadcast_ss(a + 0);
    acc0a = _mm256_fmadd_ps(ai, b0, acc0a);
    acc0b = _mm256_fmadd_ps(ai, b1, acc0b);
    ai = _mm256_broadcast_ss(a + 1);
    acc1a = _mm256_fmadd_ps(ai, b0, acc1a);
    acc1b = _mm256_fmadd_ps(ai, b1, acc1b);
    ai = _mm256_broadcast_ss(a + 2);
    acc2a = _mm256_fmadd_ps(ai, b0, acc2a);
    acc2b = _mm256_fmadd_ps(ai, b1, acc2b);
    ai = _mm256_broadcast_ss(a + 3);
    acc3a = _mm256_fmadd_ps(ai, b0, acc3a);
    acc3b = _mm256_fmadd_ps(ai, b1, acc3b);
    ai = _mm256_broadcast_ss(a + 4);
    acc4a = _mm256_fmadd_ps(ai, b0, acc4a);
    acc4b = _mm256_fmadd_ps(ai, b1, acc4b);
    ai = _mm256_broadcast_ss(a + 5);
    acc5a = _mm256_fmadd_ps(ai, b0, acc5a);
    acc5b = _mm256_fmadd_ps(ai, b1, acc5b);
  }
  _mm256_storeu_ps(c + 0 * ldc, acc0a);
  _mm256_storeu_ps(c + 0 * ldc + 8, acc0b);
  _mm256_storeu_ps(c + 1 * ldc, acc1a);
  _mm256_storeu_ps(c + 1 * ldc + 8, acc1b);
  _mm256_storeu_ps(c + 2 * ldc, acc2a);
  _mm256_storeu_ps(c + 2 * ldc + 8, acc2b);
  _mm256_storeu_ps(c + 3 * ldc, acc3a);
  _mm256_storeu_ps(c + 3 * ldc + 8, acc3b);
  _mm256_storeu_ps(c + 4 * ldc, acc4a);
  _mm256_storeu_ps(c + 4 * ldc + 8, acc4b);
  _mm256_storeu_ps(c + 5 * ldc, acc5a);
  _mm256_storeu_ps(c + 5 * ldc + 8, acc5b);
}

// Edge tiles run the full-width kernel on an aligned scratch tile
// (the panels are zero-padded to kMr x kNr, so the extra lanes compute
// harmless zeros) and copy the valid region back to C. When
// accumulating, the scratch starts from C's partials, so every element
// sees the same FMA chain as in a full tile: a row's bits never depend
// on where the batch's tile edges fall.
void Avx2TileEdge(int64_t kc, const float* a_panel, const float* b_panel,
                  float* c, int64_t ldc, bool accumulate, int64_t m_r,
                  int64_t n_r) {
  alignas(kCacheLineBytes) float tile[kMr * kNr] = {};
  if (accumulate) {
    for (int64_t i = 0; i < m_r; ++i) {
      std::memcpy(tile + i * kNr, c + i * ldc, n_r * sizeof(float));
    }
  }
  Avx2Tile(kc, a_panel, b_panel, tile, kNr, accumulate);
  for (int64_t i = 0; i < m_r; ++i) {
    std::memcpy(c + i * ldc, tile + i * kNr, n_r * sizeof(float));
  }
}

void Avx2Relu(float* x, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void Avx2Add(float* a, const float* b, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
}

void Avx2Scale(float* x, float s, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (; i < n; ++i) x[i] *= s;
}

float Avx2RowMax(const float* x, int64_t n) {
  float m = x[0];
  int64_t i = 0;
  if (n >= 8) {
    __m256 mv = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      mv = _mm256_max_ps(mv, _mm256_loadu_ps(x + i));
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, mv);
    m = lanes[0];
    for (int lane = 1; lane < 8; ++lane) {
      m = m > lanes[lane] ? m : lanes[lane];
    }
  }
  for (; i < n; ++i) m = m > x[i] ? m : x[i];
  return m;
}

constexpr KernelBackend kAvx2Backend = {
    SimdLevel::kAvx2, "avx2-fma", kNr,       Avx2Tile,   Avx2TileEdge,
    Avx2Relu,         Avx2Add,    Avx2Scale, Avx2RowMax,
};

}  // namespace

const KernelBackend* GetAvx2Backend() { return &kAvx2Backend; }

}  // namespace internal
}  // namespace kernels
}  // namespace relserve

#else  // !(__AVX2__ && __FMA__): non-x86 target or flags not applied

namespace relserve {
namespace kernels {
namespace internal {

const KernelBackend* GetAvx2Backend() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace relserve

#endif
