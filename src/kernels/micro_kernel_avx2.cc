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

// Edge rows: the first M rows of the tile, read from and written to C
// directly, with the columns past n_r masked off (vmaskmov). Each live
// element runs the full tile's FMA chain (from C's partial or from
// zero, ascending p), so a row's bits never depend on where the
// batch's tile edges fall. kHi is false when n_r <= 8: the upper ymm
// half holds no live column and is skipped.
template <int M, bool kHi>
void Avx2TileRows(int64_t kc, const float* a_panel, const float* b_panel,
                  float* c, int64_t ldc, bool accumulate, __m256i lo_mask,
                  __m256i hi_mask) {
  __m256 lo[M];
  __m256 hi[M];
#pragma GCC unroll 6
  for (int i = 0; i < M; ++i) {
    lo[i] = accumulate ? _mm256_maskload_ps(c + i * ldc, lo_mask)
                       : _mm256_setzero_ps();
    if constexpr (kHi) {
      hi[i] = accumulate ? _mm256_maskload_ps(c + i * ldc + 8, hi_mask)
                         : _mm256_setzero_ps();
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = a_panel + p * kMr;
    const __m256 b0 = _mm256_load_ps(b_panel + p * kNr);
    __m256 b1;
    if constexpr (kHi) b1 = _mm256_load_ps(b_panel + p * kNr + 8);
#pragma GCC unroll 6
    for (int i = 0; i < M; ++i) {
      const __m256 ai = _mm256_broadcast_ss(a + i);
      lo[i] = _mm256_fmadd_ps(ai, b0, lo[i]);
      if constexpr (kHi) hi[i] = _mm256_fmadd_ps(ai, b1, hi[i]);
    }
  }
#pragma GCC unroll 6
  for (int i = 0; i < M; ++i) {
    _mm256_maskstore_ps(c + i * ldc, lo_mask, lo[i]);
    if constexpr (kHi) _mm256_maskstore_ps(c + i * ldc + 8, hi_mask, hi[i]);
  }
}

using EdgeRowsFn = void (*)(int64_t, const float*, const float*, float*,
                            int64_t, bool, __m256i, __m256i);

// [kHi][M - 1]
constexpr EdgeRowsFn kEdgeRows[2][kMr] = {
    {Avx2TileRows<1, false>, Avx2TileRows<2, false>,
     Avx2TileRows<3, false>, Avx2TileRows<4, false>,
     Avx2TileRows<5, false>, Avx2TileRows<6, false>},
    {Avx2TileRows<1, true>, Avx2TileRows<2, true>, Avx2TileRows<3, true>,
     Avx2TileRows<4, true>, Avx2TileRows<5, true>, Avx2TileRows<6, true>},
};

// Lane mask (all-ones lanes) of the first `cols` columns of one
// 8-float half.
inline __m256i LiveLanes(int64_t cols) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

void Avx2TileEdge(int64_t kc, const float* a_panel, const float* b_panel,
                  float* c, int64_t ldc, bool accumulate, int64_t m_r,
                  int64_t n_r) {
  kEdgeRows[n_r > 8][m_r - 1](kc, a_panel, b_panel, c, ldc, accumulate,
                              LiveLanes(n_r), LiveLanes(n_r - 8));
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
