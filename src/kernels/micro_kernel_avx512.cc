// AVX-512F+FMA micro-kernel backend: the AVX2 backend's GEMM tile at
// twice the width.
//
// The 6x32 register tile uses 12 zmm accumulators, two B-vector loads
// and one A broadcast per k step — the AVX2 tile's register plan with
// 16-float vectors — and so does twice the work per instruction. Every
// C element is still one ascending-k chain of correctly rounded FMAs,
// starting from C's partials (or zero) exactly as in the AVX2 tile:
// the vector width only decides how many independent chains sit side
// by side, never the order or the rounding of any one chain. Edge
// tiles compute only their live rows, straight in C, under column
// masks, as the AVX2 edge does. So the results are bit-identical to
// the AVX2 backend, not just within tolerance, and this backend slots
// under the kAvx2 dispatch level.
//
// The elementwise strips are the AVX2 backend's: they are bound by
// memory, not by vector width, and sharing them keeps the whole kAvx2
// level bit-identical whichever tile runs.
//
// Compiled with -mavx512f -mfma (per-file in src/CMakeLists.txt, x86
// builds whose compiler takes the flag); entered only when the running
// CPU reports AVX-512F.

#include "kernels/micro_kernel.h"

#if defined(__AVX512F__) && defined(__FMA__)

#include <immintrin.h>

namespace relserve {
namespace kernels {
namespace internal {
namespace {

// The register tile is kWideNr = two 16-float zmm vectors wide.
void Avx512Tile(int64_t kc, const float* a_panel, const float* b_panel,
                float* c, int64_t ldc, bool accumulate) {
  __m512 acc0a, acc0b, acc1a, acc1b, acc2a, acc2b;
  __m512 acc3a, acc3b, acc4a, acc4b, acc5a, acc5b;
  if (accumulate) {
    acc0a = _mm512_loadu_ps(c + 0 * ldc);
    acc0b = _mm512_loadu_ps(c + 0 * ldc + 16);
    acc1a = _mm512_loadu_ps(c + 1 * ldc);
    acc1b = _mm512_loadu_ps(c + 1 * ldc + 16);
    acc2a = _mm512_loadu_ps(c + 2 * ldc);
    acc2b = _mm512_loadu_ps(c + 2 * ldc + 16);
    acc3a = _mm512_loadu_ps(c + 3 * ldc);
    acc3b = _mm512_loadu_ps(c + 3 * ldc + 16);
    acc4a = _mm512_loadu_ps(c + 4 * ldc);
    acc4b = _mm512_loadu_ps(c + 4 * ldc + 16);
    acc5a = _mm512_loadu_ps(c + 5 * ldc);
    acc5b = _mm512_loadu_ps(c + 5 * ldc + 16);
  } else {
    acc0a = acc0b = acc1a = acc1b = acc2a = acc2b = _mm512_setzero_ps();
    acc3a = acc3b = acc4a = acc4b = acc5a = acc5b = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = a_panel + p * kMr;
    // Packed panels start on a 64-byte boundary and every B sliver is
    // kWideNr floats, so these 64-byte loads are always aligned.
    const __m512 b0 = _mm512_load_ps(b_panel + p * kWideNr);
    const __m512 b1 = _mm512_load_ps(b_panel + p * kWideNr + 16);
    __m512 ai;
    ai = _mm512_set1_ps(a[0]);
    acc0a = _mm512_fmadd_ps(ai, b0, acc0a);
    acc0b = _mm512_fmadd_ps(ai, b1, acc0b);
    ai = _mm512_set1_ps(a[1]);
    acc1a = _mm512_fmadd_ps(ai, b0, acc1a);
    acc1b = _mm512_fmadd_ps(ai, b1, acc1b);
    ai = _mm512_set1_ps(a[2]);
    acc2a = _mm512_fmadd_ps(ai, b0, acc2a);
    acc2b = _mm512_fmadd_ps(ai, b1, acc2b);
    ai = _mm512_set1_ps(a[3]);
    acc3a = _mm512_fmadd_ps(ai, b0, acc3a);
    acc3b = _mm512_fmadd_ps(ai, b1, acc3b);
    ai = _mm512_set1_ps(a[4]);
    acc4a = _mm512_fmadd_ps(ai, b0, acc4a);
    acc4b = _mm512_fmadd_ps(ai, b1, acc4b);
    ai = _mm512_set1_ps(a[5]);
    acc5a = _mm512_fmadd_ps(ai, b0, acc5a);
    acc5b = _mm512_fmadd_ps(ai, b1, acc5b);
  }
  _mm512_storeu_ps(c + 0 * ldc, acc0a);
  _mm512_storeu_ps(c + 0 * ldc + 16, acc0b);
  _mm512_storeu_ps(c + 1 * ldc, acc1a);
  _mm512_storeu_ps(c + 1 * ldc + 16, acc1b);
  _mm512_storeu_ps(c + 2 * ldc, acc2a);
  _mm512_storeu_ps(c + 2 * ldc + 16, acc2b);
  _mm512_storeu_ps(c + 3 * ldc, acc3a);
  _mm512_storeu_ps(c + 3 * ldc + 16, acc3b);
  _mm512_storeu_ps(c + 4 * ldc, acc4a);
  _mm512_storeu_ps(c + 4 * ldc + 16, acc4b);
  _mm512_storeu_ps(c + 5 * ldc, acc5a);
  _mm512_storeu_ps(c + 5 * ldc + 16, acc5b);
}

// Edge rows: the first M rows of the tile, read from and written to C
// directly, with the columns past n_r masked off. Each live element
// runs the full tile's FMA chain (from C's partial or from zero,
// ascending p), so an edge element has the bits it would have in a
// full tile. kHi is false when n_r <= 16: the upper zmm half holds no
// live column and is skipped.
template <int M, bool kHi>
void Avx512TileRows(int64_t kc, const float* a_panel,
                    const float* b_panel, float* c, int64_t ldc,
                    bool accumulate, __mmask16 lo_mask,
                    __mmask16 hi_mask) {
  __m512 lo[M];
  __m512 hi[M];
#pragma GCC unroll 6
  for (int i = 0; i < M; ++i) {
    lo[i] = accumulate ? _mm512_maskz_loadu_ps(lo_mask, c + i * ldc)
                       : _mm512_setzero_ps();
    if constexpr (kHi) {
      hi[i] = accumulate
                  ? _mm512_maskz_loadu_ps(hi_mask, c + i * ldc + 16)
                  : _mm512_setzero_ps();
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = a_panel + p * kMr;
    const __m512 b0 = _mm512_load_ps(b_panel + p * kWideNr);
    __m512 b1;
    if constexpr (kHi) b1 = _mm512_load_ps(b_panel + p * kWideNr + 16);
#pragma GCC unroll 6
    for (int i = 0; i < M; ++i) {
      const __m512 ai = _mm512_set1_ps(a[i]);
      lo[i] = _mm512_fmadd_ps(ai, b0, lo[i]);
      if constexpr (kHi) hi[i] = _mm512_fmadd_ps(ai, b1, hi[i]);
    }
  }
#pragma GCC unroll 6
  for (int i = 0; i < M; ++i) {
    _mm512_mask_storeu_ps(c + i * ldc, lo_mask, lo[i]);
    if constexpr (kHi) {
      _mm512_mask_storeu_ps(c + i * ldc + 16, hi_mask, hi[i]);
    }
  }
}

using EdgeRowsFn = void (*)(int64_t, const float*, const float*, float*,
                            int64_t, bool, __mmask16, __mmask16);

// [kHi][M - 1]
constexpr EdgeRowsFn kEdgeRows[2][kMr] = {
    {Avx512TileRows<1, false>, Avx512TileRows<2, false>,
     Avx512TileRows<3, false>, Avx512TileRows<4, false>,
     Avx512TileRows<5, false>, Avx512TileRows<6, false>},
    {Avx512TileRows<1, true>, Avx512TileRows<2, true>,
     Avx512TileRows<3, true>, Avx512TileRows<4, true>,
     Avx512TileRows<5, true>, Avx512TileRows<6, true>},
};

// Lane mask of the first `cols` columns of one 16-float half.
inline __mmask16 LiveLanes(int64_t cols) {
  if (cols <= 0) return 0;
  if (cols >= 16) return 0xFFFF;
  return static_cast<__mmask16>((1u << cols) - 1);
}

void Avx512TileEdge(int64_t kc, const float* a_panel,
                    const float* b_panel, float* c, int64_t ldc,
                    bool accumulate, int64_t m_r, int64_t n_r) {
  kEdgeRows[n_r > 16][m_r - 1](kc, a_panel, b_panel, c, ldc, accumulate,
                               LiveLanes(n_r), LiveLanes(n_r - 16));
}

}  // namespace

const KernelBackend* GetAvx512Backend() {
  // One cpuid consult; GCC's and Clang's avx512f probe includes the
  // OS check that zmm state is saved across context switches.
  static const KernelBackend* const backend = []() -> const KernelBackend* {
    const KernelBackend* avx2 = GetAvx2Backend();
    if (avx2 == nullptr || !__builtin_cpu_supports("avx512f")) {
      return nullptr;
    }
    static const KernelBackend table = {
        SimdLevel::kAvx2, "avx512-fma", kWideNr,    Avx512Tile,
        Avx512TileEdge,   avx2->relu,   avx2->add,  avx2->scale,
        avx2->row_max,
    };
    return &table;
  }();
  return backend;
}

}  // namespace internal
}  // namespace kernels
}  // namespace relserve

#else  // !(__AVX512F__ && __FMA__): non-x86 target or flag not taken

namespace relserve {
namespace kernels {
namespace internal {

const KernelBackend* GetAvx512Backend() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace relserve

#endif
