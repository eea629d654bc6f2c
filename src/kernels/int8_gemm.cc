// Int8 GEMM driver + always-correct scalar backend.
//
// The driver owns everything a backend must not influence: dynamic
// row quantization, tiling, parallel partitioning, and the final
// dequantization (one shared float expression), so switching backends
// can only change how the exact integer accumulators are computed —
// never their values.

#include "kernels/int8_gemm.h"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace relserve {
namespace kernels {

namespace {

inline int64_t RoundUp32(int64_t v) { return (v + 31) / 32 * 32; }

inline int8_t ClampQ(long v, long lo, long hi) {
  return static_cast<int8_t>(v < lo ? lo : (v > hi ? hi : v));
}

}  // namespace

Result<Int8Weight> QuantizeWeightPerChannel(const Tensor& w) {
  if (w.shape().ndim() != 2) {
    return Status::InvalidArgument("int8 weight must be a matrix");
  }
  Int8Weight q;
  q.out = w.shape().dim(0);
  q.in = w.shape().dim(1);
  q.padded_in = RoundUp32(q.in);
  q.data.assign(static_cast<size_t>(q.out * q.padded_in), 0);
  q.scales.resize(static_cast<size_t>(q.out));
  q.row_sums.resize(static_cast<size_t>(q.out));
  const float* src = w.data();
  for (int64_t o = 0; o < q.out; ++o) {
    const float* row = src + o * q.in;
    float maxabs = 0.0f;
    for (int64_t p = 0; p < q.in; ++p) {
      const float a = std::fabs(row[p]);
      if (a > maxabs) maxabs = a;
    }
    const float scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
    int8_t* dst = q.data.data() + o * q.padded_in;
    int64_t sum = 0;
    for (int64_t p = 0; p < q.in; ++p) {
      const int8_t v = ClampQ(std::lroundf(row[p] / scale), -127, 127);
      dst[p] = v;
      sum += v;
    }
    q.scales[static_cast<size_t>(o)] = scale;
    q.row_sums[static_cast<size_t>(o)] = sum;
  }
  return q;
}

float QuantizeRowU7(const float* x, int64_t k, int64_t padded,
                    uint8_t* q) {
  // Dynamic quantization runs on every serving row, so this is part
  // of the int8 arm's critical path — it is vectorized with baseline
  // SSE2 (guaranteed on x86-64, no dispatch needed). The clamp
  // happens in float before the convert (equivalent: the grid points
  // are exactly representable) and the convert rounds to nearest,
  // ties to even — the scalar tail uses the same cvtss2si semantics
  // so a row quantizes identically regardless of its length mod 4.
  float maxabs = 0.0f;
  int64_t p = 0;
#if defined(__SSE2__)
  const __m128 absmask =
      _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 vmax = _mm_setzero_ps();
  for (; p + 4 <= k; p += 4) {
    vmax = _mm_max_ps(vmax, _mm_and_ps(absmask, _mm_loadu_ps(x + p)));
  }
  vmax = _mm_max_ps(vmax, _mm_movehl_ps(vmax, vmax));
  vmax = _mm_max_ss(vmax, _mm_shuffle_ps(vmax, vmax, 1));
  maxabs = _mm_cvtss_f32(vmax);
#endif
  for (; p < k; ++p) {
    const float a = std::fabs(x[p]);
    if (a > maxabs) maxabs = a;
  }
  const float scale = maxabs > 0.0f ? maxabs / 63.0f : 1.0f;
  p = 0;
#if defined(__SSE2__)
  const __m128 vscale = _mm_set1_ps(scale);
  const __m128 vlo = _mm_set1_ps(-63.0f);
  const __m128 vhi = _mm_set1_ps(63.0f);
  const __m128i vshift = _mm_set1_epi32(64);
  for (; p + 8 <= k; p += 8) {
    const __m128 d0 = _mm_max_ps(
        vlo, _mm_min_ps(vhi, _mm_div_ps(_mm_loadu_ps(x + p), vscale)));
    const __m128 d1 = _mm_max_ps(
        vlo,
        _mm_min_ps(vhi, _mm_div_ps(_mm_loadu_ps(x + p + 4), vscale)));
    const __m128i q0 = _mm_add_epi32(_mm_cvtps_epi32(d0), vshift);
    const __m128i q1 = _mm_add_epi32(_mm_cvtps_epi32(d1), vshift);
    // [1, 127] survives both saturating packs unchanged.
    _mm_storel_epi64(
        reinterpret_cast<__m128i*>(q + p),
        _mm_packus_epi16(_mm_packs_epi32(q0, q1), _mm_setzero_si128()));
  }
  for (; p < k; ++p) {
    float d = x[p] / scale;
    d = d < -63.0f ? -63.0f : (d > 63.0f ? 63.0f : d);
    q[p] = static_cast<uint8_t>(_mm_cvtss_si32(_mm_set_ss(d)) + 64);
  }
#else
  for (; p < k; ++p) {
    float d = x[p] / scale;
    d = d < -63.0f ? -63.0f : (d > 63.0f ? 63.0f : d);
    q[p] = static_cast<uint8_t>(
        static_cast<int>(std::nearbyintf(d)) + 64);
  }
#endif
  for (; p < padded; ++p) q[p] = 64;  // shifted zero
  return scale;
}

namespace internal {
namespace {

// Portable reference block: plain int64 accumulation over int
// products, then the shared dequant expression. Integer adds are
// associative and the dequant is one conversion plus two multiplies,
// so this defines THE answer every other backend must reproduce
// exactly.
void ScalarGemmBlock(const uint8_t* a, int64_t lda, int64_t rows,
                     const int8_t* w, int64_t ldw, int64_t chans,
                     int64_t kp, const float* a_scales,
                     const float* w_scales, const int64_t* row_sums,
                     float* out, int64_t ldo) {
  for (int64_t r = 0; r < rows; ++r) {
    const uint8_t* ar = a + r * lda;
    for (int64_t c = 0; c < chans; ++c) {
      const int8_t* wc = w + c * ldw;
      int64_t sum = 0;
      for (int64_t p = 0; p < kp; ++p) {
        sum += static_cast<int64_t>(ar[p]) * wc[p];
      }
      const int64_t true_acc = sum - 64 * row_sums[c];
      out[r * ldo + c] = static_cast<float>(true_acc) *
                         (a_scales[r] * w_scales[c]);
    }
  }
}

constexpr Int8Backend kScalarInt8Backend = {SimdLevel::kScalar,
                                            "scalar", ScalarGemmBlock};

}  // namespace

const Int8Backend* GetScalarInt8Backend() {
  return &kScalarInt8Backend;
}

}  // namespace internal

Status Int8GemmTransBInto(const Tensor& a, const Int8Weight& w,
                          Tensor* out, ThreadPool* pool) {
  if (a.shape().ndim() != 2 || out->shape().ndim() != 2) {
    return Status::InvalidArgument("int8 gemm expects matrices");
  }
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  if (k != w.in || out->shape().dim(0) != m ||
      out->shape().dim(1) != w.out) {
    return Status::InvalidArgument("int8 gemm shape mismatch");
  }
  if (m == 0 || w.out == 0) return Status::OK();
  const internal::Int8Backend* backend =
      internal::GetInt8Backend(ActiveSimdLevel());
  const int64_t kp = w.padded_in;
  const float* src = a.data();
  float* dst = out->data();

  // Row morsels: each worker quantizes and finishes its own rows, so
  // every (row, channel) accumulator is produced by exactly one
  // ascending-p integer chain — identical at any thread count.
  auto run_rows = [&](int64_t r_lo, int64_t r_hi) {
    constexpr int64_t kRowTile = 4;
    std::vector<uint8_t> qa(static_cast<size_t>(kRowTile * kp));
    float scales[kRowTile];
    for (int64_t r0 = r_lo; r0 < r_hi; r0 += kRowTile) {
      const int64_t rows = std::min<int64_t>(kRowTile, r_hi - r0);
      for (int64_t r = 0; r < rows; ++r) {
        scales[r] = QuantizeRowU7(src + (r0 + r) * k, k, kp,
                                  qa.data() + r * kp);
      }
      backend->gemm_block(qa.data(), kp, rows, w.data.data(), kp,
                          w.out, kp, scales, w.scales.data(),
                          w.row_sums.data(), dst + r0 * w.out, w.out);
    }
  };
  if (pool != nullptr && m >= 8) {
    // work_hint = integer MACs; the pool's cost-based grain keeps
    // small batches inline.
    pool->ParallelFor(0, m, run_rows, /*grain=*/0,
                      /*work_hint=*/2 * m * w.out * kp);
  } else {
    run_rows(0, m);
  }
  return Status::OK();
}

}  // namespace kernels
}  // namespace relserve
