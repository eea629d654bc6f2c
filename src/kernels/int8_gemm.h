// Int8 quantized GEMM path — the deploy-time-quantized kernel arm.
//
// Scheme (chosen so the scalar and AVX2 backends are bit-for-bit
// identical and the AVX2 `maddubs` pipeline can never saturate):
//
//   weights     per-output-channel symmetric int8:
//                 scale_w[o] = maxabs(W[o, :]) / 127
//                 q_w = clamp(round(w / scale_w), -127, 127)
//   activations per-row dynamic 7-bit symmetric, shifted unsigned:
//                 scale_a[r] = maxabs(x[r, :]) / 63
//                 q_a = round(clamp(x / scale_a, -63, 63)) + 64
//               (round to nearest, ties to even — the SSE cvt
//               rounding, so the vectorized quantizer and its scalar
//               tail agree exactly)
//               so q_a in [1, 127] fits u8 with |pair products|
//               bounded by 2 * 127 * 127 = 32258 < 2^15 — the i16
//               stage of _mm256_maddubs_epi16 cannot saturate.
//   dot         acc = sum q_a * q_w  (exact integer, any order)
//               true = acc - 64 * row_sum_w   (the +64 shift folds
//               into a per-channel constant precomputed at deploy)
//   dequant     out = float(true) * (scale_a[r] * scale_w[o])
//
// Integer accumulation is associative, so the scalar backend and the
// AVX2 maddubs backend produce the SAME int64 accumulator for every
// (row, channel) pair regardless of vectorization or thread count;
// the float dequantization happens once in the shared driver. That
// makes scalar-int8 == AVX2-int8 a bit-for-bit test invariant (unlike
// the fp32 path, where FMA rounding differs by design).
//
// Both operand buffers are padded to a multiple of 32 in k: activation
// padding quantizes to the shifted zero (64), weight padding to 0, so
// padded lanes contribute exactly 0 to every accumulator.

#ifndef RELSERVE_KERNELS_INT8_GEMM_H_
#define RELSERVE_KERNELS_INT8_GEMM_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "kernels/cpu_features.h"
#include "resource/thread_pool.h"
#include "tensor/tensor.h"

namespace relserve {
namespace kernels {

// A matmul weight quantized once at deploy time. Layout matches the
// dense weight convention W[out, in] (x * W^T); rows are stored
// contiguously, padded to `padded_in` (multiple of 32) with zeros.
struct Int8Weight {
  int64_t out = 0;
  int64_t in = 0;
  int64_t padded_in = 0;
  std::vector<int8_t> data;     // [out, padded_in]
  std::vector<float> scales;    // [out] per-output-channel scale
  std::vector<int64_t> row_sums;  // [out] sum of q_w over the real k
                                  // (the +64 activation-shift term)

  int64_t ByteSize() const {
    return static_cast<int64_t>(data.size()) +
           static_cast<int64_t>(scales.size() * sizeof(float)) +
           static_cast<int64_t>(row_sums.size() * sizeof(int64_t));
  }
};

// Deploy-time per-output-channel quantization of a [out, in] weight.
Result<Int8Weight> QuantizeWeightPerChannel(const Tensor& w);

// Quantizes one activation row to the shifted-u7 grid. `q` must hold
// `padded` bytes (padded >= k, multiple of 32); padding is written as
// the shifted zero (64). Returns the row scale.
float QuantizeRowU7(const float* x, int64_t k, int64_t padded,
                    uint8_t* q);

// out[m, n] = a[m, k] * dequant(w)[n, k]^T with per-row dynamic input
// quantization. `out` must be preallocated [m, w.out]; `pool` may be
// null. Results are identical at any thread count and any SIMD level.
Status Int8GemmTransBInto(const Tensor& a, const Int8Weight& w,
                          Tensor* out, ThreadPool* pool = nullptr);

namespace internal {

// One ISA's int8 block kernel. Computes a strip of FINAL dequantized
// outputs in one call:
//   dot       = sum_p a[r * lda + p] * w[c * ldw + p]   (exact int)
//   true_acc  = dot - 64 * row_sums[c]
//   out[r * ldo + c] = float(true_acc) * (a_scales[r] * w_scales[c])
// for r in [0, rows), c in [0, chans), over the padded contraction
// length kp (multiple of 32).
//
// The strip-granular call (whole channel range per row quad, not a
// 4x2 tile) exists for throughput: at serving-size k the per-tile
// epilogue — call, horizontal reduction, dequant — would otherwise
// rival the k-loop itself. Bit-identity across backends still holds
// because the integer dot is exact and the dequant is the same
// per-element float expression: one (scale_a * scale_w) product, one
// int-to-float conversion (IEEE-exact for any i64 the scheme can
// produce at a representable magnitude — both backends convert the
// same integer), one multiply.
struct Int8Backend {
  SimdLevel level;
  const char* name;  // self-description for benches/EXPLAIN
  void (*gemm_block)(const uint8_t* a, int64_t lda, int64_t rows,
                     const int8_t* w, int64_t ldw, int64_t chans,
                     int64_t kp, const float* a_scales,
                     const float* w_scales, const int64_t* row_sums,
                     float* out, int64_t ldo);
};

const Int8Backend* GetScalarInt8Backend();
// nullptr when this build/platform has no AVX2 backend.
const Int8Backend* GetAvx2Int8Backend();
// VEX-encoded AVX-VNNI (vpdpbusd) upgrade of the AVX2 backend:
// nullptr unless both the build and the running CPU support it. The
// accumulators it produces are the same exact integers, so it slots
// under the kAvx2 dispatch level interchangeably.
const Int8Backend* GetVnniInt8Backend();

inline const Int8Backend* GetInt8Backend(SimdLevel level) {
  if (level == SimdLevel::kAvx2) {
    const Int8Backend* vnni = GetVnniInt8Backend();
    if (vnni != nullptr) return vnni;
    const Int8Backend* avx2 = GetAvx2Int8Backend();
    if (avx2 != nullptr) return avx2;
  }
  return GetScalarInt8Backend();
}

}  // namespace internal
}  // namespace kernels
}  // namespace relserve

#endif  // RELSERVE_KERNELS_INT8_GEMM_H_
