// Dense linear-algebra kernels shared by every execution architecture.
//
// The UDF-centric executor calls these on whole tensors; the
// relation-centric executor calls them on individual tensor blocks; the
// simulated external DL runtime calls them inside its own arena. Using
// one kernel set everywhere means latency differences between
// architectures come only from data movement, blocking overheads, and
// memory management — the effects the paper's evaluation isolates.
//
// "Into" variants write into a caller-allocated output; allocating
// variants charge a MemoryTracker and can therefore fail with
// OutOfMemory.
//
// Every matrix product lowers to the cache-blocked, panel-packed
// micro-kernel layer (gemm_packed.h / micro_kernel.h), which selects
// an AVX-512F, AVX2+FMA or portable-scalar register tile at runtime
// via cpu_features.h; the elementwise strips dispatch on the same level.
// The dense inner loops deliberately do NOT skip zero multiplicands —
// a data-dependent branch per k-step costs more on dense weights than
// the multiplies it saves. Sparsity exploitation belongs in an
// explicit sparse entry point over deduplicated block relations, not
// hidden inside the dense path.

#ifndef RELSERVE_KERNELS_KERNELS_H_
#define RELSERVE_KERNELS_KERNELS_H_

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "kernels/int8_gemm.h"
#include "kernels/sparse_gemm.h"
#include "resource/thread_pool.h"
#include "tensor/tensor.h"

namespace relserve {
namespace kernels {

// A deployed [n, k] matmul weight (the x * W^T layout) — the one
// operand type of every matmul arm, built once at deploy. It holds
// exactly one payload:
//   - an fp32 B panel: every (jc, pc) block the packed GEMM would pack
//     per call, jc-major, in ActivePanelNr()-wide column slivers
//     zero-padded past n — [RoundUp(n, nr), k] floats on a 64-byte
//     boundary, so it exceeds the weight by at most (nr - 1) * k
//     floats;
//   - an Int8Weight (int8_gemm.h), or
//   - a CsrWeight (sparse_gemm.h).
// MatMul and MatMulTopKInto (topk.h) run any payload. The
// relation-centric join stores each weight block as a panel and the
// GEMM driver reads it in place, page by page (gemm_packed.h).
struct Weight {
  Weight(int64_t n, int64_t k, Tensor panel)
      : n(n), k(k), payload(std::move(panel)) {}
  explicit Weight(Int8Weight q) : n(q.out), k(q.in), payload(std::move(q)) {}
  explicit Weight(CsrWeight s) : n(s.out), k(s.in), payload(std::move(s)) {}

  const Tensor* panel() const { return std::get_if<Tensor>(&payload); }
  const Int8Weight* int8() const { return std::get_if<Int8Weight>(&payload); }
  const CsrWeight* csr() const { return std::get_if<CsrWeight>(&payload); }
  int64_t ByteSize() const;

  int64_t n = 0;
  int64_t k = 0;
  std::variant<Tensor, Int8Weight, CsrWeight> payload;
};

// Packs `w` ([n, k]) into its fp32 B panel, charged to `tracker`.
Result<Weight> PackWeightTransB(const Tensor& w,
                                MemoryTracker* tracker = nullptr);

// Writes the [n, k] weight held by `panel` (packed at sliver width
// `nr`, as PackWeightTransB packs at ActivePanelNr()) into rows of
// `out` (leading dimension `ld_out`) — an exact permutation, so
// packing the result again gives the same panel bytes.
void UnpackWeightTransB(const float* panel, int64_t n, int64_t k,
                        int64_t nr, float* out, int64_t ld_out);

// Sliver width of every B panel on this host: the vector tile's width
// (16, or 32 where the AVX-512 tile exists). The scalar tile runs at
// it too, so it is the same at every SimdLevel.
int64_t ActivePanelNr();

// out[m,n] = a[m,k] * b[k,n]   (transpose_b=false, b is [k,n])
// out[m,n] = a[m,k] * b[n,k]^T (transpose_b=true,  b is [n,k])
// If `accumulate` is true, adds into `out` instead of overwriting.
// `pool` may be null (serial execution).
Status GemmInto(const Tensor& a, const Tensor& b, bool transpose_b,
                bool accumulate, Tensor* out, ThreadPool* pool = nullptr);

// Allocating matmul; `out = a * b(^T)`.
Result<Tensor> MatMul(const Tensor& a, const Tensor& b, bool transpose_b,
                      MemoryTracker* tracker = nullptr,
                      ThreadPool* pool = nullptr);

// `out = a * w^T` on a deployed weight, in its payload's arm. An fp32
// panel gives GemmInto's bits on the unpacked weight.
Result<Tensor> MatMul(const Tensor& a, const Weight& w,
                      MemoryTracker* tracker = nullptr,
                      ThreadPool* pool = nullptr);

// out[m, k] = a[n, m]^T * b[n, k] — the weight-gradient contraction of
// backpropagation (dW = dZ^T * A). If `accumulate`, adds into `out`.
// `pool` may be null (serial execution).
Status GemmTransAInto(const Tensor& a, const Tensor& b, bool accumulate,
                      Tensor* out, ThreadPool* pool = nullptr);

// Column sums of a matrix into a rank-1 tensor (bias gradients).
Status ColumnSumInto(const Tensor& x, Tensor* out);

// Elementwise max(x, 0) in place.
void ReluInPlace(Tensor* x);

// x[r, c] += bias[c] for every row r. `bias` must be rank-1 with
// bias.dim(0) == x.dim(last).
Status BiasAddInPlace(Tensor* x, const Tensor& bias);

// The same with bias[0, x.dim(last)) read from `bias` — a column
// block's slice of a longer bias, added where it lies.
void BiasAddInPlace(Tensor* x, const float* bias);

// Row-wise numerically-stable softmax over the last dimension of a
// matrix.
Status SoftmaxRowsInPlace(Tensor* x);

// a += b, elementwise; shapes must match.
Status AddInPlace(Tensor* a, const Tensor& b);

// Per-row argmax of a matrix — the class decision of a classifier head.
std::vector<int64_t> ArgMaxRows(const Tensor& x);

// Lowers one [h, w, c] image to the im2col matrix
// [out_h*out_w, kh*kw*c] for valid convolution with the given stride —
// the "spatial rewriting" of the paper's Sec. 7.1 (there with 1x1
// kernels, where the matrix is [h*w, c]).
Result<Tensor> Im2Col(const Tensor& image, int64_t kernel_h,
                      int64_t kernel_w, int64_t stride,
                      MemoryTracker* tracker = nullptr);

// Writes rows [row_lo, row_hi) of the im2col matrix into `out`
// (shape [row_hi-row_lo, kh*kw*c]). Lets the relation-centric executor
// materialize the im2col relation one block at a time instead of all
// out_h*out_w rows at once.
Status Im2ColRowsInto(const Tensor& image, int64_t kernel_h,
                      int64_t kernel_w, int64_t stride, int64_t row_lo,
                      int64_t row_hi, Tensor* out);

// Valid 2-D convolution of a batch.
//   input:  [n, h, w, in_c]
//   kernel: [out_c, kh, kw, in_c]
//   output: [n, out_h, out_w, out_c]
// Implemented as im2col followed by GEMM against the flattened kernel.
Result<Tensor> Conv2D(const Tensor& input, const Tensor& kernel,
                      int64_t stride, MemoryTracker* tracker = nullptr,
                      ThreadPool* pool = nullptr);

// 2x2 max-pooling with stride 2 over [n, h, w, c].
Result<Tensor> MaxPool2x2(const Tensor& input,
                          MemoryTracker* tracker = nullptr);

}  // namespace kernels
}  // namespace relserve

#endif  // RELSERVE_KERNELS_KERNELS_H_
