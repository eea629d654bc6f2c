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
#include <vector>

#include "common/result.h"
#include "resource/thread_pool.h"
#include "tensor/tensor.h"

namespace relserve {
namespace kernels {

// A [n, k] matmul weight (the x * W^T layout) packed once, at deploy,
// into the GEMM's B-panel layout: every (jc, pc) block the packed
// driver would otherwise pack per call, jc-major, in nr-wide column
// slivers zero-padded past n. `panel` is [RoundUp(n, nr), k] floats
// on a 64-byte boundary, so it exceeds the weight by at most
// (nr - 1) * k floats.
struct PackedWeight {
  int64_t n = 0;
  int64_t k = 0;
  int64_t nr = 0;  // sliver width of the backend it was packed for
  Tensor panel;
};

// Packs `w` ([n, k]) for the active backend's sliver width, charging
// the panel to `tracker`.
Result<PackedWeight> PackWeightTransB(const Tensor& w,
                                      MemoryTracker* tracker = nullptr);

// The [n, k] weight back from its panel — an exact permutation, so
// packing the result again gives the same panel bytes.
Result<Tensor> UnpackWeightTransB(const PackedWeight& packed,
                                  MemoryTracker* tracker = nullptr);

// Sliver width of the active backend's B panels: the nr that
// PackWeightTransB packs at and that a product reads a panel at.
int64_t ActivePanelNr();

// out[m,n] = a[m,k] * b[k,n]   (transpose_b=false, b is [k,n])
// out[m,n] = a[m,k] * b[n,k]^T (transpose_b=true,  b is [n,k])
// If `accumulate` is true, adds into `out` instead of overwriting.
// `pool` may be null (serial execution). `packed_b` (nullable,
// transpose_b only) is `b` packed by PackWeightTransB: the product
// reads B from it instead of packing `b` per call, unless the active
// backend's nr differs from the panel's. The bits are the same.
Status GemmInto(const Tensor& a, const Tensor& b, bool transpose_b,
                bool accumulate, Tensor* out, ThreadPool* pool = nullptr,
                const PackedWeight* packed_b = nullptr);

// Allocating matmul; `out = a * b(^T)`.
Result<Tensor> MatMul(const Tensor& a, const Tensor& b, bool transpose_b,
                      MemoryTracker* tracker = nullptr,
                      ThreadPool* pool = nullptr,
                      const PackedWeight* packed_b = nullptr);

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
