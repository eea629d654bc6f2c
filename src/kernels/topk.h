// Fused matmul + top-k epilogue for extreme-classification heads.
//
// The 14k-wide logits layer of the Amazon-14k model dominates both
// FLOPs and memory traffic, yet a serving query only wants the k best
// classes per row. This driver streams the output channels in fixed
// macro-blocks through a per-thread block scratch (one block of
// logits, never the full [batch, classes] matrix) and keeps a bounded
// min-heap of the k best (value, index) pairs per row — composing
// with the bias/relu fusion hooks by applying them to each block
// before selection.
//
// Determinism contract: candidates are ranked by the strict total
// order (value desc, index asc). Because indices are unique the top-k
// SET under this order is unique whatever the scan or thread order,
// and the output is sorted by the same order — so ties and duplicated
// logits produce identical results at any thread count and with any
// of the three weight payloads.
//
// Output layout: [m, 2k] rows of k values followed by k indices
// (stored as floats; class counts < 2^24 are exact).

#ifndef RELSERVE_KERNELS_TOPK_H_
#define RELSERVE_KERNELS_TOPK_H_

#include <cstdint>

#include "common/result.h"
#include "kernels/kernels.h"
#include "resource/thread_pool.h"
#include "tensor/tensor.h"

namespace relserve {
namespace kernels {

struct TopKOptions {
  int64_t k = 1;
  // Fused epilogue, applied per block before selection (bias, relu)
  // or to the k survivors after selection (softmax renormalizes the
  // returned candidates — the serving contract for a top-k head).
  const Tensor* bias = nullptr;  // rank-1 [channels]
  bool relu = false;
  bool softmax = false;
};

// logits = a * w^T (+bias, relu); out = top-k per row, [m, 2k], in
// the arm of `w`'s payload. An fp32 panel hands each channel block its
// kNc-aligned slice. `out` must be preallocated [m, 2 * opts.k];
// `pool` may be null.
Status MatMulTopKInto(const Tensor& a, const Weight& w,
                      const TopKOptions& opts, Tensor* out,
                      ThreadPool* pool = nullptr);

}  // namespace kernels
}  // namespace relserve

#endif  // RELSERVE_KERNELS_TOPK_H_
