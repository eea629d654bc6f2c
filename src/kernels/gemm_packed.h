// Cache-blocked packed GEMM driver — the single entry point every
// public matrix product in kernels.h lowers to.
//
// Computes, over row-major storage,
//   C[m, n] ⊕= op_a(A) * op_b(B)
// where op is optional transposition handled entirely inside the pack
// routines: trans_a reads logical A[i, p] from a[p * lda + i] (the
// dW = dZ^T * X contraction), trans_b reads logical B[p, j] from
// b[j * ldb + p] (the x * W^T weight layout). ⊕ is += when
// `accumulate`, plain assignment otherwise.
//
// Blocking follows the classical three-loop (nc, kc, mc) scheme of
// micro_kernel.h; `pool` (nullable) parallelizes over the packed
// mc-high macro-tiles of one (jc, pc) iteration, with the B panel
// packed once and shared read-only across workers. Tiles partition C
// rows and the kc blocks advance sequentially, so every output element
// keeps one fixed ascending-k accumulation chain: results are
// identical no matter how morsels land on threads.
//
// A weight packed at deploy (kernels::Weight's fp32 panel) holds every
// (jc, pc) B block this driver would pack, jc-major: the block of
// (jc, pc) starts at float jc * k + RoundUp(nc, nr) * pc. Handed one,
// the driver reads each block from it instead of packing one. The
// panel bytes are the ones PackB writes, so the product is
// bit-identical either way. Because every jc block but the last is a
// full kNc wide, the rows [c0, c0 + n') of a panel with c0 a multiple
// of kNc start at float c0 * k and form the panel of those rows alone
// — how the top-k head hands out one channel block at a time. A
// relation-centric join's weight block is such a panel too, read page
// by page (GemmPanelRun).

#ifndef RELSERVE_KERNELS_GEMM_PACKED_H_
#define RELSERVE_KERNELS_GEMM_PACKED_H_

#include <cstdint>

#include "common/result.h"
#include "kernels/micro_kernel.h"
#include "resource/thread_pool.h"
#include "tensor/tensor.h"

namespace relserve {
namespace kernels {

namespace internal {

// Fails only when a packing panel cannot be allocated (OutOfMemory).
// Runs on the backend of the active SIMD level. `packed_b` (nullable)
// is the panel of B = the [n, k] weight (trans_b) at the backend's nr
// (a Weight's panel, a slice of one, or a weight block): the product
// reads it instead of packing `b`, which it then never touches.
// `packed_a` (nullable), A's packed-A form, is read in place of `a`.
Status GemmPacked(int64_t m, int64_t n, int64_t k, const float* a,
                  int64_t lda, bool trans_a, const float* b, int64_t ldb,
                  bool trans_b, float* c, int64_t ldc, bool accumulate,
                  ThreadPool* pool, const float* packed_b = nullptr,
                  const float* packed_a = nullptr);

// Same product on an explicit backend — lets tests compare two
// backends that share one dispatch level.
Status GemmPacked(const KernelBackend* backend, int64_t m, int64_t n,
                  int64_t k, const float* a, int64_t lda, bool trans_a,
                  const float* b, int64_t ldb, bool trans_b, float* c,
                  int64_t ldc, bool accumulate, ThreadPool* pool,
                  const float* packed_b = nullptr,
                  const float* packed_a = nullptr);

// The packed-A form of an [m, k] matrix: the panels PackA writes for
// all m rows of each kc block, pc-major — block pc starts at float
// RoundUp(m, kMr) * pc, and its macro-tile at row ic ic * kc later.
int64_t PackedASize(int64_t m, int64_t k);

// Packs the row-major floats [pos, pos + count) of an [m, k] matrix,
// held at `src`, into the packed-A form `dst` (and the zero pad rows
// beside row m - 1). Runs covering the matrix pack all of it.
void PackARun(const float* src, int64_t pos, int64_t count, int64_t m,
              int64_t k, float* dst);

// Floats of one B sliver of a k-deep panel: GemmPanelRun's scratch.
int64_t PanelSliverFloats(int64_t k);

// C[m, n] ⊕= A * B^T for a packed-A `packed_a` and the [n, k] B panel
// handed over in consecutive runs (the pages of a weight block): `run`
// holds panel floats [pos, pos + count). Slivers inside the run are
// read in place; one split across runs is gathered into `straddle`
// (PanelSliverFloats(k), kept across the runs of one panel) and swept
// with the run that ends it. Over all runs, in order: GemmPacked's bits.
Status GemmPanelRun(int64_t m, int64_t n, int64_t k, const float* packed_a,
                    int64_t pos, const float* run, int64_t count,
                    float* c, int64_t ldc, bool accumulate,
                    ThreadPool* pool, float* straddle);

// Packs the [n, k] weight `w` into B panels of sliver width `nr`
// (kernels::PackWeightTransB packs at ActivePanelNr()).
Result<Tensor> PackPanel(const Tensor& w, int64_t nr,
                         MemoryTracker* tracker);

}  // namespace internal
}  // namespace kernels
}  // namespace relserve

#endif  // RELSERVE_KERNELS_GEMM_PACKED_H_
