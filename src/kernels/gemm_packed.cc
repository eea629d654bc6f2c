#include "kernels/gemm_packed.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/aligned_alloc.h"
#include "kernels/kernels.h"
#include "kernels/micro_kernel.h"

namespace relserve {
namespace kernels {
namespace internal {

namespace {

// Packs A[ic .. ic+mc, pc .. pc+kc) into kMr-tall row slivers:
//   dst[(ir/kMr) * kc * kMr + p * kMr + i] = A[ic+ir+i, pc+p]
// zero-padding rows past mc so the micro-kernel always reads a full
// sliver.
void PackA(const float* a, int64_t lda, bool trans_a, int64_t ic,
           int64_t pc, int64_t mc, int64_t kc, float* dst) {
  for (int64_t ir = 0; ir < mc; ir += kMr) {
    const int64_t m_r = std::min(kMr, mc - ir);
    float* sliver = dst + (ir / kMr) * kc * kMr;
    if (!trans_a) {
      for (int64_t p = 0; p < kc; ++p) {
        const float* col = a + (ic + ir) * lda + pc + p;
        float* out = sliver + p * kMr;
        for (int64_t i = 0; i < m_r; ++i) out[i] = col[i * lda];
        for (int64_t i = m_r; i < kMr; ++i) out[i] = 0.0f;
      }
    } else {
      // Logical A[i, p] lives at a[p * lda + i]: a sliver column is
      // contiguous in memory.
      for (int64_t p = 0; p < kc; ++p) {
        const float* row = a + (pc + p) * lda + ic + ir;
        float* out = sliver + p * kMr;
        for (int64_t i = 0; i < m_r; ++i) out[i] = row[i];
        for (int64_t i = m_r; i < kMr; ++i) out[i] = 0.0f;
      }
    }
  }
}

// Packs B[pc .. pc+kc, jc .. jc+nc) into nr-wide column slivers:
//   dst[(jr/nr) * kc * nr + p * nr + j] = B[pc+p, jc+jr+j]
// zero-padding columns past nc.
void PackB(const float* b, int64_t ldb, bool trans_b, int64_t pc,
           int64_t jc, int64_t kc, int64_t nc, int64_t nr, float* dst) {
  for (int64_t jr = 0; jr < nc; jr += nr) {
    const int64_t n_r = std::min(nr, nc - jr);
    float* sliver = dst + (jr / nr) * kc * nr;
    if (!trans_b) {
      for (int64_t p = 0; p < kc; ++p) {
        const float* row = b + (pc + p) * ldb + jc + jr;
        float* out = sliver + p * nr;
        for (int64_t j = 0; j < n_r; ++j) out[j] = row[j];
        for (int64_t j = n_r; j < nr; ++j) out[j] = 0.0f;
      }
    } else {
      // Logical B[p, j] lives at b[j * ldb + p].
      for (int64_t p = 0; p < kc; ++p) {
        const float* col = b + (jc + jr) * ldb + pc + p;
        float* out = sliver + p * nr;
        for (int64_t j = 0; j < n_r; ++j) out[j] = col[j * ldb];
        for (int64_t j = n_r; j < nr; ++j) out[j] = 0.0f;
      }
    }
  }
}

inline int64_t RoundUp(int64_t v, int64_t to) {
  return (v + to - 1) / to * to;
}

// Start of the (jc, pc) B block in a deploy-packed panel: every
// earlier jc block is a full kNc (a multiple of nr) wide and k deep.
inline int64_t PanelBlockOffset(int64_t jc, int64_t pc, int64_t nc,
                                int64_t k, int64_t nr) {
  return jc * k + RoundUp(nc, nr) * pc;
}

}  // namespace

Result<Tensor> PackPanel(const Tensor& w, int64_t nr,
                         MemoryTracker* tracker) {
  if (w.shape().ndim() != 2) {
    return Status::InvalidArgument("PackWeightTransB expects a matrix");
  }
  const int64_t n = w.shape().dim(0);
  const int64_t k = w.shape().dim(1);
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor panel, Tensor::Create(Shape{RoundUp(n, nr), k}, tracker));
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      PackB(w.data(), k, /*trans_b=*/true, pc, jc, kc, nc, nr,
            panel.data() + PanelBlockOffset(jc, pc, nc, k, nr));
    }
  }
  return panel;
}

Status GemmPacked(int64_t m, int64_t n, int64_t k, const float* a,
                  int64_t lda, bool trans_a, const float* b, int64_t ldb,
                  bool trans_b, float* c, int64_t ldc, bool accumulate,
                  ThreadPool* pool, const float* packed_b) {
  return GemmPacked(GetKernelBackend(ActiveSimdLevel()), m, n, k, a, lda,
                    trans_a, b, ldb, trans_b, c, ldc, accumulate, pool,
                    packed_b);
}

Status GemmPacked(const KernelBackend* backend, int64_t m, int64_t n,
                  int64_t k, const float* a, int64_t lda, bool trans_a,
                  const float* b, int64_t ldb, bool trans_b, float* c,
                  int64_t ldc, bool accumulate, ThreadPool* pool,
                  const float* packed_b) {
  if (m <= 0 || n <= 0) return Status::OK();
  if (k <= 0) {
    // An empty contraction still defines the output.
    if (!accumulate) {
      for (int64_t i = 0; i < m; ++i) {
        std::memset(c + i * ldc, 0, n * sizeof(float));
      }
    }
    return Status::OK();
  }
  const int64_t nr = backend->nr;

  // One shared B panel, packed by the calling thread per (jc, pc) and
  // read-only during the parallel macro-tile sweep.
  AlignedBuffer b_packed;
  if (packed_b == nullptr) {
    b_packed = AlignedBuffer(RoundUp(std::min(n, kNc), nr) *
                             std::min(k, kKc));
    if (!b_packed.ok()) {
      return Status::OutOfMemory("GEMM B packing panel");
    }
  }
  // Each worker's A panel holds at most one macro-tile of rows.
  const int64_t a_rows = std::min(kMc, RoundUp(m, kMr));

  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      // The first kc block either overwrites C or continues the
      // caller's accumulation; later blocks always accumulate the
      // partials already stored in C.
      const bool acc_block = accumulate || pc > 0;
      const float* b_block;
      if (packed_b != nullptr) {
        b_block = packed_b + PanelBlockOffset(jc, pc, nc, k, nr);
      } else {
        PackB(b, ldb, trans_b, pc, jc, kc, nc, nr, b_packed.data());
        b_block = b_packed.data();
      }

      const int64_t num_tiles = (m + kMc - 1) / kMc;
      std::atomic<bool> panel_oom{false};
      auto run_tiles = [&](int64_t t_lo, int64_t t_hi) {
        // Each worker owns one A panel (at most kMc x kc floats,
        // ~72 KiB).
        AlignedBuffer a_packed(a_rows * kc);
        if (!a_packed.ok()) {
          panel_oom.store(true, std::memory_order_relaxed);
          return;
        }
        for (int64_t t = t_lo; t < t_hi; ++t) {
          const int64_t ic = t * kMc;
          const int64_t mc = std::min(kMc, m - ic);
          PackA(a, lda, trans_a, ic, pc, mc, kc, a_packed.data());
          for (int64_t jr = 0; jr < nc; jr += nr) {
            const int64_t n_r = std::min(nr, nc - jr);
            const float* b_sliver = b_block + (jr / nr) * kc * nr;
            for (int64_t ir = 0; ir < mc; ir += kMr) {
              const int64_t m_r = std::min(kMr, mc - ir);
              const float* a_sliver =
                  a_packed.data() + (ir / kMr) * kc * kMr;
              float* c_tile = c + (ic + ir) * ldc + jc + jr;
              if (m_r == kMr && n_r == nr) {
                backend->gemm_tile(kc, a_sliver, b_sliver, c_tile, ldc,
                                   acc_block);
              } else {
                backend->gemm_tile_edge(kc, a_sliver, b_sliver, c_tile,
                                        ldc, acc_block, m_r, n_r);
              }
            }
          }
        }
      };
      if (pool != nullptr && num_tiles >= 2) {
        // work_hint = flops in one macro-tile, so the pool's
        // cost-based grain always gives tiles their own morsels
        // (a tile is ~10^7 flops) while single-tile products run
        // inline above.
        pool->ParallelFor(0, num_tiles, run_tiles, /*grain=*/0,
                          /*work_hint=*/2 * kMc * kc * nc);
      } else {
        run_tiles(0, num_tiles);
      }
      if (panel_oom.load(std::memory_order_relaxed)) {
        return Status::OutOfMemory("GEMM A packing panel");
      }
    }
  }
  return Status::OK();
}

}  // namespace internal

void UnpackWeightTransB(const float* panel, int64_t n, int64_t k,
                        int64_t nr, float* out, int64_t ld_out) {
  // The inverse of PackB over every (jc, pc) block: w[jc + j, pc + p]
  // sits at sliver j / nr, float p * nr + j % nr, of its block.
  for (int64_t jc = 0; jc < n; jc += internal::kNc) {
    const int64_t nc = std::min(internal::kNc, n - jc);
    for (int64_t pc = 0; pc < k; pc += internal::kKc) {
      const int64_t kc = std::min(internal::kKc, k - pc);
      const float* block =
          panel + internal::PanelBlockOffset(jc, pc, nc, k, nr);
      for (int64_t j = 0; j < nc; ++j) {
        const float* src = block + (j / nr) * kc * nr + j % nr;
        float* dst = out + (jc + j) * ld_out + pc;
        for (int64_t p = 0; p < kc; ++p) dst[p] = src[p * nr];
      }
    }
  }
}

}  // namespace kernels
}  // namespace relserve
