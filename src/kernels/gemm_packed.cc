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
                  ThreadPool* pool, const float* packed_b,
                  const float* packed_a) {
  return GemmPacked(GetKernelBackend(ActiveSimdLevel()), m, n, k, a, lda,
                    trans_a, b, ldb, trans_b, c, ldc, accumulate, pool,
                    packed_b, packed_a);
}

Status GemmPacked(const KernelBackend* backend, int64_t m, int64_t n,
                  int64_t k, const float* a, int64_t lda, bool trans_a,
                  const float* b, int64_t ldb, bool trans_b, float* c,
                  int64_t ldc, bool accumulate, ThreadPool* pool,
                  const float* packed_b, const float* packed_a) {
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
  const int64_t a_block = RoundUp(m, kMr);  // packed-A floats per kc

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
        // ~72 KiB) unless A comes packed.
        AlignedBuffer a_packed;
        if (packed_a == nullptr &&
            !(a_packed = AlignedBuffer(a_rows * kc)).ok()) {
          panel_oom.store(true, std::memory_order_relaxed);
          return;
        }
        for (int64_t t = t_lo; t < t_hi; ++t) {
          const int64_t ic = t * kMc;
          const int64_t mc = std::min(kMc, m - ic);
          const float* a_tile = packed_a != nullptr
                                    ? packed_a + a_block * pc + ic * kc
                                    : a_packed.data();
          if (packed_a == nullptr) {
            PackA(a, lda, trans_a, ic, pc, mc, kc, a_packed.data());
          }
          for (int64_t jr = 0; jr < nc; jr += nr) {
            const int64_t n_r = std::min(nr, nc - jr);
            const float* b_sliver = b_block + (jr / nr) * kc * nr;
            for (int64_t ir = 0; ir < mc; ir += kMr) {
              const int64_t m_r = std::min(kMr, mc - ir);
              const float* a_sliver = a_tile + (ir / kMr) * kc * kMr;
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

int64_t PackedASize(int64_t m, int64_t k) { return RoundUp(m, kMr) * k; }

void PackARun(const float* src, int64_t pos, int64_t count, int64_t m,
              int64_t k, float* dst) {
  for (const int64_t end = pos + count; pos < end;) {
    const int64_t r = pos / k;
    const int64_t p_end = std::min(k, pos % k + end - pos);
    // Row m - 1 also zeroes the pad rows of its sliver.
    const int64_t pad = r == m - 1 ? kMr - 1 - r % kMr : 0;
    for (int64_t p = pos % k; p < p_end;) {
      const int64_t pc = p / kKc * kKc;
      const int64_t kc = std::min(kKc, k - pc);
      const int64_t seg_end = std::min(p_end, pc + kc);
      float* out = dst + RoundUp(m, kMr) * pc + (r / kMr) * kc * kMr +
                   (p - pc) * kMr + r % kMr;
      for (; p < seg_end; ++p, out += kMr) {
        *out = *src++;
        for (int64_t i = 1; i <= pad; ++i) out[i] = 0.0f;
      }
    }
    pos = r * k + p_end;
  }
}

int64_t PanelSliverFloats(int64_t k) {
  return std::min(k, kKc) * ActivePanelNr();
}

Status GemmPanelRun(int64_t m, int64_t n, int64_t k, const float* packed_a,
                    int64_t pos, const float* run, int64_t count,
                    float* c, int64_t ldc, bool accumulate,
                    ThreadPool* pool, float* straddle) {
  const KernelBackend* backend = GetKernelBackend(ActiveSimdLevel());
  const int64_t nr = backend->nr;
  const int64_t end = pos + count;
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      const int64_t block = PanelBlockOffset(jc, pc, nc, k, nr);
      // Slivers [s0, s1) of the (jc, pc) block at `b` are the panel of
      // their columns alone: one single-block GemmPacked.
      auto sweep = [&](int64_t s0, int64_t s1, const float* b) {
        return GemmPacked(backend, m, std::min(nc, s1 * nr) - s0 * nr, kc,
                          nullptr, 0, false, nullptr, 0, true,
                          c + jc + s0 * nr, ldc, accumulate || pc > 0,
                          pool, b, packed_a + RoundUp(m, kMr) * pc);
      };
      int64_t whole_lo = -1;
      int64_t whole_hi = -1;
      for (int64_t s = 0; s * nr < nc; ++s) {
        const int64_t start = block + s * kc * nr;
        const int64_t stop = start + kc * nr;
        if (stop <= pos || start >= end) continue;
        if (start >= pos && stop <= end) {
          if (whole_lo < 0) whole_lo = s;
          whole_hi = s + 1;
          continue;
        }
        const int64_t from = std::max(start, pos);
        std::memcpy(straddle + (from - start), run + (from - pos),
                    (std::min(stop, end) - from) * sizeof(float));
        if (stop <= end) RELSERVE_RETURN_NOT_OK(sweep(s, s + 1, straddle));
      }
      if (whole_lo >= 0) {
        RELSERVE_RETURN_NOT_OK(sweep(
            whole_lo, whole_hi, run + (block + whole_lo * kc * nr - pos)));
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
