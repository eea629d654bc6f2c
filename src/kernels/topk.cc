#include "kernels/topk.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <vector>

#include "kernels/gemm_packed.h"
#include "kernels/micro_kernel.h"

namespace relserve {
namespace kernels {

namespace {

// Output channels per macro-block: the per-thread logits scratch for
// a row chunk stays L2-resident (kRowChunk * kChannelBlock floats =
// 64 KiB) and the full output matrix is never materialized.
constexpr int64_t kChannelBlock = 2048;
constexpr int64_t kRowChunk = 8;
// Channel blocks then start on a jc block of a packed panel, so each
// block's slice of the panel is the panel of its channels alone.
static_assert(kChannelBlock % internal::kNc == 0,
              "channel blocks must align with packed panel blocks");

struct Candidate {
  float value;
  int64_t index;
};

// Strict total order: better = larger value, ties to the smaller
// index. Unique indices make the order total, so the top-k set is
// scan-order independent.
inline bool Better(const Candidate& a, const Candidate& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.index < b.index;
}

// Bounded selection over one row. A flat array ordered worst-first is
// cheaper than a real heap at serving-size k (k <= ~100): replacement
// scans k entries only when a candidate beats the current worst.
class TopKSelector {
 public:
  explicit TopKSelector(int64_t k) : k_(k) { best_.reserve(k); }

  void Reset() { best_.clear(); }

  void Offer(float value, int64_t index) {
    const Candidate c{value, index};
    if (static_cast<int64_t>(best_.size()) < k_) {
      best_.push_back(c);
      if (static_cast<int64_t>(best_.size()) == k_) {
        worst_ = FindWorst();
      }
      return;
    }
    if (!Better(c, best_[worst_])) return;
    best_[worst_] = c;
    worst_ = FindWorst();
  }

  // Admission threshold for an ascending-index scan: while the
  // selector is filling, everything must be offered (-inf); once
  // full, a candidate arriving later in the scan always carries a
  // larger index than the incumbent worst, so a value tie is never
  // admitted — the strict `value > Threshold()` single compare is the
  // exact admission test for the hot loop.
  float Threshold() const {
    if (static_cast<int64_t>(best_.size()) < k_) {
      return -std::numeric_limits<float>::infinity();
    }
    return best_[worst_].value;
  }

  // Survivors sorted by the total order (value desc, index asc).
  std::vector<Candidate> Sorted() {
    std::vector<Candidate> out = best_;
    std::sort(out.begin(), out.end(), Better);
    return out;
  }

 private:
  size_t FindWorst() const {
    size_t worst = 0;
    for (size_t i = 1; i < best_.size(); ++i) {
      if (Better(best_[worst], best_[i])) worst = i;
    }
    return worst;
  }

  int64_t k_;
  size_t worst_ = 0;
  std::vector<Candidate> best_;
};

}  // namespace

Status MatMulTopKInto(const Tensor& a, const Weight& w,
                      const TopKOptions& opts, Tensor* out,
                      ThreadPool* pool) {
  if (a.shape().ndim() != 2 || a.shape().dim(1) != w.k) {
    return Status::InvalidArgument("top-k weight mismatch");
  }
  const int64_t m = a.shape().dim(0);
  const int64_t k = w.k;
  const int64_t channels = w.n;
  const Tensor* panel = w.panel();
  const Int8Weight* int8_w = w.int8();
  const CsrWeight* sparse_w = w.csr();
  const int64_t kk = opts.k;
  if (kk <= 0 || kk > channels) {
    return Status::InvalidArgument("top-k k out of range");
  }
  if (out->shape().ndim() != 2 || out->shape().dim(0) != m ||
      out->shape().dim(1) != 2 * kk) {
    return Status::InvalidArgument("top-k output must be [m, 2k]");
  }
  if (opts.bias != nullptr &&
      opts.bias->NumElements() != channels) {
    return Status::InvalidArgument("top-k bias width mismatch");
  }
  if (m == 0) return Status::OK();

  const float* src = a.data();
  const float* bias = opts.bias != nullptr ? opts.bias->data() : nullptr;
  float* dst = out->data();
  Status first_error = Status::OK();
  std::mutex error_mu;

  auto run_rows = [&](int64_t r_lo, int64_t r_hi) {
    // Per-worker state: one block of logits and one selector per row
    // of the chunk. This is the entire activation footprint of the
    // stage — O(kRowChunk * kChannelBlock), not O(m * channels).
    std::vector<float> block(
        static_cast<size_t>(kRowChunk * kChannelBlock));
    std::vector<uint8_t> qa;
    std::vector<float> qscales;
    if (int8_w != nullptr) {
      qa.resize(static_cast<size_t>(kRowChunk * int8_w->padded_in));
      qscales.resize(static_cast<size_t>(kRowChunk));
    }
    std::vector<TopKSelector> selectors;
    selectors.reserve(static_cast<size_t>(kRowChunk));
    for (int64_t i = 0; i < kRowChunk; ++i) selectors.emplace_back(kk);

    for (int64_t r0 = r_lo; r0 < r_hi; r0 += kRowChunk) {
      const int64_t rows = std::min<int64_t>(kRowChunk, r_hi - r0);
      for (int64_t r = 0; r < rows; ++r) {
        selectors[static_cast<size_t>(r)].Reset();
      }
      if (int8_w != nullptr) {
        for (int64_t r = 0; r < rows; ++r) {
          qscales[static_cast<size_t>(r)] = QuantizeRowU7(
              src + (r0 + r) * k, k, int8_w->padded_in,
              qa.data() + r * int8_w->padded_in);
        }
      }
      for (int64_t c0 = 0; c0 < channels; c0 += kChannelBlock) {
        const int64_t bw = std::min(kChannelBlock, channels - c0);
        // --- produce block logits [rows, bw] ----------------------
        if (panel != nullptr) {
          const Status s = internal::GemmPacked(
              rows, bw, k, src + r0 * k, /*lda=*/k, /*trans_a=*/false,
              /*b=*/nullptr, /*ldb=*/k, /*trans_b=*/true, block.data(),
              /*ldc=*/kChannelBlock, /*accumulate=*/false,
              /*pool=*/nullptr, panel->data() + c0 * k);
          if (!s.ok()) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (first_error.ok()) first_error = s;
            return;
          }
        } else if (int8_w != nullptr) {
          const internal::Int8Backend* backend =
              internal::GetInt8Backend(ActiveSimdLevel());
          const int64_t kp = int8_w->padded_in;
          backend->gemm_block(qa.data(), kp, rows,
                              int8_w->data.data() + c0 * kp, kp, bw,
                              kp, qscales.data(),
                              int8_w->scales.data() + c0,
                              int8_w->row_sums.data() + c0,
                              block.data(), kChannelBlock);
        } else {
          internal::CsrBlockDot(src + r0 * k, k, rows, *sparse_w, c0,
                                bw, block.data(), kChannelBlock);
        }
        // --- fused epilogue + selection ---------------------------
        for (int64_t r = 0; r < rows; ++r) {
          float* y = block.data() + r * kChannelBlock;
          TopKSelector& sel = selectors[static_cast<size_t>(r)];
          float threshold = sel.Threshold();
          for (int64_t c = 0; c < bw; ++c) {
            float v = y[c];
            if (bias != nullptr) v += bias[c0 + c];
            if (opts.relu && v < 0.0f) v = 0.0f;
            if (v > threshold) {
              sel.Offer(v, c0 + c);
              threshold = sel.Threshold();
            }
          }
        }
      }
      // --- write [v0..v_{k-1}, i0..i_{k-1}] rows ------------------
      for (int64_t r = 0; r < rows; ++r) {
        std::vector<Candidate> best =
            selectors[static_cast<size_t>(r)].Sorted();
        float* y = dst + (r0 + r) * 2 * kk;
        if (opts.softmax) {
          // Numerically-stable softmax over the survivors: the
          // serving scores renormalize over the returned candidates.
          const float mx = best[0].value;  // sorted desc
          float sum = 0.0f;
          for (int64_t i = 0; i < kk; ++i) {
            y[i] = std::exp(best[static_cast<size_t>(i)].value - mx);
            sum += y[i];
          }
          for (int64_t i = 0; i < kk; ++i) y[i] /= sum;
        } else {
          for (int64_t i = 0; i < kk; ++i) {
            y[i] = best[static_cast<size_t>(i)].value;
          }
        }
        for (int64_t i = 0; i < kk; ++i) {
          y[kk + i] =
              static_cast<float>(best[static_cast<size_t>(i)].index);
        }
      }
    }
  };

  if (pool != nullptr && m >= 2 * kRowChunk) {
    pool->ParallelFor(0, m, run_rows, /*grain=*/0,
                      /*work_hint=*/2 * m * channels * k);
  } else {
    run_rows(0, m);
  }
  return first_error;
}

}  // namespace kernels
}  // namespace relserve
