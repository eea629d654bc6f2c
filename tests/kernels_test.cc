#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "kernels/cpu_features.h"
#include "kernels/gemm_packed.h"
#include "kernels/kernels.h"
#include "kernels/micro_kernel.h"
#include "resource/thread_pool.h"

namespace relserve {
namespace {

using kernels::SimdLevel;

// Pins the active SIMD level for one scope; restores detection after.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    installed_ = kernels::SetActiveSimdLevel(level);
  }
  ~ScopedSimdLevel() {
    kernels::SetActiveSimdLevel(kernels::DetectSimdLevel());
  }
  SimdLevel installed() const { return installed_; }

 private:
  SimdLevel installed_;
};

Tensor Make(Shape shape, std::vector<float> values) {
  auto t = Tensor::FromData(std::move(shape), values);
  EXPECT_TRUE(t.ok());
  return *t;
}

TEST(GemmTest, SmallKnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  Tensor a = Make(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b = Make(Shape{2, 2}, {5, 6, 7, 8});
  auto c = kernels::MatMul(a, b, /*transpose_b=*/false);
  ASSERT_TRUE(c.ok());
  EXPECT_FLOAT_EQ(c->At(0, 0), 19);
  EXPECT_FLOAT_EQ(c->At(0, 1), 22);
  EXPECT_FLOAT_EQ(c->At(1, 0), 43);
  EXPECT_FLOAT_EQ(c->At(1, 1), 50);
}

TEST(GemmTest, TransposeBMatchesManual) {
  Tensor a = Make(Shape{1, 3}, {1, 2, 3});
  Tensor b = Make(Shape{2, 3}, {4, 5, 6, 7, 8, 9});  // b^T is [3, 2]
  auto c = kernels::MatMul(a, b, /*transpose_b=*/true);
  ASSERT_TRUE(c.ok());
  EXPECT_FLOAT_EQ(c->At(0, 0), 1 * 4 + 2 * 5 + 3 * 6);
  EXPECT_FLOAT_EQ(c->At(0, 1), 1 * 7 + 2 * 8 + 3 * 9);
}

TEST(GemmTest, AccumulateAddsIntoOutput) {
  Tensor a = Make(Shape{1, 1}, {2});
  Tensor b = Make(Shape{1, 1}, {3});
  auto out = Tensor::Full(Shape{1, 1}, 10.0f);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(kernels::GemmInto(a, b, false, /*accumulate=*/true,
                                &*out)
                  .ok());
  EXPECT_FLOAT_EQ(out->At(0, 0), 16.0f);
}

TEST(GemmTest, RejectsDimensionMismatch) {
  Tensor a = Make(Shape{2, 3}, std::vector<float>(6, 1));
  Tensor b = Make(Shape{2, 2}, std::vector<float>(4, 1));
  EXPECT_TRUE(
      kernels::MatMul(a, b, false).status().IsInvalidArgument());
}

TEST(GemmTest, ParallelMatchesSerial) {
  const int64_t m = 64, k = 37, n = 29;
  auto a = Tensor::Create(Shape{m, k});
  auto b = Tensor::Create(Shape{k, n});
  ASSERT_TRUE(a.ok() && b.ok());
  for (int64_t i = 0; i < m * k; ++i) {
    a->data()[i] = std::sin(static_cast<float>(i));
  }
  for (int64_t i = 0; i < k * n; ++i) {
    b->data()[i] = std::cos(static_cast<float>(i));
  }
  auto serial = kernels::MatMul(*a, *b, false);
  ThreadPool pool(4);
  auto parallel = kernels::MatMul(*a, *b, false, nullptr, &pool);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_LT(serial->MaxAbsDiff(*parallel), 1e-5f);
}

// The pre-micro-kernel GEMM, kept verbatim as the reference for the
// exhaustive tail-shape matrix: i-k-j accumulation for row-major b,
// per-element dot products for transposed b.
void LegacyGemm(const Tensor& a, const Tensor& b, bool transpose_b,
                bool accumulate, Tensor* out) {
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t n =
      transpose_b ? b.shape().dim(0) : b.shape().dim(1);
  const float* a_data = a.data();
  const float* b_data = b.data();
  float* out_data = out->data();
  if (!transpose_b) {
    for (int64_t i = 0; i < m; ++i) {
      float* out_row = out_data + i * n;
      const float* a_row = a_data + i * k;
      if (!accumulate) {
        for (int64_t j = 0; j < n; ++j) out_row[j] = 0.0f;
      }
      for (int64_t kk = 0; kk < k; ++kk) {
        const float a_ik = a_row[kk];
        const float* b_row = b_data + kk * n;
        for (int64_t j = 0; j < n; ++j) out_row[j] += a_ik * b_row[j];
      }
    }
  } else {
    for (int64_t i = 0; i < m; ++i) {
      const float* a_row = a_data + i * k;
      float* out_row = out_data + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* b_row = b_data + j * k;
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
        if (accumulate) {
          out_row[j] += acc;
        } else {
          out_row[j] = acc;
        }
      }
    }
  }
}

Tensor DeterministicTensor(Shape shape, float phase) {
  auto t = Tensor::Create(std::move(shape));
  EXPECT_TRUE(t.ok());
  for (int64_t i = 0; i < t->NumElements(); ++i) {
    t->data()[i] = std::sin(phase + 0.37f * static_cast<float>(i));
  }
  return *t;
}

// Every m, n, k tail class the packing layer distinguishes: below one
// register tile, off-by-one around the kMr=6 and the 16- and 32-wide
// tile edges, exact multiples, and sizes straddling the kMc=72
// macro-tile.
const int64_t kTailDims[] = {1, 3, 7, 15, 17, 31, 33, 64, 65, 100, 129};

// Dispatched-vs-reference agreement over the full tail-shape matrix
// (all transpose/accumulate variants) for the scalar tile at both
// panel widths a host may run it at (16 and 32) and whatever the
// hardware dispatches. The SIMD path may differ from the reference by
// FMA/reassociation rounding only: tolerance 1e-4 relative. The
// scalar tile must match the legacy kernel *bit-for-bit* wherever the
// legacy accumulation was itself the single ascending-k chain the
// micro-kernel uses (everything except transposed-b with accumulate,
// whose legacy form added a separately rounded dot product at the
// end).
TEST(GemmMicroKernelTest, TailShapeMatrixAgainstLegacyReference) {
  using kernels::internal::KernelBackend;
  const KernelBackend* backends[] = {
      kernels::internal::GetScalarBackend(kernels::internal::kNr),
      kernels::internal::GetScalarBackend(kernels::internal::kWideNr),
      kernels::internal::GetKernelBackend(kernels::DetectSimdLevel())};
  for (const int64_t m : kTailDims) {
    for (const int64_t n : kTailDims) {
      for (const int64_t k : kTailDims) {
        const Tensor a = DeterministicTensor(Shape{m, k}, 0.1f);
        const Tensor b_plain = DeterministicTensor(Shape{k, n}, 0.9f);
        const Tensor b_trans = DeterministicTensor(Shape{n, k}, 0.9f);
        for (const bool transpose_b : {false, true}) {
          const Tensor& b = transpose_b ? b_trans : b_plain;
          for (const bool accumulate : {false, true}) {
            const Tensor seed =
                DeterministicTensor(Shape{m, n}, 2.3f);
            auto expected = seed.Clone();
            ASSERT_TRUE(expected.ok());
            LegacyGemm(a, b, transpose_b, accumulate, &*expected);
            for (const KernelBackend* backend : backends) {
              auto out = seed.Clone();
              ASSERT_TRUE(out.ok());
              ASSERT_TRUE(kernels::internal::GemmPacked(
                              backend, m, n, k, a.data(), k, false,
                              b.data(), transpose_b ? k : n, transpose_b,
                              out->data(), n, accumulate, nullptr)
                              .ok());
              const bool exact = backend->level == SimdLevel::kScalar &&
                                 !(transpose_b && accumulate);
              for (int64_t i = 0; i < m * n; ++i) {
                const float want = expected->data()[i];
                const float got = out->data()[i];
                if (exact) {
                  ASSERT_EQ(want, got)
                      << "scalar nr=" << backend->nr << " diverged at "
                      << i << " for m=" << m << " n=" << n << " k=" << k
                      << " transpose_b=" << transpose_b
                      << " accumulate=" << accumulate;
                } else {
                  const float tol =
                      1e-4f * std::max(1.0f, std::fabs(want));
                  ASSERT_NEAR(want, got, tol)
                      << "isa=" << backend->name << " m=" << m
                      << " n=" << n << " k=" << k
                      << " transpose_b=" << transpose_b
                      << " accumulate=" << accumulate;
                }
              }
            }
          }
        }
      }
    }
  }
}

// GemmTransAInto lowers through the same packed layer with trans_a
// packing; its legacy form (ascending rank-1 updates in memory) is
// the flat chain in both accumulate variants, so the scalar backend
// is exact everywhere.
TEST(GemmMicroKernelTest, TransATailShapesAgainstLegacyReference) {
  const SimdLevel detected = kernels::DetectSimdLevel();
  for (const int64_t m : kTailDims) {
    for (const int64_t k : kTailDims) {
      for (const int64_t contraction : kTailDims) {
        const Tensor a = DeterministicTensor(Shape{contraction, m}, 0.2f);
        const Tensor b =
            DeterministicTensor(Shape{contraction, k}, 1.1f);
        for (const bool accumulate : {false, true}) {
          const Tensor seed = DeterministicTensor(Shape{m, k}, 3.1f);
          // Legacy n-i-j rank-1 updates, zero-skip removed.
          auto expected = seed.Clone();
          ASSERT_TRUE(expected.ok());
          if (!accumulate) {
            for (int64_t i = 0; i < m * k; ++i) {
              expected->data()[i] = 0.0f;
            }
          }
          for (int64_t s = 0; s < contraction; ++s) {
            const float* a_row = a.data() + s * m;
            const float* b_row = b.data() + s * k;
            for (int64_t i = 0; i < m; ++i) {
              float* out_row = expected->data() + i * k;
              for (int64_t j = 0; j < k; ++j) {
                out_row[j] += a_row[i] * b_row[j];
              }
            }
          }
          for (const SimdLevel level : {SimdLevel::kScalar, detected}) {
            ScopedSimdLevel scoped(level);
            auto out = seed.Clone();
            ASSERT_TRUE(out.ok());
            ASSERT_TRUE(
                kernels::GemmTransAInto(a, b, accumulate, &*out).ok());
            for (int64_t i = 0; i < m * k; ++i) {
              const float want = expected->data()[i];
              const float got = out->data()[i];
              if (level == SimdLevel::kScalar) {
                ASSERT_EQ(want, got)
                    << "m=" << m << " k=" << k
                    << " n=" << contraction
                    << " accumulate=" << accumulate << " at " << i;
              } else {
                const float tol =
                    1e-4f * std::max(1.0f, std::fabs(want));
                ASSERT_NEAR(want, got, tol)
                    << "m=" << m << " k=" << k
                    << " n=" << contraction
                    << " accumulate=" << accumulate << " at " << i;
              }
            }
          }
        }
      }
    }
  }
}

// Macro-tile parallelism partitions C rows and keeps every element's
// ascending-k chain on one worker, so pooled execution is
// bit-identical to serial on both backends.
TEST(GemmMicroKernelTest, ParallelMacroTilesBitIdenticalToSerial) {
  ThreadPool pool(4);
  const SimdLevel detected = kernels::DetectSimdLevel();
  for (const SimdLevel level : {SimdLevel::kScalar, detected}) {
    ScopedSimdLevel scoped(level);
    // 300 rows = 5 macro-tiles (kMc = 72), with edge tiles in n and k.
    const Tensor a = DeterministicTensor(Shape{300, 129}, 0.4f);
    const Tensor b = DeterministicTensor(Shape{129, 100}, 1.7f);
    auto serial = Tensor::Create(Shape{300, 100});
    auto parallel = Tensor::Create(Shape{300, 100});
    ASSERT_TRUE(serial.ok() && parallel.ok());
    ASSERT_TRUE(
        kernels::GemmInto(a, b, false, false, &*serial).ok());
    ASSERT_TRUE(
        kernels::GemmInto(a, b, false, false, &*parallel, &pool).ok());
    for (int64_t i = 0; i < serial->NumElements(); ++i) {
      ASSERT_EQ(serial->data()[i], parallel->data()[i])
          << "isa=" << kernels::SimdLevelName(level) << " at " << i;
    }
  }
}

// On an AVX-512F host the kAvx2 level runs the 6x32 zmm tile, so the
// 6x16 ymm tile is reached only here, through the GemmPacked overload that
// takes a backend. The two must agree bit-for-bit: each C element is
// the same ascending-k chain of fused multiply-adds in both, edge
// tiles included.
TEST(GemmMicroKernelTest, Avx512BitIdenticalToAvx2AcrossTails) {
  using kernels::internal::GemmPacked;
  using kernels::internal::KernelBackend;
  const KernelBackend* avx2 = kernels::internal::GetAvx2Backend();
  const KernelBackend* avx512 = kernels::internal::GetAvx512Backend();
  if (kernels::DetectSimdLevel() != SimdLevel::kAvx2 || avx2 == nullptr ||
      avx512 == nullptr) {
    GTEST_SKIP() << "needs both the AVX2 and the AVX-512 fp32 backend";
  }
  // Runs `product(backend, out)` once per backend on a copy of `seed`
  // and requires the two outputs to match byte for byte.
  auto assert_same_bytes = [&](const Tensor& seed, const auto& product) {
    auto want = seed.Clone();
    auto got = seed.Clone();
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_TRUE(product(avx2, &*want).ok());
    ASSERT_TRUE(product(avx512, &*got).ok());
    ASSERT_EQ(0, std::memcmp(want->data(), got->data(),
                             static_cast<size_t>(want->ByteSize())));
  };
  for (const int64_t m : kTailDims) {
    for (const int64_t n : kTailDims) {
      for (const int64_t k : kTailDims) {
        SCOPED_TRACE(testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k);
        const Tensor seed = DeterministicTensor(Shape{m, n}, 2.3f);
        // GemmInto: a[m, k] times b[k, n], or b[n, k] transposed.
        const Tensor a = DeterministicTensor(Shape{m, k}, 0.1f);
        const Tensor b_plain = DeterministicTensor(Shape{k, n}, 0.9f);
        const Tensor b_trans = DeterministicTensor(Shape{n, k}, 0.9f);
        // GemmTransAInto: a_t[k, m] transposed times b_t[k, n].
        const Tensor a_t = DeterministicTensor(Shape{k, m}, 0.2f);
        const Tensor b_t = DeterministicTensor(Shape{k, n}, 1.1f);
        for (const bool accumulate : {false, true}) {
          for (const bool transpose_b : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "transpose_b=" << transpose_b
                         << " accumulate=" << accumulate);
            const Tensor& b = transpose_b ? b_trans : b_plain;
            ASSERT_NO_FATAL_FAILURE(assert_same_bytes(
                seed, [&](const KernelBackend* backend, Tensor* out) {
                  return GemmPacked(backend, m, n, k, a.data(), k,
                                    /*trans_a=*/false, b.data(),
                                    transpose_b ? k : n, transpose_b,
                                    out->data(), n, accumulate,
                                    /*pool=*/nullptr);
                }));
          }
          SCOPED_TRACE(testing::Message()
                       << "trans_a accumulate=" << accumulate);
          ASSERT_NO_FATAL_FAILURE(assert_same_bytes(
              seed, [&](const KernelBackend* backend, Tensor* out) {
                return GemmPacked(backend, m, n, k, a_t.data(), m,
                                  /*trans_a=*/true, b_t.data(), n,
                                  /*trans_b=*/false, out->data(), n,
                                  accumulate, /*pool=*/nullptr);
              }));
        }
      }
    }
  }
  // A pooled product: 300 rows = 5 macro-tiles on four workers, with
  // edge tiles in n and k.
  ThreadPool pool(4);
  const Tensor a = DeterministicTensor(Shape{300, 129}, 0.4f);
  const Tensor b = DeterministicTensor(Shape{129, 100}, 1.7f);
  const Tensor seed = DeterministicTensor(Shape{300, 100}, 2.3f);
  assert_same_bytes(seed, [&](const KernelBackend* backend, Tensor* out) {
    return GemmPacked(backend, 300, 100, 129, a.data(), 129,
                      /*trans_a=*/false, b.data(), 100, /*trans_b=*/false,
                      out->data(), 100, /*accumulate=*/false, &pool);
  });
}

// A weight packed once at deploy gives the bytes per-call packing
// gives: the panel holds exactly the blocks the driver would pack. On
// every backend this host runs, over short and full tiles (m up to one
// macro-tile and past it), k past one kc block and n past one nc
// block. The prepacked product is handed no B pointer, so reading the
// weight instead of the panel would fault.
TEST(GemmPrepackedTest, BitIdenticalToPerCallPacking) {
  using kernels::internal::GemmPacked;
  using kernels::internal::KernelBackend;
  std::vector<const KernelBackend*> backends = {
      kernels::internal::GetScalarBackend()};
  if (kernels::DetectSimdLevel() == SimdLevel::kAvx2) {
    for (const KernelBackend* backend :
         {kernels::internal::GetAvx2Backend(),
          kernels::internal::GetAvx512Backend()}) {
      if (backend != nullptr) backends.push_back(backend);
    }
  }
  std::vector<int64_t> ns(std::begin(kTailDims), std::end(kTailDims));
  ns.push_back(1025);
  std::vector<int64_t> ks(std::begin(kTailDims), std::end(kTailDims));
  ks.push_back(300);
  ks.push_back(513);
  const int64_t ms[] = {1, 2, 3, 4, 5, 6, 7, 72, 73};
  for (const int64_t n : ns) {
    for (const int64_t k : ks) {
      const Tensor w = DeterministicTensor(Shape{n, k}, 0.9f);
      for (const KernelBackend* backend : backends) {
        auto packed = kernels::internal::PackPanel(w, backend->nr, nullptr);
        ASSERT_TRUE(packed.ok()) << packed.status();
        for (const int64_t m : ms) {
          SCOPED_TRACE(testing::Message()
                       << backend->name << " m=" << m << " n=" << n
                       << " k=" << k);
          const Tensor a = DeterministicTensor(Shape{m, k}, 0.1f);
          // Odd batches overwrite C, even ones accumulate into it.
          const bool accumulate = m % 2 == 0;
          const Tensor seed = DeterministicTensor(Shape{m, n}, 2.3f);
          auto want = seed.Clone();
          auto got = seed.Clone();
          ASSERT_TRUE(want.ok() && got.ok());
          ASSERT_TRUE(GemmPacked(backend, m, n, k, a.data(), k,
                                 /*trans_a=*/false, w.data(), k,
                                 /*trans_b=*/true, want->data(), n,
                                 accumulate, /*pool=*/nullptr)
                          .ok());
          ASSERT_TRUE(GemmPacked(backend, m, n, k, a.data(), k,
                                 /*trans_a=*/false, /*b=*/nullptr, k,
                                 /*trans_b=*/true, got->data(), n,
                                 accumulate, /*pool=*/nullptr,
                                 packed->data())
                          .ok());
          ASSERT_EQ(0, std::memcmp(want->data(), got->data(),
                                   static_cast<size_t>(want->ByteSize())));
        }
      }
      // The public entry point on the active backend.
      auto packed = kernels::PackWeightTransB(w);
      ASSERT_TRUE(packed.ok()) << packed.status();
      const Tensor a = DeterministicTensor(Shape{7, k}, 0.1f);
      auto want = kernels::MatMul(a, w, /*transpose_b=*/true);
      auto got = kernels::MatMul(a, *packed);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(0, std::memcmp(want->data(), got->data(),
                               static_cast<size_t>(want->ByteSize())))
          << "n=" << n << " k=" << k;
    }
  }
}

// The panel width is the host's, not the level's: a panel packed at
// one SIMD level runs at any other and keeps GemmInto's bits there.
TEST(GemmPrepackedTest, PanelPackedAtOneLevelRunsAtAnother) {
  const SimdLevel detected = kernels::DetectSimdLevel();
  const int64_t host_nr = kernels::ActivePanelNr();
  const Tensor w = DeterministicTensor(Shape{100, 300}, 0.9f);
  const Tensor a = DeterministicTensor(Shape{7, 300}, 0.1f);
  for (const auto& [pack_level, run_level] :
       {std::pair{detected, SimdLevel::kScalar},
        std::pair{SimdLevel::kScalar, detected}}) {
    SCOPED_TRACE(testing::Message()
                 << "packed at " << kernels::SimdLevelName(pack_level)
                 << ", run at " << kernels::SimdLevelName(run_level));
    auto packed = [&, pack_level = pack_level] {
      ScopedSimdLevel scoped(pack_level);
      return kernels::PackWeightTransB(w);
    }();
    ASSERT_TRUE(packed.ok()) << packed.status();
    ScopedSimdLevel scoped(run_level);
    ASSERT_EQ(kernels::ActivePanelNr(), host_nr);
    auto want = kernels::MatMul(a, w, /*transpose_b=*/true);
    auto got = kernels::MatMul(a, *packed);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(0, std::memcmp(want->data(), got->data(),
                             static_cast<size_t>(want->ByteSize())));
  }
  // A panel of another weight's shape is refused.
  auto other = kernels::PackWeightTransB(
      DeterministicTensor(Shape{100, 299}, 0.9f));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(kernels::MatMul(a, *other).status().IsInvalidArgument());
}

// k > kKc exercises the sequential kc-block accumulation into C.
TEST(GemmMicroKernelTest, MultiKcBlockContraction) {
  const Tensor a = DeterministicTensor(Shape{17, 700}, 0.3f);
  const Tensor b = DeterministicTensor(Shape{700, 33}, 1.3f);
  auto expected = Tensor::Create(Shape{17, 33});
  ASSERT_TRUE(expected.ok());
  LegacyGemm(a, b, false, false, &*expected);
  const SimdLevel detected = kernels::DetectSimdLevel();
  for (const SimdLevel level : {SimdLevel::kScalar, detected}) {
    ScopedSimdLevel scoped(level);
    auto out = Tensor::Create(Shape{17, 33});
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(kernels::GemmInto(a, b, false, false, &*out).ok());
    for (int64_t i = 0; i < out->NumElements(); ++i) {
      const float want = expected->data()[i];
      const float tol = 1e-4f * std::max(1.0f, std::fabs(want));
      ASSERT_NEAR(want, out->data()[i], tol)
          << "isa=" << kernels::SimdLevelName(level) << " at " << i;
    }
  }
}

// The elementwise strips dispatch on the same framework; relu, adds
// and bias are exact per-element ops, so backends must agree
// bit-for-bit on them.
TEST(GemmMicroKernelTest, ElementwiseBackendsAgreeExactly) {
  Tensor base = DeterministicTensor(Shape{7, 129}, 0.6f);
  const Tensor bias = DeterministicTensor(Shape{129}, 1.9f);
  const SimdLevel detected = kernels::DetectSimdLevel();

  auto run = [&](SimdLevel level) -> Tensor {
    ScopedSimdLevel scoped(level);
    auto x = base.Clone();
    EXPECT_TRUE(x.ok());
    kernels::ReluInPlace(&*x);
    EXPECT_TRUE(kernels::BiasAddInPlace(&*x, bias).ok());
    EXPECT_TRUE(kernels::AddInPlace(&*x, base).ok());
    return *x;
  };
  const Tensor scalar_out = run(SimdLevel::kScalar);
  const Tensor simd_out = run(detected);
  for (int64_t i = 0; i < scalar_out.NumElements(); ++i) {
    ASSERT_EQ(scalar_out.data()[i], simd_out.data()[i]) << "at " << i;
  }

  // Softmax reassociates only the exp-sum; max and scale are exact.
  auto softmax = [&](SimdLevel level) -> Tensor {
    ScopedSimdLevel scoped(level);
    auto x = base.Clone();
    EXPECT_TRUE(x.ok());
    EXPECT_TRUE(kernels::SoftmaxRowsInPlace(&*x).ok());
    return *x;
  };
  const Tensor soft_scalar = softmax(SimdLevel::kScalar);
  const Tensor soft_simd = softmax(detected);
  EXPECT_LT(soft_scalar.MaxAbsDiff(soft_simd), 1e-6f);
}

TEST(ElementwiseTest, Relu) {
  Tensor x = Make(Shape{4}, {-1, 0, 2, -3});
  kernels::ReluInPlace(&x);
  EXPECT_FLOAT_EQ(x.data()[0], 0);
  EXPECT_FLOAT_EQ(x.data()[1], 0);
  EXPECT_FLOAT_EQ(x.data()[2], 2);
  EXPECT_FLOAT_EQ(x.data()[3], 0);
}

TEST(ElementwiseTest, BiasAddBroadcastsOverRows) {
  Tensor x = Make(Shape{2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias = Make(Shape{3}, {10, 20, 30});
  ASSERT_TRUE(kernels::BiasAddInPlace(&x, bias).ok());
  EXPECT_FLOAT_EQ(x.At(0, 0), 10);
  EXPECT_FLOAT_EQ(x.At(0, 2), 30);
  EXPECT_FLOAT_EQ(x.At(1, 1), 21);
}

TEST(ElementwiseTest, BiasAddRejectsWidthMismatch) {
  Tensor x = Make(Shape{2, 3}, std::vector<float>(6, 0));
  Tensor bias = Make(Shape{2}, {1, 2});
  EXPECT_TRUE(kernels::BiasAddInPlace(&x, bias).IsInvalidArgument());
}

TEST(ElementwiseTest, SoftmaxRowsSumToOneAndOrderPreserved) {
  Tensor x = Make(Shape{2, 3}, {1, 2, 3, -1, -1, 5});
  ASSERT_TRUE(kernels::SoftmaxRowsInPlace(&x).ok());
  for (int64_t r = 0; r < 2; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 3; ++c) sum += x.At(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_LT(x.At(0, 0), x.At(0, 2));
  EXPECT_GT(x.At(1, 2), 0.9f);
}

TEST(ElementwiseTest, SoftmaxIsStableForLargeLogits) {
  Tensor x = Make(Shape{1, 2}, {1000.0f, 1001.0f});
  ASSERT_TRUE(kernels::SoftmaxRowsInPlace(&x).ok());
  EXPECT_FALSE(std::isnan(x.At(0, 0)));
  EXPECT_NEAR(x.At(0, 0) + x.At(0, 1), 1.0f, 1e-5f);
}

TEST(ElementwiseTest, AddInPlace) {
  Tensor a = Make(Shape{3}, {1, 2, 3});
  Tensor b = Make(Shape{3}, {10, 20, 30});
  ASSERT_TRUE(kernels::AddInPlace(&a, b).ok());
  EXPECT_FLOAT_EQ(a.data()[2], 33);
}

TEST(ElementwiseTest, ArgMaxRows) {
  Tensor x = Make(Shape{2, 3}, {0.1f, 0.7f, 0.2f, 5, 1, 2});
  auto argmax = kernels::ArgMaxRows(x);
  EXPECT_EQ(argmax[0], 1);
  EXPECT_EQ(argmax[1], 0);
}

TEST(Im2ColTest, OneByOneKernelIsReshape) {
  // With a 1x1 kernel, im2col is the [h*w, c] flattening the paper
  // describes for LandCover.
  Tensor image = Make(Shape{2, 2, 3},
                      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  auto cols = kernels::Im2Col(image, 1, 1, 1);
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols->shape(), (Shape{4, 3}));
  EXPECT_FLOAT_EQ(cols->At(0, 0), 1);
  EXPECT_FLOAT_EQ(cols->At(3, 2), 12);
}

TEST(Im2ColTest, TwoByTwoPatchLayout) {
  // 3x3 single-channel image, 2x2 kernel, stride 1 -> 4 patches.
  Tensor image = Make(Shape{3, 3, 1}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto cols = kernels::Im2Col(image, 2, 2, 1);
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols->shape(), (Shape{4, 4}));
  // Patch at (0,0): 1 2 4 5.
  EXPECT_FLOAT_EQ(cols->At(0, 0), 1);
  EXPECT_FLOAT_EQ(cols->At(0, 1), 2);
  EXPECT_FLOAT_EQ(cols->At(0, 2), 4);
  EXPECT_FLOAT_EQ(cols->At(0, 3), 5);
  // Patch at (1,1): 5 6 8 9.
  EXPECT_FLOAT_EQ(cols->At(3, 0), 5);
  EXPECT_FLOAT_EQ(cols->At(3, 3), 9);
}

TEST(Im2ColTest, RowRangeMatchesFull) {
  auto image = Tensor::Create(Shape{5, 4, 2});
  ASSERT_TRUE(image.ok());
  for (int64_t i = 0; i < image->NumElements(); ++i) {
    image->data()[i] = static_cast<float>(i);
  }
  auto full = kernels::Im2Col(*image, 2, 2, 1);
  ASSERT_TRUE(full.ok());
  const int64_t rows = full->shape().dim(0);
  const int64_t patch = full->shape().dim(1);
  for (int64_t lo = 0; lo < rows; lo += 3) {
    const int64_t hi = std::min(rows, lo + 3);
    auto part = Tensor::Create(Shape{hi - lo, patch});
    ASSERT_TRUE(part.ok());
    ASSERT_TRUE(
        kernels::Im2ColRowsInto(*image, 2, 2, 1, lo, hi, &*part).ok());
    for (int64_t r = lo; r < hi; ++r) {
      for (int64_t c = 0; c < patch; ++c) {
        EXPECT_FLOAT_EQ(part->At(r - lo, c), full->At(r, c));
      }
    }
  }
}

TEST(Conv2DTest, IdentityOneByOneKernel) {
  // One output channel copying input channel 0.
  Tensor image = Make(Shape{1, 2, 2, 2}, {1, 10, 2, 20, 3, 30, 4, 40});
  Tensor kernel = Make(Shape{1, 1, 1, 2}, {1, 0});
  auto out = kernels::Conv2D(image, kernel, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{1, 2, 2, 1}));
  EXPECT_FLOAT_EQ(out->data()[0], 1);
  EXPECT_FLOAT_EQ(out->data()[3], 4);
}

TEST(Conv2DTest, SumKernelComputesWindowSums) {
  Tensor image = Make(Shape{1, 3, 3, 1}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor kernel = Make(Shape{1, 2, 2, 1}, {1, 1, 1, 1});
  auto out = kernels::Conv2D(image, kernel, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{1, 2, 2, 1}));
  EXPECT_FLOAT_EQ(out->data()[0], 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(out->data()[3], 5 + 6 + 8 + 9);
}

TEST(Conv2DTest, StrideTwoShrinksOutput) {
  auto image = Tensor::Zeros(Shape{1, 5, 5, 1});
  Tensor kernel = Make(Shape{1, 1, 1, 1}, {1});
  auto out = kernels::Conv2D(*image, kernel, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{1, 3, 3, 1}));
}

TEST(Conv2DTest, BatchIsPerImage) {
  Tensor image = Make(Shape{2, 1, 1, 1}, {2, 5});
  Tensor kernel = Make(Shape{1, 1, 1, 1}, {3});
  auto out = kernels::Conv2D(image, kernel, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->data()[0], 6);
  EXPECT_FLOAT_EQ(out->data()[1], 15);
}

TEST(MaxPoolTest, TakesWindowMax) {
  Tensor image = Make(Shape{1, 2, 2, 1}, {1, 5, 3, 2});
  auto out = kernels::MaxPool2x2(image);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out->data()[0], 5);
}

TEST(MaxPoolTest, PerChannel) {
  Tensor image =
      Make(Shape{1, 2, 2, 2}, {1, 10, 2, 20, 3, 30, 4, 40});
  auto out = kernels::MaxPool2x2(image);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->data()[0], 4);
  EXPECT_FLOAT_EQ(out->data()[1], 40);
}

}  // namespace
}  // namespace relserve
