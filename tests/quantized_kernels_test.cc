// Tests for the quantized / sparse kernel arms and the fused top-k
// epilogue: bit-for-bit scalar==AVX2 invariants across odd tail
// shapes, analytical fp32-vs-int8 error bounds, top-k tie determinism
// at any thread count, and the stage-level guarantee that a top-k head
// never materializes the full logits matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "engine/physical_plan.h"
#include "graph/model.h"
#include "kernels/cpu_features.h"
#include "kernels/int8_gemm.h"
#include "kernels/kernels.h"
#include "kernels/sparse_gemm.h"
#include "kernels/topk.h"
#include "optimizer/optimizer.h"
#include "resource/thread_pool.h"
#include "serving/serving_session.h"

namespace relserve {
namespace {

using kernels::SimdLevel;

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

// Deterministic pseudo-random fill in [-1, 1).
float Rand01(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<float>((*state >> 33) & 0xFFFFFF) /
             static_cast<float>(1 << 23) -
         1.0f;
}

Tensor RandomTensor(Shape shape, uint64_t seed) {
  auto t = Tensor::Create(std::move(shape));
  EXPECT_TRUE(t.ok());
  uint64_t state = seed * 2654435761ULL + 1;
  for (int64_t i = 0; i < t->NumElements(); ++i) {
    t->data()[i] = Rand01(&state);
  }
  return *std::move(t);
}

// ---------------------------------------------------------------------
// Int8 quantization scheme
// ---------------------------------------------------------------------

TEST(Int8QuantizeTest, PerChannelScalesAndRowSums) {
  Tensor w = Tensor::FromData(Shape{2, 3}, {1.0f, -2.0f, 0.5f,  //
                                            0.0f, 0.0f, 0.0f})
                 .ValueOrDie();
  auto q = kernels::QuantizeWeightPerChannel(w);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->out, 2);
  EXPECT_EQ(q->in, 3);
  EXPECT_EQ(q->padded_in % 32, 0);
  // Channel 0: scale = 2/127; -2 maps to -127, 1 to round(63.5)=64.
  EXPECT_FLOAT_EQ(q->scales[0], 2.0f / 127.0f);
  EXPECT_EQ(q->data[0], 64);
  EXPECT_EQ(q->data[1], -127);
  EXPECT_EQ(q->data[2], 32);
  EXPECT_EQ(q->row_sums[0], 64 - 127 + 32);
  // All-zero channel: scale stays finite, all codes zero.
  EXPECT_FLOAT_EQ(q->scales[1], 1.0f);
  EXPECT_EQ(q->row_sums[1], 0);
  // Padding lanes are zero.
  for (int64_t p = 3; p < q->padded_in; ++p) {
    EXPECT_EQ(q->data[p], 0);
  }
}

TEST(Int8QuantizeTest, ActivationRowIsShiftedU7) {
  std::vector<float> x = {0.0f, 63.0f, -63.0f, 31.5f};
  std::vector<uint8_t> q(32);
  const float scale =
      kernels::QuantizeRowU7(x.data(), 4, 32, q.data());
  EXPECT_FLOAT_EQ(scale, 1.0f);  // maxabs/63 = 63/63
  EXPECT_EQ(q[0], 64);           // shifted zero
  EXPECT_EQ(q[1], 127);
  EXPECT_EQ(q[2], 1);
  EXPECT_EQ(q[3], 96);  // round(31.5) = 32 -> 96
  for (int p = 4; p < 32; ++p) EXPECT_EQ(q[p], 64);  // padding
}

// Exhaustive odd-shape sweep: the scalar and AVX2 int8 backends must
// agree BIT-FOR-BIT (both compute exact integer accumulators; the
// shared driver does the only float arithmetic).
TEST(Int8GemmTest, ScalarAndAvx2BitIdenticalAcrossTails) {
  if (kernels::DetectSimdLevel() != SimdLevel::kAvx2 ||
      kernels::internal::GetAvx2Int8Backend() == nullptr) {
    GTEST_SKIP() << "no AVX2 backend on this host";
  }
  const std::vector<int64_t> kDims = {1, 2, 3, 5, 7, 8, 31, 32, 33, 64};
  uint64_t seed = 7;
  for (int64_t m : kDims) {
    for (int64_t n : kDims) {
      for (int64_t k : kDims) {
        Tensor a = RandomTensor(Shape{m, k}, ++seed);
        Tensor w = RandomTensor(Shape{n, k}, ++seed);
        auto qw = kernels::QuantizeWeightPerChannel(w);
        ASSERT_TRUE(qw.ok());
        auto scalar_out = Tensor::Create(Shape{m, n});
        auto avx2_out = Tensor::Create(Shape{m, n});
        ASSERT_TRUE(scalar_out.ok() && avx2_out.ok());
        {
          ScopedSimdLevel pin(SimdLevel::kScalar);
          ASSERT_TRUE(kernels::Int8GemmTransBInto(a, *qw, &*scalar_out)
                          .ok());
        }
        {
          ScopedSimdLevel pin(SimdLevel::kAvx2);
          ASSERT_TRUE(
              kernels::Int8GemmTransBInto(a, *qw, &*avx2_out).ok());
        }
        ASSERT_EQ(std::memcmp(scalar_out->data(), avx2_out->data(),
                              m * n * sizeof(float)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Int8GemmTest, ParallelMatchesSerialBitForBit) {
  Tensor a = RandomTensor(Shape{64, 97}, 11);
  Tensor w = RandomTensor(Shape{53, 97}, 12);
  auto qw = kernels::QuantizeWeightPerChannel(w);
  ASSERT_TRUE(qw.ok());
  auto serial = Tensor::Create(Shape{64, 53});
  auto parallel = Tensor::Create(Shape{64, 53});
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_TRUE(kernels::Int8GemmTransBInto(a, *qw, &*serial).ok());
  ThreadPool pool(4);
  ASSERT_TRUE(
      kernels::Int8GemmTransBInto(a, *qw, &*parallel, &pool).ok());
  EXPECT_EQ(std::memcmp(serial->data(), parallel->data(),
                        64 * 53 * sizeof(float)),
            0);
}

// Analytical error bound: per contraction term,
//   |x*w - deq| <= |x| * scale_w/2 + |w| * scale_a/2
//                  + scale_a * scale_w / 4,
// so the per-element error is at most the sum of those bounds (plus
// fp32 rounding slack in the reference itself).
TEST(Int8GemmTest, ErrorWithinAnalyticalBoundOfFp32) {
  const int64_t m = 17, n = 23, k = 61;
  Tensor a = RandomTensor(Shape{m, k}, 21);
  Tensor w = RandomTensor(Shape{n, k}, 22);
  auto qw = kernels::QuantizeWeightPerChannel(w);
  ASSERT_TRUE(qw.ok());
  auto deq = Tensor::Create(Shape{m, n});
  ASSERT_TRUE(deq.ok());
  ASSERT_TRUE(kernels::Int8GemmTransBInto(a, *qw, &*deq).ok());
  auto ref = kernels::MatMul(a, w, /*transpose_b=*/true);
  ASSERT_TRUE(ref.ok());
  for (int64_t r = 0; r < m; ++r) {
    float maxabs = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      maxabs = std::max(maxabs, std::fabs(a.data()[r * k + p]));
    }
    const float scale_a = maxabs > 0.0f ? maxabs / 63.0f : 1.0f;
    for (int64_t o = 0; o < n; ++o) {
      const float scale_w = qw->scales[o];
      double bound = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        bound += std::fabs(a.data()[r * k + p]) * scale_w * 0.5 +
                 std::fabs(w.data()[o * k + p]) * scale_a * 0.5 +
                 scale_a * scale_w * 0.25;
      }
      bound += 1e-4;  // fp32 reference rounding slack
      EXPECT_LE(std::fabs(deq->At(r, o) - ref->At(r, o)), bound)
          << "r=" << r << " o=" << o;
    }
  }
}

// ---------------------------------------------------------------------
// Sparse CSR kernel
// ---------------------------------------------------------------------

// Drops ~`permille`/1000 of entries deterministically.
void Sparsify(Tensor* w, int permille, uint64_t seed) {
  uint64_t state = seed;
  for (int64_t i = 0; i < w->NumElements(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    if (static_cast<int>((state >> 33) % 1000) < permille) {
      w->data()[i] = 0.0f;
    }
  }
}

TEST(SparseGemmTest, BitIdenticalToNaiveAscendingDot) {
  const int64_t m = 9, n = 41, k = 67;
  Tensor a = RandomTensor(Shape{m, k}, 31);
  Tensor w = RandomTensor(Shape{n, k}, 32);
  Sparsify(&w, 900, 33);
  auto d = kernels::MeasureWeightDensity(w);
  ASSERT_TRUE(d.ok());
  EXPECT_LT(*d, 0.25);
  auto csr = kernels::BuildCsrWeight(w);
  ASSERT_TRUE(csr.ok());
  EXPECT_DOUBLE_EQ(csr->density(), *d);
  auto out = Tensor::Create(Shape{m, n});
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(kernels::SparseGemmTransBInto(a, *csr, &*out).ok());
  // Naive ascending-k dense reference: adding an exact 0.0f term is a
  // no-op, so the CSR chain must produce the same bits.
  for (int64_t r = 0; r < m; ++r) {
    for (int64_t o = 0; o < n; ++o) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a.data()[r * k + p] * w.data()[o * k + p];
      }
      ASSERT_EQ(out->At(r, o), acc) << "r=" << r << " o=" << o;
    }
  }
  // And thread-count invariant.
  ThreadPool pool(4);
  auto out2 = Tensor::Create(Shape{m, n});
  ASSERT_TRUE(out2.ok());
  ASSERT_TRUE(kernels::SparseGemmTransBInto(a, *csr, &*out2, &pool).ok());
  EXPECT_EQ(
      std::memcmp(out->data(), out2->data(), m * n * sizeof(float)), 0);
}

// ---------------------------------------------------------------------
// Fused top-k epilogue
// ---------------------------------------------------------------------

// Reference: full logits + epilogue, then select under the kernel's
// total order (value desc, index asc).
std::vector<std::pair<float, int64_t>> ReferenceTopK(
    const Tensor& logits, int64_t row, int64_t kk, const Tensor* bias,
    bool relu) {
  const int64_t n = logits.shape().dim(1);
  std::vector<std::pair<float, int64_t>> all(n);
  for (int64_t c = 0; c < n; ++c) {
    float v = logits.At(row, c);
    if (bias != nullptr) v += bias->data()[c];
    if (relu && v < 0.0f) v = 0.0f;
    all[c] = {v, c};
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  all.resize(kk);
  return all;
}

TEST(TopKTest, DenseArmMatchesFullMatMulSelection) {
  const int64_t m = 13, n = 301, k = 47, kk = 7;
  Tensor a = RandomTensor(Shape{m, k}, 41);
  Tensor w = RandomTensor(Shape{n, k}, 42);
  Tensor bias = RandomTensor(Shape{n}, 43);
  kernels::TopKOptions opts;
  opts.k = kk;
  opts.bias = &bias;
  opts.relu = true;
  auto out = Tensor::Create(Shape{m, 2 * kk});
  ASSERT_TRUE(out.ok());
  auto packed = kernels::PackWeightTransB(w);
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(kernels::MatMulTopKInto(a, *packed, opts, &*out).ok());
  auto logits = kernels::MatMul(a, w, /*transpose_b=*/true);
  ASSERT_TRUE(logits.ok());
  for (int64_t r = 0; r < m; ++r) {
    const auto ref = ReferenceTopK(*logits, r, kk, &bias, true);
    for (int64_t i = 0; i < kk; ++i) {
      EXPECT_EQ(static_cast<int64_t>(out->At(r, kk + i)),
                ref[i].second)
          << "r=" << r << " i=" << i;
      EXPECT_FLOAT_EQ(out->At(r, i), ref[i].first);
    }
  }
}

// A head packed at deploy runs at every fp32 level this host runs,
// whichever level packed it, with the bits of a full per-call MatMul
// at the running level followed by the epilogue and the selection.
// The panel width is the host's, so this checks each channel block's
// slice of the deploy-packed panel. Covers several channel blocks
// with a ragged last one, short and multi-chunk batches, and a fused
// epilogue.
TEST(TopKTest, PackedHeadRunsAtEveryLevel) {
  const int64_t n = 4500, k = 70, kk = 5;
  Tensor w = RandomTensor(Shape{n, k}, 51);
  Tensor bias = RandomTensor(Shape{n}, 52);
  kernels::TopKOptions opts;
  opts.k = kk;
  opts.bias = &bias;
  opts.relu = true;
  opts.softmax = true;
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (kernels::DetectSimdLevel() != SimdLevel::kScalar) {
    levels.push_back(kernels::DetectSimdLevel());
  }
  for (const SimdLevel pack_level : levels) {
    auto packed = [&] {
      ScopedSimdLevel pin(pack_level);
      return kernels::PackWeightTransB(w);
    }();
    ASSERT_TRUE(packed.ok());
    for (const SimdLevel run_level : levels) {
      ScopedSimdLevel pin(run_level);
      for (const int64_t m : {1, 9, 20}) {
        SCOPED_TRACE(testing::Message()
                     << "packed at " << kernels::SimdLevelName(pack_level)
                     << ", run at " << kernels::SimdLevelName(run_level)
                     << " m=" << m);
        Tensor a = RandomTensor(Shape{m, k}, 50 + m);
        auto logits = kernels::MatMul(a, w, /*transpose_b=*/true);
        auto want = Tensor::Create(Shape{m, 2 * kk});
        auto got = Tensor::Create(Shape{m, 2 * kk});
        ASSERT_TRUE(logits.ok() && want.ok() && got.ok());
        for (int64_t r = 0; r < m; ++r) {
          const auto ref = ReferenceTopK(*logits, r, kk, &bias, true);
          // The kernel's softmax over the sorted survivors.
          float* y = want->data() + r * 2 * kk;
          float sum = 0.0f;
          for (int64_t i = 0; i < kk; ++i) {
            y[i] = std::exp(ref[i].first - ref[0].first);
            sum += y[i];
          }
          for (int64_t i = 0; i < kk; ++i) {
            y[i] /= sum;
            y[kk + i] = static_cast<float>(ref[i].second);
          }
        }
        ASSERT_TRUE(kernels::MatMulTopKInto(a, *packed, opts, &*got).ok());
        EXPECT_EQ(0, std::memcmp(want->data(), got->data(),
                                 static_cast<size_t>(want->ByteSize())));
      }
    }
  }
  // A panel of another weight's shape is refused.
  auto other = kernels::PackWeightTransB(RandomTensor(Shape{n, k + 1}, 53));
  ASSERT_TRUE(other.ok());
  Tensor a = RandomTensor(Shape{1, k}, 54);
  auto out = Tensor::Create(Shape{1, 2 * kk});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      kernels::MatMulTopKInto(a, *other, opts, &*out).IsInvalidArgument());
}

TEST(TopKTest, TiesAndDuplicatesDeterministicAtAnyThreadCount) {
  // Values drawn from a tiny set force massive duplication: every
  // selection boundary is a tie, decided only by the (value desc,
  // index asc) total order.
  const int64_t m = 24, n = 4097, k = 8, kk = 10;
  auto a = Tensor::Create(Shape{m, k});
  auto w = Tensor::Create(Shape{n, k});
  ASSERT_TRUE(a.ok() && w.ok());
  uint64_t state = 99;
  for (int64_t i = 0; i < m * k; ++i) {
    state = state * 6364136223846793005ULL + 1;
    a->data()[i] = static_cast<float>((state >> 33) % 3) * 0.5f;
  }
  for (int64_t i = 0; i < n * k; ++i) {
    state = state * 6364136223846793005ULL + 1;
    w->data()[i] = static_cast<float>((state >> 33) % 2);
  }
  kernels::TopKOptions opts;
  opts.k = kk;
  opts.softmax = true;

  auto run = [&](const kernels::Weight& weight, ThreadPool* pool) {
    auto out = Tensor::Create(Shape{m, 2 * kk});
    EXPECT_TRUE(out.ok());
    EXPECT_TRUE(
        kernels::MatMulTopKInto(*a, weight, opts, &*out, pool).ok());
    return *std::move(out);
  };

  auto packed = kernels::PackWeightTransB(*w);
  auto qw = kernels::QuantizeWeightPerChannel(*w);
  auto csr = kernels::BuildCsrWeight(*w);
  ASSERT_TRUE(packed.ok() && qw.ok() && csr.ok());
  ThreadPool pool1(1), pool4(4), pool8(8);
  const std::vector<ThreadPool*> pools = {nullptr, &pool1, &pool4,
                                          &pool8};
  const kernels::Weight arms[] = {*packed, kernels::Weight(*qw),
                                  kernels::Weight(*csr)};
  for (int arm = 0; arm < 3; ++arm) {
    Tensor baseline = run(arms[arm], nullptr);
    // Indices must be unique within each row.
    for (int64_t r = 0; r < m; ++r) {
      std::vector<int64_t> idx;
      for (int64_t i = 0; i < kk; ++i) {
        idx.push_back(static_cast<int64_t>(baseline.At(r, kk + i)));
      }
      std::sort(idx.begin(), idx.end());
      EXPECT_TRUE(std::adjacent_find(idx.begin(), idx.end()) ==
                  idx.end())
          << "duplicate index in arm " << arm << " row " << r;
    }
    for (ThreadPool* pool : pools) {
      Tensor got = run(arms[arm], pool);
      EXPECT_EQ(std::memcmp(baseline.data(), got.data(),
                            m * 2 * kk * sizeof(float)),
                0)
          << "arm " << arm;
    }
  }
}

TEST(TopKTest, RejectsBadArguments) {
  Tensor a = RandomTensor(Shape{2, 4}, 51);
  Tensor w = RandomTensor(Shape{8, 4}, 52);
  kernels::TopKOptions opts;
  opts.k = 3;
  auto out = Tensor::Create(Shape{2, 6});
  ASSERT_TRUE(out.ok());
  auto qw = kernels::QuantizeWeightPerChannel(w);
  ASSERT_TRUE(qw.ok());
  const kernels::Weight weight(*qw);
  // Input width mismatch.
  EXPECT_TRUE(kernels::MatMulTopKInto(RandomTensor(Shape{2, 5}, 53), weight,
                                      opts, &*out)
                  .IsInvalidArgument());
  // k out of range.
  opts.k = 9;
  EXPECT_TRUE(
      kernels::MatMulTopKInto(a, weight, opts, &*out).IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Optimizer / plan / serving integration
// ---------------------------------------------------------------------

TEST(KernelArmPlanTest, OptimizerPicksArmsAndRendersThem) {
  auto model = BuildFFNN("xc", {32, 64, 200}, /*seed=*/7);
  ASSERT_TRUE(model.ok());
  auto* w1 = model->GetMutableWeight("w1").ValueOrDie();
  Sparsify(w1, 920, 77);
  OptimizerTuning tuning;
  tuning.enable_int8 = true;
  tuning.enable_sparse = true;
  tuning.topk = 5;
  RuleBasedOptimizer optimizer(1LL << 40);
  auto plan = optimizer.Optimize(*model, 16);
  ASSERT_TRUE(plan.ok());
  // The optimizer alone leaves every arm off — the golden-plan
  // contract; the tuning's arms come from AssignKernelArms.
  for (const NodeDecision& d : plan->decisions) {
    EXPECT_EQ(d.arm, KernelArm::kDense);
    EXPECT_EQ(d.topk, 0);
  }
  ASSERT_TRUE(AssignKernelArms(*model, tuning, &*plan).ok());
  // Node 1 = first matmul (dense weight -> int8 arm); node 4 = head
  // matmul (sparsified -> sparse arm, carries the top-k request).
  EXPECT_EQ(plan->decisions[1].arm, KernelArm::kInt8);
  EXPECT_EQ(plan->decisions[4].arm, KernelArm::kSparse);
  EXPECT_LT(plan->decisions[4].weight_density, 0.25);
  EXPECT_EQ(plan->decisions[4].topk, 5);
  EXPECT_EQ(plan->decisions[1].topk, 0);
  const std::string text = plan->ToString(*model);
  EXPECT_NE(text.find("[int8]"), std::string::npos);
  EXPECT_NE(text.find("[sparse d=0."), std::string::npos);
  EXPECT_NE(text.find("+topk(5)"), std::string::npos);
  // A default tuning leaves every arm off.
  auto plan_plain = optimizer.Optimize(*model, 16);
  ASSERT_TRUE(plan_plain.ok());
  ASSERT_TRUE(AssignKernelArms(*model, OptimizerTuning(), &*plan_plain).ok());
  for (const NodeDecision& d : plan_plain->decisions) {
    EXPECT_EQ(d.arm, KernelArm::kDense);
    EXPECT_EQ(d.topk, 0);
  }
}

// A dense top-k head runs on its deploy-packed panel; the plan keeps
// no resident fp32 copy for it.
TEST(KernelArmServingTest, DenseTopKHeadRunsOnDeployPackedPanel) {
  OptimizerTuning tuning;
  tuning.topk = 5;
  ServingSession session((ServingConfig()));
  auto model = BuildFFNN("xc", {32, 64, 200}, /*seed=*/7);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(session.RegisterModel(*std::move(model), tuning).ok());
  ASSERT_TRUE(session.Deploy("xc", ServingMode::kAdaptive, 16).ok());
  auto pp = session.DeployedPhysicalPlan("xc");
  ASSERT_TRUE(pp.ok());
  const PhysicalStage& head = *(*pp)->stages().back();
  ASSERT_EQ(head.kind, StageKind::kMatMulTopK);
  ASSERT_NE(head.weight->panel(), nullptr);
  EXPECT_EQ(head.weight->n, 200);
  auto out = session.PredictBatch("xc", RandomTensor(Shape{16, 32}, 9));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->tensor.shape(), (Shape{16, 10}));
}

// The acceptance invariant: a deployed top-k head emits [batch, 2k]
// and its stage-level byte accounting proves the 200-wide logits
// tensor was never materialized as stage output.
TEST(KernelArmServingTest, TopKHeadServesWithoutMaterializingLogits) {
  const int64_t batch = 64, classes = 200, kk = 5;
  auto build = [] {
    auto model = BuildFFNN("xc", {32, 64, 200}, /*seed=*/7);
    EXPECT_TRUE(model.ok());
    auto* w1 = model->GetMutableWeight("w1").ValueOrDie();
    Sparsify(w1, 920, 77);
    return *std::move(model);
  };

  OptimizerTuning fused_tuning;
  fused_tuning.enable_sparse = true;
  fused_tuning.topk = kk;
  ServingSession fused((ServingConfig()));
  ASSERT_TRUE(fused.RegisterModel(build(), fused_tuning).ok());
  ASSERT_TRUE(
      fused.Deploy("xc", ServingMode::kAdaptive, batch).ok());

  ServingSession plain((ServingConfig()));
  ASSERT_TRUE(plain.RegisterModel(build()).ok());
  ASSERT_TRUE(
      plain.Deploy("xc", ServingMode::kAdaptive, batch).ok());

  Tensor input = RandomTensor(Shape{batch, 32}, 123);
  auto fused_out = fused.PredictBatch("xc", input);
  auto plain_out = plain.PredictBatch("xc", input);
  ASSERT_TRUE(fused_out.ok()) << fused_out.status().ToString();
  ASSERT_TRUE(plain_out.ok());
  ASSERT_EQ(fused_out->tensor.shape(), (Shape{batch, 2 * kk}));
  ASSERT_EQ(plain_out->tensor.shape(), (Shape{batch, classes}));

  // Stage accounting: the head stage produced 2k floats per row — not
  // `classes` — so the full logits matrix never existed as stage
  // output.
  auto pp = fused.DeployedPhysicalPlan("xc");
  ASSERT_TRUE(pp.ok());
  const PhysicalStage& head = *(*pp)->stages().back();
  EXPECT_EQ(head.kind, StageKind::kMatMulTopK);
  EXPECT_NE(head.label.find("sparse-matmul"), std::string::npos);
  EXPECT_NE(head.label.find("+topk(5)"), std::string::npos);
  EXPECT_EQ(head.stats.bytes.load(),
            batch * 2 * kk * static_cast<int64_t>(sizeof(float)));
  const std::string text = (*pp)->ToString(/*analyze=*/true);
  EXPECT_NE(text.find("sparse-matmul"), std::string::npos);

  // Top-k agreement vs the fp32 full-softmax path: indices must match
  // (value order may differ only on FMA-rounding near-ties).
  int64_t agree = 0;
  for (int64_t r = 0; r < batch; ++r) {
    const auto ref = ReferenceTopK(plain_out->tensor, r, kk,
                                   /*bias=*/nullptr, /*relu=*/false);
    std::vector<int64_t> ref_idx, got_idx;
    for (int64_t i = 0; i < kk; ++i) {
      ref_idx.push_back(ref[i].second);
      got_idx.push_back(
          static_cast<int64_t>(fused_out->tensor.At(r, kk + i)));
    }
    std::sort(ref_idx.begin(), ref_idx.end());
    std::sort(got_idx.begin(), got_idx.end());
    for (int64_t i = 0; i < kk; ++i) {
      agree += ref_idx[i] == got_idx[i];
    }
    // Fused softmax renormalizes over the k survivors: probabilities
    // are positive and descending.
    float prev = 1.0f;
    float sum = 0.0f;
    for (int64_t i = 0; i < kk; ++i) {
      const float p = fused_out->tensor.At(r, i);
      EXPECT_GT(p, 0.0f);
      EXPECT_LE(p, prev + 1e-6f);
      prev = p;
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
  EXPECT_GE(static_cast<double>(agree),
            0.99 * static_cast<double>(batch * kk));
}

TEST(KernelArmServingTest, Int8ArmServesCloseToFp32) {
  const int64_t batch = 32;
  auto build = [] {
    auto model = BuildFFNN("q", {24, 48, 10}, /*seed=*/9);
    EXPECT_TRUE(model.ok());
    return *std::move(model);
  };
  OptimizerTuning int8;
  int8.enable_int8 = true;
  ServingSession quant((ServingConfig()));
  ASSERT_TRUE(quant.RegisterModel(build(), int8).ok());
  auto plan = quant.Deploy("q", ServingMode::kAdaptive, batch);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->decisions[1].arm, KernelArm::kInt8);

  ServingSession plain((ServingConfig()));
  ASSERT_TRUE(plain.RegisterModel(build()).ok());
  ASSERT_TRUE(plain.Deploy("q", ServingMode::kAdaptive, batch).ok());

  Tensor input = RandomTensor(Shape{batch, 24}, 321);
  auto q_out = quant.PredictBatch("q", input);
  auto f_out = plain.PredictBatch("q", input);
  ASSERT_TRUE(q_out.ok() && f_out.ok());
  // Top-1 agreement across the batch.
  int64_t agree = 0;
  for (int64_t r = 0; r < batch; ++r) {
    auto argmax = [&](const Tensor& t) {
      int64_t best = 0;
      for (int64_t c = 1; c < 10; ++c) {
        if (t.At(r, c) > t.At(r, best)) best = c;
      }
      return best;
    };
    agree += argmax(q_out->tensor) == argmax(f_out->tensor);
  }
  EXPECT_GE(agree, batch - 3);  // ~90%+ top-1 agreement
  const auto pp = quant.DeployedPhysicalPlan("q");
  ASSERT_TRUE(pp.ok());
  EXPECT_NE((*pp)->ToString().find("int8-matmul"), std::string::npos);
}

}  // namespace
}  // namespace relserve
