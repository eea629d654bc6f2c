// Ablation A4 (DESIGN.md): accuracy-aware deduplication tolerance
// (paper Sec. 4(1)). A weight matrix with near-duplicate structure
// (repeated embedding-like row groups plus noise) is chunked into
// blocks and deduplicated at increasing tolerances; we report storage
// saved vs the worst-case effect on inference outputs, plus the
// int8 arm's per-channel quantization — the "@int8" model version the
// storage optimizer would also keep — and that version's PredictBatch
// latency against its fp32 base on the zoo FFNNs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "common/random.h"
#include "graph/model.h"
#include "graph/model_zoo.h"
#include "kernels/int8_gemm.h"
#include "kernels/kernels.h"
#include "serving/model_versions.h"
#include "serving/serving_session.h"
#include "storage/physical_block_index.h"
#include "tensor/tensor_block.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

// Builds a [rows, cols] weight with `groups` distinct block patterns
// repeated with +-noise — the near-duplicate weight structure the
// paper's dedup targets (shared embeddings, repeated heads).
Result<Tensor> NearDuplicateWeight(int64_t rows, int64_t cols,
                                   int64_t block, int groups,
                                   float noise) {
  RELSERVE_ASSIGN_OR_RETURN(Tensor w, Tensor::Create(Shape{rows, cols}));
  Rng rng(17);
  std::vector<std::vector<float>> patterns(
      groups, std::vector<float>(block * block));
  for (auto& p : patterns) {
    for (float& v : p) v = rng.Normal(0.0f, 0.05f);
  }
  for (int64_t rb = 0; rb < rows / block; ++rb) {
    for (int64_t cb = 0; cb < cols / block; ++cb) {
      const auto& p =
          patterns[(rb * (cols / block) + cb) % groups];
      for (int64_t r = 0; r < block; ++r) {
        for (int64_t c = 0; c < block; ++c) {
          w.At(rb * block + r, cb * block + c) =
              p[r * block + c] + rng.Normal(0.0f, noise);
        }
      }
    }
  }
  return w;
}

// Median seconds per PredictBatch call of `model` and of `model@int8`
// on one batch, sampled as alternating pairs (the side that runs first
// alternates) so drift hits both sides alike. `int8_wins` counts the
// pairs in which the version was faster.
struct PairedLatency {
  double fp32_s = 0.0;
  double int8_s = 0.0;
  int int8_wins = 0;
  int pairs = 0;
};

Result<PairedLatency> PairedPredict(ServingSession* session,
                                    const std::string& model,
                                    const Tensor& batch, int pairs) {
  const std::string names[2] = {model, model + "@int8"};
  const int64_t rows = batch.shape().dim(0);
  for (const std::string& name : names) {
    RELSERVE_RETURN_NOT_OK(
        session->Deploy(name, ServingMode::kAdaptive, rows).status());
  }
  auto time_calls = [&](const std::string& name,
                        int reps) -> Result<double> {
    Timer timer;
    for (int i = 0; i < reps; ++i) {
      RELSERVE_RETURN_NOT_OK(session->PredictBatch(name, batch).status());
    }
    return timer.ElapsedSeconds() / reps;
  };
  // Warm both sides, then size each sample to about a millisecond.
  RELSERVE_ASSIGN_OR_RETURN(double warm, time_calls(names[0], 3));
  RELSERVE_RETURN_NOT_OK(time_calls(names[1], 3).status());
  const int reps =
      std::clamp(static_cast<int>(1e-3 / std::max(warm, 1e-9)), 1, 1000);
  std::vector<double> samples[2];
  PairedLatency out;
  out.pairs = pairs;
  for (int p = 0; p < pairs; ++p) {
    double seconds[2];
    for (int step = 0; step < 2; ++step) {
      const int side = (p + step) % 2;
      RELSERVE_ASSIGN_OR_RETURN(seconds[side], time_calls(names[side], reps));
      samples[side].push_back(seconds[side]);
    }
    out.int8_wins += seconds[1] < seconds[0];
  }
  out.fp32_s = bench::Percentile(samples[0], 50.0);
  out.int8_s = bench::Percentile(samples[1], 50.0);
  return out;
}

int RunVersionLatency() {
  ServingConfig config;
  config.num_threads = 1;
  config.memory_threshold_bytes = 1LL << 40;  // every layer UDF-centric
  ServingSession session(config);
  std::vector<std::string> models;
  for (const zoo::FcSpec& spec :
       zoo::Table1FcSpecs(bench::ScaleFromEnv())) {
    auto model = zoo::BuildFromSpec(spec, 1);
    if (!model.ok() || !session.RegisterModel(std::move(*model)).ok()) {
      return 1;
    }
    models.push_back(spec.name);
  }
  auto mnist = zoo::BuildCachingFfnn(1);
  if (!mnist.ok()) return 1;
  models.push_back(mnist->name());
  if (!session.RegisterModel(std::move(*mnist)).ok()) return 1;

  const int pairs = 7 * bench::RepeatsFromEnv();
  std::printf("\nModel versions: fp32 base vs \"@int8\" PredictBatch, "
              "1 thread, median of %d alternating pairs\n\n",
              pairs);
  bench::PrintRow({"Model", "Batch", "fp32(us)", "int8(us)",
                   "int8/fp32", "int8 faster"});
  bench::PrintRule(6);
  for (const std::string& name : models) {
    const Model* model = *session.GetModel(name);
    if (!CreateQuantizedVersion(&session, name, 32, 7).ok()) return 1;
    for (const int64_t rows : {1, 32, 256}) {
      auto batch = workloads::GenBatch(rows, model->sample_shape(), 5);
      if (!batch.ok()) return 1;
      auto lat = PairedPredict(&session, name, *batch, pairs);
      if (!lat.ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     lat.status().ToString().c_str());
        return 1;
      }
      char fp32[32], int8[32], ratio[32], wins[32];
      std::snprintf(fp32, sizeof(fp32), "%.1f", lat->fp32_s * 1e6);
      std::snprintf(int8, sizeof(int8), "%.1f", lat->int8_s * 1e6);
      std::snprintf(ratio, sizeof(ratio), "%.2fx",
                    lat->int8_s / lat->fp32_s);
      std::snprintf(wins, sizeof(wins), "%d/%d", lat->int8_wins,
                    lat->pairs);
      bench::PrintRow(
          {name, std::to_string(rows), fp32, int8, ratio, wins});
      bench::PrintBenchJson(
          "model_version_latency",
          {{"model", bench::JsonStr(name)},
           {"batch", std::to_string(rows)},
           {"fp32_us", bench::JsonNum(lat->fp32_s * 1e6)},
           {"int8_us", bench::JsonNum(lat->int8_s * 1e6)},
           {"int8_wins", std::to_string(lat->int8_wins)},
           {"pairs", std::to_string(lat->pairs)}});
    }
    if (!session.Undeploy(name).ok() ||
        !session.Undeploy(name + "@int8").ok()) {
      return 1;
    }
  }
  return 0;
}

int Run() {
  const int64_t rows = 1024, cols = 1024, block = 128;
  const int groups = 6;
  const float noise = 2e-4f;

  auto weight = NearDuplicateWeight(rows, cols, block, groups, noise);
  if (!weight.ok()) return 1;
  auto input = workloads::GenBatch(64, Shape{cols}, 9);
  if (!input.ok()) return 1;
  auto reference = kernels::MatMul(*input, *weight, true);
  if (!reference.ok()) return 1;

  std::printf("Ablation A4: accuracy-aware dedup tolerance sweep "
              "(weight %lldx%lld, %lldx%lld blocks, %d latent "
              "patterns)\n\n",
              static_cast<long long>(rows),
              static_cast<long long>(cols),
              static_cast<long long>(block),
              static_cast<long long>(block), groups);
  bench::PrintRow({"Tolerance", "UniqueBlocks", "Compression",
                   "MaxWeightErr", "MaxOutputErr"});
  bench::PrintRule(5);

  auto blocks = SplitMatrix(*weight, block, block);
  if (!blocks.ok()) return 1;
  const BlockedShape geometry{rows, cols, block, block};

  for (float tolerance :
       {0.0f, 1e-4f, 5e-4f, 1e-3f, 5e-3f, 1e-2f}) {
    auto dedup = DeduplicateBlocks(*blocks, tolerance);
    if (!dedup.ok()) return 1;
    auto restored = AssembleMatrix(ExpandDedup(*dedup), geometry);
    if (!restored.ok()) return 1;
    auto output = kernels::MatMul(*input, *restored, true);
    if (!output.ok()) return 1;
    char tol[32], comp[32], werr[32], oerr[32];
    std::snprintf(tol, sizeof(tol), "%.0e", tolerance);
    std::snprintf(comp, sizeof(comp), "%.2fx",
                  dedup->stats.CompressionRatio());
    std::snprintf(werr, sizeof(werr), "%.2e",
                  weight->MaxAbsDiff(*restored));
    std::snprintf(oerr, sizeof(oerr), "%.2e",
                  reference->MaxAbsDiff(*output));
    bench::PrintRow({tol, std::to_string(dedup->stats.unique_blocks),
                     comp, werr, oerr});
  }

  // The int8 arm the "@int8" model version deploys: per-channel s8
  // weight packs, dynamically quantized activations.
  auto q = kernels::QuantizeWeightPerChannel(*weight);
  if (!q.ok()) return 1;
  auto q_out = Tensor::Create(reference->shape());
  if (!q_out.ok()) return 1;
  if (!kernels::Int8GemmTransBInto(*input, *q, &*q_out).ok()) return 1;
  float max_werr = 0.0f;
  for (int64_t o = 0; o < q->out; ++o) {
    for (int64_t p = 0; p < q->in; ++p) {
      const float restored =
          static_cast<float>(q->data[o * q->padded_in + p]) *
          q->scales[o];
      max_werr = std::max(max_werr, std::fabs(weight->At(o, p) - restored));
    }
  }
  char comp[32], werr[32], oerr[32];
  std::snprintf(comp, sizeof(comp), "%.2fx",
                static_cast<double>(weight->ByteSize()) /
                    static_cast<double>(q->ByteSize()));
  std::snprintf(werr, sizeof(werr), "%.2e", max_werr);
  std::snprintf(oerr, sizeof(oerr), "%.2e",
                reference->MaxAbsDiff(*q_out));
  bench::PrintRow({"int8-arm", "-", comp, werr, oerr});

  std::printf(
      "\nExpected shape: tolerances at the noise scale collapse the "
      "blocks to the\nlatent patterns (large compression, bounded "
      "output error); tolerances far\nbelow it save nothing. The "
      "SLA-aware optimizer picks the version whose\noutput error fits "
      "the application.\n");
  return RunVersionLatency();
}

}  // namespace
}  // namespace relserve

int main() { return relserve::Run(); }
