// Table 3 of the paper: latency comparison for large-scale model
// inference over data managed by the RDBMS.
//
//   Model          Batch   Ours    UDF-centric   DL-sim-A   DL-sim-B
//   Amazon-14k-FC  small   ...     ...           ...        ...
//                  large   ...     OOM           OOM        OOM
//   LandCover      1       ...     OOM           ...        OOM
//                  2       ...     OOM           OOM        OOM
//
// Geometry is scaled (RELSERVE_SCALE, default 0.01) and every arena is
// derived from the scaled model's measured footprints so each row
// reproduces the paper's feasibility pattern:
//   footprint(small batch)  <  arena  <  footprint(large batch).
// The two simulated DL runtimes stand in for TensorFlow and PyTorch;
// they share kernels and differ only in their memory budget (the
// paper's TF survives LandCover batch 1 where PyTorch does not).
// Framework-specific kernel constants are out of scope — the *shape*
// (who completes, who OOMs, and that relation-centric pays a chunking
// overhead where whole-tensor fits) is what this reproduces.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/external_runtime.h"
#include "graph/model_zoo.h"
#include "serving/serving_session.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

constexpr int64_t kMiB = 1LL << 20;

struct SystemResult {
  Result<double> ours = Status::Internal("not run");
  Result<double> udf = Status::Internal("not run");
  Result<double> dl_a = Status::Internal("not run");
  Result<double> dl_b = Status::Internal("not run");
};

// Times one in-database run under `mode`; a deploy failure (resident
// weights over the arena) counts as the run's OOM, as in the paper.
Result<double> TimeInDb(ServingSession* session,
                        const std::string& model,
                        const std::string& table, ServingMode mode,
                        int64_t batch, int repeats) {
  auto deployed = session->Deploy(model, mode, batch);
  RELSERVE_RETURN_NOT_OK(deployed.status());
  return bench::TimeBest(repeats, [&]() -> Status {
    RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                              session->Predict(model, table));
    // A blocked output (e.g. LandCover's feature map) stays stored in
    // the database — the paper's scenario; whole-tensor outputs are
    // already materialized.
    (void)out;
    return Status::OK();
  });
}

Result<double> TimeDlCentric(ServingSession* session,
                             const std::string& model,
                             const std::string& table,
                             ExternalRuntime* runtime, int repeats) {
  RELSERVE_RETURN_NOT_OK(session->OffloadModel(model, runtime));
  return bench::TimeBest(repeats, [&]() -> Status {
    RELSERVE_ASSIGN_OR_RETURN(Tensor t,
                              session->PredictViaRuntime(model, table));
    (void)t;
    return Status::OK();
  });
}

void PrintResult(const std::string& model, int64_t batch,
                 const SystemResult& r) {
  bench::PrintRow({model, std::to_string(batch), bench::Cell(r.ours),
                   bench::Cell(r.udf), bench::Cell(r.dl_a),
                   bench::Cell(r.dl_b)});
}

Status RunAmazon(double scale, int repeats) {
  const auto spec = zoo::Table1FcSpecs(scale)[3];  // Amazon-14k-FC
  const int64_t small_batch = 125, large_batch = 1000;
  const int64_t features = spec.dims[0];
  const int64_t hidden = spec.dims[1];
  const int64_t outputs = spec.dims[2];

  RELSERVE_ASSIGN_OR_RETURN(Model probe, zoo::BuildFromSpec(spec, 1));
  const int64_t weight_bytes = probe.TotalWeightBytes();
  auto udf_fp = [&](int64_t b) {
    return weight_bytes + 4 * b * (features + hidden + outputs);
  };
  auto dl_fp = [&](int64_t b) {
    // Decode peak: wire buffer + decoded tensor coexist.
    return weight_bytes + 4 * b * (2 * features + hidden + outputs);
  };

  ServingConfig config;
  config.working_memory_bytes = udf_fp(small_batch) + 8 * kMiB;
  config.memory_threshold_bytes =
      static_cast<int64_t>(2.0 * scale * (1LL << 30));
  config.buffer_pool_pages = 4096;  // 256 MiB
  config.block_rows = 512;
  config.block_cols = 512;
  ServingSession session(config);
  std::printf("# Amazon-14k-FC scale=%.3f: weights=%s, db-arena=%s, "
              "threshold=%s\n",
              scale, bench::HumanBytes(weight_bytes).c_str(),
              bench::HumanBytes(config.working_memory_bytes).c_str(),
              bench::HumanBytes(config.memory_threshold_bytes).c_str());

  RELSERVE_ASSIGN_OR_RETURN(
      TableInfo * small_table,
      session.CreateTable("small", workloads::FeatureTableSchema()));
  RELSERVE_RETURN_NOT_OK(workloads::FillFeatureTable(
      small_table, small_batch, features, 3));
  RELSERVE_ASSIGN_OR_RETURN(
      TableInfo * large_table,
      session.CreateTable("large", workloads::FeatureTableSchema()));
  RELSERVE_RETURN_NOT_OK(workloads::FillFeatureTable(
      large_table, large_batch, features, 4));
  RELSERVE_ASSIGN_OR_RETURN(Model model, zoo::BuildFromSpec(spec, 1));
  RELSERVE_RETURN_NOT_OK(session.RegisterModel(std::move(model)));

  for (const auto& [batch, table] :
       std::vector<std::pair<int64_t, std::string>>{
           {small_batch, "small"}, {large_batch, "large"}}) {
    SystemResult result;
    result.ours = TimeInDb(&session, spec.name, table,
                           ServingMode::kAdaptive, batch, repeats);
    result.udf = TimeInDb(&session, spec.name, table,
                          ServingMode::kForceUdf, batch, repeats);
    {
      ExternalRuntime dl_a("sim-framework-A",
                           dl_fp(small_batch) + 8 * kMiB);
      result.dl_a = TimeDlCentric(&session, spec.name, table, &dl_a,
                                  repeats);
    }
    {
      ExternalRuntime dl_b("sim-framework-B",
                           dl_fp(small_batch) + 4 * kMiB);
      result.dl_b = TimeDlCentric(&session, spec.name, table, &dl_b,
                                  repeats);
    }
    PrintResult(spec.name, batch, result);
  }
  return Status::OK();
}

Status RunLandCover(double scale, int repeats) {
  const auto spec = zoo::Table2ConvSpecs(scale)[1];  // LandCover
  const int64_t width = spec.image_h * spec.image_w * spec.image_c;
  const int64_t pixels = spec.image_h * spec.image_w;  // 1x1 kernel
  auto conv_fp = [&](int64_t b) {
    // UDF path peak: full output map + one image's product + im2col +
    // the image itself.
    return 4 * (b * pixels * spec.out_channels +
                pixels * spec.out_channels + pixels * spec.image_c +
                width);
  };

  ServingConfig config;
  // Paper: UDF-centric OOMs even at batch 1.
  config.working_memory_bytes =
      static_cast<int64_t>(conv_fp(1) * 0.7);
  // LandCover's feature map scales with scale^2 (pixels x channels)
  // while the paper's 2 GB threshold scales linearly, so keep the
  // paper's threshold/footprint *ratio* instead: 2 GB / 51 GB ~ 1/25.
  config.memory_threshold_bytes = conv_fp(1) / 25;
  config.buffer_pool_pages = 4096;
  config.block_rows = 512;
  config.block_cols = 512;
  ServingSession session(config);
  std::printf("\n# LandCover scale=%.3f: image=%lldx%lldx%lld "
              "out_c=%lld, db-arena=%s, batch-1 whole-tensor "
              "footprint=%s\n",
              scale, static_cast<long long>(spec.image_h),
              static_cast<long long>(spec.image_w),
              static_cast<long long>(spec.image_c),
              static_cast<long long>(spec.out_channels),
              bench::HumanBytes(config.working_memory_bytes).c_str(),
              bench::HumanBytes(conv_fp(1)).c_str());

  for (int64_t batch : {1, 2}) {
    const std::string table = "images" + std::to_string(batch);
    RELSERVE_ASSIGN_OR_RETURN(
        TableInfo * t,
        session.CreateTable(table, workloads::FeatureTableSchema()));
    RELSERVE_RETURN_NOT_OK(
        workloads::FillFeatureTable(t, batch, width, 5));
  }
  RELSERVE_ASSIGN_OR_RETURN(Model model, zoo::BuildFromSpec(spec, 1));
  RELSERVE_RETURN_NOT_OK(session.RegisterModel(std::move(model)));

  for (int64_t batch : {1, 2}) {
    const std::string table = "images" + std::to_string(batch);
    SystemResult result;
    result.ours = TimeInDb(&session, spec.name, table,
                           ServingMode::kAdaptive, batch, repeats);
    result.udf = TimeInDb(&session, spec.name, table,
                          ServingMode::kForceUdf, batch, repeats);
    {
      // Framework A (the paper's TF): survives batch 1, not batch 2.
      ExternalRuntime dl_a("sim-framework-A", conv_fp(1) + 8 * kMiB);
      result.dl_a =
          TimeDlCentric(&session, spec.name, table, &dl_a, repeats);
    }
    {
      // Framework B (the paper's PyTorch): OOMs already at batch 1.
      ExternalRuntime dl_b("sim-framework-B",
                           static_cast<int64_t>(conv_fp(1) * 0.7));
      result.dl_b =
          TimeDlCentric(&session, spec.name, table, &dl_b, repeats);
    }
    PrintResult(spec.name, batch, result);
  }
  return Status::OK();
}

int Run() {
  const double scale = bench::ScaleFromEnv();
  const int repeats = bench::RepeatsFromEnv(1);
  std::printf("Table 3: large-scale model inference over "
              "RDBMS-managed data (seconds; OOM = out of memory)\n\n");
  bench::PrintRow({"Model", "Batch", "Ours", "UDF-centric",
                   "DL-sim-A", "DL-sim-B"});
  bench::PrintRule(6);
  Status s = RunAmazon(scale, repeats);
  if (s.ok()) s = RunLandCover(scale, repeats);
  if (!s.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "\nExpected shape (paper Table 3): whole-tensor systems "
      "complete the small\nbatch (and beat Ours there — chunking "
      "overhead), then OOM at the large\nbatch, while the adaptive "
      "relation-centric plan completes every row by\nspilling tensor "
      "blocks through the buffer pool.\n");
  return 0;
}

}  // namespace
}  // namespace relserve

int main() { return relserve::Run(); }
