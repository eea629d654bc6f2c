// sql_spill: the paper's central case. One closed-loop client repeats
//
//   SELECT PREDICT_CLASS(wide) AS cls, COUNT(*) AS n FROM spill
//   WHERE x < 0.5 GROUP BY cls
//
// through sql::ExecuteStatement over a sealed columnar table. The
// model is deployed adaptively with a memory threshold that sends its
// two wide 768x768 layers relation-centric; their weight blocks are
// twice the buffer pool, so every query spills through it.

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>

#include "graph/model.h"
#include "layers.h"
#include "sql_loop.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace relserve;

constexpr int64_t kRows = 1024;
constexpr int64_t kFeatureDim = 32;
const std::vector<int64_t> kDims = {kFeatureDim, 768, 768, 768, 4};
constexpr uint64_t kModelSeed = 11;
constexpr int64_t kBlock = 256;         // 256x256 floats = 4 pages
constexpr int64_t kPoolPages = 36;      // 2.25 MiB; wide weights 4.5 MiB
constexpr int64_t kThresholdBytes = 4LL << 20;
constexpr int kWarmupQueries = 2;
constexpr double kMaxScoreDiff = 1e-5;  // relational vs UDF contract
constexpr int kKeepWarmThreads = 3;     // with the client: one per vCPU

const char* kQuery =
    "SELECT PREDICT_CLASS(wide) AS cls, COUNT(*) AS n FROM spill "
    "WHERE x < 0.5 GROUP BY cls";

struct TableData {
  std::vector<Row> rows;
  Tensor selected;  // features of the rows passing the WHERE, in order
  int64_t num_selected = 0;
};

Result<TableData> MakeTable(uint64_t seed) {
  TableData data;
  SplitMix64 rng(SubSeed(seed, 1));
  // Exactly half the rows pass the WHERE, in a seeded order, so every
  // seed asks the model for the same amount of work.
  std::vector<char> selected(kRows);
  for (int64_t i = 0; i < kRows; ++i) selected[i] = i < kRows / 2;
  for (int64_t i = kRows - 1; i > 0; --i) {
    std::swap(selected[i], selected[rng.Below(i + 1)]);
  }
  std::vector<float> picked;
  for (int64_t i = 0; i < kRows; ++i) {
    const double x = 0.5 * rng.Uniform01() + (selected[i] ? 0.0 : 0.5);
    std::vector<float> features(kFeatureDim);
    for (float& f : features) f = static_cast<float>(rng.Uniform01());
    if (x < 0.5) {
      picked.insert(picked.end(), features.begin(), features.end());
      ++data.num_selected;
    }
    data.rows.push_back(
        Row({Value(i), Value(x), Value(std::move(features))}));
  }
  RELSERVE_ASSIGN_OR_RETURN(
      data.selected,
      Tensor::Create(Shape{data.num_selected, kFeatureDim}, nullptr));
  std::copy(picked.begin(), picked.end(), data.selected.data());
  return data;
}

ServingConfig SpillConfig(const std::string& spill_path) {
  ServingConfig config;
  config.buffer_pool_pages = kPoolPages;
  config.working_memory_bytes = 256LL << 20;
  config.memory_threshold_bytes = kThresholdBytes;
  config.block_rows = kBlock;
  config.block_cols = kBlock;
  config.num_threads = kSessionThreads;
  config.spill_path = spill_path;
  return config;
}

struct Setup {
  std::unique_ptr<ServingSession> session;
  std::map<int64_t, int64_t> reference;
};

// Session construction through the first timed query: table load,
// model registration, adaptive deploy and warm-up.
Result<Setup> BuildSession(const TableData& data,
                           const std::string& spill_path) {
  Setup s;
  s.session = std::make_unique<ServingSession>(SpillConfig(spill_path));
  RELSERVE_RETURN_NOT_OK(s.session->status());
  Schema schema({{"id", ValueType::kInt64},
                 {"x", ValueType::kFloat64},
                 {"features", ValueType::kFloatVector}});
  RELSERVE_ASSIGN_OR_RETURN(
      TableInfo * table,
      s.session->CreateTable("spill", schema, TableLayout::kColumnar));
  for (const Row& row : data.rows) {
    RELSERVE_RETURN_NOT_OK(table->columnar->AppendRow(row));
  }
  RELSERVE_RETURN_NOT_OK(table->columnar->SealActiveFragment());
  RELSERVE_ASSIGN_OR_RETURN(Model model,
                            BuildFFNN("wide", kDims, kModelSeed));
  RELSERVE_RETURN_NOT_OK(s.session->RegisterModel(std::move(model)));
  RELSERVE_RETURN_NOT_OK(
      s.session->Deploy("wide", ServingMode::kAdaptive, data.num_selected)
          .status());
  for (int i = 0; i < kWarmupQueries; ++i) {
    RELSERVE_ASSIGN_OR_RETURN(sql::StatementResult r,
                              sql::ExecuteStatement(s.session.get(),
                                                    kQuery));
    s.reference = ClassHistogram(r.query);
  }
  return s;
}

std::map<int64_t, int64_t> ArgmaxHistogram(const Tensor& scores) {
  std::map<int64_t, int64_t> hist;
  const int64_t n = scores.shape().dim(0);
  const int64_t c = scores.NumElements() / std::max<int64_t>(n, 1);
  for (int64_t r = 0; r < n; ++r) {
    int64_t best = 0;
    for (int64_t k = 1; k < c; ++k) {
      if (scores.data()[r * c + k] > scores.data()[r * c + best]) best = k;
    }
    ++hist[best];
  }
  return hist;
}

// The set-up reference must equal a direct PredictBatch on the same
// deployment, and that must agree with a UDF-centric deployment of the
// same weights within the repository's 1e-5 bound.
std::string CrossCheck(ServingSession* session, const TableData& data,
                       const std::map<int64_t, int64_t>& reference) {
  auto udf_model = BuildFFNN("wide_udf", kDims, kModelSeed);
  if (!udf_model.ok()) return udf_model.status().ToString();
  Status st = session->RegisterModel(std::move(*udf_model));
  if (st.ok()) {
    st = session->Deploy("wide_udf", ServingMode::kForceUdf,
                         data.num_selected)
             .status();
  }
  if (!st.ok()) return st.ToString();
  auto adaptive = session->PredictBatch("wide", data.selected);
  auto udf = session->PredictBatch("wide_udf", data.selected);
  if (!adaptive.ok()) return adaptive.status().ToString();
  if (!udf.ok()) return udf.status().ToString();
  auto a = adaptive->ToTensor(session->exec_context());
  auto u = udf->ToTensor(session->exec_context());
  if (!a.ok() || !u.ok() || a->NumElements() != u->NumElements()) {
    return "cross-check outputs unavailable";
  }
  double max_diff = 0;
  for (int64_t i = 0; i < a->NumElements(); ++i) {
    max_diff = std::max<double>(
        max_diff, std::abs(a->data()[i] - u->data()[i]));
  }
  if (!(max_diff <= kMaxScoreDiff)) {
    return "relational vs UDF max |diff| " + std::to_string(max_diff);
  }
  if (ArgmaxHistogram(*a) != reference) {
    return "SQL histogram differs from direct PredictBatch";
  }
  return "";
}

std::string HistText(const std::map<int64_t, int64_t>& h) {
  std::string s;
  for (const auto& [k, v] : h) {
    s += std::to_string(k) + ":" + std::to_string(v) + " ";
  }
  return s;
}

}  // namespace

RunResult RunSqlSpill(const RunOptions& options) {
  RunResult result;
  KeepWarm keep_warm(kKeepWarmThreads);
  auto data = MakeTable(options.seed);
  if (!data.ok()) {
    result.Fail(data.status().ToString());
    return result;
  }
  std::filesystem::create_directories(options.work_dir);
  const std::string spill_path = options.work_dir + "/sql_spill-" +
                                 std::to_string(::getpid()) + ".spill";

  std::vector<double> setup_s;
  Setup setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup = Setup();  // tear the previous session down first
    std::filesystem::remove(spill_path);
    const int64_t t0 = NowNs();
    auto built = BuildSession(*data, spill_path);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!built.ok()) {
      result.Fail("setup: " + built.status().ToString());
      return result;
    }
    setup = std::move(*built);
    if (setup.reference.empty()) {
      result.Fail("setup: empty reference histogram");
      return result;
    }
  }
  ServingSession* session = setup.session.get();
  // Holds the deployment alive; dropped before the session below.
  std::shared_ptr<const PhysicalPlan> plan;
  if (auto deployed = session->DeployedPhysicalPlan("wide"); deployed.ok()) {
    plan = std::move(*deployed);
  } else {
    result.Fail(deployed.status().ToString());
    return result;
  }
  ResetPeakRss();

  SpanRecorder spans(options.trace);
  const EngineSnapshot before =
      TakeEngineSnapshot(session, "spill", plan.get());
  const std::map<int64_t, int64_t>& reference = setup.reference;
  const int64_t loop_start = NowNs();
  SqlLoopOutput loop = RunSqlLoop(
      session, kQuery,
      loop_start + static_cast<int64_t>(options.seconds * 1e9), &spans,
      [&](const std::map<int64_t, int64_t>& hist) -> std::string {
        if (hist == reference) return "";
        return "histogram " + HistText(hist) + "!= reference " +
               HistText(reference);
      },
      [&] {
        return CountedNanos(TakeEngineSnapshot(session, "spill", plan.get()));
      });
  const EngineSnapshot after =
      TakeEngineSnapshot(session, "spill", plan.get());
  result.attempted = loop.attempted;
  result.failed = loop.failed;
  if (loop.failed > 0) result.Fail(loop.first_error);

  const LatencySummary lat = Summarize(loop.untraced_ms);
  const BlockSummary gated = SummarizeBlocks(loop.untraced_ms, kGatedBlocks);
  if (gated.blocks == 0) {
    result.Fail("too few samples for p90: " + std::to_string(lat.samples));
  }
  result.end_to_end.Add("qps", gated.per_s, "1/s", loop.attempted);
  result.end_to_end.Add("p50_ms", gated.p50, "ms", lat.samples);
  result.end_to_end.Add("p90_ms", gated.p90, "ms", lat.samples);
  // The peak of the query loop, before the checks below deploy more.
  AddSetupAndRss(setup_s, &result);

  if (options.trace) {
    const int64_t queries = loop.attempted;
    const EngineDelta delta = Diff(before, after, queries);
    AddEngineLayers(before, after, delta,
                    FfnnFlops(kDims, data->num_selected), session, &result);
    // PredictBatch alone, at the statement's batch size.
    AddPredictBatchTime(session, "wide", data->selected, 5, &spans, &result);
    const LatencySummary traced = Summarize(loop.traced_ms);
    MetricList& m = result.layers;
    m.Add("scan.selectivity",
          static_cast<double>(data->num_selected) / kRows, "ratio");
    m.Add("sql.parse_us", Median(loop.parse_us), "us",
          static_cast<int64_t>(loop.parse_us.size()));
    m.Add("sql.self_us_p50", Median(loop.self_us), "us",
          static_cast<int64_t>(loop.self_us.size()), /*subtractive=*/true);
    m.Add("sql.statement_p50_ms", lat.p50, "ms", lat.samples);
    m.Add("sql.statement_p90_ms", lat.p90, "ms", lat.samples);
    m.Add("bench.trace_overhead_frac",
          lat.p50 > 0 ? traced.p50 / lat.p50 - 1 : 0, "ratio",
          traced.samples);
    m.Add("bench.accounted_frac", Median(loop.accounted), "ratio",
          static_cast<int64_t>(loop.accounted.size()));
    AddTail(lat, &result);
    m.Add("bench.attempted", loop.attempted, "count");
    m.Add("bench.failed", loop.failed, "count");
    if (!spans.WriteJsonLines(options.span_file)) {
      result.Fail("cannot write " + options.span_file);
    }
  }

  const std::string cross = CrossCheck(session, *data, reference);
  if (!cross.empty()) result.Fail("cross-check: " + cross);

  plan.reset();
  setup = Setup();
  std::filesystem::remove(spill_path);
  return result;
}

}  // namespace perfbench
