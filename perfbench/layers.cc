#include "layers.h"

#include <algorithm>

namespace perfbench {

using relserve::StageKind;

EngineSnapshot TakeEngineSnapshot(relserve::ServingSession* session,
                                  const std::string& table,
                                  const relserve::PhysicalPlan* plan) {
  EngineSnapshot s;
  relserve::ExecContext* ctx = session->exec_context();
  s.exec = ctx->stats;
  s.pool = ctx->buffer_pool->stats();
  if (!table.empty()) {
    auto* stages = session->ColumnarStages(table);
    s.scan = {StageKind::kColumnarScan, stages->scan.stats.invocations.load(),
              stages->scan.stats.nanos.load()};
    s.scan_rows = stages->scan.stats.rows.load();
    s.scan_bytes = stages->scan.stats.bytes.load();
    s.gather = {StageKind::kColumnarGather,
                stages->gather.stats.invocations.load(),
                stages->gather.stats.nanos.load()};
  }
  if (plan != nullptr) {
    for (const auto& stage : plan->stages()) {
      s.stages.push_back({stage->kind, stage->stats.invocations.load(),
                          stage->stats.nanos.load()});
    }
  }
  return s;
}

double FfnnFlops(const std::vector<int64_t>& dims, int64_t rows) {
  double flops = 0;
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    flops += 2.0 * static_cast<double>(rows) *
             static_cast<double>(dims[i] * dims[i + 1]);
  }
  return flops;
}

namespace {

bool IsMatMul(StageKind kind) {
  return kind == StageKind::kMatMul || kind == StageKind::kMatMulTopK ||
         kind == StageKind::kBlockMatMul;
}

double PerQuery(double total, int64_t queries) {
  return queries > 0 ? total / static_cast<double>(queries) : 0;
}

}  // namespace

EngineDelta Diff(const EngineSnapshot& before, const EngineSnapshot& after,
                 int64_t queries) {
  EngineDelta d;
  d.queries = queries;
  d.scan_us_per_query =
      PerQuery((after.scan.nanos - before.scan.nanos) / 1e3, queries);
  d.gather_us_per_query =
      PerQuery((after.gather.nanos - before.gather.nanos) / 1e3, queries);
  double stages_ns = 0;
  double matmul_ns = 0;
  const size_t n = std::min(before.stages.size(), after.stages.size());
  for (size_t i = 0; i < n; ++i) {
    const double ns = static_cast<double>(after.stages[i].nanos -
                                          before.stages[i].nanos);
    const int64_t calls =
        after.stages[i].invocations - before.stages[i].invocations;
    stages_ns += ns;
    if (IsMatMul(after.stages[i].kind)) matmul_ns += ns;
    d.stage_us.push_back(calls > 0 ? ns / 1e3 / calls : 0);
  }
  d.stages_us_per_query = PerQuery(stages_ns / 1e3, queries);
  d.matmul_us_per_query = PerQuery(matmul_ns / 1e3, queries);
  return d;
}

int64_t CountedNanos(const EngineSnapshot& s) {
  int64_t total = s.scan.nanos + s.gather.nanos;
  for (const StageCounters& stage : s.stages) total += stage.nanos;
  return total;
}

double AddPredictBatchTime(relserve::ServingSession* session,
                           const std::string& model,
                           const relserve::Tensor& batch, int calls,
                           SpanRecorder* spans, RunResult* result) {
  std::vector<double> us;
  for (int i = 0; i < calls; ++i) {
    const int64_t id = spans->Open("engine.predict_batch", -1, 0);
    const int64_t t0 = NowNs();
    auto out = session->PredictBatch(model, batch);
    us.push_back((NowNs() - t0) / 1e3);
    spans->Close(id);
    if (!out.ok()) {
      result->Fail(out.status().ToString());
      break;
    }
  }
  const double median = Median(us);
  result->layers.Add("engine.predict_us", median, "us",
                     static_cast<int64_t>(us.size()));
  return median;
}

void AddEngineLayers(const EngineSnapshot& before,
                     const EngineSnapshot& after, const EngineDelta& delta,
                     double flops_per_query,
                     relserve::ServingSession* session, RunResult* result) {
  MetricList& m = result->layers;
  const int64_t q = delta.queries;
  for (size_t i = 0;
       i < delta.stage_us.size() && i < static_cast<size_t>(kMaxReportedStages);
       ++i) {
    m.Add("engine.stage" + std::to_string(i) + "_us", delta.stage_us[i],
          "us");
  }
  m.Add("engine.assembles_per_query",
        PerQuery(after.exec.assembles - before.exec.assembles, q), "count");
  m.Add("engine.chunkings_per_query",
        PerQuery(after.exec.chunkings - before.exec.chunkings, q), "count");
  m.Add("engine.repr_fallbacks",
        after.exec.repr_fallbacks - before.exec.repr_fallbacks, "count");

  m.Add("kernels.flops_per_query", flops_per_query, "flop");
  m.Add("kernels.matmul_gflops",
        delta.matmul_us_per_query > 0
            ? flops_per_query / (delta.matmul_us_per_query * 1e3)
            : 0,
        "GFLOP/s");

  const int64_t hits = after.pool.hits - before.pool.hits;
  const int64_t misses = after.pool.misses - before.pool.misses;
  const int64_t issued =
      after.pool.prefetches_issued - before.pool.prefetches_issued;
  const int64_t useful =
      after.pool.prefetch_useful - before.pool.prefetch_useful;
  m.Add("buffer_pool.hit_ratio",
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0,
        "ratio");
  m.Add("buffer_pool.misses_per_query", PerQuery(misses, q), "count");
  m.Add("buffer_pool.evictions_per_query",
        PerQuery(after.pool.evictions - before.pool.evictions, q), "count");
  m.Add("buffer_pool.prefetch_useful_ratio",
        issued > 0 ? static_cast<double>(useful) / issued : 0, "ratio");
  m.Add("buffer_pool.io_failures",
        (after.pool.prefetch_failed - before.pool.prefetch_failed) +
            (after.pool.writeback_failures -
             before.pool.writeback_failures),
        "count");

  if (after.scan.invocations > before.scan.invocations) {
    const double rows = PerQuery(after.scan_rows - before.scan_rows, q);
    m.Add("scan.us_per_query", delta.scan_us_per_query, "us");
    m.Add("gather.us_per_query", delta.gather_us_per_query, "us");
    m.Add("scan.rows_per_query", rows, "rows");
    m.Add("scan.bytes_per_query",
          PerQuery(after.scan_bytes - before.scan_bytes, q), "B");
  }

  m.Add("memory.working_peak_mb",
        session->working_memory()->peak_bytes() / (1024.0 * 1024.0), "MiB");
  m.Add("memory.oom_count", session->working_memory()->oom_count(),
        "count");
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void AddSetupAndRss(const std::vector<double>& setup_seconds,
                    RunResult* result) {
  result->end_to_end.Add("setup_s", Median(setup_seconds), "s",
                         static_cast<int64_t>(setup_seconds.size()));
  result->end_to_end.Add("rss_peak_mb", PeakRssMb(), "MiB");
}

void AddTail(const LatencySummary& gated_ms, RunResult* result) {
  result->layers.Add("bench.tail_ms", gated_ms.tail, "ms", gated_ms.samples);
  result->layers.Add("bench.tail_pct", gated_ms.tail_pct, "%");
  result->layers.Add("bench.samples", gated_ms.samples, "count");
}

}  // namespace perfbench
