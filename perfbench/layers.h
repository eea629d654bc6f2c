// Outside-in layer accounting: snapshots of the counters the library
// already exposes (ExecStats, BufferPoolStats, the deployed plan's
// StageStats, the per-table columnar scan/gather stages, the working
// memory tracker), and the per-layer metrics derived from the
// difference of two snapshots over a known number of queries.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/physical_plan.h"
#include "serving/serving_session.h"
#include "workloads.h"

namespace perfbench {

struct StageCounters {
  relserve::StageKind kind = relserve::StageKind::kFlatten;
  int64_t invocations = 0;
  int64_t nanos = 0;
};

struct EngineSnapshot {
  relserve::ExecStats exec;
  relserve::BufferPoolStats pool;
  StageCounters scan;
  StageCounters gather;
  int64_t scan_rows = 0;
  int64_t scan_bytes = 0;
  std::vector<StageCounters> stages;
};

// `table` may be empty (no columnar stages); `plan` may be null.
EngineSnapshot TakeEngineSnapshot(relserve::ServingSession* session,
                                  const std::string& table,
                                  const relserve::PhysicalPlan* plan);

// Floating-point operations of one FFNN forward pass over `rows` rows:
// 2 * rows * sum(in * out) over the dense layers of `dims`.
double FfnnFlops(const std::vector<int64_t>& dims, int64_t rows);

// What one query did, between two snapshots taken around `queries`
// statements (or predict calls).
struct EngineDelta {
  int64_t queries = 0;
  double scan_us_per_query = 0;
  double gather_us_per_query = 0;
  double stages_us_per_query = 0;  // every compiled stage
  double matmul_us_per_query = 0;  // matmul stages only
  std::vector<double> stage_us;    // per invocation, by position
};
EngineDelta Diff(const EngineSnapshot& before, const EngineSnapshot& after,
                 int64_t queries);

// Nanoseconds the snapshot's counters hold for scan, gather and every
// compiled stage together.
int64_t CountedNanos(const EngineSnapshot& s);

// Times `calls` ServingSession::PredictBatch calls on `batch` alone,
// each inside an engine.predict_batch span; adds engine.predict_us
// (their median) and returns it.
double AddPredictBatchTime(relserve::ServingSession* session,
                           const std::string& model,
                           const relserve::Tensor& batch, int calls,
                           SpanRecorder* spans, RunResult* result);

// Adds the engine, kernels, buffer_pool, scan/gather and memory layer
// metrics. `flops_per_query` is exact (from layer shapes and rows).
void AddEngineLayers(const EngineSnapshot& before,
                     const EngineSnapshot& after, const EngineDelta& delta,
                     double flops_per_query,
                     relserve::ServingSession* session, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
