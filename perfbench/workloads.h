// The three perfbench workloads. Each builds its own ServingSession
// anew (repeatedly, to time set-up), drives it from inputs
// generated from the seed, checks every output, and fills two metric
// lists: end-to-end metrics from untraced operations, and per-layer
// metrics from the traced run (counters read before and after, spans
// recorded around calls into the library's public functions).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Working directory inside the checkout (spill files, WAL).
  std::string work_dir;
  // Where the traced run writes its spans.
  std::string span_file;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few mismatches, for stderr
  MetricList end_to_end;
  MetricList layers;

  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// Every workload pins ServingConfig::num_threads (0 would mean
// hardware_concurrency); see README.md, "Parameters".
inline constexpr int kSessionThreads = 1;

// How many times set-up runs per invocation; setup_s is the median.
inline constexpr int kSetupRepeats = 9;

// Most blocks a gated latency sample is cut into (SummarizeBlocks).
inline constexpr int kGatedBlocks = 10;

RunResult RunWirePredict(const RunOptions& options);
RunResult RunSqlSpill(const RunOptions& options);
RunResult RunIngestMix(const RunOptions& options);

// Helpers shared by the workload files.

// Median of a small sample (0 when empty).
double Median(std::vector<double> values);

// Adds setup_s and rss_peak_mb to `result.end_to_end`.
void AddSetupAndRss(const std::vector<double>& setup_seconds,
                    RunResult* result);

// Adds bench.tail_ms / bench.tail_pct / bench.samples for the gated
// latency sample (milliseconds).
void AddTail(const LatencySummary& gated_ms, RunResult* result);

// Per-stage times of the compiled plan, by position: engine.stage<i>_us.
inline constexpr int kMaxReportedStages = 8;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
