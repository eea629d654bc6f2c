// relbench: runs one perfbench workload and prints every metric.
//
//   relbench --workload <wire_predict|sql_spill|ingest_mix> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
//            [--span-file <path>]
//
// Untraced (--trace 0) the result line carries the end-to-end
// metrics; traced (--trace 1) it carries the per-layer metrics, and
// the spans go to --span-file. The last line of standard output is
// always the JSON result; human-readable metric lines, with the
// sample count behind each percentile, come before it. Exit code 0
// means the run completed (correct or not, as the result says);
// anything else means no result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every end-to-end metric.
const MetricSpec kEndToEnd[] = {
    {"qps", "1/s"},        {"p50_ms", "ms"},       {"p90_ms", "ms"},
    {"setup_s", "s"},      {"rss_peak_mb", "MiB"},
};

// Every traced run reports every layer metric; a layer a workload
// does not use reads 0, which is the prediction ("stays flat").
const MetricSpec kLayers[] = {
    {"net.cpu_us_per_req", "us"},
    {"net.sys_us_per_req", "us"},
    {"net.bytes_per_req", "B"},
    {"net.self_us_p50", "us"},
    {"net.protocol_errors", "count"},
    {"serving.mean_batch_rows", "rows"},
    {"serving.batches", "count"},
    {"serving.shed", "count"},
    {"serving.retries", "count"},
    {"serving.self_us_p50", "us"},
    {"engine.predict_us", "us"},
    {"engine.stage0_us", "us"},
    {"engine.stage1_us", "us"},
    {"engine.stage2_us", "us"},
    {"engine.stage3_us", "us"},
    {"engine.stage4_us", "us"},
    {"engine.stage5_us", "us"},
    {"engine.stage6_us", "us"},
    {"engine.stage7_us", "us"},
    {"engine.assembles_per_query", "count"},
    {"engine.chunkings_per_query", "count"},
    {"engine.repr_fallbacks", "count"},
    {"kernels.flops_per_query", "flop"},
    {"kernels.matmul_gflops", "GFLOP/s"},
    {"buffer_pool.hit_ratio", "ratio"},
    {"buffer_pool.misses_per_query", "count"},
    {"buffer_pool.evictions_per_query", "count"},
    {"buffer_pool.prefetch_useful_ratio", "ratio"},
    {"buffer_pool.io_failures", "count"},
    {"scan.us_per_query", "us"},
    {"gather.us_per_query", "us"},
    {"scan.rows_per_query", "rows"},
    {"scan.bytes_per_query", "B"},
    {"scan.selectivity", "ratio"},
    {"sql.parse_us", "us"},
    {"sql.self_us_p50", "us"},
    {"sql.statement_p50_ms", "ms"},
    {"sql.statement_p90_ms", "ms"},
    {"wal.bytes_per_commit", "B"},
    {"wal.write_amp", "ratio"},
    {"wal.sync_us_p50", "us"},
    {"mvcc.apply_us_p50", "us"},
    {"mvcc.physical_per_live", "ratio"},
    {"mvcc.commits", "count"},
    {"mvcc.commit_p50_ms", "ms"},
    {"mvcc.commit_p90_ms", "ms"},
    {"memory.working_peak_mb", "MiB"},
    {"memory.oom_count", "count"},
    {"bench.tail_ms", "ms"},
    {"bench.tail_pct", "%"},
    {"bench.samples", "count"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.accounted_frac", "ratio"},
    {"bench.backlog", "count"},
    {"bench.open_p50_ms", "ms"},
    {"bench.open_p90_ms", "ms"},
    {"bench.attempted", "count"},
    {"bench.failed", "count"},
};

// Orders `measured` by `specs`, filling metrics the workload did not
// touch with 0. A measured name outside `specs` is a harness bug.
template <size_t N>
bool Canonical(const MetricSpec (&specs)[N], const MetricList& measured,
               MetricList* out) {
  for (const Metric& m : measured.all()) {
    bool known = false;
    for (const MetricSpec& s : specs) known |= m.name == s.name;
    if (!known) {
      std::fprintf(stderr, "relbench: unlisted metric %s\n",
                   m.name.c_str());
      return false;
    }
  }
  for (const MetricSpec& s : specs) {
    const Metric* m = measured.Find(s.name);
    if (m != nullptr) {
      out->Add(s.name, m->value, s.unit, m->samples, m->subtractive);
    } else {
      out->Add(s.name, 0, s.unit);
    }
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: relbench --workload <wire_predict|sql_spill|"
               "ingest_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--span-file <path>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  options.work_dir = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--span-file") {
      options.span_file = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || options.seconds <= 0) {
    return Usage();
  }
  if (options.span_file.empty()) {
    options.span_file = options.work_dir + "/spans-" + workload + "-" +
                        std::to_string(options.seed) + ".jsonl";
  }

  RunResult result;
  if (workload == "wire_predict") {
    result = RunWirePredict(options);
  } else if (workload == "sql_spill") {
    result = RunSqlSpill(options);
  } else if (workload == "ingest_mix") {
    result = RunIngestMix(options);
  } else {
    std::fprintf(stderr, "relbench: unknown workload '%s'\n",
                 workload.c_str());
    return Usage();
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "relbench: check failed: %s\n", e.c_str());
  }

  MetricList e2e;
  MetricList layers;
  if (!Canonical(kEndToEnd, result.end_to_end, &e2e) ||
      !Canonical(kLayers, result.layers, &layers)) {
    return 1;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("attempted %lld failed %lld correct %s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.correct ? "true" : "false");
  std::printf("%s", FormatMetricLines(e2e).c_str());
  if (options.trace) {
    std::printf("%s", FormatMetricLines(layers).c_str());
    std::printf("spans written to %s\n", options.span_file.c_str());
  }
  std::printf("%s\n", ResultJson(result.correct, result.attempted,
                                 result.failed,
                                 options.trace ? layers : e2e)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
