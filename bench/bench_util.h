// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench prints the rows of one table/figure of the paper
// (EXPERIMENTS.md maps bench -> artifact). Scale factors default to a
// laptop-friendly geometry and can be overridden with environment
// variables:
//   RELSERVE_SCALE    — model scale for the large models (default 0.01)
//   RELSERVE_REPEATS  — timing repetitions (default 3)

#ifndef RELSERVE_BENCH_BENCH_UTIL_H_
#define RELSERVE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "kernels/cpu_features.h"
#include "kernels/micro_kernel.h"

namespace relserve {
namespace bench {

inline double ScaleFromEnv(double fallback = 0.01) {
  const char* s = std::getenv("RELSERVE_SCALE");
  return s != nullptr ? std::atof(s) : fallback;
}

inline int RepeatsFromEnv(int fallback = 3) {
  const char* s = std::getenv("RELSERVE_REPEATS");
  return s != nullptr ? std::atoi(s) : fallback;
}

// Times `fn` `repeats` times and returns the best (minimum) seconds,
// the standard steady-state metric for serving latency.
inline Result<double> TimeBest(int repeats,
                               const std::function<Status()>& fn) {
  double best = 1e100;
  for (int i = 0; i < repeats; ++i) {
    Timer timer;
    RELSERVE_RETURN_NOT_OK(fn());
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

// Formats a latency-or-OOM cell like the paper's Table 3.
inline std::string Cell(const Result<double>& seconds) {
  if (!seconds.ok()) {
    if (seconds.status().IsOutOfMemory()) return "OOM";
    return seconds.status().ToString();
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", *seconds);
  return buf;
}

inline std::string HumanBytes(int64_t bytes) {
  char buf[32];
  if (bytes >= (1LL << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(bytes) / (1LL << 30));
  } else if (bytes >= (1LL << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB",
                  static_cast<double>(bytes) / (1LL << 20));
  } else if (bytes >= (1LL << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB",
                  static_cast<double>(bytes) / (1LL << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lld B",
                  static_cast<long long>(bytes));
  }
  return buf;
}

// Fixed-width row printer for paper-style tables.
inline void PrintRow(const std::vector<std::string>& cells,
                     int width = 18) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline void PrintRule(size_t columns, int width = 18) {
  std::printf("%s\n",
              std::string(columns * static_cast<size_t>(width), '-')
                  .c_str());
}

// Linear-interpolation percentile over an unsorted sample set
// (`p` in [0, 100]); the serving benches report p50/p95/p99 tail
// latency with this. Returns 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  const double rank =
      (p / 100.0) * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

// Tail-latency digest of one benchmark configuration.
struct LatencySummary {
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  size_t count = 0;
};

inline LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = Percentile(samples, 50.0);
  s.p95 = Percentile(samples, 95.0);
  s.p99 = Percentile(samples, 99.0);
  return s;
}

// Standard BENCH JSON: one machine-readable line per measurement, so
// CI and plotting scripts can scrape benches without parsing the
// human-readable tables. Lines look like
//   BENCH_JSON {"bench":"parallel_scaling","threads":4,...}
// and are greppable with `grep ^BENCH_JSON`. Field values must
// already be valid JSON fragments (use JsonStr for strings).
inline std::string JsonStr(const std::string& s) {
  return "\"" + s + "\"";
}

inline std::string JsonNum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

inline void PrintBenchJson(
    const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string line = "BENCH_JSON {\"bench\":" + JsonStr(bench);
  for (const auto& [key, value] : fields) {
    line += ",\"" + key + "\":" + value;
  }
  // Every line self-describes the kernel substrate it was measured on:
  // the fp32 backend the dispatcher is actually using right now (one
  // SIMD level may run more than one tile) — so scraped results are
  // never compared across silently different backends.
  line += ",\"dispatch_isa\":" +
          JsonStr(kernels::internal::GetKernelBackend(
                      kernels::ActiveSimdLevel())
                      ->name);
  line += "}";
  std::printf("%s\n", line.c_str());
}

}  // namespace bench
}  // namespace relserve

#endif  // RELSERVE_BENCH_BENCH_UTIL_H_
