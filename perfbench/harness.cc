#include "harness.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform01() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  SplitMix64 mix(seed * 0x100000001B3ULL + purpose);
  return mix.Next();
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> due;
  if (rate_per_s <= 0 || duration_s <= 0) return due;
  due.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  SplitMix64 rng(seed);
  double t = 0;
  while (true) {
    // Inverse-CDF exponential gap; 1 - u is in (0, 1].
    t += -std::log(1.0 - rng.Uniform01()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

namespace {

// Nearest rank, 1-based. The epsilon keeps 99.9% of 10000 at 9990
// rather than letting float rounding push it to 9991.
int64_t Rank(int64_t n, double p) {
  const int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[Rank(static_cast<int64_t>(sorted.size()), p) - 1];
}

double PercentileOf(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return Percentile(values, p);
}

int64_t SamplesBeyond(int64_t n, double p) {
  return n <= 0 ? 0 : n - Rank(n, p);
}

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  std::sort(values.begin(), values.end());
  s.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return s;
  s.p50 = Percentile(values, 50);
  s.p90 = Percentile(values, 90);
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(s.samples, p) < 10) break;
    s.tail_pct = p;
    s.tail = Percentile(values, p);
  }
  return s;
}

bool SupportsGatedPercentiles(const LatencySummary& s) {
  return s.tail_pct >= 90;
}

BlockSummary SummarizeBlocks(const std::vector<double>& ms_in_order,
                             int max_blocks) {
  constexpr size_t kMinBlockSamples = 100;
  BlockSummary out;
  const size_t n = ms_in_order.size();
  if (n < kMinBlockSamples) return out;
  out.blocks = static_cast<int>(
      std::min<size_t>(n / kMinBlockSamples, std::max(1, max_blocks)));
  std::vector<double> p50, p90, per_s;
  for (int b = 0; b < out.blocks; ++b) {
    std::vector<double> block(ms_in_order.begin() + n * b / out.blocks,
                              ms_in_order.begin() + n * (b + 1) / out.blocks);
    double sum_ms = 0;
    for (double v : block) sum_ms += v;
    per_s.push_back(sum_ms > 0 ? block.size() / (sum_ms / 1e3) : 0);
    const LatencySummary s = Summarize(std::move(block));
    p50.push_back(s.p50);
    p90.push_back(s.p90);
  }
  out.p50 = PercentileOf(p50, 50);
  out.p90 = PercentileOf(p90, 50);
  out.per_s = PercentileOf(per_s, 50);
  return out;
}

OpenLoopClock::OpenLoopClock(std::vector<double> due)
    : due_(std::move(due)) {
  lateness_.reserve(due_.size());
}

size_t OpenLoopClock::DueBy(double now_s) const {
  size_t i = next_;
  while (i < due_.size() && due_[i] <= now_s) ++i;
  return i;
}

void OpenLoopClock::MarkSent(size_t i, double now_s) {
  next_ = i + 1;
  lateness_.push_back(std::max(0.0, now_s - due_[i]));
}

bool BacklogGrew(const std::vector<double>& by_due_order) {
  const size_t n = by_due_order.size();
  if (n < 200) return false;
  std::vector<double> first(by_due_order.begin(),
                            by_due_order.begin() + n / 2);
  std::vector<double> second(by_due_order.begin() + n / 2,
                             by_due_order.end());
  const LatencySummary a = Summarize(std::move(first));
  const LatencySummary b = Summarize(std::move(second));
  // A queue that grows without bound makes late requests wait for
  // every earlier one; noise does not double the median.
  return b.p50 > 2.0 * a.p50 && b.p90 > 2.0 * a.p90;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanRecorder::Open(const char* name, int64_t parent,
                           uint64_t request) {
  if (!enabled_) return -1;
  return Record(name, parent, request, NowNs(), 0);
}

void SpanRecorder::Close(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t SpanRecorder::Record(const char* name, int64_t parent,
                             uint64_t request, int64_t start_ns,
                             int64_t end_ns) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  char line[256];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"parent\":%lld,\"request\":%llu}\n",
                  s.name, (s.start_ns - base) / 1e3,
                  (s.end_ns - base) / 1e3,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  return static_cast<bool>(out);
}

int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> iv;
  iv.reserve(children.size());
  for (const Span& c : children) {
    const int64_t lo = std::max(c.start_ns, parent.start_ns);
    const int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return (parent.end_ns - parent.start_ns) - covered;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<std::vector<Span>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back(s);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != name || spans[i].end_ns == 0) {
      continue;
    }
    out.push_back(SelfTimeNs(spans[i], children[i]) / 1e3);
  }
  return out;
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::string(s.name) == name && s.end_ns != 0) {
      out.push_back((s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

double Subtractive(double whole, const std::vector<double>& parts) {
  double rest = whole;
  for (double p : parts) rest -= p;
  return rest;
}

void MetricList::Add(const std::string& name, double value,
                     const std::string& unit, int64_t samples,
                     bool subtractive) {
  metrics_.push_back(Metric{name, value, unit, samples, subtractive});
}

const Metric* MetricList::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

// Full precision, and never a non-number in JSON.
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

std::string FormatMetricLines(const MetricList& metrics) {
  std::string out;
  for (const Metric& m : metrics.all()) {
    out += "metric " + m.name + " = " + Number(m.value) + " " + m.unit;
    if (m.samples >= 0) out += "  samples=" + std::to_string(m.samples);
    if (m.subtractive) out += "  (subtractive)";
    out += "\n";
  }
  return out;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

CpuTimes ProcessCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuTimes t;
  t.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6;
  t.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
  return t;
}

double PeakRssMb() {
  // VmHWM honours ResetPeakRss; ru_maxrss does not.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

KeepWarm::KeepWarm(int threads) {
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

KeepWarm::~KeepWarm() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

double KeepWarm::CpuSeconds() const {
  double total = 0;
  for (const std::thread& t : threads_) {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(const_cast<std::thread&>(t).native_handle(),
                              &clock) == 0 &&
        clock_gettime(clock, &ts) == 0) {
      total += ts.tv_sec + ts.tv_nsec / 1e9;
    }
  }
  return total;
}

bool IsolateCallingThread() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return false;
  }
  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;
  cpu_set_t own;
  CPU_ZERO(&own);
  CPU_SET(first, &own);
  cpu_set_t rest = allowed;
  CPU_CLR(first, &rest);
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid =
        static_cast<pid_t>(std::stol(entry.path().filename().string()));
    if (tid != self) sched_setaffinity(tid, sizeof(rest), &rest);
  }
  return sched_setaffinity(self, sizeof(own), &own) == 0;
}

}  // namespace perfbench
