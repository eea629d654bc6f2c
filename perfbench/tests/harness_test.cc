// Self-tests of the perfbench harness helpers. They use no part of the
// relserve library. Build and run:
//
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target harness_test
//   ctest --test-dir .bench_build/perfbench

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileRule, NearestRank) {
  const std::vector<double> v = Ramp(10);
  EXPECT_EQ(Percentile(v, 50), 5);
  EXPECT_EQ(Percentile(v, 90), 9);
  EXPECT_EQ(Percentile(v, 100), 10);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(PercentileOf({3, 1, 2}, 50), 2);
}

TEST(PercentileRule, TenSamplesBeyondTheReportedPercentile) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10);
  EXPECT_EQ(SamplesBeyond(99, 90), 9);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10);
  EXPECT_EQ(SamplesBeyond(999, 99), 9);

  // 99 samples support p50 only: p90 would have 9 beyond it.
  LatencySummary s = Summarize(Ramp(99));
  EXPECT_EQ(s.tail_pct, 50);
  EXPECT_FALSE(SupportsGatedPercentiles(s));
  s = Summarize(Ramp(100));
  EXPECT_EQ(s.tail_pct, 90);
  EXPECT_EQ(s.tail, 90);
  EXPECT_TRUE(SupportsGatedPercentiles(s));
  s = Summarize(Ramp(1000));
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_EQ(s.tail, 990);
  s = Summarize(Ramp(10000));
  EXPECT_EQ(s.tail_pct, 99.9);
  EXPECT_EQ(s.samples, 10000);
  // Nothing supported at all below 20 samples.
  EXPECT_EQ(Summarize(Ramp(19)).tail_pct, 0);
}

TEST(BlockSummary, MedianOverBlocksIgnoresAMinorityOfBadBlocks) {
  // Ten blocks of 100: each block 1..100 ms, but three blocks run ten
  // times slower, as under a stretch of host interference.
  std::vector<double> v;
  for (int b = 0; b < 10; ++b) {
    for (double x : Ramp(100)) v.push_back(b % 3 == 1 ? 10 * x : x);
  }
  const BlockSummary s = SummarizeBlocks(v, 10);
  EXPECT_EQ(s.blocks, 10);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.p90, 90);
  EXPECT_NEAR(s.per_s, 100 / 5.05, 1e-9);  // 100 samples in 5050 ms
  // Blocks keep 100 samples each; fewer than 100 give none.
  EXPECT_EQ(SummarizeBlocks(v, 20).blocks, 10);
  EXPECT_EQ(SummarizeBlocks(Ramp(250), 10).blocks, 2);
  EXPECT_EQ(SummarizeBlocks(Ramp(99), 10).blocks, 0);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(7, 1000, 2.0);
  const std::vector<double> b = PoissonSchedule(7, 1000, 2.0);
  const std::vector<double> c = PoissonSchedule(8, 1000, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(SubSeed(7, 3), SubSeed(7, 3));
  EXPECT_NE(SubSeed(7, 3), SubSeed(7, 4));
}

TEST(PoissonSchedule, RateAndOrder) {
  const std::vector<double> due = PoissonSchedule(1, 5000, 10.0);
  // 50000 expected arrivals; a Poisson count is within 2% of that.
  EXPECT_NEAR(static_cast<double>(due.size()), 50000, 1000);
  for (size_t i = 1; i < due.size(); ++i) ASSERT_GT(due[i], due[i - 1]);
  EXPECT_GT(due.front(), 0);
  EXPECT_LT(due.back(), 10.0);
  // Exponential gaps: mean 1/rate, and about e^-1 of them above it.
  int above = 0;
  for (size_t i = 1; i < due.size(); ++i) above += due[i] - due[i - 1] > 2e-4;
  EXPECT_NEAR(above / static_cast<double>(due.size()), std::exp(-1.0), 0.01);
  EXPECT_TRUE(PoissonSchedule(1, 0, 10).empty());
}

TEST(OpenLoopClock, LatencyCountsFromDueTimeUnderAStalledGenerator) {
  std::vector<double> due;
  for (int i = 0; i < 10; ++i) due.push_back(i * 1e-3);  // every 1 ms
  OpenLoopClock clock(due);
  // The generator stalls until 50 ms, then sends everything it owes.
  EXPECT_EQ(clock.DueBy(0.05), 10u);
  for (size_t i = clock.next_unsent(); i < clock.DueBy(0.05); ++i) {
    clock.MarkSent(i, 0.05);
  }
  EXPECT_EQ(clock.next_unsent(), 10u);
  // The server answers each 1 ms after it was sent. Every request
  // carries the stall it waited through, not just the 1 ms service
  // time, and the generator's own lateness is reported.
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(clock.MarkDone(i, 0.051), 0.051 - i * 1e-3, 1e-12);
    EXPECT_NEAR(clock.lateness()[i], 0.050 - i * 1e-3, 1e-12);
  }
}

TEST(OpenLoopClock, OnTimeGeneratorSeesServiceTime) {
  OpenLoopClock clock({0.001, 0.002});
  EXPECT_EQ(clock.DueBy(0.0005), 0u);
  EXPECT_EQ(clock.DueBy(0.001), 1u);
  clock.MarkSent(0, 0.001);
  EXPECT_NEAR(clock.MarkDone(0, 0.0015), 0.0005, 1e-12);
  EXPECT_EQ(clock.lateness()[0], 0);
}

TEST(Backlog, FlagsOnlyAGrowingQueue) {
  std::vector<double> flat(1000, 1.0);
  EXPECT_FALSE(BacklogGrew(flat));
  std::vector<double> growing;
  for (int i = 0; i < 1000; ++i) growing.push_back(1.0 + i);
  EXPECT_TRUE(BacklogGrew(growing));
  EXPECT_FALSE(BacklogGrew(std::vector<double>(100, 1.0)));  // too few
}

Span S(int64_t start, int64_t end, int64_t parent = -1) {
  return Span{"s", start, end, parent, 0};
}

TEST(SelfTime, ParentMinusTheUnionOfItsChildren) {
  const Span parent = S(0, 100);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  EXPECT_EQ(SelfTimeNs(parent, {S(10, 20), S(30, 50)}), 70);
  // Overlapping children are counted once.
  EXPECT_EQ(SelfTimeNs(parent, {S(10, 40), S(30, 60)}), 50);
  // Nested and touching intervals.
  EXPECT_EQ(SelfTimeNs(parent, {S(10, 60), S(20, 30), S(60, 70)}), 40);
  // Children are clipped to the parent.
  EXPECT_EQ(SelfTimeNs(parent, {S(-50, 10), S(90, 500)}), 80);
  EXPECT_EQ(SelfTimeNs(parent, {S(200, 300)}), 100);
  EXPECT_EQ(SelfTimeNs(parent, {S(0, 100)}), 0);
}

TEST(SelfTime, FromRecordedSpans) {
  SpanRecorder spans(true);
  const int64_t root = spans.Record("request", -1, 1, 1000, 11000);
  spans.Record("child", root, 1, 2000, 4000);
  spans.Record("child", root, 1, 6000, 7000);
  spans.Record("request", -1, 2, 20000, 21000);
  const std::vector<Span> all = spans.Snapshot();
  EXPECT_EQ(SelfTimesUs(all, "request"), (std::vector<double>{7, 1}));
  EXPECT_EQ(DurationsUs(all, "child"), (std::vector<double>{2, 1}));

  SpanRecorder off(false);
  EXPECT_EQ(off.Open("x", -1, 0), -1);
  off.Close(-1);
  EXPECT_TRUE(off.Snapshot().empty());
}

TEST(SelfTime, SubtractiveArithmetic) {
  EXPECT_EQ(Subtractive(10, {3, 4}), 3);
  EXPECT_EQ(Subtractive(10, {}), 10);
  // Parts measured under other conditions may exceed the whole; the
  // result is reported as is, not clamped.
  EXPECT_EQ(Subtractive(5, {3, 4}), -2);
}

TEST(ResultLine, CarriesEveryMetric) {
  MetricList m;
  m.Add("p50_ms", 1.25, "ms", 100);
  m.Add("qps", 1e5 / 3, "1/s");
  const std::string json = ResultJson(true, 10, 1, m);
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"qps\": {\"value\": 33333.33333, \"unit\": \"1/s\"}}}");
  EXPECT_NE(FormatMetricLines(m).find("samples=100"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
