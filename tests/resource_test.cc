#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "resource/memory_tracker.h"
#include "resource/thread_pool.h"

namespace relserve {
namespace {

TEST(MemoryTrackerTest, TracksUsage) {
  MemoryTracker t("test", 1000);
  EXPECT_TRUE(t.Allocate(400).ok());
  EXPECT_EQ(t.used_bytes(), 400);
  EXPECT_TRUE(t.Allocate(600).ok());
  EXPECT_EQ(t.used_bytes(), 1000);
  t.Release(1000);
  EXPECT_EQ(t.used_bytes(), 0);
}

TEST(MemoryTrackerTest, RejectsOverLimit) {
  MemoryTracker t("test", 1000);
  EXPECT_TRUE(t.Allocate(800).ok());
  Status s = t.Allocate(300);
  EXPECT_TRUE(s.IsOutOfMemory());
  // Failed allocation charges nothing.
  EXPECT_EQ(t.used_bytes(), 800);
  EXPECT_EQ(t.oom_count(), 1);
  // Exactly reaching the limit is allowed.
  EXPECT_TRUE(t.Allocate(200).ok());
}

TEST(MemoryTrackerTest, TracksPeak) {
  MemoryTracker t("test", MemoryTracker::kUnlimited);
  ASSERT_TRUE(t.Allocate(500).ok());
  t.Release(400);
  ASSERT_TRUE(t.Allocate(100).ok());
  EXPECT_EQ(t.peak_bytes(), 500);
  EXPECT_EQ(t.used_bytes(), 200);
}

TEST(MemoryTrackerTest, UnlimitedNeverOoms) {
  MemoryTracker t("test");
  EXPECT_TRUE(t.Allocate(int64_t{1} << 60).ok());
  t.Release(int64_t{1} << 60);
}

TEST(MemoryTrackerTest, ConcurrentAllocationsNeverExceedLimit) {
  constexpr int64_t kLimit = 10000;
  MemoryTracker t("test", kLimit);
  std::atomic<int64_t> granted{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 1000; ++j) {
        if (t.Allocate(7).ok()) granted.fetch_add(7);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(granted.load(), kLimit);
  EXPECT_EQ(t.used_bytes(), granted.load());
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(0, 10000, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  int64_t total = 0;
  pool.ParallelFor(0, 3, [&](int64_t lo, int64_t hi) {
    total += hi - lo;  // runs inline for tiny ranges
  });
  EXPECT_EQ(total, 3);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, ParallelForGrainControlsMorselSize) {
  ThreadPool pool(4);
  // grain=1 on a small range: morsel boundaries are deterministic, so
  // a range of 8 splits into exactly 8 single-item morsels.
  std::atomic<int> calls{0};
  std::atomic<int64_t> covered{0};
  pool.ParallelFor(
      0, 8,
      [&](int64_t lo, int64_t hi) {
        calls.fetch_add(1);
        covered.fetch_add(hi - lo);
        EXPECT_EQ(hi - lo, 1);
      },
      /*grain=*/1);
  EXPECT_EQ(calls.load(), 8);
  EXPECT_EQ(covered.load(), 8);
  // Default cost-based grain with a heavy work_hint also splits; with
  // the default hint of 1 the same range runs as one inline call.
  calls = 0;
  pool.ParallelFor(
      0, 8, [&](int64_t, int64_t) { calls.fetch_add(1); },
      /*grain=*/0, /*work_hint=*/ThreadPool::kMinWorkPerMorsel);
  EXPECT_EQ(calls.load(), 8);
  calls = 0;
  pool.ParallelFor(0, 8, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Regression: the old implementation waited on a pool-global pending
  // counter, so a body calling ParallelFor from a worker deadlocked
  // (its own still-running task kept pending > 0 forever).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(32 * 64);
  pool.ParallelFor(
      0, 32,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          pool.ParallelFor(
              0, 64,
              [&, i](int64_t jlo, int64_t jhi) {
                for (int64_t j = jlo; j < jhi; ++j) {
                  hits[i * 64 + j].fetch_add(1);
                }
              },
              /*grain=*/1);
        }
      },
      /*grain=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForFromWorkerTaskDoesNotDeadlock) {
  // Same regression via Submit: a submitted task running on a worker
  // thread issues a ParallelFor of its own.
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  pool.Submit([&] {
    pool.ParallelFor(
        0, 100,
        [&](int64_t lo, int64_t hi) { total.fetch_add(hi - lo); },
        /*grain=*/1);
  });
  pool.Wait();
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsStayIsolated) {
  // Two threads issue ParallelFor concurrently; each call must see
  // exactly its own range complete (per-call task groups, no shared
  // pending counter cross-talk).
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr int64_t kRange = 256;
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kRange);
        pool.ParallelFor(
            0, kRange,
            [&](int64_t lo, int64_t hi) {
              for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
            },
            /*grain=*/1);
        // The call returned: its whole range must be done exactly once.
        for (const auto& h : hits) {
          if (h.load() != 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace relserve
