// Concurrency tests for the serving front-end: mixed multi-threaded
// traffic through the RequestScheduler must produce bit-identical
// results to the serial path, shedding must be typed (DeadlineExceeded
// / Unavailable, never a hang or a lost completion), every request's
// callback must fire exactly once, and redeploying a model mid-flight
// must not invalidate in-flight queries (the dangling-Deployment
// use-after-free regression).
//
// This binary is part of scripts/tsan_check.sh — every assertion here
// also runs under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/completion_scope.h"
#include "common/idle_spin.h"
#include "engine/external_runtime.h"
#include "engine/physical_plan.h"
#include "graph/model.h"
#include "serving/request_scheduler.h"
#include "serving/serving_session.h"
#include "storage/physical_block_index.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

ServingConfig SmallConfig() {
  ServingConfig config;
  config.buffer_pool_pages = 256;
  config.working_memory_bytes = 64LL << 20;
  config.memory_threshold_bytes = 1LL << 20;
  config.block_rows = 16;
  config.block_cols = 16;
  config.num_threads = 2;
  return config;
}

class ServingConcurrencyTest : public ::testing::Test {
 protected:
  ServingConcurrencyTest() : session_(SmallConfig()) {}

  void LoadModel(const std::string& name = "m") {
    auto model = BuildFFNN(name, {16, 32, 4}, 3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());
    // One plain Deploy: every micro-batch size runs the same prepared
    // plan, which is what makes coalescing bit-transparent.
    ASSERT_TRUE(session_.Deploy(name, ServingMode::kForceUdf, 8).ok());
  }

  Result<Tensor> DirectRow(const std::string& model,
                           const Tensor& row) {
    RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                              session_.PredictBatch(model, row));
    return out.ToTensor(session_.exec_context());
  }

  ServingSession session_;
};

TEST_F(ServingConcurrencyTest, MixedTrafficMatchesSerial) {
  LoadModel();
  ASSERT_TRUE(session_.EnableExactCache("m").ok());

  // Precompute the serial ground truth for every distinct row.
  constexpr int kRows = 24;
  std::vector<Tensor> rows;
  std::vector<Tensor> expected;
  for (int i = 0; i < kRows; ++i) {
    auto row = workloads::GenBatch(1, Shape{16}, 100 + i);
    ASSERT_TRUE(row.ok());
    auto truth = DirectRow("m", *row);
    ASSERT_TRUE(truth.ok());
    rows.push_back(std::move(*row));
    expected.push_back(std::move(*truth));
  }

  SchedulerConfig config;
  config.max_batch_rows = 16;
  config.max_delay_us = 200;
  config.num_workers = 2;
  RequestScheduler scheduler(&session_, config);

  // Four client threads mixing plain and cache-tier traffic over the
  // same rows, plus one thread redeploying the model mid-flight.
  constexpr int kClients = 4;
  constexpr int kPerClient = 3 * kRows;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int r = (c * 7 + i) % kRows;
        const bool cached = (c + i) % 2 == 0;
        auto result =
            cached ? scheduler.PredictWithCache("m", rows[r])
                   : scheduler.PredictBatch("m", rows[r]);
        if (!result.ok()) {
          ++failures;
          continue;
        }
        if (result->MaxAbsDiff(expected[r]) != 0.0f) ++mismatches;
      }
    });
  }
  std::thread redeployer([&] {
    for (int i = 0; i < 10; ++i) {
      // Identical mode/batch => identical plan => identical bits; the
      // point is that the *old* Deployment object is discarded while
      // queries still hold it.
      ASSERT_TRUE(
          session_.Deploy("m", ServingMode::kForceUdf, 8).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& t : clients) t.join();
  redeployer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted.load(), kClients * kPerClient);
  EXPECT_EQ(stats.shed_queue_full.load(), 0);
  EXPECT_EQ(stats.shed_deadline.load(), 0);
}

TEST_F(ServingConcurrencyTest, RedeployMidFlightKeepsOldPlanAlive) {
  LoadModel();
  auto batch = workloads::GenBatch(8, Shape{16}, 7);
  ASSERT_TRUE(batch.ok());
  auto expected = DirectRow("m", *batch);
  ASSERT_TRUE(expected.ok());

  // Hammer Predict and Deploy/DeployAot concurrently: before
  // GetDeployment returned shared_ptrs, the redeploy freed the
  // compiled weights out from under in-flight queries.
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < 3; ++c) {
    readers.emplace_back([&] {
      while (!stop) {
        auto got = DirectRow("m", *batch);
        if (!got.ok() || got->MaxAbsDiff(*expected) != 0.0f) ++bad;
      }
    });
  }
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(session_.Deploy("m", ServingMode::kForceUdf, 8).ok());
    ASSERT_TRUE(session_.DeployAot("m", {4, 8, 16}).ok());
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(ServingConcurrencyTest, RedeploySwapsCompiledPlanAtomically) {
  LoadModel();
  auto batch = workloads::GenBatch(8, Shape{16}, 7);
  ASSERT_TRUE(batch.ok());
  auto expected = DirectRow("m", *batch);
  ASSERT_TRUE(expected.ok());

  // Readers run inference and render EXPLAIN ANALYZE off the deployed
  // PhysicalPlan while a writer swaps compiled plans (alternating
  // reprs, so the stage pipeline genuinely changes shape underneath).
  // The shared_ptr returned by DeployedPhysicalPlan must keep
  // each snapshot — stages, resident weights, stats — alive through
  // the swap.
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < 2; ++c) {
    readers.emplace_back([&] {
      while (!stop) {
        auto got = DirectRow("m", *batch);
        if (!got.ok() || got->MaxAbsDiff(*expected) > 1e-5f) ++bad;
      }
    });
  }
  readers.emplace_back([&] {
    while (!stop) {
      auto plan = session_.DeployedPhysicalPlan("m");
      if (!plan.ok()) {
        ++bad;
        continue;
      }
      const std::string text = (*plan)->ToString(/*analyze=*/true);
      if (text.find("PhysicalPlan m:") == std::string::npos) ++bad;
    }
  });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session_.Deploy("m", ServingMode::kForceUdf, 8).ok());
    ASSERT_TRUE(
        session_.Deploy("m", ServingMode::kForceRelational, 8).ok());
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(ServingConcurrencyTest, ExpiredDeadlineShedsTyped) {
  LoadModel();
  SchedulerConfig config;
  config.start_paused = true;
  RequestScheduler scheduler(&session_, config);

  auto row = workloads::GenBatch(1, Shape{16}, 1);
  ASSERT_TRUE(row.ok());
  // Negative deadline: expired before a worker can take it.
  auto doomed = scheduler.SubmitBatch("m", *row, -1);
  auto fine = scheduler.SubmitBatch("m", *row);
  scheduler.Resume();

  auto doomed_result = doomed.get();
  ASSERT_FALSE(doomed_result.ok());
  EXPECT_TRUE(doomed_result.status().IsDeadlineExceeded())
      << doomed_result.status();
  auto fine_result = fine.get();
  EXPECT_TRUE(fine_result.ok()) << fine_result.status();
  EXPECT_EQ(scheduler.stats().shed_deadline.load(), 1);
}

TEST_F(ServingConcurrencyTest, ZeroDeadlineMeansNoDeadline) {
  LoadModel();
  SchedulerConfig config;
  config.start_paused = true;
  RequestScheduler scheduler(&session_, config);

  auto row = workloads::GenBatch(1, Shape{16}, 4);
  ASSERT_TRUE(row.ok());
  // Deadline 0 is "no deadline", not "due immediately": the request
  // sits queued far longer than any batching window and must still
  // execute, not shed.
  auto pending = scheduler.SubmitBatch("m", *row, /*deadline_us=*/0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  scheduler.Resume();
  auto result = pending.get();
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(scheduler.stats().shed_deadline.load(), 0);
}

TEST_F(ServingConcurrencyTest, TinyDeadlineExpiresWhileQueued) {
  LoadModel();
  SchedulerConfig config;
  config.start_paused = true;
  RequestScheduler scheduler(&session_, config);

  auto row = workloads::GenBatch(1, Shape{16}, 5);
  ASSERT_TRUE(row.ok());
  // A positive-but-tiny deadline that lapses between admission and
  // dispatch (the scheduler is paused through it) must shed with
  // DeadlineExceeded at dispatch, never execute late.
  auto doomed = scheduler.SubmitBatch("m", *row, /*deadline_us=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  scheduler.Resume();
  auto result = doomed.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  EXPECT_EQ(scheduler.stats().shed_deadline.load(), 1);
}

TEST_F(ServingConcurrencyTest, UndeployBetweenAdmissionAndDispatch) {
  LoadModel();
  SchedulerConfig config;
  config.start_paused = true;
  RequestScheduler scheduler(&session_, config);

  auto row = workloads::GenBatch(1, Shape{16}, 6);
  ASSERT_TRUE(row.ok());
  // Admit while deployed, undeploy before a worker takes it: the
  // queued request must resolve with a typed NotFound — never a crash,
  // never a hang.
  auto orphaned = scheduler.SubmitBatch("m", *row);
  ASSERT_TRUE(session_.Undeploy("m").ok());
  scheduler.Resume();
  auto result = orphaned.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status();

  // Still NotFound on a fresh submission...
  auto still_gone = scheduler.SubmitBatch("m", *row).get();
  ASSERT_FALSE(still_gone.ok());
  EXPECT_TRUE(still_gone.status().IsNotFound());

  // ...and redeploying brings the model back without a new scheduler.
  ASSERT_TRUE(session_.Deploy("m", ServingMode::kForceUdf, 8).ok());
  auto back = scheduler.SubmitBatch("m", *row).get();
  EXPECT_TRUE(back.ok()) << back.status();

  // Undeploying a model that has nothing deployed is a typed NotFound.
  EXPECT_TRUE(session_.Undeploy("nope").IsNotFound());
}

TEST_F(ServingConcurrencyTest, FullAdmissionQueueShedsTyped) {
  LoadModel();
  SchedulerConfig config;
  config.start_paused = true;  // nothing drains until Resume
  config.queue_capacity = 2;
  RequestScheduler scheduler(&session_, config);

  auto row = workloads::GenBatch(1, Shape{16}, 2);
  ASSERT_TRUE(row.ok());
  auto a = scheduler.SubmitBatch("m", *row);
  auto b = scheduler.SubmitBatch("m", *row);
  auto shed = scheduler.SubmitBatch("m", *row);

  // The third submission must shed immediately — the queue holds two.
  auto shed_result = shed.get();
  ASSERT_FALSE(shed_result.ok());
  EXPECT_TRUE(shed_result.status().IsUnavailable())
      << shed_result.status();
  EXPECT_EQ(scheduler.stats().shed_queue_full.load(), 1);

  scheduler.Resume();
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());
}

TEST_F(ServingConcurrencyTest, ShutdownDrainsAdmittedRequests) {
  LoadModel();
  SchedulerConfig config;
  config.start_paused = true;
  RequestScheduler scheduler(&session_, config);

  auto row = workloads::GenBatch(1, Shape{16}, 3);
  ASSERT_TRUE(row.ok());
  std::vector<std::future<Result<Tensor>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(scheduler.SubmitBatch("m", *row));
  }
  // Shutdown without ever resuming: every admitted request must still
  // resolve (drained by the exiting workers), never a broken
  // promise or a hang.
  scheduler.Shutdown();
  for (auto& f : futures) {
    auto result = f.get();
    EXPECT_TRUE(result.ok()) << result.status();
  }

  auto late = scheduler.SubmitBatch("m", *row).get();
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsUnavailable());
}

// One completion per request, whatever its fate. Each on_done call is
// recorded with its result and thread; waits are bounded so a lost
// completion fails the test instead of hanging it.
struct Completion {
  std::mutex mu;
  std::condition_variable cv;
  int calls = 0;
  Result<Tensor> result = Status::Internal("never completed");
  std::thread::id thread;

  std::function<void(Result<Tensor>)> Callback() {
    return [this](Result<Tensor> r) {
      std::lock_guard<std::mutex> lock(mu);
      ++calls;
      result = std::move(r);
      thread = std::this_thread::get_id();
      cv.notify_all();
    };
  }
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [this] { return calls > 0; });
  }
};

TEST_F(ServingConcurrencyTest, CallbackFiresExactlyOncePerOutcome) {
  LoadModel();
  SchedulerConfig config;
  config.start_paused = true;
  config.queue_capacity = 3;
  // Long enough that an opened breaker cannot go half-open mid-test.
  config.breaker.open_cooldown_us = 60'000'000;
  RequestScheduler scheduler(&session_, config);
  auto row = workloads::GenBatch(1, Shape{16}, 8);
  ASSERT_TRUE(row.ok());
  auto expected = DirectRow("m", *row);
  ASSERT_TRUE(expected.ok());

  // Paused: a pre-expired request and two coalescible ones fill the
  // queue, so the next submit sheds inline on this thread.
  Completion late_deadline, co1, co2, full;
  scheduler.SubmitBatchCallback("m", *row, -1, late_deadline.Callback());
  scheduler.SubmitBatchCallback("m", *row, 0, co1.Callback());
  scheduler.SubmitBatchCallback("m", *row, 0, co2.Callback());
  scheduler.SubmitBatchCallback("m", *row, 0, full.Callback());
  {
    std::lock_guard<std::mutex> lock(full.mu);
    EXPECT_EQ(full.calls, 1);
    EXPECT_EQ(full.thread, std::this_thread::get_id());
    EXPECT_TRUE(full.result.status().IsUnavailable());
  }
  scheduler.Resume();
  ASSERT_TRUE(late_deadline.Wait());
  ASSERT_TRUE(co1.Wait());
  ASSERT_TRUE(co2.Wait());
  EXPECT_TRUE(late_deadline.result.status().IsDeadlineExceeded());
  for (Completion* c : {&co1, &co2}) {
    ASSERT_TRUE(c->result.ok()) << c->result.status();
    EXPECT_EQ(c->result->MaxAbsDiff(*expected), 0.0f);
  }
  EXPECT_EQ(scheduler.stats().coalesced_requests.load(), 2);

  // Served alone: no coalescing partner, the output passes through.
  Completion alone;
  scheduler.SubmitBatchCallback("m", *row, 0, alone.Callback());
  ASSERT_TRUE(alone.Wait());
  ASSERT_TRUE(alone.result.ok()) << alone.result.status();
  EXPECT_EQ(alone.result->MaxAbsDiff(*expected), 0.0f);
  EXPECT_EQ(scheduler.stats().coalesced_requests.load(), 2);

  // An open breaker sheds at execution with Unavailable.
  CircuitBreaker* breaker = scheduler.breaker("m");
  while (breaker->state() != CircuitBreaker::State::kOpen) {
    ASSERT_TRUE(breaker->Allow());
    breaker->RecordFailure();
  }
  Completion shed_breaker;
  scheduler.SubmitBatchCallback("m", *row, 0, shed_breaker.Callback());
  ASSERT_TRUE(shed_breaker.Wait());
  EXPECT_TRUE(shed_breaker.result.status().IsUnavailable());
  EXPECT_EQ(scheduler.stats().shed_breaker.load(), 1);

  // After Shutdown the callback still fires, inline.
  scheduler.Shutdown();
  Completion after_shutdown;
  scheduler.SubmitBatchCallback("m", *row, 0, after_shutdown.Callback());
  {
    std::lock_guard<std::mutex> lock(after_shutdown.mu);
    EXPECT_EQ(after_shutdown.calls, 1);
    EXPECT_EQ(after_shutdown.thread, std::this_thread::get_id());
    EXPECT_TRUE(after_shutdown.result.status().IsUnavailable());
  }

  // Every thread is joined: no completion can still be in flight.
  for (Completion* c : {&late_deadline, &co1, &co2, &full, &alone,
                        &shed_breaker, &after_shutdown}) {
    std::lock_guard<std::mutex> lock(c->mu);
    EXPECT_EQ(c->calls, 1);
  }
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted.load(), 7);
  EXPECT_EQ(stats.shed_queue_full.load(), 1);
  EXPECT_EQ(stats.shed_deadline.load(), 1);
}

// An action deferred from on_done (the wire server's reply flush) runs
// once per key, after every on_done of its batch, on the worker that
// ran the batch; with no batch around it, as in an admission shed, it
// runs inline.
TEST_F(ServingConcurrencyTest, DeferredActionRunsOncePerBatchAfterCallbacks) {
  LoadModel();
  SchedulerConfig config;
  config.start_paused = true;
  config.queue_capacity = 3;
  RequestScheduler scheduler(&session_, config);
  auto row = workloads::GenBatch(1, Shape{16}, 9);
  ASSERT_TRUE(row.ok());

  std::mutex mu;
  std::condition_variable cv;
  int callbacks = 0;
  std::thread::id callback_thread;
  struct Action {
    int runs = 0;
    int callbacks_seen = -1;
    std::thread::id thread;
  };
  Action batch_action, shed_action;
  auto on_done = [&](Action* action) {
    return [&, action](Result<Tensor> result) {
      EXPECT_TRUE(result.ok() || result.status().IsUnavailable());
      {
        std::lock_guard<std::mutex> lock(mu);
        ++callbacks;
        callback_thread = std::this_thread::get_id();
      }
      CompletionScope::Defer(action, [&, action] {
        std::lock_guard<std::mutex> lock(mu);
        ++action->runs;
        action->callbacks_seen = callbacks;
        action->thread = std::this_thread::get_id();
        cv.notify_all();
      });
    };
  };

  // Three coalescible requests fill the paused queue; the fourth sheds
  // inline on this thread, and so does its deferred action.
  for (int i = 0; i < 3; ++i) {
    scheduler.SubmitBatchCallback("m", *row, 0, on_done(&batch_action));
  }
  scheduler.SubmitBatchCallback("m", *row, 0, on_done(&shed_action));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(shed_action.runs, 1);
    EXPECT_EQ(shed_action.callbacks_seen, 1);
    EXPECT_EQ(shed_action.thread, std::this_thread::get_id());
  }

  scheduler.Resume();
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return batch_action.runs > 0; }));
  EXPECT_EQ(scheduler.stats().batches.load(), 1);
  EXPECT_EQ(batch_action.runs, 1);
  EXPECT_EQ(batch_action.callbacks_seen, 4);
  EXPECT_EQ(batch_action.thread, callback_thread);
  EXPECT_NE(batch_action.thread, std::this_thread::get_id());
}

// Batches form where the work waits: while the only worker is busy,
// every request that arrives joins the next batch it takes, however
// far apart the arrivals are.
TEST_F(ServingConcurrencyTest, BatchTakesEverythingQueuedWhileWorkerBusy) {
  LoadModel();
  SchedulerConfig config;
  config.num_workers = 1;
  config.max_delay_us = 0;
  RequestScheduler scheduler(&session_, config);

  constexpr int kQueued = 16;
  std::vector<Tensor> rows;
  std::vector<Tensor> expected;
  for (int i = 0; i <= kQueued; ++i) {
    auto row = workloads::GenBatch(1, Shape{16}, 700 + i);
    ASSERT_TRUE(row.ok());
    auto truth = DirectRow("m", *row);
    ASSERT_TRUE(truth.ok());
    rows.push_back(std::move(*row));
    expected.push_back(std::move(*truth));
  }

  // The first request's callback holds the worker until released.
  std::promise<void> started;
  std::promise<void> release;
  std::future<void> started_future = started.get_future();
  std::shared_future<void> released = release.get_future().share();
  std::vector<Completion> done(kQueued + 1);
  scheduler.SubmitBatchCallback(
      "m", rows[0], 0,
      [&, callback = done[0].Callback()](Result<Tensor> result) {
        started.set_value();
        released.wait();
        callback(std::move(result));
      });
  const bool worker_busy =
      started_future.wait_for(std::chrono::seconds(10)) ==
      std::future_status::ready;
  if (worker_busy) {
    for (int i = 1; i <= kQueued; ++i) {
      scheduler.SubmitBatchCallback("m", rows[i], 0, done[i].Callback());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  release.set_value();
  ASSERT_TRUE(worker_busy);

  for (int i = 0; i <= kQueued; ++i) {
    ASSERT_TRUE(done[i].Wait()) << "request " << i;
    std::lock_guard<std::mutex> lock(done[i].mu);
    ASSERT_TRUE(done[i].result.ok()) << done[i].result.status();
    EXPECT_EQ(done[i].result->MaxAbsDiff(expected[i]), 0.0f)
        << "request " << i;
  }
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches.load(), 2);
  EXPECT_EQ(stats.max_batch_rows_seen.load(), kQueued);
  EXPECT_EQ(stats.total_rows.load(), kQueued + 1);
}

// Shutdown racing four submitting threads: the stop check and the push
// share one lock, so every request is either admitted (and drained by
// Shutdown) or told the scheduler is shut down, and none is miscounted
// as a full-queue shed.
TEST_F(ServingConcurrencyTest, ShutdownRacingSubmitsCompletesEachOnce) {
  LoadModel();
  auto row = workloads::GenBatch(1, Shape{16}, 12);
  ASSERT_TRUE(row.ok());
  auto expected = DirectRow("m", *row);
  ASSERT_TRUE(expected.ok());

  SchedulerConfig config;
  config.queue_capacity = 1 << 16;
  RequestScheduler scheduler(&session_, config);

  // Each thread stops after its first refusal; the cap keeps the total
  // far below the queue's capacity.
  constexpr int kThreads = 4;
  constexpr int kMaxPerThread = 4096;
  std::vector<std::atomic<int>> calls(kThreads * kMaxPerThread);
  std::vector<std::atomic<bool>> refusals(kThreads * kMaxPerThread);
  std::atomic<int> submitted{0};
  std::atomic<int> served{0};
  std::atomic<int> refused{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kMaxPerThread; ++i) {
        const int slot = t * kMaxPerThread + i;
        ++submitted;
        scheduler.SubmitBatchCallback(
            "m", *row, 0, [&, slot](Result<Tensor> result) {
              calls[slot].fetch_add(1);
              if (result.ok()) {
                if (result->MaxAbsDiff(*expected) == 0.0f) {
                  ++served;
                } else {
                  ++wrong;
                }
              } else if (result.status().IsUnavailable() &&
                         result.status().message() ==
                             "scheduler is shut down") {
                ++refused;
                refusals[slot] = true;
              } else {
                ++wrong;
              }
            });
        // A refusal resolves inline, so this thread sees its own.
        if (refusals[slot]) return;
      }
    });
  }
  while (submitted.load() < kThreads * kMaxPerThread / 8) {
    std::this_thread::yield();
  }
  scheduler.Shutdown();
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(served.load() + refused.load(), submitted.load());
  for (int slot = 0; slot < kThreads * kMaxPerThread; ++slot) {
    EXPECT_LE(calls[slot].load(), 1) << "slot " << slot;
  }
  int fired = 0;
  for (const std::atomic<int>& c : calls) fired += c.load();
  EXPECT_EQ(fired, submitted.load());
  EXPECT_EQ(scheduler.stats().shed_queue_full.load(), 0);
}

// An idle worker spins for at most the spin budget, then parks
// (DESIGN.md "Serving front-end"): worker_parks rises after an idle
// spell of 20 budgets, stays put while nothing arrives, and the next
// request still wakes the worker.
TEST_F(ServingConcurrencyTest, IdleWorkerParksAndWakesForTheNextRequest) {
  LoadModel();
  SchedulerConfig config;
  config.num_workers = 1;
  config.max_delay_us = 0;
  RequestScheduler scheduler(&session_, config);
  auto row = workloads::GenBatch(1, Shape{16}, 31);
  ASSERT_TRUE(row.ok());
  auto expected = DirectRow("m", *row);
  ASSERT_TRUE(expected.ok());

  // Read on the worker inside the callback, before it goes idle.
  std::atomic<int64_t> parks_before{-1};
  Completion first;
  scheduler.SubmitBatchCallback(
      "m", *row, 0,
      [&, callback = first.Callback()](Result<Tensor> result) {
        parks_before = scheduler.stats().worker_parks.load();
        callback(std::move(result));
      });
  ASSERT_TRUE(first.Wait());
  std::this_thread::sleep_for(20 * kIdleSpinBudget);
  // Sanitizer builds may not schedule the worker at once; the park
  // itself needs no traffic.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scheduler.stats().worker_parks.load() <= parks_before.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int64_t parked = scheduler.stats().worker_parks.load();
  EXPECT_GT(parked, parks_before.load());
  // Parked is asleep: with no traffic nothing wakes the worker again.
  std::this_thread::sleep_for(20 * kIdleSpinBudget);
  EXPECT_EQ(scheduler.stats().worker_parks.load(), parked);

  auto again = scheduler.PredictBatch("m", *row);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->MaxAbsDiff(*expected), 0.0f);
}

// Single-request round trips whose gaps fall below the spin budget
// (the worker is still spinning when the next request lands, and no
// notify is sent) and above it (the worker has parked, and Submit must
// wake it): every on_done fires exactly once with the right rows.
TEST_F(ServingConcurrencyTest, RoundTripsAcrossTheSpinBudgetCompleteOnce) {
  LoadModel();
  SchedulerConfig config;
  config.num_workers = 1;
  config.max_delay_us = 0;
  RequestScheduler scheduler(&session_, config);
  constexpr int kRows = 8;
  std::vector<Tensor> rows;
  std::vector<Tensor> expected;
  for (int i = 0; i < kRows; ++i) {
    auto row = workloads::GenBatch(1, Shape{16}, 900 + i);
    ASSERT_TRUE(row.ok());
    auto truth = DirectRow("m", *row);
    ASSERT_TRUE(truth.ok());
    rows.push_back(std::move(*row));
    expected.push_back(std::move(*truth));
  }

  constexpr int kTrips = 10000;
  std::vector<Completion> done(kTrips);
  for (int i = 0; i < kTrips; ++i) {
    // Every fourth gap outlasts the budget; the rest are back to back.
    if (i % 4 == 3) std::this_thread::sleep_for(2 * kIdleSpinBudget);
    scheduler.SubmitBatchCallback("m", rows[i % kRows], 0,
                                  done[i].Callback());
    ASSERT_TRUE(done[i].Wait()) << "trip " << i;
    std::lock_guard<std::mutex> lock(done[i].mu);
    ASSERT_TRUE(done[i].result.ok()) << done[i].result.status();
    ASSERT_EQ(done[i].result->MaxAbsDiff(expected[i % kRows]), 0.0f)
        << "trip " << i;
  }
  scheduler.Shutdown();
  int extra_calls = 0;
  for (Completion& c : done) {
    std::lock_guard<std::mutex> lock(c.mu);
    extra_calls += c.calls - 1;
  }
  EXPECT_EQ(extra_calls, 0);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted.load(), kTrips);
  EXPECT_EQ(stats.batches.load(), kTrips);
  // A gap of two budgets cannot be spun through.
  EXPECT_GT(stats.worker_parks.load(), 0);
}

// Shutdown landing while the worker spins ends the spin and still
// drains what was admitted; it never waits on a wake-up that will not
// come.
TEST_F(ServingConcurrencyTest, ShutdownDuringSpinDrainsPromptly) {
  LoadModel();
  auto row = workloads::GenBatch(1, Shape{16}, 32);
  ASSERT_TRUE(row.ok());
  auto expected = DirectRow("m", *row);
  ASSERT_TRUE(expected.ok());
  for (int round = 0; round < 50; ++round) {
    SchedulerConfig config;
    config.num_workers = 1;
    config.max_delay_us = 0;
    RequestScheduler scheduler(&session_, config);
    // A round trip leaves the worker spinning for its next request.
    ASSERT_TRUE(scheduler.PredictBatch("m", *row).ok());
    // Odd rounds stop an empty scheduler; even rounds admit four
    // requests first.
    std::vector<Completion> admitted(round % 2 == 0 ? 4 : 0);
    for (Completion& c : admitted) {
      scheduler.SubmitBatchCallback("m", *row, 0, c.Callback());
    }
    const auto t0 = std::chrono::steady_clock::now();
    scheduler.Shutdown();
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(1))
        << "round " << round;
    for (Completion& c : admitted) {
      std::lock_guard<std::mutex> lock(c.mu);
      EXPECT_EQ(c.calls, 1);
      ASSERT_TRUE(c.result.ok()) << c.result.status();
      EXPECT_EQ(c.result->MaxAbsDiff(*expected), 0.0f);
    }
  }
}

TEST_F(ServingConcurrencyTest, ConcurrentCacheTrafficIsSafe) {
  LoadModel();
  ASSERT_TRUE(session_.EnableExactCache("m").ok());
  ApproxResultCache::Config cache_config;
  ASSERT_TRUE(session_.EnableApproxCache("m", 16, cache_config).ok());

  // Hammer the cache tiers from several threads; the point is the
  // shared_mutex protection inside the caches (TSan verifies), plus
  // sane results throughout.
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    workers.emplace_back([&, c] {
      for (int i = 0; i < 40; ++i) {
        auto batch =
            workloads::GenBatch(2, Shape{16}, 500 + (c * 40 + i) % 20);
        if (!batch.ok()) {
          ++failures;
          continue;
        }
        auto out = session_.PredictWithCache("m", *batch);
        if (!out.ok()) ++failures;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto cache = session_.GetExactCache("m");
  ASSERT_TRUE(cache.ok());
  EXPECT_GT((*cache)->stats().lookups.load(), 0);
}

TEST_F(ServingConcurrencyTest, ConcurrentRuntimeOffloadCountsEveryRequest) {
  // Two threads offload through one ExternalRuntime; its request and
  // byte counters are shared, so every bump must land (and TSan must
  // see no race on them).
  LoadModel();
  auto table = session_.CreateTable("t", workloads::FeatureTableSchema());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(workloads::FillFeatureTable(*table, 4, 16, 7).ok());
  ExternalRuntime runtime("sim", 64LL << 20);
  ASSERT_TRUE(session_.OffloadModel("m", &runtime).ok());

  constexpr int kThreads = 2;
  constexpr int kCalls = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < kThreads; ++c) {
    workers.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        if (!session_.PredictViaRuntime("m", "t").ok()) ++failures;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(runtime.stats().requests.load(), kThreads * kCalls);
  EXPECT_GT(runtime.stats().bytes_received.load(), 0);
  EXPECT_GT(runtime.stats().bytes_sent.load(), 0);
}

TEST_F(ServingConcurrencyTest, DeployUndeployPredictChurn) {
  // Several same-seed variants (identical weights, so every relational
  // deployment shares its blocks through the PhysicalBlockIndex) are
  // deployed (odd rounds add an AoT variant beside the plan, which the
  // same Undeploy drops), undeployed, and served concurrently.
  // In-flight requests hold the plan via shared_ptr, so an Undeploy
  // racing a Predict must never produce a use-after-free — only a
  // typed NotFound for requests that resolve after the teardown. TSan
  // covers the index's internal locking.
  constexpr int kChurnVariants = 4;
  // Appending (not `"v" + std::to_string(i)`) keeps GCC 12's
  // -Wrestrict false positive on inlined string concatenation quiet.
  auto variant = [](int i) {
    std::string name = "v";
    name += std::to_string(i);
    return name;
  };
  for (int i = 0; i < kChurnVariants; ++i) {
    auto model = BuildFFNN(variant(i), {16, 32, 4}, /*seed=*/3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> bad_status{0};

  std::thread churner([&] {
    for (int round = 0; round < 30; ++round) {
      for (int i = 0; i < kChurnVariants; ++i) {
        auto deployed =
            session_.Deploy(variant(i), ServingMode::kForceRelational, 4);
        if (!deployed.ok()) ++bad_status;
        if (round % 2 == 1 && !session_.DeployAot(variant(i), {4}).ok()) {
          ++bad_status;
        }
      }
      // Tear down in a different order than deployment so the last
      // reference to a shared block moves between variants.
      for (int i = kChurnVariants - 1; i >= 0; --i) {
        auto s = session_.Undeploy(variant(i));
        if (!s.ok()) ++bad_status;
      }
    }
    stop = true;
  });

  std::vector<std::thread> predictors;
  for (int t = 0; t < 3; ++t) {
    predictors.emplace_back([&, t] {
      auto batch = workloads::GenBatch(4, Shape{16}, 900 + t);
      if (!batch.ok()) {
        ++bad_status;
        return;
      }
      int spins = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto out =
            session_.PredictBatch(variant(spins++ % kChurnVariants), *batch);
        // NotFound is the expected race outcome; anything else is a
        // real failure.
        if (!out.ok() && !out.status().IsNotFound()) ++bad_status;
      }
    });
  }

  churner.join();
  for (std::thread& t : predictors) t.join();
  EXPECT_EQ(bad_status.load(), 0);

  // Everything was undeployed: the shared-block index must be empty
  // again (no leaked refs from any interleaving).
  ASSERT_NE(session_.block_index(), nullptr);
  const PhysicalBlockStats stats = session_.block_index()->stats();
  EXPECT_EQ(stats.unique_blocks, 0);
  EXPECT_EQ(stats.logical_refs, 0);
  EXPECT_EQ(stats.physical_bytes, 0);
}

}  // namespace
}  // namespace relserve
