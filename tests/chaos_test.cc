// Chaos harness: concurrent mixed serving traffic under randomized
// fault-injection schedules (DESIGN.md "Fault model & recovery").
//
// The contract it enforces, for every randomized seed:
//   - no crash, no deadlock, no broken promise;
//   - every request either succeeds with bits identical to the
//     fault-free ground truth, or fails with a *typed* resilience
//     status — Unavailable (shed / transient exhausted), DataLoss
//     (checksum-verified corruption), or DeadlineExceeded. Silent
//     wrong answers and untyped errors are the only failures.
//
// The model dimensions stay within one tensor block so UDF-centric,
// relation-centric, and fallback re-execution all produce identical
// bits — which is what lets the harness demand exact equality even
// while representations degrade mid-flight.
//
// Seeds default to 50; RELSERVE_CHAOS_SEEDS overrides (tsan_check.sh
// runs a reduced count under ThreadSanitizer). Every schedule is
// derived deterministically from its seed, so a failing seed replays.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "graph/model.h"
#include "serving/request_scheduler.h"
#include "serving/serving_session.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

using failpoint::Spec;

int NumSeeds() {
  const char* env = std::getenv("RELSERVE_CHAOS_SEEDS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 50;
}

ServingConfig ChaosServingConfig() {
  ServingConfig config;
  // Small enough that relational execution actually evicts and
  // reloads pages (so disk/evict faults land on real traffic).
  config.buffer_pool_pages = 48;
  config.working_memory_bytes = 64LL << 20;
  config.memory_threshold_bytes = 1LL << 20;
  config.block_rows = 16;
  config.block_cols = 16;
  config.num_threads = 2;
  return config;
}

SchedulerConfig ChaosSchedulerConfig() {
  SchedulerConfig config;
  config.max_batch_rows = 8;
  config.max_delay_us = 100;
  config.num_workers = 2;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_us = 20;
  config.retry.max_backoff_us = 200;
  config.retry.total_backoff_budget_us = 2'000;
  config.breaker.window_size = 16;
  config.breaker.min_samples = 4;
  config.breaker.failure_rate_threshold = 0.5;
  config.breaker.open_cooldown_us = 5'000;
  config.breaker.half_open_successes_to_close = 1;
  config.breaker.half_open_max_probes = 2;
  return config;
}

// Arms a randomized subset of the instrumented sites. Probabilities
// stay low enough that most traffic flows; per-site RNG seeds come
// from the round seed, so the whole schedule replays bit-for-bit.
void ArmRandomSchedule(std::mt19937_64& rng) {
  auto coin = [&rng](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };
  auto within = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  if (coin(0.5)) {
    Spec spec = coin(0.5) ? Spec::Bitflip()
                          : Spec::Error(StatusCode::kIOError);
    failpoint::Enable(
        "disk.read", spec.Probability(within(0.01, 0.15)).Seed(rng()));
  }
  if (coin(0.5)) {
    const uint64_t kind = rng() % 3;
    Spec spec = kind == 0   ? Spec::Error(StatusCode::kIOError)
                : kind == 1 ? Spec::Torn()
                            : Spec::Bitflip();
    failpoint::Enable(
        "disk.write", spec.Probability(within(0.01, 0.10)).Seed(rng()));
  }
  if (coin(0.4)) {
    failpoint::Enable("bufferpool.evict",
                      Spec::Error(StatusCode::kIOError)
                          .Probability(within(0.05, 0.30))
                          .Seed(rng()));
  }
  if (coin(0.4)) {
    failpoint::Enable("cache.lookup",
                      Spec::Error(StatusCode::kUnavailable)
                          .Probability(within(0.10, 0.50))
                          .Seed(rng()));
  }
  if (coin(0.4)) {
    failpoint::Enable("scheduler.dispatch",
                      Spec::Error(StatusCode::kIOError)
                          .Probability(within(0.02, 0.15))
                          .Seed(rng()));
  }
  if (coin(0.3)) {
    failpoint::Enable("disk.read.eintr",
                      Spec::Error(StatusCode::kIOError)
                          .Probability(0.05)
                          .Seed(rng()));
  }
  if (coin(0.2)) {
    failpoint::Enable("disk.write.short",
                      Spec::Error(StatusCode::kIOError)
                          .Probability(0.05)
                          .Seed(rng()));
  }
}

struct RoundTally {
  std::atomic<int> ok_identical{0};
  std::atomic<int> typed_failures{0};
  std::atomic<int> silent_wrong_bits{0};
  std::atomic<int> untyped_errors{0};
};

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisableAll(); }
};

// One full round: fresh session, fault-free ground truth, randomized
// schedule, concurrent mixed traffic, typed-outcome classification.
void RunChaosRound(uint64_t seed, RoundTally* tally) {
  ServingSession session(ChaosServingConfig());
  ASSERT_TRUE(session.status().ok());
  {
    // All dims <= the 16x16 block: every representation is
    // bit-identical, so exact comparison is legitimate.
    auto model = BuildFFNN("m", {16, 16, 4}, 3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session.RegisterModel(std::move(*model)).ok());
    const ServingMode mode = (seed % 2 == 0)
                                 ? ServingMode::kForceUdf
                                 : ServingMode::kForceRelational;
    ASSERT_TRUE(session.Deploy("m", mode, 8).ok());
    ASSERT_TRUE(session.EnableExactCache("m").ok());
  }

  constexpr int kRows = 8;
  std::vector<Tensor> rows;
  std::vector<Tensor> expected;
  for (int r = 0; r < kRows; ++r) {
    auto row = workloads::GenBatch(1, Shape{16}, 100 + r);
    ASSERT_TRUE(row.ok());
    auto out = session.PredictBatch("m", *row);
    ASSERT_TRUE(out.ok());
    auto truth = out->ToTensor(session.exec_context());
    ASSERT_TRUE(truth.ok());
    rows.push_back(std::move(*row));
    expected.push_back(std::move(*truth));
  }

  RequestScheduler scheduler(&session, ChaosSchedulerConfig());
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  failpoint::SetGlobalSeed(seed);
  ArmRandomSchedule(rng);

  constexpr int kClients = 3;
  constexpr int kOpsPerClient = 24;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kOpsPerClient; ++i) {
        const int r = (c * 5 + i) % kRows;
        Result<Tensor> result = [&]() -> Result<Tensor> {
          if (i % 8 == 7) {
            // An already-expired deadline: must shed typed, never run.
            return scheduler
                .SubmitBatch("m", rows[r], /*deadline_us=*/-1)
                .get();
          }
          if ((c + i) % 2 == 0) {
            return scheduler.PredictWithCache("m", rows[r]);
          }
          return scheduler.PredictBatch("m", rows[r]);
        }();
        if (result.ok()) {
          if (result->MaxAbsDiff(expected[r]) == 0.0f) {
            tally->ok_identical.fetch_add(1);
          } else {
            tally->silent_wrong_bits.fetch_add(1);
          }
        } else {
          const Status& s = result.status();
          if (s.IsUnavailable() || s.IsDataLoss() ||
              s.IsDeadlineExceeded()) {
            tally->typed_failures.fetch_add(1);
          } else {
            tally->untyped_errors.fetch_add(1);
            ADD_FAILURE() << "seed " << seed
                          << ": untyped failure escaped: "
                          << s.ToString();
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  failpoint::DisableAll();
}

TEST_F(ChaosTest, RandomizedFaultSchedulesNeverBreakTheTypedContract) {
  const int seeds = NumSeeds();
  RoundTally tally;
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    RunChaosRound(static_cast<uint64_t>(seed), &tally);
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_EQ(tally.silent_wrong_bits.load(), 0);
  EXPECT_EQ(tally.untyped_errors.load(), 0);
  // The schedules are mostly-quiet by construction: the bulk of the
  // traffic must have flowed, and exact results never drifted.
  EXPECT_GT(tally.ok_identical.load(), tally.typed_failures.load());
  ::testing::Test::RecordProperty("ok_identical",
                                  tally.ok_identical.load());
  ::testing::Test::RecordProperty("typed_failures",
                                  tally.typed_failures.load());
}

// A storage failure inside a join over the packed weight relation
// re-runs the stage UDF-centric on the unpacked panels and still
// returns the relation-centric bits. The model's blocks are ragged
// (20 rows, 4-row edges), so the panels carry zero padding.
TEST_F(ChaosTest, PackedWeightFallbackKeepsRelationalBits) {
  auto deploy = [](ServingSession* session) {
    auto model = BuildFFNN("m", {16, 20, 4}, 3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session->RegisterModel(std::move(*model)).ok());
    ASSERT_TRUE(
        session->Deploy("m", ServingMode::kForceRelational, 8).ok());
  };
  auto input = workloads::GenBatch(8, Shape{16}, 42);
  ASSERT_TRUE(input.ok());

  ServingSession clean(ChaosServingConfig());
  deploy(&clean);
  auto truth_out = clean.PredictBatch("m", *input);
  ASSERT_TRUE(truth_out.ok());
  auto truth = truth_out->ToTensor(clean.exec_context());
  ASSERT_TRUE(truth.ok());

  // The pool exactly fits the four weight panels, so chunking the
  // input must evict, and every eviction write-back fails.
  ServingConfig config = ChaosServingConfig();
  config.buffer_pool_pages = 4;
  ServingSession session(config);
  deploy(&session);
  failpoint::Enable("bufferpool.evict", Spec::Error(StatusCode::kIOError));
  auto out = session.PredictBatch("m", *input);
  failpoint::DisableAll();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto tensor = out->ToTensor(session.exec_context());
  ASSERT_TRUE(tensor.ok());
  EXPECT_GT(session.exec_context()->stats.repr_fallbacks.load(), 0);
  ASSERT_EQ(tensor->NumElements(), truth->NumElements());
  EXPECT_EQ(0, std::memcmp(tensor->data(), truth->data(),
                           static_cast<size_t>(truth->ByteSize())));
}

// Corruption injected on the read path must be *detected* — counted by
// the checksum layer and surfaced as DataLoss / healed by re-read —
// never silently served.
TEST_F(ChaosTest, ChecksumMismatchInjectionIsDetectedNotServed) {
  ServingConfig config = ChaosServingConfig();
  config.buffer_pool_pages = 2;  // force evict + reload of weights
  ServingSession session(config);
  auto model = BuildFFNN("m", {16, 16, 4}, 3);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(session.RegisterModel(std::move(*model)).ok());
  ASSERT_TRUE(
      session.Deploy("m", ServingMode::kForceRelational, 8).ok());
  auto input = workloads::GenBatch(8, Shape{16}, 9);
  ASSERT_TRUE(input.ok());
  auto truth_out = session.PredictBatch("m", *input);
  ASSERT_TRUE(truth_out.ok());
  auto truth = truth_out->ToTensor(session.exec_context());
  ASSERT_TRUE(truth.ok());

  failpoint::Enable("disk.read", Spec::Bitflip());  // every attempt
  auto out = session.PredictBatch("m", *input);
  if (out.ok()) {
    // Served despite the fault (e.g. everything stayed resident):
    // bits must still be exact.
    auto tensor = out->ToTensor(session.exec_context());
    ASSERT_TRUE(tensor.ok());
    EXPECT_EQ(tensor->MaxAbsDiff(*truth), 0.0f);
  } else {
    EXPECT_TRUE(out.status().IsDataLoss() ||
                out.status().IsUnavailable())
        << out.status().ToString();
  }
  failpoint::DisableAll();

  DiskManager* disk = session.exec_context()->buffer_pool->disk();
  EXPECT_GE(disk->num_checksum_failures(), 1);
  EXPECT_GE(disk->num_read_retries(), 1);
}

// Sustained failure under concurrent load opens the per-model breaker
// (requests shed typed instead of queueing on a dead backend); once
// the fault clears, probes close it and traffic recovers.
TEST_F(ChaosTest, BreakerOpensUnderSustainedFaultThenRecovers) {
  ServingSession session(ChaosServingConfig());
  auto model = BuildFFNN("m", {16, 16, 4}, 3);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(session.RegisterModel(std::move(*model)).ok());
  ASSERT_TRUE(session.Deploy("m", ServingMode::kForceUdf, 8).ok());

  SchedulerConfig config = ChaosSchedulerConfig();
  config.retry.max_attempts = 1;
  RequestScheduler scheduler(&session, config);
  auto input = workloads::GenBatch(8, Shape{16}, 11);
  ASSERT_TRUE(input.ok());

  failpoint::Enable("scheduler.dispatch",
                    Spec::Error(StatusCode::kIOError));
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        auto result = scheduler.PredictBatch("m", *input);
        EXPECT_FALSE(result.ok());
        EXPECT_TRUE(result.status().IsUnavailable())
            << result.status().ToString();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_GE(scheduler.breaker("m")->times_opened(), 1);
  EXPECT_GE(scheduler.stats().shed_breaker.load(), 1);

  failpoint::Disable("scheduler.dispatch");
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    recovered = scheduler.PredictBatch("m", *input).ok();
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(scheduler.breaker("m")->state(),
            CircuitBreaker::State::kClosed);
}

// Serve-while-ingest under WAL fault injection: readers pin snapshots
// and must read bit-identical results twice per snapshot while a
// writer commits (and sometimes fails, typed) behind them; after the
// schedule, a restart from the same WAL recovers exactly the rows the
// successful commits produced — failed commits leave no trace.
TEST_F(ChaosTest, ServeWhileIngestSnapshotsStableUnderWalFaults) {
  const int rounds = std::max(1, NumSeeds() / 10);
  for (int round = 1; round <= rounds; ++round) {
    SCOPED_TRACE("ingest chaos round " + std::to_string(round));
    const std::string dir =
        "/tmp/relserve_chaos_ingest_" + std::to_string(round);
    ::unlink((dir + "/relserve.wal").c_str());
    ::rmdir(dir.c_str());
    ::mkdir(dir.c_str(), 0755);

    ServingConfig config = ChaosServingConfig();
    config.wal_dir = dir;
    config.wal_fsync = (round % 2 == 0) ? WalFsyncPolicy::kGroupCommit
                                        : WalFsyncPolicy::kEveryCommit;
    auto make_row = [](int64_t id) {
      std::vector<float> f(16);
      for (int i = 0; i < 16; ++i) {
        f[i] = static_cast<float>(id + i) * 0.01f;
      }
      return Row({Value(id), Value(std::move(f))});
    };

    std::atomic<int> committed{0};
    {
      ServingSession session(config);
      ASSERT_TRUE(session.wal_status().ok()) << session.wal_status();
      ASSERT_TRUE(
          session.CreateTable("tx", workloads::FeatureTableSchema())
              .ok());
      std::vector<Row> seed_rows;
      for (int64_t i = 0; i < 16; ++i) seed_rows.push_back(make_row(i));
      ASSERT_TRUE(session.IngestRows("tx", seed_rows).ok());
      auto model = BuildFFNN("m", {16, 16, 4}, 3);
      ASSERT_TRUE(model.ok());
      ASSERT_TRUE(session.RegisterModel(std::move(*model)).ok());
      ASSERT_TRUE(session.Deploy("m", ServingMode::kForceUdf, 8).ok());

      std::mt19937_64 rng(round * 0x9E3779B97F4A7C15ULL + 7);
      failpoint::SetGlobalSeed(round);
      failpoint::Enable("wal.append",
                        Spec::Error(StatusCode::kIOError)
                            .Probability(0.05)
                            .Seed(rng()));
      failpoint::Enable("wal.fsync",
                        Spec::Error(StatusCode::kIOError)
                            .Probability(0.05)
                            .Seed(rng()));

      std::atomic<bool> done{false};
      std::thread writer([&] {
        for (int64_t txn = 0; txn < 24; ++txn) {
          std::vector<Row> rows;
          for (int64_t i = 0; i < 4; ++i) {
            rows.push_back(make_row(1000 + txn * 4 + i));
          }
          const Status status = session.IngestRows("tx", rows);
          if (status.ok()) {
            committed.fetch_add(1);
          } else {
            // A failed commit must be typed, and applied-nothing.
            EXPECT_TRUE(status.IsIOError()) << status.ToString();
          }
        }
        done.store(true, std::memory_order_release);
      });
      std::vector<std::thread> readers;
      for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&] {
          int64_t last_rows = 0;
          while (!done.load(std::memory_order_acquire)) {
            const Version snap = session.PinSnapshot();
            auto first =
                session.PredictAtSnapshot("m", "tx", "features", snap);
            auto second =
                session.PredictAtSnapshot("m", "tx", "features", snap);
            if (!first.ok() || !second.ok()) {
              ADD_FAILURE() << "snapshot read failed: "
                            << first.status() << " / "
                            << second.status();
              break;
            }
            auto a = first->ToTensor(session.exec_context());
            auto b = second->ToTensor(session.exec_context());
            if (!a.ok() || !b.ok()) {
              ADD_FAILURE() << "materialize failed";
              break;
            }
            EXPECT_EQ(a->shape(), b->shape());
            EXPECT_EQ(a->MaxAbsDiff(*b), 0.0f) << "snap " << snap;
            // Published history only grows.
            EXPECT_GE(a->shape().dim(0), last_rows);
            last_rows = a->shape().dim(0);
          }
        });
      }
      writer.join();
      for (std::thread& t : readers) t.join();
      failpoint::DisableAll();

      auto final_out = session.PredictAtSnapshot(
          "m", "tx", "features", session.PinSnapshot());
      ASSERT_TRUE(final_out.ok()) << final_out.status();
      auto final_tensor = final_out->ToTensor(session.exec_context());
      ASSERT_TRUE(final_tensor.ok());
      EXPECT_EQ(final_tensor->shape().dim(0),
                16 + 4 * committed.load());
    }

    // Crash-restart from the same WAL: every transaction the writer
    // saw commit comes back, in whole-transaction multiples.
    // (dropped_uncommitted_ops may be nonzero: a txn whose op records
    // appended before its commit append failed leaves exactly the
    // orphans recovery exists to drop. And the count may EXCEED the
    // writer's tally: when the commit record reached the file but
    // fsync then failed, ApplyWrite reports an error and applies
    // nothing in-memory, yet the commit is durable — recovery
    // replays it. Durability errors are ambiguous, never lossy.)
    ServingSession revived(config);
    ASSERT_TRUE(revived.wal_status().ok()) << revived.wal_status();
    auto table = revived.GetTable("tx");
    ASSERT_TRUE(table.ok()) << table.status();
    const int64_t visible = (*table)->visibility->VisibleCount(
        0, (*table)->columnar->num_rows(), revived.PinSnapshot());
    EXPECT_GE(visible, 16 + 4 * committed.load());
    EXPECT_EQ((visible - 16) % 4, 0);
  }
}

}  // namespace
}  // namespace relserve
