// Fault-tolerance tests (DESIGN.md "Fault model & recovery"):
// CRC32C-checksummed pages with bounded re-read recovery and
// quarantine, syscall-resume (EINTR / short transfer) loops, typed
// open failure, retry/backoff policy, the per-model circuit breaker,
// and the two graceful-degradation paths — cache-tier failure falls
// back to full inference, relational storage failure falls back to
// UDF-centric re-execution.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/retry.h"
#include "graph/model.h"
#include "serving/circuit_breaker.h"
#include "serving/request_scheduler.h"
#include "serving/serving_session.h"
#include "engine/physical_plan.h"
#include "optimizer/scan_cost.h"
#include "relational/vectorized.h"
#include "resource/memory_tracker.h"
#include "resource/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/column_store.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

using failpoint::ScopedFailpoint;
using failpoint::Spec;

class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisableAll(); }

  static std::vector<char> Pattern(char fill = '\xAB') {
    std::vector<char> data(kPageSize);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<char>(fill + static_cast<char>(i % 17));
    }
    return data;
  }
};

// --- CRC32C ---------------------------------------------------------

TEST_F(ResilienceTest, Crc32cKnownAnswer) {
  // The CRC-32C check value: crc of the ASCII digits "123456789".
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c::Value("", 0), 0u);
}

TEST_F(ResilienceTest, Crc32cIncrementalMatchesOneShot) {
  const std::vector<char> data = Pattern();
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t running = 0;
  // Uneven split exercises the unaligned head/tail handling.
  running = crc32c::Extend(running, data.data(), 13);
  running = crc32c::Extend(running, data.data() + 13, data.size() - 13);
  EXPECT_EQ(running, whole);
}

// The hardware backend runs three interleaved chains over long
// buffers and a single chain over short ones and tails; every length
// up to a few thousand bytes, a page and a page +- 1, at every start
// offset in a word, from a zero and a non-zero running CRC, must
// match the table backend bit for bit. The bytes are pseudo-random so
// that a stream combined at the wrong offset cannot cancel out.
TEST_F(ResilienceTest, Crc32cBackendsProduceIdenticalBits) {
  std::vector<char> data(kPageSize + 16);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (char& c : data) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x >> 24);
  }
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 4096; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {kPageSize - 1, kPageSize, kPageSize + 1});
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : lengths) {
      for (uint32_t initial : {0u, 0xE3069283u}) {
        const char* p = data.data() + offset;
        const uint32_t scalar =
            crc32c::internal::ExtendScalar(initial, p, n);
        ASSERT_EQ(crc32c::Extend(initial, p, n), scalar)
            << "n=" << n << " offset=" << offset << " crc=" << initial;
        if (crc32c::UsingHardware()) {
          ASSERT_EQ(crc32c::internal::ExtendSse42(initial, p, n), scalar)
              << "n=" << n << " offset=" << offset << " crc=" << initial;
        }
      }
    }
  }
}

// --- Checksummed page storage ---------------------------------------

TEST_F(ResilienceTest, ChecksumRoundTrip) {
  DiskManager disk;
  ASSERT_TRUE(disk.status().ok());
  ASSERT_TRUE(disk.checksums_enabled());
  const PageId page = disk.AllocatePage();
  const std::vector<char> data = Pattern();
  ASSERT_TRUE(disk.WritePage(page, data.data()).ok());
  std::vector<char> out(kPageSize);
  ASSERT_TRUE(disk.ReadPage(page, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), kPageSize), 0);
  EXPECT_EQ(disk.num_checksum_failures(), 0);
  EXPECT_EQ(disk.num_read_retries(), 0);
}

TEST_F(ResilienceTest, NeverWrittenPageReadsBackZeroFilled) {
  DiskManager disk;
  const PageId written = disk.AllocatePage();
  const PageId hole = disk.AllocatePage();
  const std::vector<char> data = Pattern();
  ASSERT_TRUE(disk.WritePage(written, data.data()).ok());
  std::vector<char> out(kPageSize, '\x7f');
  ASSERT_TRUE(disk.ReadPage(hole, out.data()).ok());
  EXPECT_EQ(out, std::vector<char>(kPageSize, 0));
}

TEST_F(ResilienceTest, TransientReadCorruptionHealsViaReRead) {
  DiskManager disk;
  const PageId page = disk.AllocatePage();
  const std::vector<char> data = Pattern();
  ASSERT_TRUE(disk.WritePage(page, data.data()).ok());

  // One bit flips in flight on the first read attempt only (a bus /
  // DMA glitch). The checksum catches it; the bounded re-read heals.
  ScopedFailpoint fp("disk.read", Spec::Bitflip().Once());
  std::vector<char> out(kPageSize);
  ASSERT_TRUE(disk.ReadPage(page, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), kPageSize), 0);
  EXPECT_GE(disk.num_checksum_failures(), 1);
  EXPECT_GE(disk.num_read_retries(), 1);
  EXPECT_EQ(disk.num_quarantined(), 0);
}

TEST_F(ResilienceTest, PersistentCorruptionQuarantinesUntilRewritten) {
  DiskManager disk;
  const PageId page = disk.AllocatePage();
  const std::vector<char> data = Pattern();
  {
    // The header checksum covers the caller's payload; the injected
    // flip lands on the bytes that reach the platter — silent on-disk
    // corruption only read-side verification can see.
    ScopedFailpoint fp("disk.write", Spec::Bitflip().Once());
    ASSERT_TRUE(disk.WritePage(page, data.data()).ok());
  }

  std::vector<char> out(kPageSize, '\x7f');
  Status s = disk.ReadPage(page, out.data());
  ASSERT_TRUE(s.IsDataLoss()) << s.ToString();
  // Corrupt bytes are never handed out, even to status-ignoring
  // callers.
  EXPECT_EQ(out, std::vector<char>(kPageSize, 0));
  EXPECT_GE(disk.num_checksum_failures(), 1);
  EXPECT_TRUE(disk.IsQuarantined(page));
  EXPECT_EQ(disk.num_quarantined(), 1);

  // Quarantined pages fail fast on later reads.
  EXPECT_TRUE(disk.ReadPage(page, out.data()).IsDataLoss());

  // A successful rewrite replaces the bad bytes and lifts the
  // quarantine.
  ASSERT_TRUE(disk.WritePage(page, data.data()).ok());
  EXPECT_FALSE(disk.IsQuarantined(page));
  ASSERT_TRUE(disk.ReadPage(page, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), kPageSize), 0);
}

TEST_F(ResilienceTest, TornWriteIsDetectedOnRead) {
  DiskManager disk;
  const PageId page = disk.AllocatePage();
  const std::vector<char> data = Pattern();
  {
    // The write reports success but only a prefix reaches disk — the
    // crash-mid-write case. Only the checksum can tell.
    ScopedFailpoint fp("disk.write", Spec::Torn().Once());
    ASSERT_TRUE(disk.WritePage(page, data.data()).ok());
  }
  std::vector<char> out(kPageSize);
  EXPECT_TRUE(disk.ReadPage(page, out.data()).IsDataLoss());
  EXPECT_TRUE(disk.IsQuarantined(page));
}

TEST_F(ResilienceTest, SyscallInterruptionAndShortTransfersResume) {
  DiskManager disk;
  const PageId page = disk.AllocatePage();
  const std::vector<char> data = Pattern();
  {
    // EINTR twice and halved transfers four times during the write;
    // the resume loops must still persist every byte.
    ScopedFailpoint eintr("disk.write.eintr",
                          Spec::Error(StatusCode::kIOError).Limit(2));
    ScopedFailpoint shrt("disk.write.short",
                         Spec::Error(StatusCode::kIOError).Limit(4));
    ASSERT_TRUE(disk.WritePage(page, data.data()).ok());
  }
  {
    ScopedFailpoint eintr("disk.read.eintr",
                          Spec::Error(StatusCode::kIOError).Limit(2));
    ScopedFailpoint shrt("disk.read.short",
                         Spec::Error(StatusCode::kIOError).Limit(4));
    std::vector<char> out(kPageSize);
    ASSERT_TRUE(disk.ReadPage(page, out.data()).ok());
    EXPECT_EQ(std::memcmp(out.data(), data.data(), kPageSize), 0);
  }
  // Resumed transfers are not checksum events.
  EXPECT_EQ(disk.num_checksum_failures(), 0);
}

TEST_F(ResilienceTest, OpenFailureIsTypedNeverFatal) {
  ScopedFailpoint fp("disk.open", Spec::Error(StatusCode::kIOError));
  auto opened = DiskManager::Open();
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError());

  // The embedded-construction path records the same failure instead of
  // aborting, and every I/O call surfaces it typed.
  DiskManager disk;
  EXPECT_FALSE(disk.ok());
  EXPECT_TRUE(disk.status().IsIOError());
  std::vector<char> buf(kPageSize);
  EXPECT_TRUE(disk.ReadPage(disk.AllocatePage(), buf.data()).IsIOError());
  EXPECT_TRUE(disk.WritePage(0, buf.data()).IsIOError());
}

TEST_F(ResilienceTest, ChecksumsOffIsAnExplicitTrustMode) {
  DiskManagerOptions options;
  options.checksum_pages = false;
  DiskManager disk("", options);
  ASSERT_FALSE(disk.checksums_enabled());
  const PageId page = disk.AllocatePage();
  const std::vector<char> data = Pattern();
  ASSERT_TRUE(disk.WritePage(page, data.data()).ok());

  // With verification off the flipped bit sails through silently —
  // the ablation mode trades this detection for a little throughput.
  ScopedFailpoint fp("disk.read", Spec::Bitflip().Once());
  std::vector<char> out(kPageSize);
  ASSERT_TRUE(disk.ReadPage(page, out.data()).ok());
  EXPECT_NE(std::memcmp(out.data(), data.data(), kPageSize), 0);
  EXPECT_EQ(disk.num_checksum_failures(), 0);
}

TEST_F(ResilienceTest, FailedPrefetchIsCountedAndDropped) {
  DiskManager disk;
  BufferPool pool(&disk, /*capacity_pages=*/1);
  // Materialize page `a` on disk and evict it.
  PageId a = kInvalidPageId;
  {
    auto frame = pool.NewPage(&a);
    ASSERT_TRUE(frame.ok());
    std::memcpy(*frame, Pattern().data(), kPageSize);
    ASSERT_TRUE(pool.UnpinPage(a, /*dirty=*/true).ok());
  }
  PageId b = kInvalidPageId;
  {
    auto frame = pool.NewPage(&b);  // evicts a (write-back succeeds)
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(pool.UnpinPage(b, /*dirty=*/false).ok());
  }

  failpoint::Enable("disk.read", Spec::Error(StatusCode::kIOError));
  ASSERT_TRUE(pool.Prefetch(a));
  // issued == completed once the background queue drains.
  for (int i = 0; i < 2000; ++i) {
    const BufferPoolStats stats = pool.stats();
    if (stats.prefetches_completed >= stats.prefetches_issued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(pool.stats().prefetch_failed, 1);

  // Prefetch failure is never fatal: the foreground fetch performs its
  // own read once the fault clears.
  failpoint::Disable("disk.read");
  auto fetched = pool.FetchPage(a);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(std::memcmp(*fetched, Pattern().data(), kPageSize), 0);
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
}

// --- RetryPolicy ----------------------------------------------------

RetryPolicy FastRetry(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.initial_backoff_us = 10;
  policy.max_backoff_us = 50;
  policy.total_backoff_budget_us = 10'000;
  return policy;
}

TEST_F(ResilienceTest, RetryAbsorbsTransientFailures) {
  int calls = 0;
  int64_t retries = 0;
  Status s = CallWithRetry(
      FastRetry(5), /*jitter_seed=*/1,
      [&]() -> Status {
        ++calls;
        if (calls < 3) return Status::Unavailable("warming up");
        return Status::OK();
      },
      &retries);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
}

TEST_F(ResilienceTest, RetryNeverRepeatsNonTransientFailures) {
  int calls = 0;
  int64_t retries = 0;
  Status s = CallWithRetry(
      FastRetry(5), 1,
      [&]() -> Status {
        ++calls;
        return Status::InvalidArgument("bad request");
      },
      &retries);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0);

  // DataLoss is terminal by design: the disk manager already did its
  // bounded re-reads; the bytes stay wrong until rewritten.
  calls = 0;
  s = CallWithRetry(FastRetry(5), 1, [&]() -> Status {
    ++calls;
    return Status::DataLoss("page 7 quarantined");
  });
  EXPECT_TRUE(s.IsDataLoss());
  EXPECT_EQ(calls, 1);
}

TEST_F(ResilienceTest, RetryRespectsAttemptAndBackoffBudgets) {
  int calls = 0;
  Status s = CallWithRetry(FastRetry(3), 1, [&]() -> Status {
    ++calls;
    return Status::IOError("still down");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 3);

  // A zero backoff budget degrades into fail-fast even for transient
  // errors: no sleeping on a sinking engine.
  RetryPolicy broke = FastRetry(5);
  broke.total_backoff_budget_us = 0;
  calls = 0;
  s = CallWithRetry(broke, 1, [&]() -> Status {
    ++calls;
    return Status::Unavailable("saturated");
  });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 1);
}

TEST_F(ResilienceTest, RetryWorksOverResultValues) {
  int calls = 0;
  Result<int> r = CallWithRetry(FastRetry(4), 1, [&]() -> Result<int> {
    ++calls;
    if (calls < 2) return Status::IOError("transient");
    return 42;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(calls, 2);
}

// --- CircuitBreaker -------------------------------------------------

CircuitBreakerConfig FastBreaker() {
  CircuitBreakerConfig config;
  config.window_size = 8;
  config.min_samples = 4;
  config.failure_rate_threshold = 0.5;
  config.open_cooldown_us = 2'000;
  config.half_open_successes_to_close = 1;
  config.half_open_max_probes = 1;
  return config;
}

TEST_F(ResilienceTest, BreakerOpensAtWindowedFailureRate) {
  CircuitBreaker breaker(FastBreaker());
  // Below min_samples nothing condemns the model.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // 4th sample at 100% failure: open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1);
  EXPECT_FALSE(breaker.Allow());  // shed during cooldown
  EXPECT_GE(breaker.shed_count(), 1);
}

TEST_F(ResilienceTest, BreakerHalfOpenProbeClosesOnSuccess) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(breaker.Allow());  // cooldown elapsed: probe admitted
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // max_probes=1 caps concurrency
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST_F(ResilienceTest, BreakerHalfOpenProbeFailureReopens) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // the probe hit a still-broken backend
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2);
  EXPECT_FALSE(breaker.Allow());  // a fresh cooldown started
}

// --- Resilient serving path -----------------------------------------

ServingConfig SmallServingConfig() {
  ServingConfig config;
  config.buffer_pool_pages = 256;
  config.working_memory_bytes = 64LL << 20;
  config.memory_threshold_bytes = 1LL << 20;
  config.block_rows = 16;
  config.block_cols = 16;
  config.num_threads = 2;
  return config;
}

class ServingResilienceTest : public ResilienceTest {
 protected:
  ServingResilienceTest() : session_(SmallServingConfig()) {}

  void LoadModel(const std::string& name = "m") {
    auto model = BuildFFNN(name, {16, 32, 4}, 3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());
    ASSERT_TRUE(
        session_.Deploy(name, ServingMode::kForceUdf, 8).ok());
  }

  ServingSession session_;
};

TEST_F(ServingResilienceTest, SchedulerRetriesTransientDispatchFault) {
  LoadModel();
  SchedulerConfig config;
  config.num_workers = 1;
  config.retry = FastRetry(3);
  RequestScheduler scheduler(&session_, config);

  auto input = workloads::GenBatch(8, Shape{16}, 42);
  ASSERT_TRUE(input.ok());
  failpoint::Enable("scheduler.dispatch",
                    Spec::Error(StatusCode::kIOError).Once());
  auto result = scheduler.PredictBatch("m", *input);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(scheduler.stats().retries.load(), 1);
  EXPECT_EQ(scheduler.stats().shed_breaker.load(), 0);
}

TEST_F(ServingResilienceTest, BreakerOpensShedsAndRecovers) {
  LoadModel();
  SchedulerConfig config;
  config.num_workers = 1;
  config.retry = FastRetry(1);  // isolate the breaker from the retrier
  config.breaker.window_size = 4;
  config.breaker.min_samples = 2;
  config.breaker.failure_rate_threshold = 0.5;
  config.breaker.open_cooldown_us = 20'000;
  config.breaker.half_open_successes_to_close = 1;
  config.breaker.half_open_max_probes = 1;
  RequestScheduler scheduler(&session_, config);

  auto input = workloads::GenBatch(8, Shape{16}, 42);
  ASSERT_TRUE(input.ok());

  failpoint::Enable("scheduler.dispatch",
                    Spec::Error(StatusCode::kIOError));
  for (int i = 0; i < 4; ++i) {
    auto result = scheduler.PredictBatch("m", *input);
    ASSERT_FALSE(result.ok());
    // Terminal transient faults surface as Unavailable — retryable
    // from the client's point of view — whether executed or shed.
    EXPECT_TRUE(result.status().IsUnavailable())
        << result.status().ToString();
  }
  EXPECT_EQ(scheduler.breaker("m")->state(),
            CircuitBreaker::State::kOpen);
  EXPECT_GE(scheduler.stats().shed_breaker.load(), 1);

  // The backend heals; after the cooldown one probe closes the
  // breaker and traffic flows again.
  failpoint::Disable("scheduler.dispatch");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto recovered = scheduler.PredictBatch("m", *input);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(scheduler.breaker("m")->state(),
            CircuitBreaker::State::kClosed);
}

TEST_F(ServingResilienceTest, CacheFailureDegradesToFullInference) {
  LoadModel();
  ASSERT_TRUE(session_.EnableExactCache("m").ok());
  auto input = workloads::GenBatch(4, Shape{16}, 7);
  ASSERT_TRUE(input.ok());

  auto truth = session_.PredictWithCache("m", *input);  // miss + fill
  ASSERT_TRUE(truth.ok());
  auto hit = session_.PredictWithCache("m", *input);  // exact-tier hit
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->MaxAbsDiff(*truth), 0.0f);

  // A failing cache tier must cost correctness nothing: lookups are
  // skipped and every row takes the full-inference path.
  failpoint::Enable("cache.lookup",
                    Spec::Error(StatusCode::kUnavailable));
  auto degraded = session_.PredictWithCache("m", *input);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->MaxAbsDiff(*truth), 0.0f);
}

TEST_F(ServingResilienceTest, SessionSurfacesSpillOpenFailureTyped) {
  ScopedFailpoint fp("disk.open", Spec::Error(StatusCode::kIOError));
  ServingSession session(SmallServingConfig());  // must not abort
  EXPECT_TRUE(session.status().IsIOError());
}

TEST_F(ResilienceTest, RelationalStorageFailureFallsBackToUdf) {
  // Ground truth from a UDF-centric session over identical weights.
  ServingConfig udf_config = SmallServingConfig();
  ServingSession udf_session(udf_config);
  {
    auto model = BuildFFNN("m", {16, 32, 4}, 3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(udf_session.RegisterModel(std::move(*model)).ok());
    ASSERT_TRUE(
        udf_session.Deploy("m", ServingMode::kForceUdf, 8).ok());
  }
  auto input = workloads::GenBatch(8, Shape{16}, 42);
  ASSERT_TRUE(input.ok());
  auto truth_out = udf_session.PredictBatch("m", *input);
  ASSERT_TRUE(truth_out.ok());
  auto truth = truth_out->ToTensor(udf_session.exec_context());
  ASSERT_TRUE(truth.ok());

  // The relational session gets a pool that exactly fits the four
  // blocked weight pages ({16,32,4} under 16x16 blocks), so chunking
  // the input *must* evict — and every eviction write-back fails.
  ServingConfig rel_config = SmallServingConfig();
  rel_config.buffer_pool_pages = 4;
  ServingSession session(rel_config);
  {
    auto model = BuildFFNN("m", {16, 32, 4}, 3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session.RegisterModel(std::move(*model)).ok());
    ASSERT_TRUE(
        session.Deploy("m", ServingMode::kForceRelational, 8).ok());
  }

  const int64_t before =
      session.exec_context()->stats.repr_fallbacks.load();
  failpoint::Enable("bufferpool.evict",
                    Spec::Error(StatusCode::kIOError));
  auto out = session.PredictBatch("m", *input);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto tensor = out->ToTensor(session.exec_context());
  ASSERT_TRUE(tensor.ok());
  failpoint::Disable("bufferpool.evict");

  // The degraded execution re-ran relational nodes UDF-centric (the
  // blocked weights assemble from still-resident pages) and produced
  // bit-identical results.
  EXPECT_GT(session.exec_context()->stats.repr_fallbacks.load(),
            before);
  EXPECT_EQ(tensor->MaxAbsDiff(*truth), 0.0f);
}

// --- Columnar scan / pivot ------------------------------------------

Schema ColumnarFaultSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"features", ValueType::kFloatVector}});
}

Row ColumnarFaultRow(int64_t i) {
  return Row({Value(i), Value(std::vector<float>{
                            static_cast<float>(i), 2.0f})});
}

TEST_F(ResilienceTest, ColumnarScanFailpointSurfacesTypedError) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  ColumnarTable table(&pool, ColumnarFaultSchema(),
                      /*fragment_rows=*/8);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(table.AppendRow(ColumnarFaultRow(i)).ok());
  }
  ScopedFailpoint fp("columnar.scan",
                     Spec::Error(StatusCode::kIOError));
  Result<ColumnarScanOutput> out =
      ColumnarScan(table, ColumnarScanOptions());
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsIOError()) << out.status().ToString();
}

TEST_F(ResilienceTest, ColumnarPivotFailpointSurfacesTypedError) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  ColumnarTable table(&pool, ColumnarFaultSchema(),
                      /*fragment_rows=*/8);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(table.AppendRow(ColumnarFaultRow(i)).ok());
  }
  Result<ColumnarScanOutput> out =
      ColumnarScan(table, ColumnarScanOptions());
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  ScopedFailpoint fp("columnar.pivot",
                     Spec::Error(StatusCode::kIOError));
  PhysicalStage stage;
  stage.kind = StageKind::kColumnarGather;
  stage.label = "pivot t";
  MemoryTracker tracker("test");
  Result<Tensor> tile = ExecuteColumnarGather(
      stage, out->batches, /*chunk_index=*/1, /*width=*/2, "features",
      &tracker);
  ASSERT_FALSE(tile.ok());
  EXPECT_TRUE(tile.status().IsIOError()) << tile.status().ToString();
}

TEST_F(ResilienceTest, QuarantinedColumnPageDegradesToTypedDataLoss) {
  ScanCostModel::ResetForTest();
  DiskManager disk;
  // Two frames: almost every sealed column page is evicted by the
  // time the scan runs, so fetches go back to disk.
  BufferPool pool(&disk, 2);
  ColumnarTable table(&pool, ColumnarFaultSchema(),
                      /*fragment_rows=*/512);
  for (int64_t i = 0; i < 9000; ++i) {
    ASSERT_TRUE(table.AppendRow(ColumnarFaultRow(i)).ok());
  }
  ThreadPool tp(2);
  ColumnarScanOptions opts;
  opts.pool = &tp;

  // Clean pass first: this geometry fans out fragment-parallel.
  Result<ColumnarScanOutput> clean = ColumnarScan(table, opts);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(clean->parallel);
  EXPECT_EQ(clean->rows_emitted, 9000);

  // Persistent read-side corruption: every page fetch flips a bit,
  // the bounded re-read never sees a clean copy, the page is
  // quarantined, and the scan degrades to a typed DataLoss instead
  // of serving corrupt feature vectors.
  ScopedFailpoint fp("disk.read", Spec::Bitflip());
  Result<ColumnarScanOutput> out = ColumnarScan(table, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDataLoss()) << out.status().ToString();
  EXPECT_GE(disk.num_quarantined(), 1);
}

}  // namespace
}  // namespace relserve
