// ingest_mix: writes beside reads. One writer thread commits
// fixed-size ServingSession::ApplyWrite transactions on a seeded
// Poisson schedule; each deletes kDeletes rows, inserts as many, and
// updates kUpdates more, so the live row count stays kLiveRows and the
// number of rows passing the WHERE stays kLiveRows / 2. Commits go
// through a write-ahead log on the local disk with an fsync per
// commit. Beside it one closed-loop reader repeats
//
//   SELECT PREDICT_CLASS(small) AS cls, COUNT(*) AS n FROM ing
//   WHERE x < 0.5 GROUP BY cls
//
// at the latest snapshot, over a model that fits in memory. A torn
// commit shows as a wrong total; at the end the table must hold
// exactly the ids the writer's own record says are live.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "graph/model.h"
#include "layers.h"
#include "sql/query_executor.h"
#include "sql_loop.h"
#include "storage/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace relserve;

constexpr int64_t kLiveRows = 4096;
constexpr int64_t kFeatureDim = 16;
const std::vector<int64_t> kDims = {kFeatureDim, 64, 4};
constexpr uint64_t kModelSeed = 13;
constexpr int kDeletes = 64;
constexpr int kUpdates = 16;
constexpr double kCommitRate = 20;      // transactions/s
constexpr int64_t kLoadChunk = 1024;    // rows per set-up transaction
constexpr int kWarmupQueries = 3;
constexpr int kWarmupCommits = 2;
constexpr int kKeepWarmThreads = 2;     // with the writer and the reader
constexpr int64_t kSpinBeforeDueNs = 200'000;

const char* kQuery =
    "SELECT PREDICT_CLASS(small) AS cls, COUNT(*) AS n FROM ing "
    "WHERE x < 0.5 GROUP BY cls";

Schema IngestSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"x", ValueType::kFloat64},
                 {"features", ValueType::kFloatVector}});
}

// The writer's own record of the table, and the generator of its
// transactions. Selected rows (x < 0.5) are only ever replaced by
// selected rows, so every snapshot has kLiveRows / 2 of them.
class Writer {
 public:
  explicit Writer(uint64_t seed) : rng_(SubSeed(seed, 5)) {}

  Row NewRow(int64_t id, bool selected) {
    const double x = 0.5 * rng_.Uniform01() + (selected ? 0.0 : 0.5);
    std::vector<float> features(kFeatureDim);
    for (float& f : features) f = static_cast<float>(rng_.Uniform01());
    return Row({Value(id), Value(x), Value(std::move(features))});
  }

  // The initial rows: exactly half selected, in a seeded order.
  std::vector<Row> InitialRows() {
    std::vector<char> selected(kLiveRows);
    for (int64_t i = 0; i < kLiveRows; ++i) selected[i] = i < kLiveRows / 2;
    for (int64_t i = kLiveRows - 1; i > 0; --i) {
      std::swap(selected[i], selected[rng_.Below(i + 1)]);
    }
    std::vector<Row> rows;
    for (int64_t i = 0; i < kLiveRows; ++i) {
      rows.push_back(NewRow(next_id_, selected[i] != 0));
      live_.push_back({physical_++, next_id_++, selected[i] != 0});
    }
    return rows;
  }

  // The next transaction; also updates the record as if it committed.
  std::vector<WriteOp> NextTransaction(int64_t* row_bytes) {
    // Distinct victims: a partial Fisher-Yates over the live slots.
    const size_t n = live_.size();
    const int victims = kDeletes + kUpdates;
    for (int v = 0; v < victims; ++v) {
      const size_t j = v + rng_.Below(n - v);
      std::swap(live_[v], live_[j]);
    }
    std::vector<WriteOp> ops;
    std::vector<Slot> added;
    for (int v = 0; v < kDeletes; ++v) {
      WriteOp del;
      del.kind = WriteOp::Kind::kDelete;
      del.ordinal = live_[v].ordinal;
      ops.push_back(std::move(del));
    }
    for (int v = 0; v < kDeletes; ++v) {  // one insert per delete
      WriteOp ins;
      ins.kind = WriteOp::Kind::kInsert;
      ins.row = NewRow(next_id_, live_[v].selected);
      added.push_back({-1, next_id_++, live_[v].selected});
      ops.push_back(std::move(ins));
    }
    for (int v = kDeletes; v < victims; ++v) {
      WriteOp upd;
      upd.kind = WriteOp::Kind::kUpdate;
      upd.ordinal = live_[v].ordinal;
      upd.row = NewRow(live_[v].id, live_[v].selected);
      added.push_back({-1, live_[v].id, live_[v].selected});
      ops.push_back(std::move(upd));
    }
    // Inserts and updates append, in op order.
    *row_bytes = 0;
    std::string bytes;
    for (const WriteOp& op : ops) {
      if (op.kind == WriteOp::Kind::kDelete) continue;
      bytes.clear();
      op.row.SerializeTo(&bytes);
      *row_bytes += static_cast<int64_t>(bytes.size());
    }
    for (Slot& s : added) s.ordinal = physical_++;
    live_.erase(live_.begin(), live_.begin() + victims);
    live_.insert(live_.end(), added.begin(), added.end());
    return ops;
  }

  std::vector<int64_t> LiveIds() const {
    std::vector<int64_t> ids;
    for (const Slot& s : live_) ids.push_back(s.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  int64_t physical() const { return physical_; }

 private:
  struct Slot {
    int64_t ordinal;
    int64_t id;
    bool selected;
  };
  SplitMix64 rng_;
  std::vector<Slot> live_;
  int64_t next_id_ = 0;
  int64_t physical_ = 0;
};

struct Setup {
  std::unique_ptr<ServingSession> session;
  std::unique_ptr<Writer> writer;
};

ServingConfig IngestConfig(const std::string& dir) {
  ServingConfig config;
  config.buffer_pool_pages = 512;  // 32 MiB: the table stays resident
  config.working_memory_bytes = 256LL << 20;
  config.num_threads = kSessionThreads;
  config.spill_path = dir + "/spill";
  config.wal_dir = dir;
  config.wal_fsync = WalFsyncPolicy::kEveryCommit;
  return config;
}

Status BuildSession(uint64_t seed, const std::string& dir, Setup* s) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  s->session = std::make_unique<ServingSession>(IngestConfig(dir));
  RELSERVE_RETURN_NOT_OK(s->session->status());
  RELSERVE_RETURN_NOT_OK(s->session->wal_status());
  RELSERVE_RETURN_NOT_OK(
      s->session->CreateTable("ing", IngestSchema(), TableLayout::kColumnar)
          .status());
  s->writer = std::make_unique<Writer>(seed);
  const std::vector<Row> rows = s->writer->InitialRows();
  for (size_t i = 0; i < rows.size(); i += kLoadChunk) {
    const size_t end = std::min(rows.size(), i + kLoadChunk);
    RELSERVE_RETURN_NOT_OK(s->session->IngestRows(
        "ing", std::vector<Row>(rows.begin() + i, rows.begin() + end)));
  }
  RELSERVE_ASSIGN_OR_RETURN(Model model, BuildFFNN("small", kDims, kModelSeed));
  RELSERVE_RETURN_NOT_OK(s->session->RegisterModel(std::move(model)));
  RELSERVE_RETURN_NOT_OK(
      s->session->Deploy("small", ServingMode::kAdaptive, kLiveRows / 2)
          .status());
  for (int i = 0; i < kWarmupCommits; ++i) {
    int64_t bytes = 0;
    RELSERVE_RETURN_NOT_OK(
        s->session->ApplyWrite("ing", s->writer->NextTransaction(&bytes)));
  }
  for (int i = 0; i < kWarmupQueries; ++i) {
    RELSERVE_RETURN_NOT_OK(
        sql::ExecuteStatement(s->session.get(), kQuery).status());
  }
  return Status::OK();
}

std::string CheckTotal(const std::map<int64_t, int64_t>& hist) {
  int64_t total = 0;
  for (const auto& [cls, count] : hist) total += count;
  if (total == kLiveRows / 2) return "";
  return "read saw " + std::to_string(total) + " selected rows, not " +
         std::to_string(kLiveRows / 2);
}

// The final table against the writer's record.
std::string CheckFinalTable(ServingSession* session, const Writer& writer) {
  auto result = sql::ExecuteStatement(session, "SELECT id FROM ing");
  if (!result.ok()) return result.status().ToString();
  std::vector<int64_t> ids;
  for (const Row& row : result->query.rows) ids.push_back(row.value(0).AsInt64());
  std::sort(ids.begin(), ids.end());
  if (ids != writer.LiveIds()) {
    return "final table holds " + std::to_string(ids.size()) +
           " ids that differ from the writer's record";
  }
  return "";
}

struct WriterOutput {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;  // from due time
  std::vector<double> service_us;  // ApplyWrite call alone
  std::vector<double> late_ms;
  int64_t row_bytes = 0;
  std::string first_error;
};

// Commits on the schedule `due` (seconds from `start_ns`). Traced
// runs trace every other commit.
WriterOutput RunWriter(ServingSession* session, Writer* writer,
                       const std::vector<double>& due, int64_t start_ns,
                       SpanRecorder* spans) {
  WriterOutput out;
  OpenLoopClock clock(due);
  for (size_t i = 0; i < due.size(); ++i) {
    int64_t row_bytes = 0;
    std::vector<WriteOp> ops = writer->NextTransaction(&row_bytes);
    const int64_t due_ns = start_ns + static_cast<int64_t>(due[i] * 1e9);
    const int64_t wake = due_ns - kSpinBeforeDueNs;
    if (NowNs() < wake) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - NowNs()));
    }
    while (NowNs() < due_ns) {
    }
    const int64_t t0 = NowNs();
    clock.MarkSent(i, (t0 - start_ns) / 1e9);
    const bool traced = spans->enabled() && i % 2 == 1;
    const int64_t span =
        traced ? spans->Open("session.apply_write", -1, i) : -1;
    const Status st = session->ApplyWrite("ing", std::move(ops));
    const int64_t t1 = NowNs();
    spans->Close(span);
    ++out.attempted;
    if (!st.ok()) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = st.ToString();
      continue;
    }
    out.row_bytes += row_bytes;
    out.latency_ms.push_back(clock.MarkDone(i, (t1 - start_ns) / 1e9) * 1e3);
    out.service_us.push_back((t1 - t0) / 1e3);
  }
  for (double late : clock.lateness()) out.late_ms.push_back(late * 1e3);
  return out;
}

// Replays the run's log records, transaction by transaction, through a
// standalone WriteAheadLog with the same fsync policy; returns the
// append-and-sync time of each transaction.
std::vector<double> ReplayWal(const std::string& log_path, uint64_t first_lsn,
                              const std::string& replay_path,
                              SpanRecorder* spans, std::string* error) {
  std::vector<double> us;
  auto records = WriteAheadLog::ReadAll(log_path);
  if (!records.ok()) {
    *error = records.status().ToString();
    return us;
  }
  std::filesystem::remove(replay_path);
  auto wal = WriteAheadLog::Open(
      WalOptions{replay_path, WalFsyncPolicy::kEveryCommit, 200});
  if (!wal.ok()) {
    *error = wal.status().ToString();
    return us;
  }
  int64_t txn_start = -1;
  for (WalRecord& rec : *records) {
    if (rec.lsn < first_lsn) continue;
    if (txn_start < 0) txn_start = NowNs();
    const bool commit = rec.type == WalRecord::Type::kCommit;
    auto lsn = (*wal)->Append(std::move(rec));
    Status st = lsn.ok() ? Status::OK() : lsn.status();
    if (st.ok() && commit) st = (*wal)->WaitDurable(*lsn);
    if (!st.ok()) {
      *error = st.ToString();
      break;
    }
    if (commit) {
      const int64_t end = NowNs();
      spans->Record("wal.replay_txn", -1, us.size(), txn_start, end);
      us.push_back((end - txn_start) / 1e3);
      txn_start = -1;
    }
  }
  wal->reset();
  std::filesystem::remove(replay_path);
  return us;
}

}  // namespace

RunResult RunIngestMix(const RunOptions& options) {
  RunResult result;
  KeepWarm keep_warm(kKeepWarmThreads);
  const std::string dir = options.work_dir + "/ingest_mix-" +
                          std::to_string(::getpid());
  std::vector<double> setup_s;
  Setup setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setup = Setup();
    const int64_t t0 = NowNs();
    const Status st = BuildSession(options.seed, dir, &setup);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!st.ok()) {
      result.Fail("setup: " + st.ToString());
      setup = Setup();
      std::filesystem::remove_all(dir);
      return result;
    }
  }
  ServingSession* session = setup.session.get();
  std::shared_ptr<const PhysicalPlan> plan;
  if (auto deployed = session->DeployedPhysicalPlan("small"); deployed.ok()) {
    plan = std::move(*deployed);
  } else {
    result.Fail(deployed.status().ToString());
    return result;
  }
  ResetPeakRss();

  SpanRecorder spans(options.trace);
  const std::vector<double> due =
      PoissonSchedule(SubSeed(options.seed, 3), kCommitRate, options.seconds);
  const uint64_t first_lsn = session->wal()->next_lsn();
  const int64_t wal_bytes0 = session->wal()->size_bytes();
  const EngineSnapshot before = TakeEngineSnapshot(session, "ing", plan.get());
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);

  WriterOutput writes;
  std::thread writer_thread([&] {
    writes = RunWriter(session, setup.writer.get(), due, start, &spans);
  });
  const SqlLoopOutput reads =
      RunSqlLoop(session, kQuery, deadline, &spans, CheckTotal, [&] {
        return CountedNanos(TakeEngineSnapshot(session, "ing", plan.get()));
      });
  writer_thread.join();
  // The peak of the loops, before the final check reads the table.
  AddSetupAndRss(setup_s, &result);
  const EngineSnapshot after = TakeEngineSnapshot(session, "ing", plan.get());
  const int64_t wal_bytes1 = session->wal()->size_bytes();

  result.attempted = reads.attempted + writes.attempted;
  result.failed = reads.failed + writes.failed;
  if (reads.failed > 0) result.Fail("read: " + reads.first_error);
  if (writes.failed > 0) result.Fail("commit: " + writes.first_error);
  const std::string final_check = CheckFinalTable(session, *setup.writer);
  if (!final_check.empty()) result.Fail(final_check);

  // Gated: the reader. Commit latency is a layer diagnostic, because
  // fsync tails on a shared disk moved its p90 several-fold between
  // runs of the same code (README.md).
  const LatencySummary read = Summarize(reads.untraced_ms);
  const LatencySummary commit = Summarize(writes.latency_ms);
  if (!SupportsGatedPercentiles(read) || !SupportsGatedPercentiles(commit)) {
    result.Fail("too few samples for p90: " + std::to_string(read.samples) +
                " reads, " + std::to_string(commit.samples) + " commits");
  }
  const BlockSummary gated = SummarizeBlocks(reads.untraced_ms, kGatedBlocks);
  result.end_to_end.Add("qps", gated.per_s, "1/s", reads.attempted);
  result.end_to_end.Add("p50_ms", gated.p50, "ms", read.samples);
  result.end_to_end.Add("p90_ms", gated.p90, "ms", read.samples);

  if (options.trace) {
    const EngineDelta delta = Diff(before, after, reads.attempted);
    AddEngineLayers(before, after, delta, FfnnFlops(kDims, kLiveRows / 2),
                    session, &result);
    std::string replay_error;
    const std::vector<double> sync_us =
        ReplayWal(session->wal()->path(), first_lsn, dir + "/replay.wal",
                  &spans, &replay_error);
    if (!replay_error.empty()) result.Fail("wal replay: " + replay_error);
    if (auto batch = Tensor::Create(Shape{kLiveRows / 2, kFeatureDim});
        batch.ok()) {
      std::fill(batch->data(), batch->data() + batch->NumElements(), 0.5f);
      AddPredictBatchTime(session, "small", *batch, 20, &spans, &result);
    }
    const LatencySummary read_traced = Summarize(reads.traced_ms);
    const double commits = std::max<double>(1, writes.latency_ms.size());
    MetricList& m = result.layers;
    m.Add("scan.selectivity",
          after.scan_rows > before.scan_rows
              ? 0.5 * kLiveRows * reads.attempted /
                    static_cast<double>(after.scan_rows - before.scan_rows)
              : 0,
          "ratio");
    m.Add("sql.parse_us", Median(reads.parse_us), "us",
          static_cast<int64_t>(reads.parse_us.size()));
    m.Add("sql.self_us_p50", Median(reads.self_us), "us",
          static_cast<int64_t>(reads.self_us.size()), /*subtractive=*/true);
    m.Add("sql.statement_p50_ms", read.p50, "ms", read.samples);
    m.Add("sql.statement_p90_ms", read.p90, "ms", read.samples);
    m.Add("wal.bytes_per_commit", (wal_bytes1 - wal_bytes0) / commits, "B");
    m.Add("wal.write_amp",
          writes.row_bytes > 0
              ? static_cast<double>(wal_bytes1 - wal_bytes0) / writes.row_bytes
              : 0,
          "ratio");
    const double sync_p50 = Median(sync_us);
    m.Add("wal.sync_us_p50", sync_p50, "us",
          static_cast<int64_t>(sync_us.size()));
    m.Add("mvcc.apply_us_p50",
          Subtractive(Median(writes.service_us), {sync_p50}), "us",
          static_cast<int64_t>(writes.service_us.size()), /*subtractive=*/true);
    m.Add("mvcc.physical_per_live",
          static_cast<double>(setup.writer->physical()) / kLiveRows, "ratio");
    m.Add("mvcc.commits", static_cast<double>(writes.latency_ms.size()),
          "count");
    m.Add("mvcc.commit_p50_ms", commit.p50, "ms", commit.samples);
    m.Add("mvcc.commit_p90_ms", commit.p90, "ms", commit.samples);
    m.Add("bench.gen_late_p99_ms", PercentileOf(writes.late_ms, 99), "ms",
          static_cast<int64_t>(writes.late_ms.size()));
    m.Add("bench.backlog", BacklogGrew(writes.latency_ms) ? 1 : 0, "count");
    m.Add("bench.trace_overhead_frac",
          read.p50 > 0 ? read_traced.p50 / read.p50 - 1 : 0, "ratio",
          read_traced.samples);
    m.Add("bench.accounted_frac", Median(reads.accounted), "ratio",
          static_cast<int64_t>(reads.accounted.size()));
    AddTail(commit, &result);
    m.Add("bench.attempted", result.attempted, "count");
    m.Add("bench.failed", result.failed, "count");
    if (!spans.WriteJsonLines(options.span_file)) {
      result.Fail("cannot write " + options.span_file);
    }
  }

  plan.reset();
  setup = Setup();
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace perfbench
