// Durability tests for the write-ahead log and ARIES-lite recovery:
// the record codec must round-trip every type, torn tails (simulated
// crashes mid-append, byte corruption, truncated files) must never
// surface as errors or phantom rows, and the crash-point sweep cuts a
// 1k-row ingest log at *every* frame boundary and asserts the
// recovered table equals exactly the committed prefix — zero lost
// committed rows, zero uncommitted ones, zero checksum errors.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "relational/operator.h"
#include "relational/row.h"
#include "relational/vectorized.h"
#include "serving/serving_session.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/mvcc.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

// A clean per-test WAL directory under /tmp (the only file the
// session creates inside is relserve.wal).
std::string FreshWalDir(const std::string& name) {
  const std::string dir = "/tmp/relserve_walrec_" + name;
  ::unlink((dir + "/relserve.wal").c_str());
  ::rmdir(dir.c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

ServingConfig WalConfig(const std::string& wal_dir,
                        WalFsyncPolicy policy =
                            WalFsyncPolicy::kEveryCommit) {
  ServingConfig config;
  config.buffer_pool_pages = 256;
  config.working_memory_bytes = 64LL << 20;
  config.memory_threshold_bytes = 1LL << 20;
  config.block_rows = 16;
  config.block_cols = 16;
  config.num_threads = 2;
  config.wal_dir = wal_dir;
  config.wal_fsync = policy;
  return config;
}

Row MakeRow(int64_t id) {
  const float f = static_cast<float>(id);
  return Row({Value(id),
              Value(std::vector<float>{f, f + 1, f + 2, f + 3})});
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes,
                    size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(n));
}

// The ids of the rows visible at `snap`, in physical ordinal order.
std::vector<int64_t> VisibleIds(TableInfo* table, Version snap) {
  ColumnarRowScan scan(table->columnar.get());
  scan.set_visibility(table->visibility.get(), snap);
  EXPECT_TRUE(scan.Open().ok());
  std::vector<int64_t> ids;
  Row row;
  while (true) {
    auto more = scan.Next(&row);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    ids.push_back(row.values()[0].AsInt64());
  }
  return ids;
}

TEST(WalCodecTest, SchemaRoundTrips) {
  const Schema schema = workloads::FeatureTableSchema();
  std::string wire;
  EncodeSchema(schema, &wire);
  auto back = DecodeSchema(wire.data(), wire.size());
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_columns(), schema.num_columns());
  for (int i = 0; i < schema.num_columns(); ++i) {
    EXPECT_EQ(back->column(i).name, schema.column(i).name);
    EXPECT_EQ(back->column(i).type, schema.column(i).type);
  }
}

TEST(WalCodecTest, EveryRecordTypeRoundTrips) {
  std::vector<WalRecord> records;
  {
    WalRecord rec;
    rec.type = WalRecord::Type::kCreateTable;
    rec.lsn = 1;
    rec.txn_id = 9;
    rec.table = "t";
    EncodeSchema(workloads::FeatureTableSchema(),
                 &rec.schema_encoding);
    records.push_back(rec);
  }
  {
    WalRecord rec;
    rec.type = WalRecord::Type::kInsert;
    rec.lsn = 2;
    rec.txn_id = 9;
    rec.table = "t";
    MakeRow(41).SerializeTo(&rec.row_bytes);
    records.push_back(rec);
  }
  {
    WalRecord rec;
    rec.type = WalRecord::Type::kUpdate;
    rec.lsn = 3;
    rec.txn_id = 9;
    rec.table = "t";
    rec.ordinal = 17;
    MakeRow(42).SerializeTo(&rec.row_bytes);
    records.push_back(rec);
  }
  {
    WalRecord rec;
    rec.type = WalRecord::Type::kDelete;
    rec.lsn = 4;
    rec.txn_id = 9;
    rec.table = "t";
    rec.ordinal = 3;
    records.push_back(rec);
  }
  {
    WalRecord rec;
    rec.type = WalRecord::Type::kCommit;
    rec.lsn = 5;
    rec.txn_id = 9;
    rec.commit_version = 77;
    rec.op_count = 4;
    records.push_back(rec);
  }

  for (const WalRecord& rec : records) {
    std::string frame;
    EncodeWalRecord(rec, &frame);
    ASSERT_GE(frame.size(), 8u);  // crc + len header
    auto back = DecodeWalPayload(frame.data() + 8, frame.size() - 8);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->type, rec.type);
    EXPECT_EQ(back->lsn, rec.lsn);
    EXPECT_EQ(back->txn_id, rec.txn_id);
    EXPECT_EQ(back->table, rec.table);
    EXPECT_EQ(back->schema_encoding, rec.schema_encoding);
    EXPECT_EQ(back->row_bytes, rec.row_bytes);
    EXPECT_EQ(back->ordinal, rec.ordinal);
    EXPECT_EQ(back->commit_version, rec.commit_version);
    EXPECT_EQ(back->op_count, rec.op_count);
  }
}

TEST(WalTest, ReadAllStopsAtCorruptFrameWithIntactPrefix) {
  const std::string dir = FreshWalDir("corrupt");
  const std::string path = dir + "/relserve.wal";
  {
    WalOptions options;
    options.path = path;
    auto wal = WriteAheadLog::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (int i = 0; i < 5; ++i) {
      WalRecord rec;
      rec.type = WalRecord::Type::kInsert;
      rec.txn_id = 1;
      rec.table = "t";
      MakeRow(i).SerializeTo(&rec.row_bytes);
      ASSERT_TRUE((*wal)->Append(rec).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }

  std::vector<int64_t> boundaries;
  auto all = WriteAheadLog::ReadAll(path, nullptr, &boundaries);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 5u);

  // Flip one byte inside the fourth frame's payload: records 1-3 stay
  // trusted, 4-5 are dropped as a torn tail — checksum mismatch is a
  // stop, never an error or a garbage record.
  std::string bytes = ReadFileBytes(path);
  bytes[boundaries[2] + 12] ^= 0x40;
  WriteFileBytes(path, bytes, bytes.size());

  bool torn = false;
  auto after = WriteAheadLog::ReadAll(path, &torn);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(torn);
  ASSERT_EQ(after->size(), 3u);
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_EQ((*after)[i].lsn, i + 1);
  }
}

TEST(WalTest, OpenTruncatesTornTailAndAppendsCleanly) {
  const std::string dir = FreshWalDir("truncate");
  const std::string path = dir + "/relserve.wal";
  {
    WalOptions options;
    options.path = path;
    auto wal = WriteAheadLog::Open(options);
    ASSERT_TRUE(wal.ok());
    WalRecord rec;
    rec.type = WalRecord::Type::kDelete;
    rec.table = "t";
    rec.ordinal = 0;
    ASSERT_TRUE((*wal)->Append(rec).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // A crash mid-append left half a frame behind.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char junk[7] = {99, 99, 99, 99, 99, 99, 99};
    out.write(junk, sizeof(junk));
  }

  {
    auto wal = WriteAheadLog::Open({path});
    ASSERT_TRUE(wal.ok()) << wal.status();
    WalRecord rec;
    rec.type = WalRecord::Type::kDelete;
    rec.table = "t";
    rec.ordinal = 1;
    auto lsn = (*wal)->Append(rec);
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 2u);  // LSNs continue past the truncated garbage
  }
  bool torn = false;
  auto all = WriteAheadLog::ReadAll(path, &torn);
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(torn);  // the reopened log never appends after garbage
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[1].ordinal, 1);
}

TEST(WalTest, TornAppendFailpointLeavesRecoverablePrefix) {
  const std::string dir = FreshWalDir("torn_fp");
  const std::string path = dir + "/relserve.wal";
  auto wal = WriteAheadLog::Open({path});
  ASSERT_TRUE(wal.ok());
  WalRecord rec;
  rec.type = WalRecord::Type::kInsert;
  rec.table = "t";
  MakeRow(7).SerializeTo(&rec.row_bytes);
  ASSERT_TRUE((*wal)->Append(rec).ok());
  {
    // The crash simulation: the append persists only a prefix of the
    // frame (and, like a real crash, the writer never learns).
    failpoint::ScopedFailpoint torn_append(
        "wal.append", failpoint::Spec::Torn().Once());
    ASSERT_TRUE((*wal)->Append(rec).ok());
  }
  bool torn = false;
  auto all = WriteAheadLog::ReadAll(path, &torn);
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(torn);
  ASSERT_EQ(all->size(), 1u);  // the intact first record survives
  EXPECT_EQ((*all)[0].lsn, 1u);
}

TEST(WalTest, AppendErrorAbortsCommitWithNothingApplied) {
  const std::string dir = FreshWalDir("append_err");
  ServingSession session(WalConfig(dir));
  ASSERT_TRUE(session.wal_status().ok()) << session.wal_status();
  ASSERT_TRUE(
      session.CreateTable("t", workloads::FeatureTableSchema()).ok());
  ASSERT_TRUE(session.IngestRows("t", {MakeRow(0), MakeRow(1)}).ok());
  const Version before = session.PinSnapshot();

  {
    failpoint::ScopedFailpoint fail(
        "wal.append", failpoint::Spec::Error(StatusCode::kIOError));
    const Status status = session.IngestRows("t", {MakeRow(2)});
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(status.IsIOError()) << status;
  }
  // Nothing applied, nothing published: the failed transaction is
  // invisible to every snapshot, and the next commit succeeds.
  EXPECT_EQ(session.PinSnapshot(), before);
  auto table = session.GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(VisibleIds(*table, session.PinSnapshot()),
            (std::vector<int64_t>{0, 1}));
  ASSERT_TRUE(session.IngestRows("t", {MakeRow(2)}).ok());
  EXPECT_EQ(VisibleIds(*table, session.PinSnapshot()),
            (std::vector<int64_t>{0, 1, 2}));
}

TEST(WalTest, FsyncErrorAbortsCommitWithNothingApplied) {
  const std::string dir = FreshWalDir("fsync_err");
  ServingSession session(WalConfig(dir));
  ASSERT_TRUE(
      session.CreateTable("t", workloads::FeatureTableSchema()).ok());
  {
    failpoint::ScopedFailpoint fail(
        "wal.fsync", failpoint::Spec::Error(StatusCode::kIOError));
    EXPECT_FALSE(session.IngestRows("t", {MakeRow(0)}).ok());
  }
  auto table = session.GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(VisibleIds(*table, session.PinSnapshot()).empty());
  ASSERT_TRUE(session.IngestRows("t", {MakeRow(0)}).ok());
  EXPECT_EQ(VisibleIds(*table, session.PinSnapshot()),
            (std::vector<int64_t>{0}));
}

TEST(WalTest, RowOfWrongTypeIsRejectedBeforeItIsLogged) {
  const std::string dir = FreshWalDir("bad_row");
  const Schema schema({{"id", ValueType::kInt64}, {"x", ValueType::kFloat64}});
  auto row = [](int64_t id) {
    return Row({Value(id), Value(static_cast<double>(id) * 0.5)});
  };
  {
    ServingSession session(WalConfig(dir));
    ASSERT_TRUE(session.wal_status().ok()) << session.wal_status();
    ASSERT_TRUE(session.CreateTable("t", schema).ok());
    ASSERT_TRUE(session.IngestRows("t", {row(0)}).ok());
    const uint64_t lsn = session.wal()->next_lsn();
    const Version before = session.PinSnapshot();

    // An INT64 in the FLOAT64 column, behind a good row of the same
    // transaction; a row of the wrong arity; an update to a bad row.
    const Row int_in_float({Value(int64_t{1}), Value(int64_t{2})});
    Status status = session.IngestRows("t", {row(1), int_in_float});
    EXPECT_TRUE(status.IsInvalidArgument()) << status;
    status = session.IngestRows("t", {Row({Value(int64_t{1})})});
    EXPECT_TRUE(status.IsInvalidArgument()) << status;
    WriteOp update;
    update.kind = WriteOp::Kind::kUpdate;
    update.ordinal = 0;
    update.row = int_in_float;
    status = session.ApplyWrite("t", {update});
    EXPECT_TRUE(status.IsInvalidArgument()) << status;
    // Nothing logged, nothing published, nothing stored.
    EXPECT_EQ(session.wal()->next_lsn(), lsn);
    EXPECT_EQ(session.PinSnapshot(), before);

    // The next insert lands at ordinal 1, where an update finds it.
    ASSERT_TRUE(session.IngestRows("t", {row(1)}).ok());
    update.ordinal = 1;
    update.row = row(101);
    ASSERT_TRUE(session.ApplyWrite("t", {update}).ok());
    auto table = session.GetTable("t");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(VisibleIds(*table, session.PinSnapshot()),
              (std::vector<int64_t>{0, 101}));
  }
  ServingSession revived(WalConfig(dir));
  ASSERT_TRUE(revived.wal_status().ok()) << revived.wal_status();
  auto table = revived.GetTable("t");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(VisibleIds(*table, revived.PinSnapshot()),
            (std::vector<int64_t>{0, 101}));
}

TEST(WalTest, SessionRestartRecoversExactState) {
  const std::string dir = FreshWalDir("restart");
  std::vector<int64_t> expected;
  {
    ServingSession session(WalConfig(dir));
    ASSERT_TRUE(session.wal_status().ok()) << session.wal_status();
    ASSERT_TRUE(
        session.CreateTable("t", workloads::FeatureTableSchema())
            .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 20; ++i) rows.push_back(MakeRow(i));
    ASSERT_TRUE(session.IngestRows("t", rows).ok());
    // One update (ordinal 3 -> id 103) and one delete (ordinal 7).
    WriteOp update;
    update.kind = WriteOp::Kind::kUpdate;
    update.ordinal = 3;
    update.row = MakeRow(103);
    WriteOp del;
    del.kind = WriteOp::Kind::kDelete;
    del.ordinal = 7;
    ASSERT_TRUE(session.ApplyWrite("t", {update, del}).ok());
    auto table = session.GetTable("t");
    ASSERT_TRUE(table.ok());
    expected = VisibleIds(*table, session.PinSnapshot());
  }

  ServingSession revived(WalConfig(dir));
  ASSERT_TRUE(revived.wal_status().ok()) << revived.wal_status();
  const RecoveryStats& stats = revived.recovery_stats();
  EXPECT_EQ(stats.committed_txns, 3);  // create + ingest + update/delete
  EXPECT_EQ(stats.dropped_uncommitted_ops, 0);
  EXPECT_FALSE(stats.torn_tail);
  auto table = revived.GetTable("t");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(VisibleIds(*table, revived.PinSnapshot()), expected);

  // The revived session keeps committing where the old one stopped.
  ASSERT_TRUE(revived.IngestRows("t", {MakeRow(500)}).ok());
  auto ids = VisibleIds(*table, revived.PinSnapshot());
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(ids.back(), 500);
}

TEST(WalTest, GroupCommitConcurrentIngestIsDurable) {
  const std::string dir = FreshWalDir("group");
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 8;
  {
    ServingSession session(
        WalConfig(dir, WalFsyncPolicy::kGroupCommit));
    ASSERT_TRUE(
        session.CreateTable("t", workloads::FeatureTableSchema())
            .ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&session, t] {
        for (int i = 0; i < kTxnsPerThread; ++i) {
          ASSERT_TRUE(
              session.IngestRows("t", {MakeRow(t * 100 + i)}).ok());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // LSNs in the log are consecutive (transactions never interleave)
  // and a restart recovers every committed row.
  bool torn = false;
  auto all = WriteAheadLog::ReadAll(dir + "/relserve.wal", &torn);
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(torn);
  for (size_t i = 0; i < all->size(); ++i) {
    EXPECT_EQ((*all)[i].lsn, i + 1);
  }
  ServingSession revived(WalConfig(dir));
  auto table = revived.GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(static_cast<int>(
                VisibleIds(*table, revived.PinSnapshot()).size()),
            kThreads * kTxnsPerThread);
}

// The tentpole acceptance test: replay a 1k-row ingest log cut at
// every frame boundary and demand the recovered table be exactly the
// committed prefix — no lost committed row, no phantom uncommitted
// row, no checksum error, at every possible crash point.
TEST(WalRecoveryTest, CrashSweepEveryBoundaryIsPrefixConsistent) {
  const std::string dir = FreshWalDir("sweep_build");
  const std::string path = dir + "/relserve.wal";
  {
    // kNone: the sweep reads file bytes, not durability, and skipping
    // per-commit fsyncs keeps the builder fast.
    ServingSession session(WalConfig(dir, WalFsyncPolicy::kNone));
    ASSERT_TRUE(session.wal_status().ok()) << session.wal_status();
    ASSERT_TRUE(
        session.CreateTable("t", workloads::FeatureTableSchema())
            .ok());
    int64_t next_id = 0;
    for (int txn = 0; txn < 10; ++txn) {
      std::vector<Row> rows;
      for (int i = 0; i < 100; ++i) rows.push_back(MakeRow(next_id++));
      ASSERT_TRUE(session.IngestRows("t", rows).ok());
    }
    // Updates and deletes so the sweep crosses every record type.
    for (int txn = 0; txn < 3; ++txn) {
      std::vector<WriteOp> ops;
      for (int i = 0; i < 5; ++i) {
        WriteOp op;
        op.kind = WriteOp::Kind::kUpdate;
        op.ordinal = txn * 50 + i;
        op.row = MakeRow(10000 + txn * 50 + i);
        ops.push_back(op);
      }
      for (int i = 0; i < 5; ++i) {
        WriteOp op;
        op.kind = WriteOp::Kind::kDelete;
        op.ordinal = txn * 50 + 20 + i;
        ops.push_back(op);
      }
      ASSERT_TRUE(session.ApplyWrite("t", std::move(ops)).ok());
    }
  }

  bool torn = false;
  std::vector<int64_t> boundaries;
  auto records = WriteAheadLog::ReadAll(path, &torn, &boundaries);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_FALSE(torn);
  ASSERT_EQ(records->size(), boundaries.size());
  ASSERT_GT(records->size(), 1000u);  // 1k inserts + DDL/DML + commits
  const std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(static_cast<int64_t>(bytes.size()), boundaries.back());

  const std::string crash_dir = FreshWalDir("sweep_crash");
  const std::string crash_path = crash_dir + "/relserve.wal";

  // Reference state machine: apply each record's effect only once its
  // transaction's kCommit lies inside the prefix.
  struct ModelRow {
    int64_t id;
    bool live;
  };
  std::vector<ModelRow> model;            // committed state
  std::vector<const WalRecord*> pending;  // current txn's ops
  uint64_t pending_txn = 0;

  for (size_t cut = 0; cut <= records->size(); ++cut) {
    const int64_t prefix_bytes = cut == 0 ? 0 : boundaries[cut - 1];
    WriteFileBytes(crash_path, bytes,
                   static_cast<size_t>(prefix_bytes));

    DiskManager disk;
    BufferPool pool(&disk, 256);
    Catalog catalog(&pool);
    VersionClock clock;
    auto stats = RecoverCatalog(crash_path, &catalog, &clock);
    ASSERT_TRUE(stats.ok()) << "cut " << cut << ": " << stats.status();
    ASSERT_FALSE(stats->torn_tail) << "cut " << cut;
    ASSERT_EQ(stats->records_scanned, static_cast<int64_t>(cut));

    std::vector<int64_t> expected;
    for (const ModelRow& r : model) {
      if (r.live) expected.push_back(r.id);
    }
    auto table = catalog.GetTable("t");
    if (!table.ok()) {
      // The create-table commit is not in this prefix yet, so nothing
      // at all may have been recovered.
      ASSERT_TRUE(expected.empty()) << "cut " << cut;
    } else {
      EXPECT_EQ(VisibleIds(*table, clock.LatestPublished()), expected)
          << "cut " << cut;
    }

    // Advance the reference model by the record at index `cut`.
    if (cut == records->size()) break;
    const WalRecord& rec = (*records)[cut];
    switch (rec.type) {
      case WalRecord::Type::kCommit:
        for (const WalRecord* op : pending) {
          switch (op->type) {
            case WalRecord::Type::kInsert: {
              auto row = Row::Deserialize(op->row_bytes.data(),
                                          op->row_bytes.size());
              ASSERT_TRUE(row.ok());
              model.push_back({row->values()[0].AsInt64(), true});
              break;
            }
            case WalRecord::Type::kUpdate: {
              auto row = Row::Deserialize(op->row_bytes.data(),
                                          op->row_bytes.size());
              ASSERT_TRUE(row.ok());
              model[op->ordinal].live = false;
              model.push_back({row->values()[0].AsInt64(), true});
              break;
            }
            case WalRecord::Type::kDelete:
              model[op->ordinal].live = false;
              break;
            default:
              break;  // kCreateTable: no row effect
          }
        }
        pending.clear();
        break;
      default:
        if (pending.empty()) pending_txn = rec.txn_id;
        ASSERT_EQ(rec.txn_id, pending_txn);  // no interleaving
        pending.push_back(&rec);
        break;
    }
  }
}

}  // namespace
}  // namespace relserve
