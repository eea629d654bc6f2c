#include "storage/recovery.h"

#include <unordered_map>
#include <vector>

#include "common/failpoint.h"
#include "relational/row.h"

namespace relserve {

namespace {

Status ReplayInsert(TableInfo* table, const std::string& row_bytes,
                    Version version) {
  table->visibility->PadTo(table->columnar->num_rows());
  RELSERVE_ASSIGN_OR_RETURN(
      Row row, Row::Deserialize(row_bytes.data(),
                                static_cast<int64_t>(row_bytes.size())));
  RELSERVE_RETURN_NOT_OK(table->columnar->AppendRow(row));
  table->visibility->AppendRow(version);
  return Status::OK();
}

}  // namespace

Result<RecoveryStats> RecoverCatalog(const std::string& wal_path,
                                     Catalog* catalog,
                                     VersionClock* clock) {
  RELSERVE_RETURN_NOT_OK(failpoint::InjectedStatus("wal.recover"));

  RecoveryStats stats;
  bool torn = false;
  Result<std::vector<WalRecord>> read =
      WriteAheadLog::ReadAll(wal_path, &torn);
  if (read.status().code() == StatusCode::kNotFound) {
    return stats;  // no log yet: cold start
  }
  RELSERVE_RETURN_NOT_OK(read.status());
  const std::vector<WalRecord>& records = *read;
  stats.torn_tail = torn;
  stats.records_scanned = static_cast<int64_t>(records.size());
  if (!records.empty()) stats.last_durable_lsn = records.back().lsn;

  // Analysis: which transactions have a surviving commit record, and
  // at what version.
  std::unordered_map<uint64_t, Version> commit_version;
  for (const WalRecord& rec : records) {
    if (rec.type == WalRecord::Type::kCommit) {
      commit_version[rec.txn_id] = rec.commit_version;
      ++stats.committed_txns;
      if (rec.commit_version > stats.max_version) {
        stats.max_version = rec.commit_version;
      }
    }
  }

  // Redo committed ops in LSN order.
  for (const WalRecord& rec : records) {
    if (rec.type == WalRecord::Type::kCommit) continue;
    auto it = commit_version.find(rec.txn_id);
    if (it == commit_version.end()) {
      ++stats.dropped_uncommitted_ops;
      continue;
    }
    const Version v = it->second;
    switch (rec.type) {
      case WalRecord::Type::kCreateTable: {
        RELSERVE_ASSIGN_OR_RETURN(
            Schema schema,
            DecodeSchema(rec.schema_encoding.data(),
                         static_cast<int64_t>(
                             rec.schema_encoding.size())));
        RELSERVE_RETURN_NOT_OK(
            catalog->CreateTable(rec.table, std::move(schema)).status());
        break;
      }
      case WalRecord::Type::kInsert: {
        RELSERVE_ASSIGN_OR_RETURN(TableInfo * table,
                                  catalog->GetTable(rec.table));
        RELSERVE_RETURN_NOT_OK(
            ReplayInsert(table, rec.row_bytes, v));
        break;
      }
      case WalRecord::Type::kUpdate: {
        RELSERVE_ASSIGN_OR_RETURN(TableInfo * table,
                                  catalog->GetTable(rec.table));
        RELSERVE_RETURN_NOT_OK(
            table->visibility->MarkDeleted(rec.ordinal, v));
        RELSERVE_RETURN_NOT_OK(
            ReplayInsert(table, rec.row_bytes, v));
        break;
      }
      case WalRecord::Type::kDelete: {
        RELSERVE_ASSIGN_OR_RETURN(TableInfo * table,
                                  catalog->GetTable(rec.table));
        RELSERVE_RETURN_NOT_OK(
            table->visibility->MarkDeleted(rec.ordinal, v));
        break;
      }
      case WalRecord::Type::kCommit:
        break;
    }
    ++stats.replayed_ops;
  }

  if (stats.max_version > 0) clock->AdvanceTo(stats.max_version);
  return stats;
}

}  // namespace relserve
