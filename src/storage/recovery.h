// ARIES-lite redo recovery: rebuild catalog tables from the WAL.
//
// The WAL is the sole durable state — table pages live in the
// DiskManager's temp spill file, which does not survive a process
// restart. Recovery therefore replays history wholesale rather than
// from a checkpoint:
//
//   1. analysis pass: scan every intact record (torn tails already
//      dropped by ReadAll), collecting txn_id -> commit_version for
//      each transaction whose kCommit record survived;
//   2. redo pass: re-apply the op records of committed transactions in
//      LSN order — CreateTable, then Insert/Update/Delete with the
//      transaction's commit version stamped into the table's
//      VisibilityMap.
//
// Op records of uncommitted transactions (the crash cut them off
// before their kCommit hit the disk) are counted and dropped — never
// applied, so no phantom rows. Because the commit path holds one lock
// across log-and-apply, records of distinct transactions never
// interleave in the log and replay order equals original apply order:
// row ordinals after recovery match the ordinals the live system
// logged in its Update/Delete records.

#ifndef RELSERVE_STORAGE_RECOVERY_H_
#define RELSERVE_STORAGE_RECOVERY_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "storage/catalog.h"
#include "storage/mvcc.h"
#include "storage/wal.h"

namespace relserve {

struct RecoveryStats {
  int64_t records_scanned = 0;
  int64_t committed_txns = 0;
  int64_t replayed_ops = 0;
  int64_t dropped_uncommitted_ops = 0;
  uint64_t last_durable_lsn = 0;
  Version max_version = 0;
  bool torn_tail = false;
};

// Replays the log at `wal_path` into `catalog` (expected freshly
// constructed) and advances `clock` past every recovered commit
// version. A missing log file is a clean cold start: returns zeroed
// stats, not an error. Trips the "wal.recover" failpoint before
// reading anything.
Result<RecoveryStats> RecoverCatalog(const std::string& wal_path,
                                     Catalog* catalog,
                                     VersionClock* clock);

}  // namespace relserve

#endif  // RELSERVE_STORAGE_RECOVERY_H_
