// Write-ahead log: CRC32C-framed, LSN-stamped redo records for every
// catalog-visible mutation (DESIGN.md "Durability & snapshot
// isolation").
//
// On-disk frame, little-endian:
//
//   [u32 crc][u32 len][payload (len bytes)]
//
// where crc = CRC32C(payload) and the payload is
//
//   [u64 lsn][u8 type][u64 txn_id][u16 table_len][table bytes][body]
//
// with a per-type body:
//
//   kCreateTable  [u16 ncols][ncols x (u16 name_len, name, u8 value_type)]
//   kInsert       [u32 row_len][row bytes]       (Row::SerializeTo)
//   kUpdate       [i64 ordinal][u32 row_len][row bytes]
//   kDelete       [i64 ordinal]
//   kCommit       [u64 commit_version][u32 op_count]
//
// A transaction is its op records followed by one kCommit; recovery
// redoes only ops whose commit record survived. The log is the sole
// durable state (table pages live in the temp spill file), so
// replay rebuilds tables wholesale — ARIES-lite: one analysis pass
// collecting commit versions, one redo pass in LSN order.
//
// Torn tails are expected, not errors: ReadAll stops at the first
// frame whose length runs past EOF or whose checksum fails, and Open
// truncates the file back to the last intact frame so new appends
// never land after garbage. Failpoints: "wal.append" (error / torn /
// bitflip on the frame buffer), "wal.fsync", "wal.recover", plus the
// io_util resume sites "wal.append.eintr"/"wal.append.short".

#ifndef RELSERVE_STORAGE_WAL_H_
#define RELSERVE_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"

namespace relserve {

enum class WalFsyncPolicy {
  kNone,         // OS page cache only; a crash may lose the tail
  kEveryCommit,  // fsync inside each WaitDurable
  kGroupCommit,  // the first waiter leads: sleeps a short window so
                 // concurrent commits share one fsync
};

struct WalOptions {
  std::string path;
  WalFsyncPolicy fsync_policy = WalFsyncPolicy::kEveryCommit;
  // Leader's batching window under kGroupCommit.
  int64_t group_window_us = 200;
};

struct WalRecord {
  enum class Type : uint8_t {
    kCreateTable = 1,
    kInsert = 2,
    kUpdate = 3,
    kDelete = 4,
    kCommit = 5,
  };

  Type type = Type::kInsert;
  uint64_t lsn = 0;  // assigned by Append
  uint64_t txn_id = 0;
  std::string table;

  std::string schema_encoding;   // kCreateTable (EncodeSchema)
  std::string row_bytes;         // kInsert / kUpdate payload
  int64_t ordinal = -1;          // kUpdate / kDelete target row
  uint64_t commit_version = 0;   // kCommit
  uint32_t op_count = 0;         // kCommit
};

// Schema wire form used by kCreateTable bodies (the Schema class has
// no serializer of its own).
void EncodeSchema(const Schema& schema, std::string* out);
Result<Schema> DecodeSchema(const char* data, int64_t size);

// Appends the full frame (crc + len + payload) for `rec` to `out`.
void EncodeWalRecord(const WalRecord& rec, std::string* out);
// Decodes one payload (after the crc/len header has been validated).
Result<WalRecord> DecodeWalPayload(const char* data, int64_t size);

class WriteAheadLog {
 public:
  // Opens (creating if absent) the log at options.path, scans it to
  // find the last intact frame, truncates any torn tail, and
  // positions appends after it.
  static Result<std::unique_ptr<WriteAheadLog>> Open(WalOptions options);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Stamps the next LSN into `rec`, frames it, and writes it at the
  // end of the log. Durability is separate: call WaitDurable with the
  // returned LSN. Serialized internally.
  Result<uint64_t> Append(WalRecord rec);

  // fsyncs the file ("wal.fsync" failpoint).
  Status Sync();

  // Blocks until everything up to `lsn` is durable per the fsync
  // policy. Under kGroupCommit the first waiter becomes the leader:
  // it sleeps group_window_us so concurrent commits pile on, then one
  // fsync covers them all. kNone returns immediately.
  Status WaitDurable(uint64_t lsn);

  uint64_t next_lsn() const {
    return next_lsn_.load(std::memory_order_relaxed);
  }
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_relaxed);
  }
  int64_t size_bytes() const {
    return end_offset_.load(std::memory_order_relaxed);
  }
  const std::string& path() const { return options_.path; }
  const WalOptions& options() const { return options_; }

  // Reads every intact record of the log at `path` in LSN order,
  // stopping (not failing) at a torn tail. `torn_tail`, when given,
  // reports whether bytes past the last intact frame were dropped;
  // `boundaries` receives the byte offset just past each decoded
  // frame (the crash-sweep test cuts the file at these points).
  // NotFound when no file exists.
  static Result<std::vector<WalRecord>> ReadAll(
      const std::string& path, bool* torn_tail = nullptr,
      std::vector<int64_t>* boundaries = nullptr);

 private:
  explicit WriteAheadLog(WalOptions options)
      : options_(std::move(options)) {}

  const WalOptions options_;
  int fd_ = -1;

  // Append side: fd writes and the end offset.
  std::mutex append_mu_;
  std::atomic<uint64_t> next_lsn_{1};
  std::atomic<uint64_t> appended_lsn_{0};
  std::atomic<int64_t> end_offset_{0};

  // Durability side (group-commit leader election).
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  std::atomic<uint64_t> durable_lsn_{0};
  bool sync_in_progress_ = false;
};

}  // namespace relserve

#endif  // RELSERVE_STORAGE_WAL_H_
