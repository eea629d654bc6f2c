#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/io_util.h"

namespace relserve {

namespace {

// A single frame larger than this is treated as a torn/corrupt tail
// on replay rather than an allocation request.
constexpr int64_t kMaxFrameBytes = 256LL << 20;

template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(const char*& cursor, const char* end, T* v) {
  if (cursor + sizeof(T) > end) return false;
  std::memcpy(v, cursor, sizeof(T));
  cursor += sizeof(T);
  return true;
}

bool ReadBytes(const char*& cursor, const char* end, int64_t n,
               std::string* out) {
  if (n < 0 || cursor + n > end) return false;
  out->assign(cursor, n);
  cursor += n;
  return true;
}

}  // namespace

void EncodeSchema(const Schema& schema, std::string* out) {
  AppendPod<uint16_t>(out, static_cast<uint16_t>(schema.num_columns()));
  for (const Column& col : schema.columns()) {
    AppendPod<uint16_t>(out, static_cast<uint16_t>(col.name.size()));
    out->append(col.name);
    AppendPod<uint8_t>(out, static_cast<uint8_t>(col.type));
  }
}

Result<Schema> DecodeSchema(const char* data, int64_t size) {
  const char* cursor = data;
  const char* end = data + size;
  uint16_t ncols = 0;
  if (!ReadPod(cursor, end, &ncols)) {
    return Status::DataLoss("wal: truncated schema encoding");
  }
  std::vector<Column> columns;
  columns.reserve(ncols);
  for (uint16_t c = 0; c < ncols; ++c) {
    uint16_t name_len = 0;
    std::string name;
    uint8_t type_tag = 0;
    if (!ReadPod(cursor, end, &name_len) ||
        !ReadBytes(cursor, end, name_len, &name) ||
        !ReadPod(cursor, end, &type_tag) || type_tag > 3) {
      return Status::DataLoss("wal: truncated schema column");
    }
    columns.push_back(
        Column{std::move(name), static_cast<ValueType>(type_tag)});
  }
  if (cursor != end) {
    return Status::DataLoss("wal: trailing bytes after schema");
  }
  return Schema(std::move(columns));
}

void EncodeWalRecord(const WalRecord& rec, std::string* out) {
  std::string payload;
  AppendPod<uint64_t>(&payload, rec.lsn);
  AppendPod<uint8_t>(&payload, static_cast<uint8_t>(rec.type));
  AppendPod<uint64_t>(&payload, rec.txn_id);
  AppendPod<uint16_t>(&payload, static_cast<uint16_t>(rec.table.size()));
  payload.append(rec.table);
  switch (rec.type) {
    case WalRecord::Type::kCreateTable:
      payload.append(rec.schema_encoding);
      break;
    case WalRecord::Type::kInsert:
      AppendPod<uint32_t>(&payload,
                          static_cast<uint32_t>(rec.row_bytes.size()));
      payload.append(rec.row_bytes);
      break;
    case WalRecord::Type::kUpdate:
      AppendPod<int64_t>(&payload, rec.ordinal);
      AppendPod<uint32_t>(&payload,
                          static_cast<uint32_t>(rec.row_bytes.size()));
      payload.append(rec.row_bytes);
      break;
    case WalRecord::Type::kDelete:
      AppendPod<int64_t>(&payload, rec.ordinal);
      break;
    case WalRecord::Type::kCommit:
      AppendPod<uint64_t>(&payload, rec.commit_version);
      AppendPod<uint32_t>(&payload, rec.op_count);
      break;
  }
  const uint32_t crc =
      crc32c::Value(payload.data(), payload.size());
  AppendPod<uint32_t>(out, crc);
  AppendPod<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

Result<WalRecord> DecodeWalPayload(const char* data, int64_t size) {
  const char* cursor = data;
  const char* end = data + size;
  WalRecord rec;
  uint8_t type_tag = 0;
  uint16_t table_len = 0;
  if (!ReadPod(cursor, end, &rec.lsn) ||
      !ReadPod(cursor, end, &type_tag) ||
      !ReadPod(cursor, end, &rec.txn_id) ||
      !ReadPod(cursor, end, &table_len) ||
      !ReadBytes(cursor, end, table_len, &rec.table) || type_tag < 1 ||
      type_tag > 5) {
    return Status::DataLoss("wal: corrupt record header");
  }
  rec.type = static_cast<WalRecord::Type>(type_tag);
  switch (rec.type) {
    case WalRecord::Type::kCreateTable: {
      rec.schema_encoding.assign(cursor, end - cursor);
      cursor = end;
      break;
    }
    case WalRecord::Type::kInsert: {
      uint32_t row_len = 0;
      if (!ReadPod(cursor, end, &row_len) ||
          !ReadBytes(cursor, end, row_len, &rec.row_bytes)) {
        return Status::DataLoss("wal: truncated insert record");
      }
      break;
    }
    case WalRecord::Type::kUpdate: {
      uint32_t row_len = 0;
      if (!ReadPod(cursor, end, &rec.ordinal) ||
          !ReadPod(cursor, end, &row_len) ||
          !ReadBytes(cursor, end, row_len, &rec.row_bytes)) {
        return Status::DataLoss("wal: truncated update record");
      }
      break;
    }
    case WalRecord::Type::kDelete: {
      if (!ReadPod(cursor, end, &rec.ordinal)) {
        return Status::DataLoss("wal: truncated delete record");
      }
      break;
    }
    case WalRecord::Type::kCommit: {
      if (!ReadPod(cursor, end, &rec.commit_version) ||
          !ReadPod(cursor, end, &rec.op_count)) {
        return Status::DataLoss("wal: truncated commit record");
      }
      break;
    }
  }
  if (cursor != end) {
    return Status::DataLoss("wal: trailing bytes in record payload");
  }
  return rec;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    WalOptions options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("wal path is empty");
  }
  auto wal =
      std::unique_ptr<WriteAheadLog>(new WriteAheadLog(options));
  const int fd = io::RetryEintr([&] {
    return ::open(options.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                  0644);
  });
  if (fd < 0) {
    return Status::IOError("wal open '" + options.path +
                           "': " + std::strerror(errno));
  }
  wal->fd_ = fd;

  // Scan to the last intact frame; anything beyond is a torn tail
  // from a crash mid-append — truncate so new frames never follow
  // garbage.
  bool torn = false;
  std::vector<int64_t> boundaries;
  Result<std::vector<WalRecord>> records =
      ReadAll(options.path, &torn, &boundaries);
  RELSERVE_RETURN_NOT_OK(records.status());
  const int64_t valid_bytes =
      boundaries.empty() ? 0 : boundaries.back();
  if (torn) {
    if (io::RetryEintr([&] { return ::ftruncate(fd, valid_bytes); }) <
        0) {
      return Status::IOError("wal truncate '" + options.path +
                             "': " + std::strerror(errno));
    }
  }
  uint64_t last_lsn = 0;
  for (const WalRecord& rec : *records) {
    last_lsn = std::max(last_lsn, rec.lsn);
  }
  wal->next_lsn_.store(last_lsn + 1, std::memory_order_relaxed);
  wal->appended_lsn_.store(last_lsn, std::memory_order_relaxed);
  wal->durable_lsn_.store(last_lsn, std::memory_order_relaxed);
  wal->end_offset_.store(valid_bytes, std::memory_order_relaxed);
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<uint64_t> WriteAheadLog::Append(WalRecord rec) {
  std::lock_guard<std::mutex> lock(append_mu_);
  rec.lsn = next_lsn_.load(std::memory_order_relaxed);
  std::string frame;
  EncodeWalRecord(rec, &frame);

  int64_t io_len = static_cast<int64_t>(frame.size());
  RELSERVE_RETURN_NOT_OK(failpoint::InjectedIo(
      "wal.append", frame.data(), io_len, &io_len));

  const int64_t offset = end_offset_.load(std::memory_order_relaxed);
  RELSERVE_RETURN_NOT_OK(io::PwriteFull(fd_, frame.data(), io_len,
                                        offset, "wal.append.eintr",
                                        "wal.append.short"));
  // A torn failpoint persisted only a prefix (simulated crash
  // mid-write): the tail is unreadable on replay, and the offset
  // advances by what actually hit the file so later appends land
  // right after it — exactly where a real crash would leave the log.
  end_offset_.store(offset + io_len, std::memory_order_relaxed);
  next_lsn_.store(rec.lsn + 1, std::memory_order_relaxed);
  appended_lsn_.store(rec.lsn, std::memory_order_release);
  return rec.lsn;
}

Status WriteAheadLog::Sync() {
  RELSERVE_RETURN_NOT_OK(failpoint::InjectedStatus("wal.fsync"));
  if (io::RetryEintr([&] { return ::fsync(fd_); }) < 0) {
    return Status::IOError("wal fsync: " + std::string(strerror(errno)));
  }
  return Status::OK();
}

Status WriteAheadLog::WaitDurable(uint64_t lsn) {
  if (options_.fsync_policy == WalFsyncPolicy::kNone) {
    return Status::OK();
  }
  std::unique_lock<std::mutex> lock(sync_mu_);
  for (;;) {
    if (durable_lsn_.load(std::memory_order_relaxed) >= lsn) {
      return Status::OK();
    }
    if (!sync_in_progress_) break;
    // A leader's fsync is in flight; it may already cover this LSN.
    sync_cv_.wait(lock);
  }
  sync_in_progress_ = true;
  lock.unlock();
  if (options_.fsync_policy == WalFsyncPolicy::kGroupCommit &&
      options_.group_window_us > 0) {
    // Batching window: commits arriving now ride this fsync.
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.group_window_us));
  }
  const uint64_t target = appended_lsn_.load(std::memory_order_acquire);
  const Status synced = Sync();
  lock.lock();
  sync_in_progress_ = false;
  if (synced.ok()) {
    uint64_t cur = durable_lsn_.load(std::memory_order_relaxed);
    if (cur < target) {
      durable_lsn_.store(target, std::memory_order_relaxed);
    }
  }
  sync_cv_.notify_all();
  RELSERVE_RETURN_NOT_OK(synced);
  return durable_lsn_.load(std::memory_order_relaxed) >= lsn
             ? Status::OK()
             : Status::Internal("wal: fsync did not cover lsn " +
                                std::to_string(lsn));
}

Result<std::vector<WalRecord>> WriteAheadLog::ReadAll(
    const std::string& path, bool* torn_tail,
    std::vector<int64_t>* boundaries) {
  if (torn_tail != nullptr) *torn_tail = false;
  const int fd = io::RetryEintr(
      [&] { return ::open(path.c_str(), O_RDONLY | O_CLOEXEC); });
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("wal '" + path + "' does not exist");
    }
    return Status::IOError("wal open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("wal stat '" + path + "': " + err);
  }
  std::string contents(static_cast<size_t>(st.st_size), '\0');
  int64_t done = 0;
  const Status read =
      st.st_size == 0
          ? Status::OK()
          : io::PreadFull(fd, contents.data(), st.st_size, 0, nullptr,
                          nullptr, &done);
  ::close(fd);
  RELSERVE_RETURN_NOT_OK(read);
  contents.resize(static_cast<size_t>(done));

  std::vector<WalRecord> records;
  int64_t offset = 0;
  const int64_t size = static_cast<int64_t>(contents.size());
  uint64_t expect_lsn = 0;
  while (offset + 8 <= size) {
    uint32_t crc = 0;
    uint32_t len = 0;
    std::memcpy(&crc, contents.data() + offset, 4);
    std::memcpy(&len, contents.data() + offset + 4, 4);
    if (len > kMaxFrameBytes || offset + 8 + len > size) break;
    const char* payload = contents.data() + offset + 8;
    if (crc32c::Value(payload, len) != crc) break;
    Result<WalRecord> rec = DecodeWalPayload(payload, len);
    if (!rec.ok()) break;  // checksum-clean but undecodable: stop here
    // LSNs must ascend by one; a replayed/duplicated frame means the
    // tail is not trustworthy either.
    if (expect_lsn != 0 && rec->lsn != expect_lsn + 1) break;
    expect_lsn = rec->lsn;
    offset += 8 + len;
    records.push_back(std::move(*rec));
    if (boundaries != nullptr) boundaries->push_back(offset);
  }
  if (torn_tail != nullptr) *torn_tail = offset < size;
  return records;
}

}  // namespace relserve
