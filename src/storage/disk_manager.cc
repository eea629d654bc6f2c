#include "storage/disk_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/io_util.h"

namespace relserve {

namespace {

struct PageHeader {
  uint32_t magic = 0;
  uint32_t crc = 0;
  uint64_t page_id = 0;
};
static_assert(sizeof(PageHeader) == kPageHeaderSize,
              "on-disk header layout must match kPageHeaderSize");

bool HeaderIsHole(const PageHeader& header) {
  return header.magic == 0 && header.crc == 0 && header.page_id == 0;
}

// The EINTR-resume / short-transfer-resume loops live in
// common/io_util.{h,cc} and are shared with the socket layer; the
// "<site>.eintr" / "<site>.short" failpoints drive the resume
// branches deterministically in tests.

}  // namespace

DiskManagerOptions::DiskManagerOptions() : checksum_pages(true) {
  const char* env = std::getenv("RELSERVE_PAGE_CHECKSUMS");
  if (env != nullptr &&
      (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0)) {
    checksum_pages = false;
  }
}

Result<std::unique_ptr<DiskManager>> DiskManager::Open(
    std::string path, DiskManagerOptions options) {
  auto manager = std::make_unique<DiskManager>(std::move(path), options);
  RELSERVE_RETURN_NOT_OK(manager->status());
  return manager;
}

DiskManager::DiskManager(std::string path, DiskManagerOptions options)
    : options_(options), path_(std::move(path)) {
  Status injected = failpoint::InjectedStatus("disk.open");
  if (!injected.ok()) {
    open_status_ = injected;
    return;
  }
  if (path_.empty()) {
    char templ[] = "/tmp/relserve_spill_XXXXXX";
    fd_ = ::mkstemp(templ);
    if (fd_ < 0) {
      open_status_ = Status::IOError(
          std::string("mkstemp failed: ") + std::strerror(errno));
      return;
    }
    path_ = templ;
    unlink_on_close_ = true;
  } else {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) {
      open_status_ = Status::IOError("failed to open spill file " +
                                     path_ + ": " +
                                     std::strerror(errno));
      return;
    }
  }
}

DiskManager::~DiskManager() {
  if (fd_ >= 0) ::close(fd_);
  if (unlink_on_close_) ::unlink(path_.c_str());
}

Status DiskManager::status() const { return open_status_; }

PageId DiskManager::AllocatePage() {
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    if (!free_list_.empty()) {
      const PageId id = free_list_.back();
      free_list_.pop_back();
      return id;
    }
  }
  return next_page_id_.fetch_add(1, std::memory_order_relaxed);
}

void DiskManager::FreePage(PageId page_id) {
  std::lock_guard<std::mutex> lock(free_mu_);
  free_list_.push_back(page_id);
}

int64_t DiskManager::num_free() const {
  std::lock_guard<std::mutex> lock(free_mu_);
  return static_cast<int64_t>(free_list_.size());
}

int64_t DiskManager::num_quarantined() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return static_cast<int64_t>(quarantined_.size());
}

bool DiskManager::IsQuarantined(PageId page_id) const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_.count(page_id) > 0;
}

// Positioned I/O (pread/pwrite) carries its own offset, so page reads
// and write-backs issued by concurrent buffer-pool threads overlap in
// the kernel instead of serializing behind a seek mutex.

Status DiskManager::ReadAttempt(PageId page_id, char* out) {
  // One failpoint draw per attempt: error preempts the transfer,
  // delay stalls it, bitflip lands on the payload after it — modeling
  // bus/DMA corruption that only the checksum can catch. Each retry
  // re-draws, so a `once` bitflip heals on re-read (transient) while
  // a higher-limit one survives into quarantine (persistent).
  failpoint::Eval fault;
  if (failpoint::AnyActive()) {
    fault = failpoint::Evaluate("disk.read");
    if (fault.fired && fault.action == failpoint::Action::kError) {
      return Status(fault.error_code,
                    "injected fault at disk.read for page " +
                        std::to_string(page_id));
    }
  }

  const int64_t slot = page_id * kPageSlotSize;
  char header_bytes[kPageHeaderSize];
  int64_t header_done = 0;
  RELSERVE_RETURN_NOT_OK(io::PreadFull(fd_, header_bytes, kPageHeaderSize,
                                  slot, "disk.read.eintr",
                                  "disk.read.short", &header_done));
  PageHeader header{};
  std::memcpy(&header, header_bytes,
              static_cast<size_t>(header_done));

  if (header_done == 0 || HeaderIsHole(header)) {
    // Never-written page (or a hole in the sparse file): reads back
    // zero-filled, keeping allocation lazy. No on-disk bytes exist to
    // corrupt, so injected bitflips do not apply here.
    std::memset(out, 0, kPageSize);
    return Status::OK();
  }
  if (header_done < kPageHeaderSize) {
    return Status::DataLoss("partial page header for page " +
                            std::to_string(page_id));
  }

  int64_t payload_done = 0;
  RELSERVE_RETURN_NOT_OK(io::PreadFull(fd_, out, kPageSize,
                                  slot + kPageHeaderSize,
                                  "disk.read.eintr", "disk.read.short",
                                  &payload_done));
  if (payload_done < kPageSize) {
    // Pages written short (torn write at end-of-file) read back
    // zero-padded; the checksum decides whether that is damage.
    std::memset(out + payload_done, 0, kPageSize - payload_done);
  }

  failpoint::ApplyBitflip(fault, out, kPageSize);

  if (header.page_id != static_cast<uint64_t>(page_id)) {
    return Status::DataLoss(
        "misdirected page: slot " + std::to_string(page_id) +
        " carries header for page " + std::to_string(header.page_id));
  }
  if (header.magic == kPageMagicCrc) {
    if (options_.checksum_pages) {
      const uint32_t actual = crc32c::Value(out, kPageSize);
      if (actual != header.crc) {
        return Status::DataLoss("checksum mismatch on page " +
                                std::to_string(page_id));
      }
    }
    return Status::OK();
  }
  if (header.magic == kPageMagicNoCrc) {
    return Status::OK();  // written with checksums off: nothing to verify
  }
  return Status::DataLoss("corrupt page header magic on page " +
                          std::to_string(page_id));
}

Status DiskManager::ReadPage(PageId page_id, char* out) {
  RELSERVE_RETURN_NOT_OK(open_status_);
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    if (quarantined_.count(page_id) > 0) {
      std::memset(out, 0, kPageSize);  // never leak stale buffer bytes
      return Status::DataLoss("page " + std::to_string(page_id) +
                              " is quarantined");
    }
  }
  Status last = Status::OK();
  for (int attempt = 0; attempt <= kChecksumReadRetries; ++attempt) {
    if (attempt > 0) {
      num_read_retries_.fetch_add(1, std::memory_order_relaxed);
    }
    last = ReadAttempt(page_id, out);
    if (last.ok()) {
      num_reads_.fetch_add(1, std::memory_order_relaxed);
      return last;
    }
    if (!last.IsDataLoss()) return last;  // I/O errors do not re-read
    num_checksum_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  // Persistent corruption: quarantine so later readers fail fast and
  // nothing downstream ever consumes the garbage. A successful
  // rewrite of the page lifts the quarantine.
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    quarantined_.insert(page_id);
  }
  // Never leak the corrupt bytes, even to callers that ignore status.
  std::memset(out, 0, kPageSize);
  return last;
}

Status DiskManager::WritePage(PageId page_id, const char* data) {
  RELSERVE_RETURN_NOT_OK(open_status_);

  // The header's checksum is computed over the caller's payload;
  // injected corruption (bitflip/torn) is applied to a scratch copy
  // *after*, so injected damage reaches the disk silently — exactly
  // what a real misbehaving device does — and only the read-side
  // verification can catch it.
  const char* payload = data;
  int64_t payload_len = kPageSize;
  std::unique_ptr<char[]> scratch;
  if (failpoint::AnyActive()) {
    scratch = std::make_unique<char[]>(kPageSize);
    std::memcpy(scratch.get(), data, kPageSize);
    int64_t io_len = kPageSize;
    RELSERVE_RETURN_NOT_OK(failpoint::InjectedIo(
        "disk.write", scratch.get(), kPageSize, &io_len));
    payload = scratch.get();
    payload_len = io_len;
  }

  PageHeader header;
  header.magic =
      options_.checksum_pages ? kPageMagicCrc : kPageMagicNoCrc;
  header.crc =
      options_.checksum_pages ? crc32c::Value(data, kPageSize) : 0;
  header.page_id = static_cast<uint64_t>(page_id);

  const int64_t slot = page_id * kPageSlotSize;
  char header_bytes[kPageHeaderSize];
  std::memcpy(header_bytes, &header, kPageHeaderSize);
  RELSERVE_RETURN_NOT_OK(io::PwriteFull(fd_, header_bytes, kPageHeaderSize,
                                   slot, "disk.write.eintr",
                                   "disk.write.short"));
  RELSERVE_RETURN_NOT_OK(io::PwriteFull(fd_, payload, payload_len,
                                   slot + kPageHeaderSize,
                                   "disk.write.eintr",
                                   "disk.write.short"));
  num_writes_.fetch_add(1, std::memory_order_relaxed);
  // Fresh bytes are on disk (even torn ones — the checksum covers
  // detection); any earlier quarantine no longer applies.
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    quarantined_.erase(page_id);
  }
  return Status::OK();
}

}  // namespace relserve
