// DiskManager: page-granular I/O on a single backing file.
//
// This is the spill target of the buffer pool — the mechanism that
// lets relation-centric execution stream tensors larger than memory
// (paper Sec. 7.1, Table 3).
//
// Reliability contract (DESIGN.md "Fault model & recovery"):
//  - Construction never aborts. DiskManager::Open returns the error
//    as a Status; the (still-available) constructor records it and
//    every subsequent I/O call surfaces it typed.
//  - Every page is written under a CRC32C header and verified on
//    read. A mismatch is retried with bounded re-reads (transient bus
//    or cable faults heal); a persistent mismatch quarantines the
//    page and returns Status::DataLoss — corrupted bytes are never
//    handed to a tensor block. A successful rewrite lifts the
//    quarantine.
//  - Fault injection goes through the failpoint registry (sites
//    "disk.open", "disk.read", "disk.write", plus the ".eintr" /
//    ".short" syscall-resume sites), not ad-hoc hooks.

#ifndef RELSERVE_STORAGE_DISK_MANAGER_H_
#define RELSERVE_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"

namespace relserve {

// Bounded re-reads after a checksum mismatch before the page is
// quarantined and DataLoss returned.
inline constexpr int kChecksumReadRetries = 2;

struct DiskManagerOptions {
  // Verify a CRC32C page header on every read (hardware SSE4.2 when
  // the CPU has it, table fallback otherwise). The
  // RELSERVE_PAGE_CHECKSUMS environment variable ("0"/"off" disables)
  // flips the built-in default — the bench ablation knob.
  bool checksum_pages;

  DiskManagerOptions();
};

class DiskManager {
 public:
  // Opens (creating/truncating) the backing file at `path`; empty
  // path = unique temporary file unlinked on destruction. Failure to
  // open comes back as Status::IOError — never an abort.
  static Result<std::unique_ptr<DiskManager>> Open(
      std::string path = "", DiskManagerOptions options = {});

  // Direct construction is kept for embedding in objects that cannot
  // fail to construct (test fixtures, sessions). It records any open
  // failure in status() instead of aborting; I/O on a failed manager
  // returns that status.
  explicit DiskManager(std::string path = "",
                       DiskManagerOptions options = {});
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  // Hands out a page id — recycled from the free list if possible,
  // fresh otherwise (no I/O until first write).
  PageId AllocatePage();

  // Returns a page to the free list for reuse. The caller must hold
  // no live references to it.
  void FreePage(PageId page_id);

  int64_t num_free() const;

  // Reads exactly kPageSize payload bytes into `out`. Never-written
  // pages read back zero-filled (sparse-file semantics). With
  // checksums enabled a header mismatch triggers bounded re-reads,
  // then quarantine + Status::DataLoss.
  Status ReadPage(PageId page_id, char* out);

  // Writes kPageSize payload bytes under a fresh header. A successful
  // write clears any quarantine on the page (the bad bytes are gone).
  Status WritePage(PageId page_id, const char* data);

  int64_t num_reads() const { return num_reads_.load(); }
  int64_t num_writes() const { return num_writes_.load(); }
  int64_t num_allocated() const { return next_page_id_.load(); }

  // Checksum / recovery accounting.
  int64_t num_checksum_failures() const {
    return num_checksum_failures_.load();
  }
  int64_t num_read_retries() const { return num_read_retries_.load(); }
  int64_t num_quarantined() const;
  bool IsQuarantined(PageId page_id) const;

  bool checksums_enabled() const { return options_.checksum_pages; }
  const std::string& path() const { return path_; }

  // Open outcome; all I/O on a !ok() manager returns this status.
  Status status() const;
  bool ok() const { return fd_ >= 0; }

 private:
  // One verification attempt: read header + payload, verify, zero-pad
  // holes. Returns OK, DataLoss (checksum/page-id mismatch — caller
  // may retry), or IOError.
  Status ReadAttempt(PageId page_id, char* out);

  DiskManagerOptions options_;
  std::string path_;
  bool unlink_on_close_ = false;
  int fd_ = -1;
  Status open_status_;
  mutable std::mutex free_mu_;
  std::vector<PageId> free_list_;
  mutable std::mutex quarantine_mu_;
  std::unordered_set<PageId> quarantined_;
  std::atomic<PageId> next_page_id_{0};
  std::atomic<int64_t> num_reads_{0};
  std::atomic<int64_t> num_writes_{0};
  std::atomic<int64_t> num_checksum_failures_{0};
  std::atomic<int64_t> num_read_retries_{0};
};

}  // namespace relserve

#endif  // RELSERVE_STORAGE_DISK_MANAGER_H_
