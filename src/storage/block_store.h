// BlockStore: a tensor relation — the on-page home of TensorBlocks.
//
// This is the storage half of the relation-centric architecture: a
// large matrix is chunked (SplitMatrix / ExtractBlock) and each block's
// payload is laid out across buffer-pool pages. Reading a block back
// materializes just that block, charged to the caller's arena; the rest
// of the tensor stays on pages (resident or spilled). Block metadata
// (coordinates, shape, page list) is kept in memory — it is catalog
// data, tiny compared to payloads.
//
// A store owns its pages privately by default — the right mode for
// transient activation relations, which are write-once/drop and would
// only pay hashing overhead for dedup. Constructed over a
// PhysicalBlockIndex instead, the store becomes a *logical* relation:
// Put resolves each payload through the content-addressed index, the
// entry's page list points at a shared ref-counted physical block (N
// fine-tuned model variants resolve identical weight blocks to the
// same pages, so they share buffer-pool frames too), and the dtor
// drops references rather than deleting pages.
//
// A weight relation may store each block as its GEMM B panel instead
// of row-major (blockops::ChunkMatrix does, so a join step reads a
// panel ready for the micro-kernel). The store only records that it
// holds panels; an entry's shape is the stored payload's, and the
// layout and its sliver width are the kernel layer's business.
// VisitPages reads a block in place instead of through a Get copy.

#ifndef RELSERVE_STORAGE_BLOCK_STORE_H_
#define RELSERVE_STORAGE_BLOCK_STORE_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/physical_block_index.h"
#include "tensor/tensor_block.h"

namespace relserve {

class BlockStore {
 public:
  struct BlockEntry {
    int64_t row_block = 0;
    int64_t col_block = 0;
    int64_t rows = 0;
    int64_t cols = 0;
    // Pages backing the payload. For a shared entry this is a copy of
    // the physical block's page list — reads never touch the index.
    std::vector<PageId> pages;
    // The ref-counted physical block serving this entry, or
    // kInvalidPhysicalBlockId for a privately owned entry.
    PhysicalBlockId physical = kInvalidPhysicalBlockId;

    bool shared() const { return physical != kInvalidPhysicalBlockId; }
    int64_t ByteSize() const {
      return rows * cols * static_cast<int64_t>(sizeof(float));
    }
  };

  // Private-page store (activations, and weights when dedup is off).
  // `panels` makes it a store of GEMM B panels.
  BlockStore(BufferPool* pool, BlockedShape geometry, bool panels = false)
      : pool_(pool), geometry_(geometry), holds_panels_(panels) {}

  // Shared store: every Put resolves through `index` (not owned, must
  // outlive the store) with elementwise `tolerance` (0 = byte-exact).
  BlockStore(PhysicalBlockIndex* index, BlockedShape geometry,
             float tolerance, bool panels = false)
      : pool_(index->pool()),
        geometry_(geometry),
        holds_panels_(panels),
        index_(index),
        tolerance_(tolerance) {}

  // Dropping a store recycles its private pages back to the disk
  // manager's free list — intermediate activation relations are
  // transient, and without recycling every query would grow the spill
  // file. Shared entries release their index reference instead; the
  // physical pages die with the last referencing store.
  ~BlockStore();

  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  // Writes one block's payload to fresh pages and records its entry.
  // Thread-safe against concurrent Put (ParallelFor morsels emit
  // output blocks concurrently); the entry order then follows
  // completion order, which is irrelevant to the relation's contents.
  // Do not interleave Put with entries()/Get/ToMatrix on the same
  // store.
  Status Put(const TensorBlock& block);

  // Chunks an in-memory matrix and stores every block row-major (not
  // for packed stores). Uses O(block) transient memory (charged to
  // `scratch`, may be null).
  Status PutMatrix(const Tensor& m, MemoryTracker* scratch = nullptr);

  // Calls fn(pos, data, count) -> Status for each page of `entry` in
  // order, `data` holding payload floats [pos, pos + count) in the
  // page's (cache-line-aligned) frame, pinned for that call only.
  // Stops at fn's first error.
  template <typename Fn>
  Status VisitPages(const BlockEntry& entry, Fn&& fn) const {
    const int64_t total = entry.rows * entry.cols;
    constexpr int64_t kPageFloats = kPageSize / sizeof(float);
    int64_t pos = 0;
    for (const PageId page_id : entry.pages) {
      RELSERVE_ASSIGN_OR_RETURN(char* page, pool_->FetchPage(page_id));
      const PageGuard guard(pool_, page_id);
      const int64_t count = std::min(total - pos, kPageFloats);
      RELSERVE_RETURN_NOT_OK(
          fn(pos, reinterpret_cast<const float*>(page), count));
      pos += count;
    }
    return pos == total
               ? Status::OK()
               : Status::Internal("block entry page list too short");
  }

  // Copies `entry`'s payload into `dst`, one block row every `ld`
  // floats, fetching each of its pages once.
  Status ReadInto(const BlockEntry& entry, float* dst, int64_t ld) const;

  // Reads a stored block back into a Tensor charged to `tracker`.
  Result<TensorBlock> Get(const BlockEntry& entry,
                          MemoryTracker* tracker = nullptr) const;

  // Issues asynchronous loads for every page of `entry` so a
  // following Get overlaps its disk reads with whatever the caller
  // computes in between. Best effort; the pool counts the pages it
  // accepts in BufferPoolStats::prefetches_issued.
  void PrefetchEntry(const BlockEntry& entry) const;

  // Reassembles the full matrix (requires it to fit in `tracker`),
  // copying each entry's page bytes straight into the output rows
  // while the next entry's pages load. Row-major stores only;
  // blockops::Assemble unpacks panel stores.
  Result<Tensor> ToMatrix(MemoryTracker* tracker = nullptr) const;

  const std::vector<BlockEntry>& entries() const { return entries_; }
  const BlockedShape& geometry() const { return geometry_; }
  // Whether the payloads are GEMM B panels (else row-major blocks).
  bool holds_panels() const { return holds_panels_; }
  BufferPool* pool() const { return pool_; }
  PhysicalBlockIndex* index() const { return index_; }

  // Total payload bytes across all stored blocks (the *logical* size:
  // shared entries count fully even though their pages are shared).
  int64_t TotalBytes() const;

  // Dedup outcome of a shared store: entries that resolved to a
  // physical block that already existed, and their payload bytes
  // (i.e. bytes this store did not allocate). Zero for private
  // stores. Stable after the last Put.
  int64_t shared_blocks() const { return shared_blocks_; }
  int64_t shared_bytes() const { return shared_bytes_; }

 private:
  BufferPool* pool_;
  BlockedShape geometry_;
  bool holds_panels_ = false;
  PhysicalBlockIndex* index_ = nullptr;  // null = private pages
  float tolerance_ = 0.0f;
  int64_t shared_blocks_ = 0;  // under entries_mu_ during Put
  int64_t shared_bytes_ = 0;
  std::mutex entries_mu_;  // guards entries_ during concurrent Put
  std::vector<BlockEntry> entries_;
};

}  // namespace relserve

#endif  // RELSERVE_STORAGE_BLOCK_STORE_H_
