// PhysicalBlockIndex: content-addressed, ref-counted physical block
// storage shared across every deployed model (paper Sec. 4(1); Zhou et
// al., "Serving Deep Learning Models with Deduplication from
// Relational Databases").
//
// Fine-tuned model variants share most of their weight pages. Instead
// of every deployment owning a private copy, block payloads are keyed
// by content: a CRC32C hash narrows to candidates, a byte-exact
// comparison (or a bounded L-infinity comparison in the accuracy-aware
// tolerance mode) confirms, and the caller gets back a ref-counted
// handle onto the one physical block all matching deployments share.
// Physical pages are freed exactly when the last reference drops —
// deploy 50 variants, undeploy in any order, the pool returns to
// baseline.
//
// Two payload arms live in the index:
//   - page-backed blocks (the relation-centric weight chunks): the
//     payload is laid out across buffer-pool pages, so N deployments
//     resolving the same block pin the *same frames* — buffer-pool hit
//     rate improves along with footprint;
//   - resident blocks (whole-tensor weights: UDF-centric matmuls,
//     conv kernels, biases): the canonical Tensor's refcounted buffer
//     is shared, charged to the working arena exactly once.
// The arms never dedup against each other — a handle's form is part of
// its identity.
//
// Concurrency: one mutex serializes Intern/Release/Materialize. All
// callers are deploy/undeploy-time (queries read block pages through
// the BufferPool without touching the index), so the lock is never on
// a serving hot path. Lock order: index mutex, then buffer-pool
// internals; the pool never calls back into the index.

#ifndef RELSERVE_STORAGE_PHYSICAL_BLOCK_INDEX_H_
#define RELSERVE_STORAGE_PHYSICAL_BLOCK_INDEX_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "tensor/tensor.h"
#include "tensor/tensor_block.h"

namespace relserve {

using PhysicalBlockId = int64_t;
inline constexpr PhysicalBlockId kInvalidPhysicalBlockId = -1;

// Snapshot of the index. "Live" numbers describe currently referenced
// blocks; the cumulative counters never decrease. logical_bytes is
// what naive per-model storage would hold resident; physical_bytes is
// what the shared index actually holds.
struct PhysicalBlockStats {
  int64_t unique_blocks = 0;   // live physical blocks
  int64_t logical_refs = 0;    // live references onto them
  int64_t physical_bytes = 0;  // live payload bytes, stored once
  int64_t logical_bytes = 0;   // live payload bytes, as referenced
  int64_t interned = 0;        // cumulative Intern calls
  int64_t dedup_hits = 0;      // cumulative Interns resolved to an
                               // existing block
  int64_t freed_blocks = 0;    // cumulative blocks freed at last ref
  // Largest elementwise error accepted by any tolerance-mode match.
  float max_substitution_error = 0.0f;

  double DedupRatio() const {
    return physical_bytes == 0
               ? 1.0
               : static_cast<double>(logical_bytes) / physical_bytes;
  }

  template <typename F>
  void ForEachField(F&& f) const {
    f("unique_blocks", unique_blocks);
    f("logical_refs", logical_refs);
    f("physical_bytes", physical_bytes);
    f("logical_bytes", logical_bytes);
    f("interned", interned);
    f("dedup_hits", dedup_hits);
    f("freed_blocks", freed_blocks);
    f("max_substitution_error", max_substitution_error);
  }
};

class PhysicalBlockIndex {
 public:
  // `pool` backs the page-backed arm; it may be null for a
  // resident-only index (the offline dedup path below).
  explicit PhysicalBlockIndex(BufferPool* pool) : pool_(pool) {}

  // Frees any pages still owned at teardown. Well-behaved callers
  // Release every handle first; this is the leak backstop.
  ~PhysicalBlockIndex();

  PhysicalBlockIndex(const PhysicalBlockIndex&) = delete;
  PhysicalBlockIndex& operator=(const PhysicalBlockIndex&) = delete;

  // One ref-counted handle. Exactly one payload form is populated:
  // `pages` for the page-backed arm, `payload` (a buffer-sharing
  // Tensor) for the resident arm. The pages remain property of the
  // index — callers read them through the BufferPool but must never
  // DeletePage them; dropping the reference is Release(id).
  struct Interned {
    PhysicalBlockId id = kInvalidPhysicalBlockId;
    std::vector<PageId> pages;
    Tensor payload;
    bool deduped = false;
    float match_error = 0.0f;
  };

  // Resolves `payload` to a page-backed physical block: an existing
  // block whose content matches within `tolerance` (byte-exact at
  // tolerance 0) gains a reference, otherwise the payload is written
  // to fresh pages. Requires a buffer pool.
  Result<Interned> Intern(const Tensor& payload, float tolerance);

  // Resident-arm counterpart. On a miss the canonical copy is cloned
  // into `tracker` (null = the input tensor's buffer is shared
  // as-is); on a hit the returned Tensor shares the canonical buffer
  // and charges nothing.
  Result<Interned> InternResident(const Tensor& payload,
                                  float tolerance,
                                  MemoryTracker* tracker = nullptr);

  // Adds a reference to an existing block (a caller cloning a handle
  // it already holds). NotFound for a dead or invalid id.
  Status AddRef(PhysicalBlockId id);

  // Drops one reference; at zero the block's pages go back to the
  // pool's free list (resident buffers die with their last Tensor).
  // Releasing an invalid/dead id is a no-op — dtor ordering in
  // callers is simpler when Release is idempotent past the end.
  void Release(PhysicalBlockId id);

  // Reads a block's payload back into a Tensor charged to `tracker`
  // (resident blocks return a buffer-sharing copy instead).
  Result<Tensor> Materialize(PhysicalBlockId id,
                             MemoryTracker* tracker = nullptr) const;

  PhysicalBlockStats stats() const;
  BufferPool* pool() const { return pool_; }

 private:
  struct Block {
    Shape shape;
    uint32_t crc = 0;
    int64_t bytes = 0;
    int64_t refs = 0;
    float mean = 0.0f;  // tolerance-mode prefilter
    bool resident = false;
    std::vector<PageId> pages;  // page-backed arm
    Tensor payload;             // resident arm
  };

  Result<Interned> InternImpl(const Tensor& payload, float tolerance,
                              bool resident, MemoryTracker* tracker);

  // All of the below require mu_ held.
  Result<PhysicalBlockId> FindMatch(const Tensor& payload,
                                    uint32_t crc, float mean,
                                    float tolerance, bool resident,
                                    float* match_error) const;
  // Byte-exact at tolerance 0, bounded L-infinity otherwise; streams
  // page-backed candidates through the pool one page at a time.
  Result<bool> PayloadMatches(const Block& block, const Tensor& payload,
                              float tolerance, float* max_diff) const;
  void Unindex(PhysicalBlockId id, const Block& block);

  static uint64_t HashKey(uint32_t crc, bool resident) {
    return (static_cast<uint64_t>(crc) << 1) |
           (resident ? 1u : 0u);
  }

  BufferPool* pool_;
  mutable std::mutex mu_;
  PhysicalBlockId next_id_ = 0;
  std::unordered_map<PhysicalBlockId, Block> blocks_;
  // Exact lookup: (crc, arm) -> candidate ids (shape + content
  // verified before a match is declared).
  std::unordered_multimap<uint64_t, PhysicalBlockId> by_hash_;
  // Tolerance lookup: (shape, arm) -> ids, scanned with the mean
  // prefilter before the full elementwise comparison.
  std::map<std::pair<std::string, bool>,
           std::vector<PhysicalBlockId>>
      by_shape_;
  PhysicalBlockStats stats_;
};

// --- Offline block deduplication (paper Sec. 4(1)) -------------------
//
// The catalog-scale batch form of the same machinery: deduplicate a
// list of logical tensor blocks against each other with elementwise
// tolerance (0 = exact), implemented by interning every block into a
// transient resident-arm PhysicalBlockIndex. bench_ablation_dedup
// measures it; the deploy path uses the index directly.

struct DedupStats {
  int64_t input_blocks = 0;
  int64_t unique_blocks = 0;
  int64_t input_bytes = 0;
  int64_t stored_bytes = 0;
  // Largest elementwise error introduced by any substitution.
  float max_substitution_error = 0.0f;

  double CompressionRatio() const {
    return stored_bytes == 0
               ? 1.0
               : static_cast<double>(input_bytes) / stored_bytes;
  }
};

struct DedupResult {
  // Physical blocks actually stored (payloads shared with the inputs).
  std::vector<TensorBlock> unique_blocks;
  // mapping[i] = index into unique_blocks serving logical block i.
  std::vector<int64_t> mapping;
  // The logical coordinates of every input block, in input order
  // (needed to reconstruct the original layout: a shared physical
  // block serves several logical positions).
  std::vector<std::pair<int64_t, int64_t>> logical_coords;
  DedupStats stats;
};

// Deduplicates `blocks` with elementwise tolerance `tolerance`.
Result<DedupResult> DeduplicateBlocks(
    const std::vector<TensorBlock>& blocks, float tolerance);

// Reconstructs the logical block list from a dedup result (payloads
// are shared, not copied).
std::vector<TensorBlock> ExpandDedup(const DedupResult& dedup);

}  // namespace relserve

#endif  // RELSERVE_STORAGE_PHYSICAL_BLOCK_INDEX_H_
