// ExecContext: the resources one inference query executes against.

#ifndef RELSERVE_ENGINE_EXEC_CONTEXT_H_
#define RELSERVE_ENGINE_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "resource/memory_tracker.h"
#include "resource/thread_pool.h"
#include "storage/buffer_pool.h"

namespace relserve {

class PhysicalBlockIndex;

// Counters are atomics because relation-centric operators update them
// from inside ParallelFor morsels; totals stay exact under any
// interleaving.
struct ExecStats {
  std::atomic<int64_t> blocks_read{0};  // tensor blocks loaded
  std::atomic<int64_t> blocks_written{0};  // tensor blocks stored
  std::atomic<int64_t> assembles{0};  // blocked -> whole transitions
  std::atomic<int64_t> chunkings{0};  // whole -> blocked transitions
  // Block-scan prefetch pipeline: page prefetches issued for the next
  // block while the current one computes, and page pins that found
  // the page already loaded by that prefetch.
  std::atomic<int64_t> prefetch_issued{0};
  std::atomic<int64_t> prefetch_useful{0};
  // Nodes planned relation-centric that a storage-tier failure forced
  // to re-execute UDF-centric (DESIGN.md "Fault model & recovery").
  std::atomic<int64_t> repr_fallbacks{0};
  // Compiled-plan execution: physical stages run and wall time spent
  // inside them (the stage runner's per-request attribution; the
  // per-stage breakdown lives in PhysicalPlan's StageStats).
  std::atomic<int64_t> stages_executed{0};
  std::atomic<int64_t> stage_nanos{0};
  // Relational scan volume: rows decoded from table storage (either
  // layout) and the payload bytes those rows carried. Bumped from
  // inside fragment-parallel morsels; EXPLAIN ANALYZE renders both.
  std::atomic<int64_t> rows_scanned{0};
  std::atomic<int64_t> bytes_scanned{0};

  ExecStats() = default;
  ExecStats(const ExecStats& other) { *this = other; }
  // Snapshot with relaxed loads/stores: readers copy stats while
  // workers are still bumping them; each counter is independently
  // coherent and no ordering between counters is implied (or needed).
  ExecStats& operator=(const ExecStats& other) {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    blocks_read.store(other.blocks_read.load(kRelaxed), kRelaxed);
    blocks_written.store(other.blocks_written.load(kRelaxed), kRelaxed);
    assembles.store(other.assembles.load(kRelaxed), kRelaxed);
    chunkings.store(other.chunkings.load(kRelaxed), kRelaxed);
    prefetch_issued.store(other.prefetch_issued.load(kRelaxed),
                          kRelaxed);
    prefetch_useful.store(other.prefetch_useful.load(kRelaxed),
                          kRelaxed);
    repr_fallbacks.store(other.repr_fallbacks.load(kRelaxed), kRelaxed);
    stages_executed.store(other.stages_executed.load(kRelaxed),
                          kRelaxed);
    stage_nanos.store(other.stage_nanos.load(kRelaxed), kRelaxed);
    rows_scanned.store(other.rows_scanned.load(kRelaxed), kRelaxed);
    bytes_scanned.store(other.bytes_scanned.load(kRelaxed), kRelaxed);
    return *this;
  }
};

struct ExecContext {
  // Working-memory arena: whole tensors in UDF-centric mode, and the
  // few in-flight blocks in relation-centric mode, are charged here.
  MemoryTracker* tracker = nullptr;
  // Intra-operator parallelism (may be null for serial execution).
  ThreadPool* pool = nullptr;
  // Page cache backing relation-centric block stores (required for
  // relation-centric / hybrid plans).
  BufferPool* buffer_pool = nullptr;
  // Nominal tensor block geometry for relation-centric chunking.
  int64_t block_rows = 512;
  int64_t block_cols = 512;
  // Content-addressed physical block index for deploy-time weight
  // binding (null = every store owns private pages). Transient
  // activation stores never route through it regardless.
  PhysicalBlockIndex* block_index = nullptr;
  // Elementwise tolerance for weight dedup (0 = byte-exact; the
  // paper's accuracy-aware mode accepts a bounded L-infinity error).
  float dedup_tolerance = 0.0f;

  ExecStats stats;
};

}  // namespace relserve

#endif  // RELSERVE_ENGINE_EXEC_CONTEXT_H_
