// ExecContext: the resources one inference query executes against.

#ifndef RELSERVE_ENGINE_EXEC_CONTEXT_H_
#define RELSERVE_ENGINE_EXEC_CONTEXT_H_

#include <cstdint>

#include "common/counter.h"
#include "resource/memory_tracker.h"
#include "resource/thread_pool.h"
#include "storage/buffer_pool.h"

namespace relserve {

class PhysicalBlockIndex;

// Block-level work of relation-centric execution, bumped from inside
// ParallelFor morsels. Scan volume and stage time live in StageStats,
// page and prefetch traffic in BufferPoolStats.
struct ExecStats {
  Counter blocks_read;     // tensor blocks loaded
  Counter blocks_written;  // tensor blocks stored
  Counter assembles;       // blocked -> whole transitions
  Counter chunkings;       // whole -> blocked transitions
  // Nodes planned relation-centric that a storage-tier failure forced
  // to re-execute UDF-centric (DESIGN.md "Fault model & recovery").
  Counter repr_fallbacks;

  template <typename F>
  void ForEachField(F&& f) const {
    f("blocks_read", blocks_read);
    f("blocks_written", blocks_written);
    f("assembles", assembles);
    f("chunkings", chunkings);
    f("repr_fallbacks", repr_fallbacks);
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

  ExecStats stats;
};

}  // namespace relserve

#endif  // RELSERVE_ENGINE_EXEC_CONTEXT_H_
