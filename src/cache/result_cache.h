// Inference result caches (paper Sec. 5(1), validated in Sec. 7.2.2).
//
// Two flavors:
//  - ExactResultCache: hash of the exact feature bytes -> prediction;
//    zero accuracy loss, only helps on exact repeats.
//  - ApproxResultCache: an HNSW index (hnsw_index.h, behind the
//    AnnIndex interface) over request features; a query within
//    `max_distance` of a cached request reuses its prediction,
//    trading accuracy for latency.
// MonteCarloCachePolicy estimates the accuracy cost on a sample and
// decides whether the trade is within the application's SLA.

#ifndef RELSERVE_CACHE_RESULT_CACHE_H_
#define RELSERVE_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/ann_index.h"
#include "cache/hnsw_index.h"
#include "common/counter.h"
#include "common/result.h"
#include "tensor/tensor.h"

namespace relserve {

// Concurrent serving (the batched cache-miss fill racing row lookups)
// bumps these from several threads.
struct CacheStats {
  Counter lookups;
  Counter hits;
  Counter insertions;
  // Entries rejected by the version fence: their input rows were
  // superseded by a commit after the prediction was computed.
  Counter invalidations;

  double HitRate() const {
    const int64_t l = lookups;
    return l == 0 ? 0.0 : static_cast<double>(hits) / l;
  }
};

// Both caches are safe under concurrent Lookup/Insert: lookups share
// a reader lock, inserts take the writer lock, and the stats Counters
// are bumped outside any exclusive section. This is what lets the
// serving scheduler fill a batched miss while other client threads
// keep probing the same cache.
//
// Version fencing (DESIGN.md "Durability & snapshot isolation"): every
// entry is stamped with the MVCC snapshot its input rows were read at,
// and Invalidate(v) raises a fence below which entries no longer hit.
// An entry is valid iff entry.version >= fence — an entry computed at
// snapshot s is stale exactly when some commit c with s < c touched
// the serving table, and Invalidate(c) makes the fence at least c.
// Staleness is therefore impossible by construction even against a
// racing commit: an in-flight prediction stamps the snapshot it
// *pinned before reading*, so if a commit lands between its read and
// its Insert, the stamp is already below the fence and the entry never
// hits. The default Insert overload stamps the current fence (always
// valid), so single-table static workloads behave exactly as before.
class ExactResultCache {
 public:
  void Insert(const std::vector<float>& features,
              std::vector<float> prediction);
  void Insert(const std::vector<float>& features,
              std::vector<float> prediction, uint64_t version);

  // The cached prediction for exactly these features, if present and
  // not version-fenced. Fenced entries are erased on discovery.
  std::optional<std::vector<float>> Lookup(
      const std::vector<float>& features);

  // Fences out every entry computed at a snapshot below `version`.
  void Invalidate(uint64_t version);

  uint64_t fence() const {
    return fence_.load(std::memory_order_acquire);
  }

  const CacheStats& stats() const { return stats_; }
  int64_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return static_cast<int64_t>(map_.size());
  }

 private:
  struct Entry {
    std::vector<float> prediction;
    uint64_t version = 0;
  };

  static std::string Key(const std::vector<float>& features);

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::atomic<uint64_t> fence_{0};
  CacheStats stats_;
};

class ApproxResultCache {
 public:
  struct Config {
    // A lookup hits iff the nearest cached request is within this L2
    // distance.
    float max_distance = 1.0f;
    HnswIndex::Config hnsw;
  };

  ApproxResultCache(int dim, Config config);

  Status Insert(const std::vector<float>& features,
                std::vector<float> prediction);
  Status Insert(const std::vector<float>& features,
                std::vector<float> prediction, uint64_t version);

  std::optional<std::vector<float>> Lookup(
      const std::vector<float>& features);

  // Version fence, same contract as ExactResultCache::Invalidate.
  // Fenced entries stop hitting immediately; their ANN graph nodes
  // remain (the index has no removal) and are skipped at lookup.
  void Invalidate(uint64_t version);

  uint64_t fence() const {
    return fence_.load(std::memory_order_acquire);
  }

  const CacheStats& stats() const { return stats_; }
  int64_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return index_->size();
  }
  const AnnIndex& index() const { return *index_; }

 private:
  Config config_;
  // Guards the index graph and the predictions table together: Search
  // is read-only on the graph (shared), Add rewires links (exclusive).
  mutable std::shared_mutex mu_;
  std::unique_ptr<AnnIndex> index_;
  std::vector<std::vector<float>> predictions_;  // by index id
  std::vector<uint64_t> versions_;               // by index id
  std::atomic<uint64_t> fence_{0};
  CacheStats stats_;
};

// Decides whether approximate caching meets the SLA (paper Sec. 5(1):
// "estimate a probabilistic error bound using Monte Carlo sampling").
// `infer` must produce the true prediction row for a feature vector.
struct CachePolicyDecision {
  bool enable_cache = false;
  double estimated_accuracy = 0.0;  // agreement of cached vs true argmax
  int64_t sample_size = 0;
};

Result<CachePolicyDecision> MonteCarloCachePolicy(
    ApproxResultCache* cache,
    const std::vector<std::vector<float>>& sample_requests,
    const std::function<Result<std::vector<float>>(
        const std::vector<float>&)>& infer,
    double sla_min_accuracy);

}  // namespace relserve

#endif  // RELSERVE_CACHE_RESULT_CACHE_H_
