#include "cache/result_cache.h"

#include <algorithm>
#include <memory>
#include <mutex>

namespace relserve {

ApproxResultCache::ApproxResultCache(int dim, Config config)
    : config_(config),
      index_(std::make_unique<HnswIndex>(dim, config.hnsw)) {}

std::string ExactResultCache::Key(const std::vector<float>& features) {
  return std::string(reinterpret_cast<const char*>(features.data()),
                     features.size() * sizeof(float));
}

void ExactResultCache::Insert(const std::vector<float>& features,
                              std::vector<float> prediction) {
  Insert(features, std::move(prediction),
         fence_.load(std::memory_order_acquire));
}

void ExactResultCache::Insert(const std::vector<float>& features,
                              std::vector<float> prediction,
                              uint64_t version) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    map_[Key(features)] = Entry{std::move(prediction), version};
  }
  stats_.insertions.Add();
}

std::optional<std::vector<float>> ExactResultCache::Lookup(
    const std::vector<float>& features) {
  stats_.lookups.Add();
  const std::string key = Key(features);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    if (it->second.version >=
        fence_.load(std::memory_order_acquire)) {
      stats_.hits.Add();
      return it->second.prediction;
    }
  }
  // Fenced entry: erase it (re-checking under the writer lock — a
  // racing Insert may have refreshed it with a newer stamp).
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() &&
        it->second.version < fence_.load(std::memory_order_acquire)) {
      map_.erase(it);
      stats_.invalidations.Add();
    }
  }
  return std::nullopt;
}

void ExactResultCache::Invalidate(uint64_t version) {
  uint64_t cur = fence_.load(std::memory_order_relaxed);
  while (cur < version &&
         !fence_.compare_exchange_weak(cur, version,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
}

Status ApproxResultCache::Insert(const std::vector<float>& features,
                                 std::vector<float> prediction) {
  return Insert(features, std::move(prediction),
                fence_.load(std::memory_order_acquire));
}

Status ApproxResultCache::Insert(const std::vector<float>& features,
                                 std::vector<float> prediction,
                                 uint64_t version) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    RELSERVE_ASSIGN_OR_RETURN(int64_t id, index_->Add(features));
    if (id != static_cast<int64_t>(predictions_.size())) {
      return Status::Internal("cache id out of sync with index");
    }
    predictions_.push_back(std::move(prediction));
    versions_.push_back(version);
  }
  stats_.insertions.Add();
  return Status::OK();
}

std::optional<std::vector<float>> ApproxResultCache::Lookup(
    const std::vector<float>& features) {
  stats_.lookups.Add();
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto neighbors = index_->Search(features, 1);
  if (!neighbors.ok() || neighbors->empty()) return std::nullopt;
  const AnnIndex::Neighbor& nearest = neighbors->front();
  if (nearest.distance > config_.max_distance) return std::nullopt;
  if (versions_[nearest.id] < fence_.load(std::memory_order_acquire)) {
    stats_.invalidations.Add();
    return std::nullopt;
  }
  stats_.hits.Add();
  return predictions_[nearest.id];
}

void ApproxResultCache::Invalidate(uint64_t version) {
  uint64_t cur = fence_.load(std::memory_order_relaxed);
  while (cur < version &&
         !fence_.compare_exchange_weak(cur, version,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
}

namespace {

int64_t ArgMax(const std::vector<float>& v) {
  return static_cast<int64_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace

Result<CachePolicyDecision> MonteCarloCachePolicy(
    ApproxResultCache* cache,
    const std::vector<std::vector<float>>& sample_requests,
    const std::function<Result<std::vector<float>>(
        const std::vector<float>&)>& infer,
    double sla_min_accuracy) {
  if (sample_requests.empty()) {
    return Status::InvalidArgument("empty Monte Carlo sample");
  }
  int64_t agreements = 0;
  int64_t decided = 0;
  for (const std::vector<float>& request : sample_requests) {
    RELSERVE_ASSIGN_OR_RETURN(std::vector<float> truth, infer(request));
    std::optional<std::vector<float>> cached = cache->Lookup(request);
    ++decided;
    if (!cached.has_value()) {
      // A miss falls through to real inference — no accuracy cost.
      ++agreements;
      continue;
    }
    if (ArgMax(*cached) == ArgMax(truth)) ++agreements;
  }
  CachePolicyDecision decision;
  decision.sample_size = decided;
  decision.estimated_accuracy =
      static_cast<double>(agreements) / decided;
  decision.enable_cache =
      decision.estimated_accuracy >= sla_min_accuracy;
  return decision;
}

}  // namespace relserve
