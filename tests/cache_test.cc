#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cache/hnsw_index.h"
#include "cache/result_cache.h"
#include "common/random.h"

namespace relserve {
namespace {

std::vector<float> RandVec(Rng* rng, int dim) {
  std::vector<float> v(dim);
  for (float& x : v) x = rng->Uniform();
  return v;
}

float L2(const std::vector<float>& a, const std::vector<float>& b) {
  float sum = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(sum);
}

TEST(HnswTest, EmptyIndexReturnsNothing) {
  HnswIndex index(4);
  auto result = index.Search({0, 0, 0, 0}, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(HnswTest, SingleElement) {
  HnswIndex index(2);
  ASSERT_TRUE(index.Add({1.0f, 2.0f}).ok());
  auto result = index.Search({1.0f, 2.1f}, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 0);
  EXPECT_NEAR((*result)[0].distance, 0.1f, 1e-5f);
}

TEST(HnswTest, RejectsDimensionMismatch) {
  HnswIndex index(3);
  EXPECT_TRUE(index.Add({1.0f}).status().IsInvalidArgument());
  ASSERT_TRUE(index.Add({1, 2, 3}).ok());
  EXPECT_TRUE(index.Search({1.0f}, 1).status().IsInvalidArgument());
}

TEST(HnswTest, ExactQueryFindsItself) {
  const int dim = 16;
  Rng rng(7);
  HnswIndex index(dim);
  std::vector<std::vector<float>> vectors;
  for (int i = 0; i < 200; ++i) {
    vectors.push_back(RandVec(&rng, dim));
    ASSERT_TRUE(index.Add(vectors.back()).ok());
  }
  for (int i = 0; i < 200; i += 17) {
    auto result = index.Search(vectors[i], 1);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result->empty());
    EXPECT_EQ((*result)[0].id, i);
    EXPECT_NEAR((*result)[0].distance, 0.0f, 1e-5f);
  }
}

TEST(HnswTest, RecallAgainstBruteForce) {
  const int dim = 8;
  const int n = 500;
  Rng rng(13);
  HnswIndex index(dim);
  std::vector<std::vector<float>> vectors;
  for (int i = 0; i < n; ++i) {
    vectors.push_back(RandVec(&rng, dim));
    ASSERT_TRUE(index.Add(vectors.back()).ok());
  }
  int hits = 0;
  const int queries = 50;
  for (int q = 0; q < queries; ++q) {
    const std::vector<float> query = RandVec(&rng, dim);
    // Brute-force nearest.
    int best = 0;
    float best_dist = L2(query, vectors[0]);
    for (int i = 1; i < n; ++i) {
      const float d = L2(query, vectors[i]);
      if (d < best_dist) {
        best_dist = d;
        best = i;
      }
    }
    auto result = index.Search(query, 1);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result->empty());
    if ((*result)[0].id == best) ++hits;
  }
  // HNSW is approximate; demand >= 80% recall@1 at these settings.
  EXPECT_GE(hits, queries * 8 / 10);
}

TEST(HnswTest, NeighborsSortedByDistance) {
  Rng rng(3);
  HnswIndex index(4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(index.Add(RandVec(&rng, 4)).ok());
  }
  auto result = index.Search(RandVec(&rng, 4), 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 10u);
  for (size_t i = 1; i < result->size(); ++i) {
    EXPECT_LE((*result)[i - 1].distance, (*result)[i].distance);
  }
}

TEST(ExactCacheTest, HitsOnlyOnExactBytes) {
  ExactResultCache cache;
  cache.Insert({1.0f, 2.0f}, {0.9f, 0.1f});
  auto hit = cache.Lookup({1.0f, 2.0f});
  ASSERT_TRUE(hit.has_value());
  EXPECT_FLOAT_EQ((*hit)[0], 0.9f);
  EXPECT_FALSE(cache.Lookup({1.0f, 2.0001f}).has_value());
  EXPECT_EQ(cache.stats().lookups, 2);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(ApproxCacheTest, HitsWithinDistanceThreshold) {
  ApproxResultCache::Config config;
  config.max_distance = 0.5f;
  ApproxResultCache cache(2, config);
  ASSERT_TRUE(cache.Insert({0.0f, 0.0f}, {1.0f, 0.0f}).ok());
  auto near = cache.Lookup({0.1f, 0.1f});
  ASSERT_TRUE(near.has_value());
  EXPECT_FLOAT_EQ((*near)[0], 1.0f);
  EXPECT_FALSE(cache.Lookup({2.0f, 2.0f}).has_value());
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.5);
}

TEST(ApproxCacheTest, NearestOfSeveralWins) {
  ApproxResultCache::Config config;
  config.max_distance = 10.0f;
  ApproxResultCache cache(1, config);
  ASSERT_TRUE(cache.Insert({0.0f}, {1.0f}).ok());
  ASSERT_TRUE(cache.Insert({5.0f}, {2.0f}).ok());
  auto hit = cache.Lookup({4.0f});
  ASSERT_TRUE(hit.has_value());
  EXPECT_FLOAT_EQ((*hit)[0], 2.0f);
}

TEST(PolicyTest, TightClustersPassLooseSlaFails) {
  // Two well-separated clusters with distinct predictions; cached
  // answers within a cluster agree, so accuracy is high.
  ApproxResultCache::Config config;
  config.max_distance = 1.0f;
  ApproxResultCache cache(2, config);
  ASSERT_TRUE(cache.Insert({0.0f, 0.0f}, {1.0f, 0.0f}).ok());
  ASSERT_TRUE(cache.Insert({10.0f, 10.0f}, {0.0f, 1.0f}).ok());

  auto infer = [](const std::vector<float>& x)
      -> Result<std::vector<float>> {
    // Ground truth: class 0 near origin, class 1 near (10, 10).
    const float d0 = x[0] * x[0] + x[1] * x[1];
    return d0 < 50.0f ? std::vector<float>{1.0f, 0.0f}
                      : std::vector<float>{0.0f, 1.0f};
  };
  std::vector<std::vector<float>> sample = {
      {0.1f, 0.1f}, {0.2f, 0.0f}, {9.9f, 10.0f}, {10.1f, 9.8f}};
  auto decision = MonteCarloCachePolicy(&cache, sample, infer, 0.95);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->enable_cache);
  EXPECT_DOUBLE_EQ(decision->estimated_accuracy, 1.0);
}

TEST(PolicyTest, CrossClusterHitsLowerAccuracy) {
  // Cache radius so large that opposite-class requests hit.
  ApproxResultCache::Config config;
  config.max_distance = 100.0f;
  ApproxResultCache cache(1, config);
  ASSERT_TRUE(cache.Insert({0.0f}, {1.0f, 0.0f}).ok());  // class 0

  auto infer = [](const std::vector<float>& x)
      -> Result<std::vector<float>> {
    return x[0] < 5.0f ? std::vector<float>{1.0f, 0.0f}
                       : std::vector<float>{0.0f, 1.0f};
  };
  std::vector<std::vector<float>> sample = {{0.5f}, {9.0f}, {8.0f},
                                            {1.0f}};
  auto decision = MonteCarloCachePolicy(&cache, sample, infer, 0.9);
  ASSERT_TRUE(decision.ok());
  EXPECT_FALSE(decision->enable_cache);
  EXPECT_DOUBLE_EQ(decision->estimated_accuracy, 0.5);
}

TEST(PolicyTest, EmptySampleRejected) {
  ApproxResultCache::Config config;
  ApproxResultCache cache(1, config);
  auto infer = [](const std::vector<float>&)
      -> Result<std::vector<float>> { return std::vector<float>{1.0f}; };
  EXPECT_TRUE(MonteCarloCachePolicy(&cache, {}, infer, 0.9)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace relserve
