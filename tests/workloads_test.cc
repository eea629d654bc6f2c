#include <gtest/gtest.h>

#include <cmath>

#include "relational/operator.h"
#include "relational/vectorized.h"
#include "serving/serving_session.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

class WorkloadsTest : public ::testing::Test {
 protected:
  WorkloadsTest() : session_(ServingConfig{}) {}
  ServingSession session_;
};

TEST_F(WorkloadsTest, FeatureTableHasRequestedShape) {
  auto table = session_.CreateTable("t", workloads::FeatureTableSchema());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(workloads::FillFeatureTable(*table, 50, 28, 1).ok());
  EXPECT_EQ((*table)->columnar->num_rows(), 50);
  ColumnarRowScan scan((*table)->columnar.get());
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 50u);
  EXPECT_EQ((*rows)[0].value(1).AsFloatVector().size(), 28u);
  EXPECT_EQ((*rows)[49].value(0).AsInt64(), 49);
}

TEST_F(WorkloadsTest, GenerationIsDeterministic) {
  auto t1 = session_.CreateTable("a", workloads::FeatureTableSchema());
  auto t2 = session_.CreateTable("b", workloads::FeatureTableSchema());
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE(workloads::FillFeatureTable(*t1, 10, 4, 99).ok());
  ASSERT_TRUE(workloads::FillFeatureTable(*t2, 10, 4, 99).ok());
  ColumnarRowScan s1((*t1)->columnar.get());
  ColumnarRowScan s2((*t2)->columnar.get());
  auto r1 = Collect(&s1);
  auto r2 = Collect(&s2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i], (*r2)[i]);
  }
}

TEST_F(WorkloadsTest, BoschPartitionsShareCorrelatedKeys) {
  auto d1 = session_.CreateTable("d1", workloads::PartitionedTableSchema());
  auto d2 = session_.CreateTable("d2", workloads::PartitionedTableSchema());
  ASSERT_TRUE(d1.ok() && d2.ok());
  ASSERT_TRUE(
      workloads::FillBoschPartitions(*d1, *d2, 100, 16, 0.05, 7).ok());
  EXPECT_EQ((*d1)->columnar->num_rows(), 100);
  EXPECT_EQ((*d2)->columnar->num_rows(), 100);
  // Same-row keys must be close (jitter is small vs the key range).
  ColumnarRowScan s1((*d1)->columnar.get());
  ColumnarRowScan s2((*d2)->columnar.get());
  auto r1 = Collect(&s1);
  auto r2 = Collect(&s2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  for (size_t i = 0; i < r1->size(); ++i) {
    const double k1 = (*r1)[i].value(1).AsFloat64();
    const double k2 = (*r2)[i].value(1).AsFloat64();
    EXPECT_LT(std::fabs(k1 - k2), 1.0);
  }
}

TEST_F(WorkloadsTest, BoschSimilarityJoinProducesMatches) {
  auto d1 = session_.CreateTable("d1", workloads::PartitionedTableSchema());
  auto d2 = session_.CreateTable("d2", workloads::PartitionedTableSchema());
  ASSERT_TRUE(d1.ok() && d2.ok());
  ASSERT_TRUE(
      workloads::FillBoschPartitions(*d1, *d2, 200, 8, 0.05, 3).ok());
  auto left = std::make_unique<ColumnarRowScan>((*d1)->columnar.get());
  auto right = std::make_unique<ColumnarRowScan>((*d2)->columnar.get());
  SimilarityJoin join(std::move(left), std::move(right), 1, 1, 0.2);
  auto rows = Collect(&join);
  ASSERT_TRUE(rows.ok());
  // Every row should at least match its own partner (jitter << eps).
  EXPECT_GE(static_cast<int64_t>(rows->size()), 180);
}

TEST_F(WorkloadsTest, ClusteredDataLabelsMatchCenters) {
  auto data = workloads::GenClusteredData(500, 16, 10, 0.01f, 5);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->features.shape(), (Shape{500, 16}));
  ASSERT_EQ(data->labels.size(), 500u);
  // Samples with the same label are near each other; different labels
  // are (with overwhelming probability in 16-d) farther apart.
  int same_label_pairs = 0;
  double same_dist = 0, diff_dist = 0;
  int diff_label_pairs = 0;
  const float* f = data->features.data();
  for (int i = 0; i < 100; ++i) {
    for (int j = i + 1; j < 100; ++j) {
      double d = 0;
      for (int k = 0; k < 16; ++k) {
        const double diff = f[i * 16 + k] - f[j * 16 + k];
        d += diff * diff;
      }
      if (data->labels[i] == data->labels[j]) {
        same_dist += std::sqrt(d);
        ++same_label_pairs;
      } else {
        diff_dist += std::sqrt(d);
        ++diff_label_pairs;
      }
    }
  }
  ASSERT_GT(same_label_pairs, 0);
  ASSERT_GT(diff_label_pairs, 0);
  EXPECT_LT(same_dist / same_label_pairs,
            0.25 * diff_dist / diff_label_pairs);
}

TEST_F(WorkloadsTest, GenBatchShape) {
  auto batch = workloads::GenBatch(3, Shape{4, 5}, 1);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->shape(), (Shape{3, 4, 5}));
  MemoryTracker tiny("t", 8);
  EXPECT_TRUE(workloads::GenBatch(100, Shape{100}, 1, &tiny)
                  .status()
                  .IsOutOfMemory());
}

}  // namespace
}  // namespace relserve
