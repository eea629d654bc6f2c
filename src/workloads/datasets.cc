#include "workloads/datasets.h"

#include "common/random.h"
#include "relational/row.h"

namespace relserve {
namespace workloads {

Schema FeatureTableSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"features", ValueType::kFloatVector}});
}

Status FillFeatureTable(TableInfo* table, int64_t n, int64_t d,
                        uint64_t seed) {
  return AppendFeatureRows(table, n, d, seed);
}

Status AppendFeatureRows(TableInfo* table, int64_t n, int64_t d,
                         uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    std::vector<float> features(d);
    for (int64_t j = 0; j < d; ++j) features[j] = rng.Uniform();
    RELSERVE_RETURN_NOT_OK(table->columnar->AppendRow(
        Row({Value(int64_t{i}), Value(std::move(features))})));
  }
  return Status::OK();
}

Schema PartitionedTableSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"sim_key", ValueType::kFloat64},
                 {"features", ValueType::kFloatVector}});
}

Status FillBoschPartitions(TableInfo* d1, TableInfo* d2, int64_t n,
                           int64_t features_each, double key_spread,
                           uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    // A shared latent measurement both partitions observed with
    // jitter: this is what makes the two columns "highly correlated"
    // (the paper picks the most-correlated column pair to join on).
    const double latent = rng.Uniform(0.0f, 1000.0f);
    for (TableInfo* table : {d1, d2}) {
      std::vector<float> features(features_each);
      for (int64_t j = 0; j < features_each; ++j) {
        features[j] = rng.Uniform();
      }
      const double key =
          latent + rng.Normal(0.0f, static_cast<float>(key_spread));
      RELSERVE_RETURN_NOT_OK(table->columnar->AppendRow(
          Row({Value(int64_t{i}), Value(key), Value(std::move(features))})));
    }
  }
  return Status::OK();
}

Result<LabeledData> GenClusteredData(int64_t n, int64_t dim,
                                     int num_classes, float noise,
                                     uint64_t seed,
                                     MemoryTracker* tracker,
                                     uint64_t centers_seed) {
  Rng center_rng(centers_seed != 0 ? centers_seed : seed);
  LabeledData data;
  RELSERVE_ASSIGN_OR_RETURN(
      data.centers, Tensor::Create(Shape{num_classes, dim}, tracker));
  for (int64_t i = 0; i < data.centers.NumElements(); ++i) {
    data.centers.data()[i] = center_rng.Uniform();
  }
  Rng rng(seed);
  RELSERVE_ASSIGN_OR_RETURN(data.features,
                            Tensor::Create(Shape{n, dim}, tracker));
  data.labels.resize(n);
  float* dst = data.features.data();
  for (int64_t i = 0; i < n; ++i) {
    const int label =
        static_cast<int>(rng.UniformInt(0, num_classes - 1));
    data.labels[i] = label;
    const float* center = data.centers.data() + label * dim;
    for (int64_t j = 0; j < dim; ++j) {
      dst[i * dim + j] = center[j] + rng.Normal(0.0f, noise);
    }
  }
  return data;
}

Result<Tensor> GenBatch(int64_t batch, const Shape& sample_shape,
                        uint64_t seed, MemoryTracker* tracker) {
  std::vector<int64_t> dims = {batch};
  for (int64_t d : sample_shape.dims()) dims.push_back(d);
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor t, Tensor::Create(Shape(std::move(dims)), tracker));
  Rng rng(seed);
  float* data = t.data();
  for (int64_t i = 0; i < t.NumElements(); ++i) data[i] = rng.Uniform();
  return t;
}

}  // namespace workloads
}  // namespace relserve
