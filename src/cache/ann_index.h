// AnnIndex: the approximate-nearest-neighbor interface behind the
// inference result cache. The paper (Sec. 5(1)) lists HNSW, IVF, LSH,
// and product quantization as candidate in-RDBMS indexes; relserve
// implements one, HNSW (hnsw_index.h), the index of the paper's
// Sec. 7.2.2 cache. The interface stays on purpose so that another
// index can come back behind ApproxResultCache without touching it.

#ifndef RELSERVE_CACHE_ANN_INDEX_H_
#define RELSERVE_CACHE_ANN_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace relserve {

class AnnIndex {
 public:
  struct Neighbor {
    int64_t id = -1;
    float distance = 0.0f;  // L2 (not squared)
  };

  virtual ~AnnIndex() = default;

  // Inserts a vector; ids are sequential from 0.
  virtual Result<int64_t> Add(const std::vector<float>& vec) = 0;

  // Up to k approximate nearest neighbors, closest first.
  virtual Result<std::vector<Neighbor>> Search(
      const std::vector<float>& query, int k) const = 0;

  virtual int64_t size() const = 0;
  virtual int dim() const = 0;
};

}  // namespace relserve

#endif  // RELSERVE_CACHE_ANN_INDEX_H_
