// Accuracy-aware model versions (paper Sec. 4(1)): the storage
// optimizer keeps multiple versions of a model with different
// size/accuracy trade-offs, measures each version's output deviation
// on a probe batch, and the query optimizer selects the smallest
// version whose measured error fits the query's SLA.
//
// A version is a deploy configuration of its base, not a rewritten
// weight copy: "<base>@int8" is the base graph over the base's own
// weight buffers, registered with the int8 kernel arm. Its only bytes
// are the int8 packs its deployment quantizes the matmul weights into.

#ifndef RELSERVE_SERVING_MODEL_VERSIONS_H_
#define RELSERVE_SERVING_MODEL_VERSIONS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "serving/serving_session.h"

namespace relserve {

struct ModelVersion {
  std::string model_name;      // registered name of this version
  int64_t weight_bytes = 0;    // storage footprint
  // Max |output - reference output| measured on the probe batch
  // (0 for the reference version itself).
  float max_output_error = 0.0f;
};

// Registers "<base>@int8" — the base graph sharing every base weight
// buffer, deployed with the int8 arm — and measures the int8 arm's
// output deviation against the base on a random probe batch. The
// version's weight_bytes are the int8 packs (Int8Weight::ByteSize)
// its UDF-centric plan stores. Returns the version descriptors for
// both (base first).
Result<std::vector<ModelVersion>> CreateQuantizedVersion(
    ServingSession* session, const std::string& base_model,
    int64_t probe_batch, uint64_t seed);

// The smallest-footprint version with measured error <= max_error;
// NotFound if none qualifies (callers then fall back to the base).
Result<std::string> SelectVersionForSla(
    const std::vector<ModelVersion>& versions, float max_error);

}  // namespace relserve

#endif  // RELSERVE_SERVING_MODEL_VERSIONS_H_
