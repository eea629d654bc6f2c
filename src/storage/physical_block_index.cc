#include "storage/physical_block_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/crc32c.h"

namespace relserve {

namespace {

// Mean of a payload; the cheap prefilter before the full elementwise
// comparison in tolerance mode (|mean(a) - mean(b)| <= max|a - b|, so
// a mean gap beyond the tolerance rules the candidate out).
float BlockMean(const Tensor& t) {
  const float* data = t.data();
  const int64_t n = t.NumElements();
  if (n == 0) return 0.0f;
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) sum += data[i];
  return static_cast<float>(sum / n);
}

// Compares `n` floats of candidate data against payload data starting
// at `offset` floats. Byte-exact at tolerance 0; bounded L-infinity
// with early exit otherwise. Returns false as soon as the bound is
// exceeded.
bool CompareChunk(const float* candidate, const float* payload,
                  int64_t n, float tolerance, float* max_diff) {
  if (tolerance == 0.0f) {
    return std::memcmp(candidate, payload,
                       static_cast<size_t>(n) * sizeof(float)) == 0;
  }
  for (int64_t i = 0; i < n; ++i) {
    const float d = std::fabs(candidate[i] - payload[i]);
    if (d > tolerance) return false;
    if (d > *max_diff) *max_diff = d;
  }
  return true;
}

}  // namespace

PhysicalBlockIndex::~PhysicalBlockIndex() {
  for (const auto& [id, block] : blocks_) {
    (void)id;
    for (const PageId page_id : block.pages) {
      // Best effort: a failure here only delays reuse.
      if (pool_ != nullptr) pool_->DeletePage(page_id);
    }
  }
}

Result<bool> PhysicalBlockIndex::PayloadMatches(
    const Block& block, const Tensor& payload, float tolerance,
    float* max_diff) const {
  *max_diff = 0.0f;
  if (block.resident) {
    return CompareChunk(block.payload.data(), payload.data(),
                        payload.NumElements(), tolerance, max_diff);
  }
  const float* src = payload.data();
  int64_t remaining = block.bytes;
  for (const PageId page_id : block.pages) {
    RELSERVE_ASSIGN_OR_RETURN(char* page, pool_->FetchPage(page_id));
    const int64_t chunk = std::min(remaining, kPageSize);
    const bool ok = CompareChunk(reinterpret_cast<const float*>(page),
                                 src, chunk / sizeof(float), tolerance,
                                 max_diff);
    RELSERVE_RETURN_NOT_OK(pool_->UnpinPage(page_id, /*dirty=*/false));
    if (!ok) return false;
    src += chunk / sizeof(float);
    remaining -= chunk;
  }
  return remaining == 0;
}

Result<PhysicalBlockId> PhysicalBlockIndex::FindMatch(
    const Tensor& payload, uint32_t crc, float mean, float tolerance,
    bool resident, float* match_error) const {
  *match_error = 0.0f;
  // Exact arm first: a CRC32C hit narrowed to the same shape is
  // almost certainly the block; the byte compare only guards against
  // a 2^-32 collision.
  const auto [lo, hi] = by_hash_.equal_range(HashKey(crc, resident));
  for (auto it = lo; it != hi; ++it) {
    const Block& candidate = blocks_.at(it->second);
    if (candidate.shape != payload.shape()) continue;
    float diff = 0.0f;
    RELSERVE_ASSIGN_OR_RETURN(
        bool match,
        PayloadMatches(candidate, payload, /*tolerance=*/0.0f, &diff));
    if (match) return it->second;
  }
  if (tolerance <= 0.0f) return kInvalidPhysicalBlockId;
  // Accuracy-aware arm: scan the shape bucket with the mean
  // prefilter, accept the first candidate within the L-infinity
  // bound (first-fit, matching the seed offline semantics).
  const auto bucket =
      by_shape_.find({payload.shape().ToString(), resident});
  if (bucket == by_shape_.end()) return kInvalidPhysicalBlockId;
  for (const PhysicalBlockId id : bucket->second) {
    const Block& candidate = blocks_.at(id);
    if (std::fabs(candidate.mean - mean) > tolerance) continue;
    float diff = 0.0f;
    RELSERVE_ASSIGN_OR_RETURN(
        bool match,
        PayloadMatches(candidate, payload, tolerance, &diff));
    if (match) {
      *match_error = diff;
      return id;
    }
  }
  return kInvalidPhysicalBlockId;
}

Result<PhysicalBlockIndex::Interned> PhysicalBlockIndex::InternImpl(
    const Tensor& payload, float tolerance, bool resident,
    MemoryTracker* tracker) {
  if (!payload.is_valid() || payload.NumElements() == 0) {
    return Status::InvalidArgument("cannot intern an empty payload");
  }
  if (tolerance < 0.0f) {
    return Status::InvalidArgument("negative dedup tolerance");
  }
  if (!resident && pool_ == nullptr) {
    return Status::InvalidArgument(
        "page-backed intern needs a buffer pool");
  }
  const uint32_t crc = crc32c::Value(
      reinterpret_cast<const char*>(payload.data()),
      static_cast<size_t>(payload.ByteSize()));
  const float mean = BlockMean(payload);

  std::lock_guard<std::mutex> lock(mu_);
  stats_.interned += 1;

  float match_error = 0.0f;
  RELSERVE_ASSIGN_OR_RETURN(
      PhysicalBlockId match,
      FindMatch(payload, crc, mean, tolerance, resident, &match_error));
  if (match != kInvalidPhysicalBlockId) {
    Block& block = blocks_.at(match);
    block.refs += 1;
    stats_.dedup_hits += 1;
    stats_.logical_refs += 1;
    stats_.logical_bytes += block.bytes;
    if (match_error > stats_.max_substitution_error) {
      stats_.max_substitution_error = match_error;
    }
    Interned out;
    out.id = match;
    out.pages = block.pages;
    out.payload = block.payload;  // shares the canonical buffer
    out.deduped = true;
    out.match_error = match_error;
    return out;
  }

  // Miss: this payload becomes a new physical block.
  Block block;
  block.shape = payload.shape();
  block.crc = crc;
  block.bytes = payload.ByteSize();
  block.refs = 1;
  block.mean = mean;
  block.resident = resident;
  if (resident) {
    if (tracker != nullptr) {
      RELSERVE_ASSIGN_OR_RETURN(block.payload,
                                payload.Clone(tracker));
    } else {
      block.payload = payload;  // share the input buffer
    }
  } else {
    const char* src = reinterpret_cast<const char*>(payload.data());
    int64_t remaining = block.bytes;
    Status write_status = Status::OK();
    while (remaining > 0) {
      PageId page_id = kInvalidPageId;
      Result<char*> page = pool_->NewPage(&page_id);
      if (!page.ok()) {
        write_status = page.status();
        break;
      }
      const int64_t chunk = std::min(remaining, kPageSize);
      std::memcpy(*page, src, chunk);
      write_status = pool_->UnpinPage(page_id, /*dirty=*/true);
      block.pages.push_back(page_id);
      if (!write_status.ok()) break;
      src += chunk;
      remaining -= chunk;
    }
    if (!write_status.ok()) {
      for (const PageId page_id : block.pages) {
        pool_->DeletePage(page_id);
      }
      return write_status;
    }
  }

  const PhysicalBlockId id = next_id_++;
  by_hash_.emplace(HashKey(crc, resident), id);
  by_shape_[{block.shape.ToString(), resident}].push_back(id);
  stats_.unique_blocks += 1;
  stats_.logical_refs += 1;
  stats_.physical_bytes += block.bytes;
  stats_.logical_bytes += block.bytes;

  Interned out;
  out.id = id;
  out.pages = block.pages;
  out.payload = block.payload;
  out.deduped = false;
  blocks_.emplace(id, std::move(block));
  return out;
}

Result<PhysicalBlockIndex::Interned> PhysicalBlockIndex::Intern(
    const Tensor& payload, float tolerance) {
  return InternImpl(payload, tolerance, /*resident=*/false, nullptr);
}

Result<PhysicalBlockIndex::Interned>
PhysicalBlockIndex::InternResident(const Tensor& payload,
                                   float tolerance,
                                   MemoryTracker* tracker) {
  return InternImpl(payload, tolerance, /*resident=*/true, tracker);
}

Status PhysicalBlockIndex::AddRef(PhysicalBlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("physical block " + std::to_string(id));
  }
  it->second.refs += 1;
  stats_.logical_refs += 1;
  stats_.logical_bytes += it->second.bytes;
  return Status::OK();
}

void PhysicalBlockIndex::Unindex(PhysicalBlockId id,
                                 const Block& block) {
  const auto [lo, hi] =
      by_hash_.equal_range(HashKey(block.crc, block.resident));
  for (auto it = lo; it != hi; ++it) {
    if (it->second == id) {
      by_hash_.erase(it);
      break;
    }
  }
  const auto bucket =
      by_shape_.find({block.shape.ToString(), block.resident});
  if (bucket != by_shape_.end()) {
    auto& ids = bucket->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) by_shape_.erase(bucket);
  }
}

void PhysicalBlockIndex::Release(PhysicalBlockId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) return;
  Block& block = it->second;
  block.refs -= 1;
  stats_.logical_refs -= 1;
  stats_.logical_bytes -= block.bytes;
  if (block.refs > 0) return;
  // Last reference: the physical block dies. Pages go back to the
  // free list; a resident canonical buffer dies with the Tensor.
  for (const PageId page_id : block.pages) {
    if (pool_ != nullptr) pool_->DeletePage(page_id);
  }
  Unindex(id, block);
  stats_.unique_blocks -= 1;
  stats_.physical_bytes -= block.bytes;
  stats_.freed_blocks += 1;
  blocks_.erase(it);
}

Result<Tensor> PhysicalBlockIndex::Materialize(
    PhysicalBlockId id, MemoryTracker* tracker) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("physical block " + std::to_string(id));
  }
  const Block& block = it->second;
  if (block.resident) return block.payload;
  RELSERVE_ASSIGN_OR_RETURN(Tensor out,
                            Tensor::Create(block.shape, tracker));
  char* dst = reinterpret_cast<char*>(out.data());
  int64_t remaining = block.bytes;
  for (const PageId page_id : block.pages) {
    RELSERVE_ASSIGN_OR_RETURN(char* page, pool_->FetchPage(page_id));
    const int64_t chunk = std::min(remaining, kPageSize);
    std::memcpy(dst, page, chunk);
    RELSERVE_RETURN_NOT_OK(pool_->UnpinPage(page_id, /*dirty=*/false));
    dst += chunk;
    remaining -= chunk;
  }
  if (remaining != 0) {
    return Status::Internal("physical block page list too short");
  }
  return out;
}

PhysicalBlockStats PhysicalBlockIndex::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// --- Offline block deduplication -------------------------------------

Result<DedupResult> DeduplicateBlocks(
    const std::vector<TensorBlock>& blocks, float tolerance) {
  if (tolerance < 0.0f) {
    return Status::InvalidArgument("negative dedup tolerance");
  }
  // A transient resident-arm index does all the matching; payloads
  // are shared with the inputs, never copied.
  PhysicalBlockIndex index(/*pool=*/nullptr);
  DedupResult out;
  out.mapping.reserve(blocks.size());
  out.logical_coords.reserve(blocks.size());
  std::unordered_map<PhysicalBlockId, int64_t> unique_of;
  for (const TensorBlock& block : blocks) {
    out.logical_coords.emplace_back(block.row_block, block.col_block);
    out.stats.input_blocks += 1;
    out.stats.input_bytes += block.data.ByteSize();
    RELSERVE_ASSIGN_OR_RETURN(
        PhysicalBlockIndex::Interned interned,
        index.InternResident(block.data, tolerance));
    if (interned.deduped) {
      out.mapping.push_back(unique_of.at(interned.id));
      if (interned.match_error > out.stats.max_substitution_error) {
        out.stats.max_substitution_error = interned.match_error;
      }
    } else {
      const int64_t u =
          static_cast<int64_t>(out.unique_blocks.size());
      unique_of.emplace(interned.id, u);
      out.mapping.push_back(u);
      out.unique_blocks.push_back(
          TensorBlock{block.row_block, block.col_block,
                      interned.payload});
      out.stats.stored_bytes += block.data.ByteSize();
    }
  }
  out.stats.unique_blocks =
      static_cast<int64_t>(out.unique_blocks.size());
  return out;
}

std::vector<TensorBlock> ExpandDedup(const DedupResult& dedup) {
  std::vector<TensorBlock> out;
  out.reserve(dedup.mapping.size());
  for (size_t i = 0; i < dedup.mapping.size(); ++i) {
    TensorBlock block = dedup.unique_blocks[dedup.mapping[i]];
    // Payload is shared; coordinates are the logical position's.
    block.row_block = dedup.logical_coords[i].first;
    block.col_block = dedup.logical_coords[i].second;
    out.push_back(std::move(block));
  }
  return out;
}

}  // namespace relserve
