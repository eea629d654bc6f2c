#include "storage/block_store.h"

#include <algorithm>
#include <cstring>

namespace relserve {

BlockStore::~BlockStore() {
  for (const BlockEntry& entry : entries_) {
    if (entry.shared()) {
      // The index owns the pages; they die with the last reference.
      index_->Release(entry.physical);
      continue;
    }
    for (const PageId page_id : entry.pages) {
      // Best effort: a failure here only delays reuse.
      pool_->DeletePage(page_id);
    }
  }
}

Status BlockStore::Put(const TensorBlock& block) {
  if (block.data.shape().ndim() != 2) {
    return Status::InvalidArgument("block payload must be a matrix");
  }
  BlockEntry entry;
  entry.row_block = block.row_block;
  entry.col_block = block.col_block;
  entry.rows = block.data.shape().dim(0);
  entry.cols = block.data.shape().dim(1);
  if (index_ != nullptr) {
    RELSERVE_ASSIGN_OR_RETURN(
        PhysicalBlockIndex::Interned interned,
        index_->Intern(block.data, tolerance_));
    entry.pages = std::move(interned.pages);
    entry.physical = interned.id;
    std::lock_guard<std::mutex> lock(entries_mu_);
    if (interned.deduped) {
      shared_blocks_ += 1;
      shared_bytes_ += entry.ByteSize();
    }
    entries_.push_back(std::move(entry));
    return Status::OK();
  }
  const char* src = reinterpret_cast<const char*>(block.data.data());
  int64_t remaining = entry.ByteSize();
  while (remaining > 0) {
    PageId page_id = kInvalidPageId;
    RELSERVE_ASSIGN_OR_RETURN(char* page, pool_->NewPage(&page_id));
    const int64_t chunk = std::min(remaining, kPageSize);
    std::memcpy(page, src, chunk);
    RELSERVE_RETURN_NOT_OK(pool_->UnpinPage(page_id, /*dirty=*/true));
    entry.pages.push_back(page_id);
    src += chunk;
    remaining -= chunk;
  }
  {
    std::lock_guard<std::mutex> lock(entries_mu_);
    entries_.push_back(std::move(entry));
  }
  return Status::OK();
}

Status BlockStore::PutMatrix(const Tensor& m, MemoryTracker* scratch) {
  if (m.shape().ndim() != 2) {
    return Status::InvalidArgument("PutMatrix expects a matrix");
  }
  if (packed_nr_ > 0) {
    return Status::InvalidArgument("PutMatrix into a panel store");
  }
  if (m.shape().dim(0) != geometry_.rows ||
      m.shape().dim(1) != geometry_.cols) {
    return Status::InvalidArgument(
        "matrix shape " + m.shape().ToString() +
        " does not match store geometry");
  }
  for (int64_t rb = 0; rb < geometry_.NumRowBlocks(); ++rb) {
    for (int64_t cb = 0; cb < geometry_.NumColBlocks(); ++cb) {
      RELSERVE_ASSIGN_OR_RETURN(
          TensorBlock block, ExtractBlock(m, geometry_, rb, cb, scratch));
      RELSERVE_RETURN_NOT_OK(Put(block));
    }
  }
  return Status::OK();
}

Result<TensorBlock> BlockStore::Get(const BlockEntry& entry,
                                    MemoryTracker* tracker) const {
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor payload,
      Tensor::Create(Shape{entry.rows, entry.cols}, tracker));
  char* dst = reinterpret_cast<char*>(payload.data());
  int64_t remaining = entry.ByteSize();
  for (const PageId page_id : entry.pages) {
    RELSERVE_ASSIGN_OR_RETURN(char* page, pool_->FetchPage(page_id));
    const int64_t chunk = std::min(remaining, kPageSize);
    std::memcpy(dst, page, chunk);
    RELSERVE_RETURN_NOT_OK(pool_->UnpinPage(page_id, /*dirty=*/false));
    dst += chunk;
    remaining -= chunk;
  }
  if (remaining != 0) {
    return Status::Internal("block entry page list too short");
  }
  return TensorBlock{entry.row_block, entry.col_block,
                     std::move(payload)};
}

void BlockStore::PrefetchEntry(const BlockEntry& entry) const {
  for (const PageId page_id : entry.pages) pool_->Prefetch(page_id);
}

Result<Tensor> BlockStore::ToMatrix(MemoryTracker* tracker) const {
  if (packed_nr_ > 0) {
    return Status::InvalidArgument(
        "ToMatrix of a panel store; blockops::Assemble unpacks it");
  }
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor out,
      Tensor::Zeros(Shape{geometry_.rows, geometry_.cols}, tracker));
  const int64_t stride = geometry_.cols;
  for (const BlockEntry& entry : entries_) {
    RELSERVE_ASSIGN_OR_RETURN(TensorBlock block, Get(entry, nullptr));
    const int64_t row0 = entry.row_block * geometry_.block_rows;
    const int64_t col0 = entry.col_block * geometry_.block_cols;
    for (int64_t r = 0; r < entry.rows; ++r) {
      std::memcpy(out.data() + (row0 + r) * stride + col0,
                  block.data.data() + r * entry.cols,
                  entry.cols * sizeof(float));
    }
  }
  return out;
}

int64_t BlockStore::TotalBytes() const {
  int64_t total = 0;
  for (const BlockEntry& entry : entries_) total += entry.ByteSize();
  return total;
}

}  // namespace relserve
