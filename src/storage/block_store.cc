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
  if (holds_panels_) {
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

Status BlockStore::ReadInto(const BlockEntry& entry, float* dst,
                            int64_t ld) const {
  // Payload float `pos` is row pos / width, column pos % width, of the
  // destination; each page's run of it is copied row segment by
  // segment. A contiguous destination is one row of the whole payload.
  const int64_t width =
      ld == entry.cols ? entry.rows * entry.cols : entry.cols;
  return VisitPages(entry, [&](int64_t pos, const float* src,
                               int64_t count) {
    const int64_t end = pos + count;
    while (pos < end) {
      const int64_t col = pos % width;
      const int64_t len = std::min(width - col, end - pos);
      std::memcpy(dst + pos / width * ld + col, src,
                  static_cast<size_t>(len) * sizeof(float));
      src += len;
      pos += len;
    }
    return Status::OK();
  });
}

Result<TensorBlock> BlockStore::Get(const BlockEntry& entry,
                                    MemoryTracker* tracker) const {
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor payload,
      Tensor::Create(Shape{entry.rows, entry.cols}, tracker));
  RELSERVE_RETURN_NOT_OK(ReadInto(entry, payload.data(), entry.cols));
  return TensorBlock{entry.row_block, entry.col_block,
                     std::move(payload)};
}

void BlockStore::PrefetchEntry(const BlockEntry& entry) const {
  for (const PageId page_id : entry.pages) pool_->Prefetch(page_id);
}

Result<Tensor> BlockStore::ToMatrix(MemoryTracker* tracker) const {
  if (holds_panels_) {
    return Status::InvalidArgument(
        "ToMatrix of a panel store; blockops::Assemble unpacks it");
  }
  // Entries that tile the geometry overwrite every element; only a
  // relation with absent (all-zero) blocks needs the zero fill.
  const Shape shape{geometry_.rows, geometry_.cols};
  const bool tiled = static_cast<int64_t>(entries_.size()) ==
                     geometry_.NumRowBlocks() * geometry_.NumColBlocks();
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor out,
      tiled ? Tensor::Create(shape, tracker) : Tensor::Zeros(shape, tracker));
  const int64_t stride = geometry_.cols;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const BlockEntry& entry = entries_[i];
    if (i + 1 < entries_.size()) PrefetchEntry(entries_[i + 1]);
    RELSERVE_RETURN_NOT_OK(ReadInto(
        entry,
        out.data() + entry.row_block * geometry_.block_rows * stride +
            entry.col_block * geometry_.block_cols,
        stride));
  }
  return out;
}

int64_t BlockStore::TotalBytes() const {
  int64_t total = 0;
  for (const BlockEntry& entry : entries_) total += entry.ByteSize();
  return total;
}

}  // namespace relserve
