#include "storage/column_store.h"

#include <algorithm>
#include <cstring>

#include "common/failpoint.h"
#include "storage/page.h"

namespace relserve {

namespace {

template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(const char*& cursor, const char* end, T* v) {
  if (cursor + sizeof(T) > end) return false;
  std::memcpy(v, cursor, sizeof(T));
  cursor += sizeof(T);
  return true;
}

std::string EncodeChunk(const ColumnChunk& chunk) {
  std::string out;
  const int64_t rows = chunk.length;
  const uint8_t has_validity = chunk.has_nulls() ? 1 : 0;
  int64_t payload = 0;
  switch (chunk.type) {
    case ValueType::kInt64:
    case ValueType::kFloat64:
      payload = rows * 8;
      break;
    case ValueType::kString:
      payload = 8 + rows * 4;
      for (const std::string& s : chunk.str) {
        payload += static_cast<int64_t>(s.size());
      }
      break;
    case ValueType::kFloatVector:
      payload = 8 + rows * 4 +
                static_cast<int64_t>(chunk.vec_data.size()) * 4;
      break;
  }
  out.reserve(1 + 8 + 1 +
              (has_validity ? static_cast<int64_t>((rows + 7) / 8) : 0) +
              payload);
  AppendPod<uint8_t>(&out, static_cast<uint8_t>(chunk.type));
  AppendPod<int64_t>(&out, rows);
  AppendPod<uint8_t>(&out, has_validity);
  if (has_validity) {
    out.append(reinterpret_cast<const char*>(chunk.validity.data()),
               (rows + 7) / 8);
  }
  switch (chunk.type) {
    case ValueType::kInt64:
      out.append(reinterpret_cast<const char*>(chunk.i64.data()),
                 rows * 8);
      break;
    case ValueType::kFloat64:
      out.append(reinterpret_cast<const char*>(chunk.f64.data()),
                 rows * 8);
      break;
    case ValueType::kString: {
      int64_t total = 0;
      for (const std::string& s : chunk.str) {
        total += static_cast<int64_t>(s.size());
      }
      AppendPod<int64_t>(&out, total);
      for (const std::string& s : chunk.str) {
        AppendPod<uint32_t>(&out, static_cast<uint32_t>(s.size()));
      }
      for (const std::string& s : chunk.str) out.append(s);
      break;
    }
    case ValueType::kFloatVector: {
      AppendPod<int64_t>(&out,
                         static_cast<int64_t>(chunk.vec_data.size()));
      for (int64_t r = 0; r < rows; ++r) {
        AppendPod<uint32_t>(
            &out, static_cast<uint32_t>(chunk.vec_offsets[r + 1] -
                                        chunk.vec_offsets[r]));
      }
      out.append(
          reinterpret_cast<const char*>(chunk.vec_data.data()),
          static_cast<int64_t>(chunk.vec_data.size()) * 4);
      break;
    }
  }
  return out;
}

Result<ColumnChunk> DecodeChunk(const std::string& encoded) {
  const char* cursor = encoded.data();
  const char* end = encoded.data() + encoded.size();
  uint8_t type_tag = 0;
  int64_t rows = 0;
  uint8_t has_validity = 0;
  if (!ReadPod(cursor, end, &type_tag) || !ReadPod(cursor, end, &rows) ||
      !ReadPod(cursor, end, &has_validity) || rows < 0 || type_tag > 3) {
    return Status::DataLoss("column stream: corrupt header");
  }
  ColumnChunk chunk(static_cast<ValueType>(type_tag));
  chunk.length = rows;
  if (has_validity) {
    const int64_t nbytes = (rows + 7) / 8;
    if (cursor + nbytes > end) {
      return Status::DataLoss("column stream: truncated bitmap");
    }
    chunk.validity.assign(
        reinterpret_cast<const uint8_t*>(cursor),
        reinterpret_cast<const uint8_t*>(cursor) + nbytes);
    cursor += nbytes;
  }
  switch (chunk.type) {
    case ValueType::kInt64: {
      if (cursor + rows * 8 > end) {
        return Status::DataLoss("column stream: truncated int64 payload");
      }
      chunk.i64.resize(rows);
      if (rows > 0) std::memcpy(chunk.i64.data(), cursor, rows * 8);
      cursor += rows * 8;
      break;
    }
    case ValueType::kFloat64: {
      if (cursor + rows * 8 > end) {
        return Status::DataLoss(
            "column stream: truncated float64 payload");
      }
      chunk.f64.resize(rows);
      if (rows > 0) std::memcpy(chunk.f64.data(), cursor, rows * 8);
      cursor += rows * 8;
      break;
    }
    case ValueType::kString: {
      int64_t total = 0;
      if (!ReadPod(cursor, end, &total) || total < 0 ||
          cursor + rows * 4 + total > end) {
        return Status::DataLoss(
            "column stream: truncated string payload");
      }
      std::vector<uint32_t> lens(rows);
      if (rows > 0) std::memcpy(lens.data(), cursor, rows * 4);
      cursor += rows * 4;
      chunk.str.reserve(rows);
      int64_t consumed = 0;
      for (int64_t r = 0; r < rows; ++r) {
        consumed += lens[r];
        if (consumed > total) {
          return Status::DataLoss(
              "column stream: string lengths exceed payload");
        }
        chunk.str.emplace_back(cursor, lens[r]);
        cursor += lens[r];
      }
      break;
    }
    case ValueType::kFloatVector: {
      int64_t total = 0;
      if (!ReadPod(cursor, end, &total) || total < 0 ||
          cursor + rows * 4 + total * 4 > end) {
        return Status::DataLoss(
            "column stream: truncated vector payload");
      }
      std::vector<uint32_t> lens(rows);
      if (rows > 0) std::memcpy(lens.data(), cursor, rows * 4);
      cursor += rows * 4;
      chunk.vec_offsets.assign(1, 0);
      chunk.vec_offsets.reserve(rows + 1);
      int64_t consumed = 0;
      for (int64_t r = 0; r < rows; ++r) {
        consumed += lens[r];
        if (consumed > total) {
          return Status::DataLoss(
              "column stream: vector lengths exceed payload");
        }
        chunk.vec_offsets.push_back(consumed);
      }
      chunk.vec_data.resize(total);
      if (total > 0) std::memcpy(chunk.vec_data.data(), cursor, total * 4);
      cursor += total * 4;
      break;
    }
  }
  return chunk;
}

// Encoded payload bytes of row `r` of `chunk`, as EncodeChunk lays
// them out (the validity bit is not counted).
int64_t CellBytes(const ColumnChunk& chunk, int64_t r) {
  switch (chunk.type) {
    case ValueType::kInt64:
    case ValueType::kFloat64:
      return 8;
    case ValueType::kString:
      return 4 + static_cast<int64_t>(chunk.str[r].size());
    case ValueType::kFloatVector:
      return 4 + (chunk.vec_offsets[r + 1] - chunk.vec_offsets[r]) * 4;
  }
  return 0;
}

}  // namespace

ColumnarTable::ColumnarTable(BufferPool* pool, Schema schema,
                             int64_t fragment_rows)
    : pool_(pool),
      schema_(std::move(schema)),
      fragment_rows_(fragment_rows > 0
                         ? fragment_rows
                         : kDefaultFragmentRows),
      active_(schema_) {}

Status ColumnarTable::CheckRow(const Row& row) const {
  if (row.num_values() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.num_values()) +
        " does not match schema of " +
        std::to_string(schema_.num_columns()));
  }
  for (int c = 0; c < schema_.num_columns(); ++c) {
    if (row.value(c).type() != schema_.column(c).type) {
      return Status::InvalidArgument(
          "column '" + schema_.column(c).name + "' expects " +
          ValueTypeName(schema_.column(c).type) + ", got " +
          ValueTypeName(row.value(c).type()));
    }
  }
  return Status::OK();
}

Status ColumnarTable::AppendRow(const Row& row) {
  RELSERVE_RETURN_NOT_OK(CheckRow(row));
  std::unique_lock<std::shared_mutex> lock(mu_);
  active_.AppendRow(row);
  return FinishAppendLocked();
}

Status ColumnarTable::AppendNullRow() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (ColumnChunk& c : active_.columns) c.AppendNull();
  ++active_.num_rows;
  return FinishAppendLocked();
}

Status ColumnarTable::AppendBatch(const ColumnBatch& batch) {
  if (static_cast<int>(batch.columns.size()) !=
      schema_.num_columns()) {
    return Status::InvalidArgument("batch arity mismatch");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (int64_t r = 0; r < batch.num_rows; ++r) {
    for (int c = 0; c < schema_.num_columns(); ++c) {
      active_.columns[c].AppendFrom(batch.columns[c], r);
    }
    ++active_.num_rows;
    RELSERVE_RETURN_NOT_OK(FinishAppendLocked());
  }
  return Status::OK();
}

Status ColumnarTable::FinishAppendLocked() {
  const int64_t r = active_.num_rows - 1;
  for (const ColumnChunk& chunk : active_.columns) {
    active_bytes_ += CellBytes(chunk, r);
  }
  num_rows_.fetch_add(1, std::memory_order_release);
  if (active_.num_rows >= fragment_rows_ ||
      active_bytes_ >= kMaxTailBytes) {
    return SealActiveLocked(/*allow_empty=*/false);
  }
  return Status::OK();
}

Status ColumnarTable::WriteStream(const std::string& encoded,
                                  ColumnStream* out) {
  out->bytes = static_cast<int64_t>(encoded.size());
  const char* src = encoded.data();
  int64_t remaining = out->bytes;
  // Zero-length streams still occupy one page so every column of a
  // sealed fragment has a stream to read back.
  do {
    PageId page_id = kInvalidPageId;
    RELSERVE_ASSIGN_OR_RETURN(char* page, pool_->NewPage(&page_id));
    const int64_t chunk = std::min(remaining, kPageSize);
    if (chunk > 0) std::memcpy(page, src, chunk);
    RELSERVE_RETURN_NOT_OK(pool_->UnpinPage(page_id, /*dirty=*/true));
    out->pages.push_back(page_id);
    src += chunk;
    remaining -= chunk;
  } while (remaining > 0);
  return Status::OK();
}

Status ColumnarTable::ReadStream(const ColumnStream& stream,
                                 std::string* out) const {
  out->resize(stream.bytes);
  char* dst = out->data();
  int64_t remaining = stream.bytes;
  for (const PageId page_id : stream.pages) {
    RELSERVE_ASSIGN_OR_RETURN(char* page, pool_->FetchPage(page_id));
    const int64_t chunk = std::min(remaining, kPageSize);
    std::memcpy(dst, page, chunk);
    RELSERVE_RETURN_NOT_OK(pool_->UnpinPage(page_id, /*dirty=*/false));
    dst += chunk;
    remaining -= chunk;
  }
  if (remaining != 0) {
    return Status::DataLoss("column stream page list too short");
  }
  return Status::OK();
}

Status ColumnarTable::SealActiveFragment(bool allow_empty) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return SealActiveLocked(allow_empty);
}

Status ColumnarTable::SealActiveLocked(bool allow_empty) {
  if (active_.num_rows == 0 && !allow_empty) return Status::OK();
  Fragment frag;
  frag.rows = active_.num_rows;
  frag.start = SealedRowsLocked();
  frag.columns.resize(schema_.num_columns());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const std::string encoded = EncodeChunk(active_.columns[c]);
    RELSERVE_RETURN_NOT_OK(WriteStream(encoded, &frag.columns[c]));
    sealed_bytes_.fetch_add(frag.columns[c].bytes,
                            std::memory_order_relaxed);
  }
  fragments_.push_back(std::move(frag));
  active_ = ColumnBatch(schema_);
  active_bytes_ = 0;
  return Status::OK();
}

int64_t ColumnarTable::num_fragments() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return NumFragmentsLocked();
}

int64_t ColumnarTable::FragmentRowCount(int64_t f) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (f < static_cast<int64_t>(fragments_.size())) {
    return fragments_[f].rows;
  }
  return active_.num_rows;
}

int64_t ColumnarTable::FragmentStartRow(int64_t f) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (f < static_cast<int64_t>(fragments_.size())) {
    return fragments_[f].start;
  }
  return SealedRowsLocked();  // open tail starts after sealed rows
}

Result<ColumnBatch> ColumnarTable::ReadFragment(
    int64_t f, const std::vector<int>* columns) const {
  RELSERVE_RETURN_NOT_OK(failpoint::InjectedStatus("columnar.scan"));
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (f < 0 || f >= NumFragmentsLocked()) {
    return Status::InvalidArgument("fragment " + std::to_string(f) +
                                   " out of range");
  }
  std::vector<int> all;
  if (columns == nullptr) {
    all.resize(schema_.num_columns());
    for (int c = 0; c < schema_.num_columns(); ++c) all[c] = c;
    columns = &all;
  }
  ColumnBatch batch(schema_.Project(*columns));
  const bool tail = f >= static_cast<int64_t>(fragments_.size());
  for (size_t i = 0; i < columns->size(); ++i) {
    const int c = (*columns)[i];
    if (c < 0 || c >= schema_.num_columns()) {
      return Status::InvalidArgument("column index " +
                                     std::to_string(c) +
                                     " out of range");
    }
    if (tail) {
      batch.columns[i] = active_.columns[c];
    } else {
      std::string encoded;
      RELSERVE_RETURN_NOT_OK(
          ReadStream(fragments_[f].columns[c], &encoded));
      RELSERVE_ASSIGN_OR_RETURN(batch.columns[i],
                                DecodeChunk(encoded));
      if (batch.columns[i].type != schema_.column(c).type ||
          batch.columns[i].length != fragments_[f].rows) {
        return Status::DataLoss("column stream: decoded shape for '" +
                                schema_.column(c).name +
                                "' does not match fragment");
      }
    }
  }
  batch.num_rows = tail ? active_.num_rows : fragments_[f].rows;
  return batch;
}

}  // namespace relserve
