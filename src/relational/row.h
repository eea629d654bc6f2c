// Row: one tuple, plus the byte-level (de)serialization used both by
// the WAL's insert/update records and by the DL-centric Connector (which
// re-serializes rows across the system boundary).

#ifndef RELSERVE_RELATIONAL_ROW_H_
#define RELSERVE_RELATIONAL_ROW_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace relserve {

class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values) : values_(std::move(values)) {}

  int num_values() const { return static_cast<int>(values_.size()); }
  const Value& value(int i) const { return values_[i]; }
  Value& value(int i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  bool operator==(const Row& other) const {
    return values_ == other.values_;
  }

  std::string ToString() const;

  // Appends this row's encoding to `out`. Format per value:
  // [u8 type][payload], payloads little-endian fixed width for
  // scalars, [u32 len][bytes] for strings, [u32 n][n floats] for
  // vectors.
  void SerializeTo(std::string* out) const;

  // Decodes a full row from `data`; `size` must be exactly consumed.
  static Result<Row> Deserialize(const char* data, int64_t size);

 private:
  std::vector<Value> values_;
};

}  // namespace relserve

#endif  // RELSERVE_RELATIONAL_ROW_H_
