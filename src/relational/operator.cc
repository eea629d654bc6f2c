#include "relational/operator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace relserve {

Result<std::vector<Row>> Collect(RowIterator* it) {
  RELSERVE_RETURN_NOT_OK(it->Open());
  std::vector<Row> rows;
  const int64_t hint = it->SizeHint();
  if (hint > 0) rows.reserve(hint);
  Row row;
  while (true) {
    RELSERVE_ASSIGN_OR_RETURN(bool has, it->Next(&row));
    if (!has) break;
    rows.push_back(std::move(row));
    row = Row();
  }
  return rows;
}

// --- MemScan --------------------------------------------------------

Result<bool> MemScan::Next(Row* row) {
  if (index_ >= rows().size()) return false;
  *row = rows()[index_++];
  return true;
}

// --- Filter ---------------------------------------------------------

Result<bool> Filter::Next(Row* row) {
  while (true) {
    RELSERVE_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    RELSERVE_ASSIGN_OR_RETURN(bool pass, predicate_->EvaluateBool(*row));
    if (pass) return true;
  }
}

// --- Project --------------------------------------------------------

Result<bool> Project::Next(Row* row) {
  Row input;
  RELSERVE_ASSIGN_OR_RETURN(bool has, child_->Next(&input));
  if (!has) return false;
  std::vector<Value> values;
  values.reserve(indices_.size());
  for (int i : indices_) values.push_back(input.value(i));
  *row = Row(std::move(values));
  return true;
}

// --- Sort -----------------------------------------------------------

Status Sort::Open() {
  RELSERVE_ASSIGN_OR_RETURN(sorted_, Collect(child_.get()));
  const int key = key_;
  auto less = [key](const Row& a, const Row& b) {
    const Value& va = a.value(key);
    const Value& vb = b.value(key);
    if (va.type() == ValueType::kString &&
        vb.type() == ValueType::kString) {
      return va.AsString() < vb.AsString();
    }
    return va.AsNumeric() < vb.AsNumeric();
  };
  std::stable_sort(sorted_.begin(), sorted_.end(), less);
  if (descending_) std::reverse(sorted_.begin(), sorted_.end());
  index_ = 0;
  return Status::OK();
}

Result<bool> Sort::Next(Row* row) {
  if (index_ >= sorted_.size()) return false;
  *row = sorted_[index_++];
  return true;
}

// --- Limit ----------------------------------------------------------

Result<bool> Limit::Next(Row* row) {
  if (emitted_ >= limit_) return false;
  RELSERVE_ASSIGN_OR_RETURN(bool has, child_->Next(row));
  if (!has) return false;
  ++emitted_;
  return true;
}

// --- HashJoin -------------------------------------------------------

Status HashJoin::Open() {
  RELSERVE_RETURN_NOT_OK(left_->Open());
  RELSERVE_RETURN_NOT_OK(right_->Open());
  build_.clear();
  Row row;
  while (true) {
    RELSERVE_ASSIGN_OR_RETURN(bool has, right_->Next(&row));
    if (!has) break;
    build_[row.value(right_key_)].push_back(row);
  }
  matches_ = nullptr;
  match_index_ = 0;
  left_valid_ = false;
  return Status::OK();
}

Result<bool> HashJoin::Next(Row* row) {
  while (true) {
    if (left_valid_ && matches_ != nullptr &&
        match_index_ < matches_->size()) {
      const Row& right_row = (*matches_)[match_index_++];
      std::vector<Value> values = current_left_.values();
      for (const Value& v : right_row.values()) values.push_back(v);
      *row = Row(std::move(values));
      return true;
    }
    RELSERVE_ASSIGN_OR_RETURN(bool has, left_->Next(&current_left_));
    if (!has) return false;
    left_valid_ = true;
    auto it = build_.find(current_left_.value(left_key_));
    matches_ = (it == build_.end()) ? nullptr : &it->second;
    match_index_ = 0;
  }
}

// --- SimilarityJoin -------------------------------------------------

Status SimilarityJoin::Open() {
  RELSERVE_RETURN_NOT_OK(left_->Open());
  RELSERVE_RETURN_NOT_OK(right_->Open());
  sorted_right_.clear();
  Row row;
  while (true) {
    RELSERVE_ASSIGN_OR_RETURN(bool has, right_->Next(&row));
    if (!has) break;
    sorted_right_.emplace_back(row.value(right_key_).AsNumeric(), row);
  }
  std::sort(sorted_right_.begin(), sorted_right_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  left_valid_ = false;
  window_index_ = 0;
  window_end_ = 0;
  return Status::OK();
}

Result<bool> SimilarityJoin::Next(Row* row) {
  while (true) {
    if (left_valid_ && window_index_ < window_end_) {
      const Row& right_row = sorted_right_[window_index_++].second;
      std::vector<Value> values = current_left_.values();
      for (const Value& v : right_row.values()) values.push_back(v);
      *row = Row(std::move(values));
      return true;
    }
    RELSERVE_ASSIGN_OR_RETURN(bool has, left_->Next(&current_left_));
    if (!has) return false;
    left_valid_ = true;
    const double key = current_left_.value(left_key_).AsNumeric();
    const auto lo = std::lower_bound(
        sorted_right_.begin(), sorted_right_.end(), key - epsilon_,
        [](const auto& entry, double v) { return entry.first < v; });
    const auto hi = std::upper_bound(
        sorted_right_.begin(), sorted_right_.end(), key + epsilon_,
        [](double v, const auto& entry) { return v < entry.first; });
    window_index_ = static_cast<size_t>(lo - sorted_right_.begin());
    window_end_ = static_cast<size_t>(hi - sorted_right_.begin());
  }
}

// --- HashAggregate --------------------------------------------------

namespace {

struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

Value Finalize(const AggSpec& spec, const AggState& state) {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value(state.count);
    case AggFunc::kSum:
      return Value(state.sum);
    case AggFunc::kMin:
      return Value(state.min);
    case AggFunc::kMax:
      return Value(state.max);
    case AggFunc::kAvg:
      return Value(state.count == 0 ? 0.0 : state.sum / state.count);
  }
  return Value(int64_t{0});
}

}  // namespace

HashAggregate::HashAggregate(RowIteratorPtr child,
                             std::vector<int> group_keys,
                             std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_keys_(std::move(group_keys)),
      aggs_(std::move(aggs)) {
  std::vector<Column> cols;
  for (int k : group_keys_) cols.push_back(child_->schema().column(k));
  for (const AggSpec& spec : aggs_) {
    const ValueType type = (spec.func == AggFunc::kCount)
                               ? ValueType::kInt64
                               : ValueType::kFloat64;
    cols.push_back(Column{spec.output_name, type});
  }
  schema_ = Schema(std::move(cols));
}

Status HashAggregate::Open() {
  RELSERVE_RETURN_NOT_OK(child_->Open());
  results_.clear();
  result_index_ = 0;

  struct GroupHash {
    size_t operator()(const std::vector<Value>& key) const {
      size_t h = 0;
      for (const Value& v : key) h = h * 31 + v.Hash();
      return h;
    }
  };
  std::unordered_map<std::vector<Value>, std::vector<AggState>,
                     GroupHash>
      groups;

  Row row;
  while (true) {
    RELSERVE_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) break;
    std::vector<Value> key;
    key.reserve(group_keys_.size());
    for (int k : group_keys_) key.push_back(row.value(k));
    auto [it, inserted] =
        groups.try_emplace(std::move(key), aggs_.size());
    std::vector<AggState>& states = it->second;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggState& st = states[a];
      ++st.count;
      if (aggs_[a].func != AggFunc::kCount) {
        const double v = row.value(aggs_[a].column).AsNumeric();
        st.sum += v;
        st.min = std::min(st.min, v);
        st.max = std::max(st.max, v);
      }
    }
  }

  results_.reserve(groups.size());
  for (auto& [key, states] : groups) {
    std::vector<Value> values = key;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      values.push_back(Finalize(aggs_[a], states[a]));
    }
    results_.emplace_back(std::move(values));
  }
  return Status::OK();
}

Result<bool> HashAggregate::Next(Row* row) {
  if (result_index_ >= results_.size()) return false;
  *row = results_[result_index_++];
  return true;
}

}  // namespace relserve
