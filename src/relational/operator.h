// Pull-based (Volcano-style) relational operators.
//
// Every operator implements RowIterator: Open once, Next until it
// reports exhaustion, Close implicitly on destruction. Table scans
// (ColumnarRowScan in vectorized.h) pull one fragment at a time
// through the buffer pool, so pipelines over spilled tables run in
// O(fragment) memory — the property the relation-centric architecture
// builds on.

#ifndef RELSERVE_RELATIONAL_OPERATOR_H_
#define RELSERVE_RELATIONAL_OPERATOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "relational/expression.h"
#include "relational/row.h"
#include "relational/schema.h"

namespace relserve {

class RowIterator {
 public:
  virtual ~RowIterator() = default;

  virtual Status Open() = 0;

  // Fills `row` and returns true, or returns false at end of stream.
  virtual Result<bool> Next(Row* row) = 0;

  virtual const Schema& schema() const = 0;

  // Expected (or upper-bound) output row count, valid after Open();
  // -1 when unknown. Consumers use it to reserve() result buffers.
  virtual int64_t SizeHint() const { return -1; }
};

using RowIteratorPtr = std::unique_ptr<RowIterator>;

// Drains an iterator into a vector (test/bench convenience).
Result<std::vector<Row>> Collect(RowIterator* it);

// --- Leaf operators -------------------------------------------------

// Scans an in-memory row vector (for intermediate results).
class MemScan : public RowIterator {
 public:
  MemScan(std::vector<Row> rows, Schema schema)
      : rows_(std::move(rows)), schema_(std::move(schema)) {}
  // Serves `*rows` in place; they must outlive the scan.
  MemScan(const std::vector<Row>* rows, Schema schema)
      : borrowed_(rows), schema_(std::move(schema)) {}

  Status Open() override {
    index_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return schema_; }
  int64_t SizeHint() const override {
    return static_cast<int64_t>(rows().size());
  }

 private:
  const std::vector<Row>& rows() const {
    return borrowed_ != nullptr ? *borrowed_ : rows_;
  }

  std::vector<Row> rows_;
  const std::vector<Row>* borrowed_ = nullptr;
  Schema schema_;
  size_t index_ = 0;
};

// --- Unary operators ------------------------------------------------

class Filter : public RowIterator {
 public:
  Filter(RowIteratorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  RowIteratorPtr child_;
  ExprPtr predicate_;
};

class Project : public RowIterator {
 public:
  Project(RowIteratorPtr child, std::vector<int> indices)
      : child_(std::move(child)),
        indices_(std::move(indices)),
        schema_(child_->schema().Project(indices_)) {}

  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return schema_; }
  int64_t SizeHint() const override { return child_->SizeHint(); }

 private:
  RowIteratorPtr child_;
  std::vector<int> indices_;
  Schema schema_;
};

// Full materializing sort on one numeric/string column.
class Sort : public RowIterator {
 public:
  Sort(RowIteratorPtr child, int key, bool descending)
      : child_(std::move(child)), key_(key), descending_(descending) {}

  Status Open() override;
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return child_->schema(); }
  int64_t SizeHint() const override {
    return static_cast<int64_t>(sorted_.size());
  }

 private:
  RowIteratorPtr child_;
  int key_;
  bool descending_;
  std::vector<Row> sorted_;
  size_t index_ = 0;
};

class Limit : public RowIterator {
 public:
  Limit(RowIteratorPtr child, int64_t limit)
      : child_(std::move(child)), limit_(limit) {}

  Status Open() override {
    emitted_ = 0;
    return child_->Open();
  }
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return child_->schema(); }
  int64_t SizeHint() const override {
    const int64_t child_hint = child_->SizeHint();
    if (child_hint < 0) return limit_;
    return std::min(child_hint, limit_);
  }

 private:
  RowIteratorPtr child_;
  int64_t limit_;
  int64_t emitted_ = 0;
};

// --- Joins ----------------------------------------------------------

// In-memory hash equi-join: builds on the right child, probes with the
// left.
class HashJoin : public RowIterator {
 public:
  HashJoin(RowIteratorPtr left, RowIteratorPtr right, int left_key,
           int right_key)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_key_(left_key),
        right_key_(right_key),
        schema_(left_->schema().Concat(right_->schema())) {}

  Status Open() override;
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return schema_; }

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };

  RowIteratorPtr left_;
  RowIteratorPtr right_;
  int left_key_;
  int right_key_;
  Schema schema_;
  std::unordered_map<Value, std::vector<Row>, ValueHash> build_;
  Row current_left_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_index_ = 0;
  bool left_valid_ = false;
};

// Band similarity join: emits (l, r) pairs with
// |l[left_key] - r[right_key]| <= epsilon, implemented by sorting the
// right side and range-scanning a window per left row. This is the
// join of the paper's Sec. 7.2.1 pipeline.
class SimilarityJoin : public RowIterator {
 public:
  SimilarityJoin(RowIteratorPtr left, RowIteratorPtr right,
                 int left_key, int right_key, double epsilon)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_key_(left_key),
        right_key_(right_key),
        epsilon_(epsilon),
        schema_(left_->schema().Concat(right_->schema())) {}

  Status Open() override;
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return schema_; }

 private:
  RowIteratorPtr left_;
  RowIteratorPtr right_;
  int left_key_;
  int right_key_;
  double epsilon_;
  Schema schema_;
  std::vector<std::pair<double, Row>> sorted_right_;
  Row current_left_;
  bool left_valid_ = false;
  size_t window_index_ = 0;  // cursor within the current match window
  size_t window_end_ = 0;
};

// --- Aggregation ----------------------------------------------------

enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggFunc func = AggFunc::kCount;
  int column = -1;  // ignored for kCount
  std::string output_name;
};

// Hash group-by aggregate. Group keys are column indices; empty keys
// means a single global group.
class HashAggregate : public RowIterator {
 public:
  HashAggregate(RowIteratorPtr child, std::vector<int> group_keys,
                std::vector<AggSpec> aggs);

  Status Open() override;
  Result<bool> Next(Row* row) override;
  const Schema& schema() const override { return schema_; }

 private:
  RowIteratorPtr child_;
  std::vector<int> group_keys_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  std::vector<Row> results_;
  size_t result_index_ = 0;
};

}  // namespace relserve

#endif  // RELSERVE_RELATIONAL_OPERATOR_H_
