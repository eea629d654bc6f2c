#include "relational/vectorized.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>

#include "optimizer/scan_cost.h"

namespace relserve {

namespace {

// Ascending row indices into a batch that passed a predicate.
using SelVector = std::vector<int32_t>;

// The one selection loop: keeps sel[i] for every i where keep(i),
// branch-free. `keep` is called once per i, in order.
template <typename Keep>
SelVector Select(const int32_t* sel, int64_t n, Keep keep) {
  SelVector out(n);
  int64_t m = 0;
  for (int64_t i = 0; i < n; ++i) {
    out[m] = sel[i];
    m += keep(i) ? 1 : 0;
  }
  out.resize(m);
  return out;
}

// 0/1 per row of `sel`: whether it is in `subset` (both ascending).
template <typename T>
void PassFlags(const int32_t* sel, int64_t n, const SelVector& subset,
               T* out) {
  size_t j = 0;
  for (int64_t i = 0; i < n; ++i) {
    const bool hit = j < subset.size() && subset[j] == sel[i];
    out[i] = hit ? 1 : 0;
    j += hit;
  }
}

// Rows of `sel` not present in `subset` (both ascending).
SelVector Complement(const int32_t* sel, int64_t n,
                     const SelVector& subset) {
  std::vector<uint8_t> in(n);
  PassFlags(sel, n, subset, in.data());
  return Select(sel, n, [&](int64_t i) { return in[i] == 0; });
}

// Merge of two disjoint ascending selections.
SelVector MergeSorted(const SelVector& a, const SelVector& b) {
  SelVector out;
  out.resize(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
  return out;
}

void CollectColumns(const Expression& e, std::vector<bool>* need) {
  if (e.kind() == ExprKind::kColumn) {
    const int c = e.column_index();
    if (c >= 0 && c < static_cast<int>(need->size())) {
      (*need)[c] = true;
    }
    return;
  }
  for (const ExprPtr& child : e.children()) {
    CollectColumns(*child, need);
  }
}

class Evaluator {
 public:
  Evaluator(const ColumnBatch& batch, const std::vector<int>& col_map)
      : batch_(batch), col_map_(col_map) {}

  Result<SelVector> EvalBool(const Expression& e, const int32_t* sel,
                             int64_t n);

 private:
  Result<const ColumnChunk*> Chunk(int table_col) const {
    const int ncols = static_cast<int>(col_map_.size());
    const int slot =
        table_col >= 0 && table_col < ncols ? col_map_[table_col] : -1;
    if (slot < 0 || slot >= static_cast<int>(batch_.columns.size())) {
      // Same failure the row evaluator reports for a bad column ref.
      return Status::InvalidArgument(
          "column index " + std::to_string(table_col) +
          " out of range for row of " + std::to_string(ncols));
    }
    return &batch_.columns[slot];
  }

  Result<ValueType> StaticType(const Expression& e) const {
    switch (e.kind()) {
      case ExprKind::kColumn: {
        RELSERVE_ASSIGN_OR_RETURN(const ColumnChunk* chunk,
                                  Chunk(e.column_index()));
        return chunk->type;
      }
      case ExprKind::kLiteral:
        return e.literal().type();
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kMul:
        return ValueType::kFloat64;
      default:
        return ValueType::kInt64;  // comparisons / boolean connectives
    }
  }

  // Writes n doubles aligned with sel, applying the row evaluator's
  // AsNumeric view (Int64 widens; anything else is not numeric).
  Status EvalNumeric(const Expression& e, const int32_t* sel,
                     int64_t n, double* out);
  // Int64-typed expressions only (columns, literals, bool results).
  Status EvalInt64(const Expression& e, const int32_t* sel, int64_t n,
                   int64_t* out);
  Result<SelVector> EvalEq(const Expression& e, const int32_t* sel,
                           int64_t n);

  const ColumnBatch& batch_;
  const std::vector<int>& col_map_;
};

Status Evaluator::EvalNumeric(const Expression& e, const int32_t* sel,
                              int64_t n, double* out) {
  switch (e.kind()) {
    case ExprKind::kColumn: {
      RELSERVE_ASSIGN_OR_RETURN(const ColumnChunk* chunk,
                                Chunk(e.column_index()));
      if (chunk->type == ValueType::kInt64) {
        const int64_t* v = chunk->i64.data();
        for (int64_t i = 0; i < n; ++i) {
          out[i] = static_cast<double>(v[sel[i]]);
        }
        return Status::OK();
      }
      if (chunk->type == ValueType::kFloat64) {
        const double* v = chunk->f64.data();
        for (int64_t i = 0; i < n; ++i) out[i] = v[sel[i]];
        return Status::OK();
      }
      return Status::InvalidArgument(
          "column index " + std::to_string(e.column_index()) +
          " is not numeric");
    }
    case ExprKind::kLiteral: {
      const Value& v = e.literal();
      double b = 0.0;
      if (v.type() == ValueType::kInt64) {
        b = static_cast<double>(v.AsInt64());
      } else if (v.type() == ValueType::kFloat64) {
        b = v.AsFloat64();
      } else {
        return Status::InvalidArgument("literal is not numeric");
      }
      for (int64_t i = 0; i < n; ++i) out[i] = b;
      return Status::OK();
    }
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul: {
      std::vector<double> a(n), b(n);
      RELSERVE_RETURN_NOT_OK(
          EvalNumeric(*e.children()[0], sel, n, a.data()));
      RELSERVE_RETURN_NOT_OK(
          EvalNumeric(*e.children()[1], sel, n, b.data()));
      if (e.kind() == ExprKind::kAdd) {
        for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
      } else if (e.kind() == ExprKind::kSub) {
        for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
      } else {
        for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
      }
      return Status::OK();
    }
    default: {
      // Comparison / boolean kinds: 0/1 per row.
      RELSERVE_ASSIGN_OR_RETURN(SelVector pass, EvalBool(e, sel, n));
      PassFlags(sel, n, pass, out);
      return Status::OK();
    }
  }
}

Status Evaluator::EvalInt64(const Expression& e, const int32_t* sel,
                            int64_t n, int64_t* out) {
  switch (e.kind()) {
    case ExprKind::kColumn: {
      RELSERVE_ASSIGN_OR_RETURN(const ColumnChunk* chunk,
                                Chunk(e.column_index()));
      if (chunk->type != ValueType::kInt64) {
        return Status::Internal("EvalInt64 on non-int64 column");
      }
      const int64_t* v = chunk->i64.data();
      for (int64_t i = 0; i < n; ++i) out[i] = v[sel[i]];
      return Status::OK();
    }
    case ExprKind::kLiteral: {
      const int64_t b = e.literal().AsInt64();
      for (int64_t i = 0; i < n; ++i) out[i] = b;
      return Status::OK();
    }
    default: {
      RELSERVE_ASSIGN_OR_RETURN(SelVector pass, EvalBool(e, sel, n));
      PassFlags(sel, n, pass, out);
      return Status::OK();
    }
  }
}

Result<SelVector> Evaluator::EvalEq(const Expression& e,
                                    const int32_t* sel, int64_t n) {
  const Expression& left = *e.children()[0];
  const Expression& right = *e.children()[1];
  RELSERVE_ASSIGN_OR_RETURN(ValueType lt, StaticType(left));
  RELSERVE_ASSIGN_OR_RETURN(ValueType rt, StaticType(right));
  // Value equality is typed (Int64 3 != Float64 3.0); with both
  // sides' types resolved, a mismatch is simply never equal.
  if (lt != rt) return SelVector{};
  switch (lt) {
    case ValueType::kInt64: {
      std::vector<int64_t> a(n), b(n);
      RELSERVE_RETURN_NOT_OK(EvalInt64(left, sel, n, a.data()));
      RELSERVE_RETURN_NOT_OK(EvalInt64(right, sel, n, b.data()));
      return Select(sel, n, [&](int64_t i) { return a[i] == b[i]; });
    }
    case ValueType::kFloat64: {
      std::vector<double> a(n), b(n);
      RELSERVE_RETURN_NOT_OK(EvalNumeric(left, sel, n, a.data()));
      RELSERVE_RETURN_NOT_OK(EvalNumeric(right, sel, n, b.data()));
      return Select(sel, n, [&](int64_t i) { return a[i] == b[i]; });
    }
    case ValueType::kString: {
      // String-typed expressions are columns or literals only.
      const ColumnChunk* lc = nullptr;
      const ColumnChunk* rc = nullptr;
      const std::string* llit = nullptr;
      const std::string* rlit = nullptr;
      if (left.kind() == ExprKind::kColumn) {
        RELSERVE_ASSIGN_OR_RETURN(lc, Chunk(left.column_index()));
      } else {
        llit = &left.literal().AsString();
      }
      if (right.kind() == ExprKind::kColumn) {
        RELSERVE_ASSIGN_OR_RETURN(rc, Chunk(right.column_index()));
      } else {
        rlit = &right.literal().AsString();
      }
      return Select(sel, n, [&](int64_t i) {
        const std::string& a = lc ? lc->str[sel[i]] : *llit;
        const std::string& b = rc ? rc->str[sel[i]] : *rlit;
        return a == b;
      });
    }
    case ValueType::kFloatVector: {
      const ColumnChunk* lc = nullptr;
      const ColumnChunk* rc = nullptr;
      if (left.kind() == ExprKind::kColumn) {
        RELSERVE_ASSIGN_OR_RETURN(lc, Chunk(left.column_index()));
      }
      if (right.kind() == ExprKind::kColumn) {
        RELSERVE_ASSIGN_OR_RETURN(rc, Chunk(right.column_index()));
      }
      auto span = [](const ColumnChunk* c, const Expression& expr,
                     int32_t r) -> std::pair<const float*, int64_t> {
        if (c != nullptr) {
          const int64_t lo = c->vec_offsets[r];
          return {c->vec_data.data() + lo, c->vec_offsets[r + 1] - lo};
        }
        const std::vector<float>& v = expr.literal().AsFloatVector();
        return {v.data(), static_cast<int64_t>(v.size())};
      };
      return Select(sel, n, [&](int64_t i) {
        const auto [ap, an] = span(lc, left, sel[i]);
        const auto [bp, bn] = span(rc, right, sel[i]);
        return an == bn && std::equal(ap, ap + an, bp);
      });
    }
  }
  return Status::Internal("unhandled equality type");
}

Result<SelVector> Evaluator::EvalBool(const Expression& e,
                                      const int32_t* sel, int64_t n) {
  // No rows selected: nothing is evaluated, so nothing can fail —
  // exactly like the row path, which never runs the evaluator here.
  if (n == 0) return SelVector{};
  switch (e.kind()) {
    case ExprKind::kAnd: {
      // Left selects; right is evaluated only over passing rows,
      // preserving per-row short-circuit (errors in the unevaluated
      // branch stay suppressed).
      RELSERVE_ASSIGN_OR_RETURN(
          SelVector pass, EvalBool(*e.children()[0], sel, n));
      return EvalBool(*e.children()[1], pass.data(),
                      static_cast<int64_t>(pass.size()));
    }
    case ExprKind::kOr: {
      RELSERVE_ASSIGN_OR_RETURN(
          SelVector pass, EvalBool(*e.children()[0], sel, n));
      const SelVector rest = Complement(sel, n, pass);
      RELSERVE_ASSIGN_OR_RETURN(
          SelVector right_pass,
          EvalBool(*e.children()[1], rest.data(),
                   static_cast<int64_t>(rest.size())));
      return MergeSorted(pass, right_pass);
    }
    case ExprKind::kNot: {
      RELSERVE_ASSIGN_OR_RETURN(
          SelVector pass, EvalBool(*e.children()[0], sel, n));
      return Complement(sel, n, pass);
    }
    case ExprKind::kEq:
      return EvalEq(e, sel, n);
    case ExprKind::kLt:
    case ExprKind::kLe: {
      std::vector<double> a(n), b(n);
      RELSERVE_RETURN_NOT_OK(
          EvalNumeric(*e.children()[0], sel, n, a.data()));
      RELSERVE_RETURN_NOT_OK(
          EvalNumeric(*e.children()[1], sel, n, b.data()));
      if (e.kind() == ExprKind::kLt) {
        return Select(sel, n, [&](int64_t i) { return a[i] < b[i]; });
      }
      return Select(sel, n, [&](int64_t i) { return a[i] <= b[i]; });
    }
    case ExprKind::kAbsDiffLe: {
      std::vector<double> a(n), b(n);
      RELSERVE_RETURN_NOT_OK(
          EvalNumeric(*e.children()[0], sel, n, a.data()));
      RELSERVE_RETURN_NOT_OK(
          EvalNumeric(*e.children()[1], sel, n, b.data()));
      const double eps = e.epsilon();
      return Select(sel, n, [&](int64_t i) {
        return std::fabs(a[i] - b[i]) <= eps;
      });
    }
    default: {
      // Truthiness of a numeric expression (column, literal, arith).
      std::vector<double> v(n);
      RELSERVE_RETURN_NOT_OK(EvalNumeric(e, sel, n, v.data()));
      return Select(sel, n, [&](int64_t i) { return v[i] != 0.0; });
    }
  }
}

// Evaluates `pred` over rows `sel` of `batch` and returns the passing
// subset. `col_map` maps table column index -> chunk slot in `batch`
// (-1 = absent), so predicates bound against the table schema
// evaluate over a projection-pushed-down batch.
Result<SelVector> EvalPredicate(const Expression& pred,
                                const ColumnBatch& batch,
                                const SelVector& sel,
                                const std::vector<int>& col_map) {
  Evaluator ev(batch, col_map);
  return ev.EvalBool(pred, sel.data(), static_cast<int64_t>(sel.size()));
}

// Gathers `sel` rows of the chunks named by `slots` into a fresh
// batch with schema `out_schema`.
ColumnBatch CompactBatch(const ColumnBatch& batch, const SelVector& sel,
                         const std::vector<int>& slots,
                         const Schema& out_schema) {
  ColumnBatch out(out_schema);
  const int64_t n = static_cast<int64_t>(sel.size());
  out.num_rows = n;
  for (size_t k = 0; k < slots.size(); ++k) {
    const ColumnChunk& src = batch.columns[slots[k]];
    ColumnChunk& dst = out.columns[k];
    if (n == batch.num_rows) {
      dst = src;  // full selection: whole-chunk copy
      continue;
    }
    switch (src.type) {
      case ValueType::kInt64: {
        dst.i64.resize(n);
        for (int64_t i = 0; i < n; ++i) dst.i64[i] = src.i64[sel[i]];
        break;
      }
      case ValueType::kFloat64: {
        dst.f64.resize(n);
        for (int64_t i = 0; i < n; ++i) dst.f64[i] = src.f64[sel[i]];
        break;
      }
      case ValueType::kString: {
        dst.str.reserve(n);
        for (int64_t i = 0; i < n; ++i) {
          dst.str.push_back(src.str[sel[i]]);
        }
        break;
      }
      case ValueType::kFloatVector: {
        int64_t total = 0;
        for (int64_t i = 0; i < n; ++i) {
          total += src.vec_offsets[sel[i] + 1] - src.vec_offsets[sel[i]];
        }
        dst.vec_data.reserve(total);
        dst.vec_offsets.reserve(n + 1);
        for (int64_t i = 0; i < n; ++i) {
          const int64_t lo = src.vec_offsets[sel[i]];
          const int64_t hi = src.vec_offsets[sel[i] + 1];
          dst.vec_data.insert(dst.vec_data.end(),
                              src.vec_data.begin() + lo,
                              src.vec_data.begin() + hi);
          dst.vec_offsets.push_back(
              static_cast<int64_t>(dst.vec_data.size()));
        }
        break;
      }
    }
    if (src.has_nulls()) {
      dst.validity.assign(static_cast<size_t>((n + 7) / 8), 0);
      for (int64_t i = 0; i < n; ++i) {
        if (src.IsValid(sel[i])) {
          dst.validity[static_cast<size_t>(i >> 3)] |=
              static_cast<uint8_t>(1u << (i & 7));
        }
      }
    }
    dst.length = n;
  }
  return out;
}

// The first `rows` rows of `batch`.
ColumnBatch Head(const ColumnBatch& batch, int64_t rows) {
  SelVector head(rows);
  std::iota(head.begin(), head.end(), 0);
  std::vector<int> slots(batch.columns.size());
  std::iota(slots.begin(), slots.end(), 0);
  return CompactBatch(batch, head, slots, batch.schema);
}

}  // namespace

std::vector<Row> ColumnarScanOutput::ToRows() const {
  std::vector<Row> rows;
  rows.reserve(rows_emitted);
  for (const ColumnBatch& batch : batches) {
    for (int64_t r = 0; r < batch.num_rows; ++r) {
      rows.push_back(batch.RowAt(r));
    }
  }
  return rows;
}

Result<ColumnarScanOutput> ColumnarScan(const ColumnarTable& table,
                                        const ColumnarScanOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  ColumnarScanOutput out;
  const Schema& schema = table.schema();
  const int ncols = schema.num_columns();

  std::vector<int> projection = opts.projection;
  if (projection.empty()) {
    projection.resize(ncols);
    std::iota(projection.begin(), projection.end(), 0);
  }
  for (int c : projection) {
    if (c < 0 || c >= ncols) {
      return Status::InvalidArgument("projection column " +
                                     std::to_string(c) +
                                     " out of range");
    }
  }
  // Projection pushdown: decode only the columns the output or the
  // predicate touches. Late materialization: each fragment first reads
  // the predicate's columns (every needed column when there is no
  // predicate), selects, and reads the remaining needed columns only
  // when at least one row passed. A fragment the filter rejects
  // outright never touches the other column streams. `needed` lists
  // the first read's columns, then the rest, each in table order; a
  // fragment's batch holds its chunks in that order.
  std::vector<bool> need(ncols, false);
  for (int c : projection) need[c] = true;
  std::vector<bool> first_read(ncols, opts.predicate == nullptr);
  if (opts.predicate != nullptr) {
    CollectColumns(*opts.predicate, &need);
    CollectColumns(*opts.predicate, &first_read);
  }
  std::vector<int> first_cols, rest_cols;
  for (int c = 0; c < ncols; ++c) {
    if (need[c]) (first_read[c] ? first_cols : rest_cols).push_back(c);
  }
  std::vector<int> needed = first_cols;
  needed.insert(needed.end(), rest_cols.begin(), rest_cols.end());
  std::vector<int> col_map(ncols, -1);
  for (size_t i = 0; i < needed.size(); ++i) {
    col_map[needed[i]] = static_cast<int>(i);
  }
  std::vector<int> proj_slots(projection.size());
  for (size_t i = 0; i < projection.size(); ++i) {
    proj_slots[i] = col_map[projection[i]];
  }
  out.schema = schema.Project(projection);

  const int64_t nfrags = table.num_fragments();
  out.batches.resize(nfrags);
  std::vector<Status> statuses(nfrags, Status::OK());
  std::atomic<int64_t> rows_scanned{0};
  std::atomic<int64_t> bytes_scanned{0};

  // When every row of a fragment survives the filter, the projected
  // chunks can move into the output as-is — no per-row compaction.
  // (Duplicate projection columns alias the same slot; the first
  // occurrence takes the chunk, later ones copy it.)
  auto project_chunks = [&](ColumnBatch&& batch) {
    ColumnBatch kept(out.schema);
    std::vector<int> first(needed.size(), -1);
    for (size_t i = 0; i < proj_slots.size(); ++i) {
      const int slot = proj_slots[i];
      if (first[slot] >= 0) {
        kept.columns[i] = kept.columns[first[slot]];
      } else {
        kept.columns[i] = std::move(batch.columns[slot]);
        first[slot] = static_cast<int>(i);
      }
    }
    kept.num_rows = batch.num_rows;
    return kept;
  };

  auto scan_fragment = [&](int64_t f) -> Status {
    // Table ordinal of this fragment's first row, read before the
    // fragment itself: seals never move a fragment's start, and rows a
    // concurrent commit appends after this point carry begin versions
    // beyond any already-pinned snapshot.
    const int64_t frag_start =
        opts.visibility != nullptr ? table.FragmentStartRow(f) : 0;
    RELSERVE_ASSIGN_OR_RETURN(ColumnBatch batch,
                              table.ReadFragment(f, &first_cols));
    rows_scanned.fetch_add(batch.num_rows, std::memory_order_relaxed);
    bytes_scanned.fetch_add(batch.ByteSize(), std::memory_order_relaxed);
    // The rows visible at the snapshot (within-fragment offsets) are
    // the predicate's initial selection. Fully visible fragments skip
    // the per-row visibility pass.
    SelVector sel;
    if (opts.visibility != nullptr &&
        !opts.visibility->AllVisible(frag_start, batch.num_rows,
                                     opts.snapshot)) {
      opts.visibility->VisibleSelection(frag_start, batch.num_rows,
                                        opts.snapshot, &sel);
    } else {
      sel.resize(batch.num_rows);
      std::iota(sel.begin(), sel.end(), 0);
    }
    if (opts.predicate != nullptr) {
      RELSERVE_ASSIGN_OR_RETURN(
          sel, EvalPredicate(*opts.predicate, batch, sel, col_map));
    }
    if (sel.empty()) {
      out.batches[f] = ColumnBatch(out.schema);
      return Status::OK();
    }
    if (!rest_cols.empty()) {
      RELSERVE_ASSIGN_OR_RETURN(ColumnBatch rest,
                                table.ReadFragment(f, &rest_cols));
      bytes_scanned.fetch_add(rest.ByteSize(), std::memory_order_relaxed);
      // A concurrent append grew the open tail between the two reads;
      // trim the rest columns back to the rows the predicate saw so
      // every chunk of the assembled batch agrees.
      if (rest.num_rows > batch.num_rows) rest = Head(rest, batch.num_rows);
      for (ColumnChunk& chunk : rest.columns) {
        batch.columns.push_back(std::move(chunk));
      }
    }
    out.batches[f] = static_cast<int64_t>(sel.size()) == batch.num_rows
                         ? project_chunks(std::move(batch))
                         : CompactBatch(batch, sel, proj_slots, out.schema);
    return Status::OK();
  };

  const bool parallel =
      opts.pool != nullptr && !opts.force_serial && nfrags > 1 &&
      opts.limit < 0 &&
      ScanCostModel::ShouldParallelize(
          table.num_rows(), static_cast<int64_t>(needed.size()),
          opts.pool->num_threads());
  if (parallel) {
    // Morsel = fragment: each morsel decodes whole fragments, grains
    // grouped by the cost model's per-fragment work estimate. A running
    // morsel pins one page at a time, so there are never more morsels
    // than buffer-pool frames: the caller plus every worker could
    // otherwise pin them all and fail each other's fetches.
    const int64_t work_hint = ScanCostModel::FragmentWorkHint(
        table.fragment_rows(), static_cast<int64_t>(needed.size()));
    const int64_t frames = table.buffer_pool()->capacity_pages();
    const int64_t grain = std::max(ThreadPool::kMinWorkPerMorsel / work_hint,
                                   (nfrags + frames - 1) / frames);
    opts.pool->ParallelFor(
        0, nfrags,
        [&](int64_t lo, int64_t hi) {
          for (int64_t f = lo; f < hi; ++f) {
            statuses[f] = scan_fragment(f);
          }
        },
        grain);
  } else {
    int64_t emitted = 0;
    for (int64_t f = 0; f < nfrags; ++f) {
      statuses[f] = scan_fragment(f);
      if (!statuses[f].ok()) break;
      emitted += out.batches[f].num_rows;
      if (opts.limit >= 0 && emitted >= opts.limit) break;
    }
  }
  // Deterministic first-error in fragment order, regardless of which
  // morsel hit it first on the clock.
  for (int64_t f = 0; f < nfrags; ++f) {
    RELSERVE_RETURN_NOT_OK(statuses[f]);
  }

  if (opts.limit >= 0) {
    int64_t remaining = opts.limit;
    for (ColumnBatch& batch : out.batches) {
      if (remaining <= 0) {
        batch = ColumnBatch(out.schema);
        continue;
      }
      if (batch.num_rows > remaining) batch = Head(batch, remaining);
      remaining -= batch.num_rows;
    }
  }
  for (const ColumnBatch& batch : out.batches) {
    out.rows_emitted += batch.num_rows;
  }
  out.rows_scanned = rows_scanned.load(std::memory_order_relaxed);
  out.bytes_scanned = bytes_scanned.load(std::memory_order_relaxed);
  out.parallel = parallel;
  out.nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  ScanCostModel::ObserveColumnarScan(
      out.rows_scanned * static_cast<int64_t>(needed.size()),
      out.nanos);
  return out;
}

Result<bool> ColumnarRowScan::Next(Row* row) {
  while (true) {
    while (row_ >= batch_.num_rows) {
      if (fragment_ >= table_->num_fragments()) return false;
      // Start ordinal read before the fragment: a concurrent seal
      // never moves it, and rows appended afterwards carry begin
      // versions beyond any pinned snapshot.
      batch_start_ = table_->FragmentStartRow(fragment_);
      RELSERVE_ASSIGN_OR_RETURN(
          batch_, table_->ReadFragment(fragment_++, nullptr));
      row_ = 0;
    }
    const int64_t r = row_++;
    if (visibility_ != nullptr &&
        !visibility_->IsVisible(batch_start_ + r, snapshot_)) {
      continue;  // not in this reader's snapshot
    }
    *row = batch_.RowAt(r);
    return true;
  }
}

}  // namespace relserve
