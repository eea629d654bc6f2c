#include "sql_loop.h"

#include "sql/parser.h"

namespace perfbench {

std::map<int64_t, int64_t> ClassHistogram(
    const relserve::sql::QueryResult& result) {
  std::map<int64_t, int64_t> hist;
  for (const relserve::Row& row : result.rows) {
    if (row.num_values() != 2 ||
        row.value(0).type() != relserve::ValueType::kInt64 ||
        row.value(1).type() != relserve::ValueType::kInt64) {
      return {};
    }
    hist[row.value(0).AsInt64()] += row.value(1).AsInt64();
  }
  return hist;
}

SqlLoopOutput RunSqlLoop(
    relserve::ServingSession* session, const std::string& sql,
    int64_t deadline_ns, SpanRecorder* spans,
    const std::function<std::string(const std::map<int64_t, int64_t>&)>&
        check,
    const std::function<int64_t()>& counted_nanos) {
  SqlLoopOutput out;
  for (uint64_t i = 0; NowNs() < deadline_ns; ++i) {
    const bool traced = spans->enabled() && i % 2 == 1;
    int64_t root = -1;
    double parse_us = 0;
    int64_t counted0 = 0;
    if (traced) {
      root = spans->Open("sql.query", -1, i);
      const int64_t p0 = NowNs();
      auto parsed = relserve::sql::Parse(sql);
      const int64_t p1 = NowNs();
      spans->Record("sql.parse", root, i, p0, p1);
      parse_us = (p1 - p0) / 1e3;
      counted0 = counted_nanos();
      if (!parsed.ok() && out.first_error.empty()) {
        out.first_error = parsed.status().ToString();
      }
    }
    const int64_t t0 = NowNs();
    auto result = relserve::sql::ExecuteStatement(session, sql);
    const int64_t t1 = NowNs();
    if (traced) {
      spans->Record("sql.execute", root, i, t0, t1);
      spans->Close(root);
      const double statement_us = (t1 - t0) / 1e3;
      const double counted_us = (counted_nanos() - counted0) / 1e3;
      out.parse_us.push_back(parse_us);
      out.self_us.push_back(Subtractive(statement_us, {counted_us}));
      out.accounted.push_back((counted_us + parse_us) /
                              (statement_us + parse_us));
    }
    ++out.attempted;
    std::string wrong;
    if (!result.ok()) {
      wrong = result.status().ToString();
    } else if (!result->has_rows) {
      wrong = "statement returned no rows";
    } else {
      wrong = check(ClassHistogram(result->query));
    }
    if (!wrong.empty()) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = wrong;
      continue;
    }
    (traced ? out.traced_ms : out.untraced_ms).push_back((t1 - t0) / 1e6);
  }
  return out;
}

}  // namespace perfbench
