// The closed-loop SQL client both table workloads use: one caller
// repeats one GROUP BY inference statement through
// sql::ExecuteStatement, checks every result, and times each call.
// In a traced run every other statement is traced (a span around the
// timed sql::Parse and one around ExecuteStatement), so traced and
// untraced statements run under the same conditions and their gap is
// the tracing overhead.

#ifndef PERFBENCH_SQL_LOOP_H_
#define PERFBENCH_SQL_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "serving/serving_session.h"
#include "sql/query_executor.h"

namespace perfbench {

// class -> COUNT(*) of a "SELECT PREDICT_CLASS(..) AS cls, COUNT(*)
// ... GROUP BY cls" result; empty when the shape is wrong.
std::map<int64_t, int64_t> ClassHistogram(
    const relserve::sql::QueryResult& result);

struct SqlLoopOutput {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> untraced_ms;  // statement latency
  std::vector<double> traced_ms;
  // Traced statements only: timed sql::Parse; the statement minus the
  // time its scan, gather and plan stages counted (subtractive); and
  // the share of the statement that parse and those stages cover.
  std::vector<double> parse_us;
  std::vector<double> self_us;
  std::vector<double> accounted;
  std::string first_error;
};

// Runs `sql` back to back until `deadline_ns` (NowNs clock). `check`
// returns an empty string for a correct histogram, else what is
// wrong; a failed or wrong statement counts as failed.
// `counted_nanos` returns the cumulative stage time the library's
// counters hold; it is read around every traced statement.
SqlLoopOutput RunSqlLoop(
    relserve::ServingSession* session, const std::string& sql,
    int64_t deadline_ns, SpanRecorder* spans,
    const std::function<std::string(const std::map<int64_t, int64_t>&)>&
        check,
    const std::function<int64_t()>& counted_nanos);

}  // namespace perfbench

#endif  // PERFBENCH_SQL_LOOP_H_
