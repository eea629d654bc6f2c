// SQL inference queries — the paper's motivating interface: SQL
// nested with deep-learning inference, executed entirely inside the
// database.

#include <cstdio>

#include "common/random.h"
#include "graph/model.h"
#include "relational/row.h"
#include "serving/serving_session.h"
#include "sql/query_executor.h"
#include "workloads/datasets.h"

using namespace relserve;  // example code; library code never does this

int main() {
  ServingSession session(ServingConfig{});

  // A transactions table: (id, amount, features).
  auto table = session.CreateTable(
      "transactions", Schema({{"id", ValueType::kInt64},
                              {"amount", ValueType::kFloat64},
                              {"features", ValueType::kFloatVector}}));
  if (!table.ok()) return 1;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    std::vector<float> features(28);
    for (float& f : features) f = rng.Uniform();
    Row row({Value(int64_t{i}),
             Value(static_cast<double>(rng.Uniform(1.0f, 5000.0f))),
             Value(std::move(features))});
    if (!(*table)->columnar->AppendRow(row).ok()) return 1;
  }

  // The fraud model from the paper's Table 1.
  auto model = BuildFFNN("fraud", {28, 256, 2}, 3);
  if (!model.ok() || !session.RegisterModel(std::move(*model)).ok()) {
    return 1;
  }

  const char* queries[] = {
      // Score only the large transactions, return the top rows.
      "SELECT id, amount, PREDICT(fraud) AS risk "
      "FROM transactions WHERE amount > 4000 LIMIT 5",
      // Hard classification nested under a compound predicate.
      "SELECT id, PREDICT_CLASS(fraud) AS flagged "
      "FROM transactions WHERE amount > 1000 AND amount <= 1200",
      // Group the table by the model's decision — inference feeding
      // relational aggregation in one statement.
      "SELECT PREDICT_CLASS(fraud) AS flagged, COUNT(*) AS n, "
      "AVG(amount) AS avg_amount FROM transactions GROUP BY flagged",
  };
  for (const char* query : queries) {
    std::printf("sql> %s\n", query);
    auto result = sql::ExecuteQuery(&session, query);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", result->ToString(8).c_str());
  }
  return 0;
}
