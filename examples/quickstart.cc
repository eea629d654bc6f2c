// Quickstart: load a table, register a model, deploy, predict.
//
//   $ ./build/examples/quickstart
//
// Walks the minimal relserve workflow: an RDBMS session owns the
// data; a deep-learning model is loaded *into* the database; the
// adaptive optimizer picks an in-database representation; inference
// runs directly on the stored rows.

#include <cstdio>

#include "graph/model.h"
#include "serving/serving_session.h"
#include "workloads/datasets.h"

using relserve::BuildFFNN;
using relserve::ExecOutput;
using relserve::InferencePlan;
using relserve::Model;
using relserve::ServingConfig;
using relserve::ServingMode;
using relserve::ServingSession;
using relserve::Shape;
using relserve::TableInfo;
using relserve::Tensor;

int main() {
  // 1. A session: buffer pool + catalog + working-memory arena +
  //    optimizer configuration.
  ServingSession session(ServingConfig{});

  // 2. A table of 1,000 rows with a 28-wide feature vector each
  //    (synthetic stand-in for a transactions table).
  auto table = session.CreateTable(
      "transactions", relserve::workloads::FeatureTableSchema());
  if (!table.ok()) {
    std::fprintf(stderr, "create table: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }
  if (auto s = relserve::workloads::FillFeatureTable(*table, 1000, 28,
                                                     /*seed=*/42);
      !s.ok()) {
    std::fprintf(stderr, "load rows: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("loaded %lld rows into 'transactions'\n",
              static_cast<long long>((*table)->columnar->num_rows()));

  // 3. Register a model (the paper's Fraud-FC-256: 28 -> 256 -> 2).
  auto model = BuildFFNN("fraud-detector", {28, 256, 2}, /*seed=*/7);
  if (!model.ok() ||
      !session.RegisterModel(std::move(*model)).ok()) {
    std::fprintf(stderr, "model registration failed\n");
    return 1;
  }

  // 4. Deploy: the rule-based optimizer estimates every operator's
  //    memory and picks udf-centric vs relation-centric per node.
  auto plan = session.Deploy("fraud-detector", ServingMode::kAdaptive,
                             /*batch_size=*/1000);
  if (!plan.ok()) {
    std::fprintf(stderr, "deploy: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s\n",
              (*plan)->ToString(**session.GetModel("fraud-detector"))
                  .c_str());

  // 5. Predict over the whole table, in the database.
  auto out = session.Predict("fraud-detector", "transactions");
  if (!out.ok()) {
    std::fprintf(stderr, "predict: %s\n",
                 out.status().ToString().c_str());
    return 1;
  }
  auto scores = out->ToTensor(session.exec_context());
  if (!scores.ok()) {
    std::fprintf(stderr, "materialize: %s\n",
                 scores.status().ToString().c_str());
    return 1;
  }
  std::printf("predictions: %s; first row = [%.4f, %.4f]\n",
              scores->shape().ToString().c_str(), scores->At(0, 0),
              scores->At(0, 1));
  std::printf("working-memory in use after query: %lld bytes "
              "(outputs only)\n",
              static_cast<long long>(
                  session.working_memory()->used_bytes()));
  return 0;
}
