// Larger-than-memory inference: the paper's Table 3 scenario as a
// runnable example. A model whose first-layer operator exceeds the
// working arena is served anyway — the adaptive optimizer lowers the
// big multiplication to a join + aggregation over tensor blocks, and
// the buffer pool spills cold blocks to disk.

#include <cstdio>

#include "common/counter.h"
#include "graph/model.h"
#include "serving/serving_session.h"
#include "workloads/datasets.h"

using namespace relserve;  // example code; library code never does this

int main() {
  ServingConfig config;
  config.working_memory_bytes = 24LL << 20;  // 24 MiB arena — tiny!
  config.memory_threshold_bytes = 16LL << 20;
  config.buffer_pool_pages = 512;  // 32 MiB pool, also undersized
  config.block_rows = 256;
  config.block_cols = 256;
  ServingSession session(config);

  // Weight 2048 x 6000 = 49 MiB: twice the whole arena.
  auto model = BuildFFNN("wide-classifier", {6000, 2048, 32}, 5);
  if (!model.ok()) return 1;
  const int64_t weight_bytes = model->TotalWeightBytes();
  if (!session.RegisterModel(std::move(*model)).ok()) return 1;

  auto table =
      session.CreateTable("events", workloads::FeatureTableSchema());
  if (!table.ok()) return 1;
  if (!workloads::FillFeatureTable(*table, 512, 6000, 2).ok()) return 1;

  std::printf("arena: %lld MiB, weights: %lld MiB, batch input: "
              "%lld MiB\n",
              static_cast<long long>(config.working_memory_bytes >> 20),
              static_cast<long long>(weight_bytes >> 20),
              static_cast<long long>((512LL * 6000 * 4) >> 20));

  // Whole-tensor (UDF-centric) deployment cannot even load the model.
  auto udf = session.Deploy("wide-classifier", ServingMode::kForceUdf,
                            512);
  std::printf("udf-centric deploy : %s\n",
              udf.ok() ? "ok (unexpected!)"
                       : udf.status().ToString().c_str());

  // Adaptive deployment lowers the oversized operator.
  auto plan = session.Deploy("wide-classifier", ServingMode::kAdaptive,
                             512);
  if (!plan.ok()) {
    std::fprintf(stderr, "adaptive deploy: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\nadaptive plan:\n%s\n",
              (*plan)->ToString(**session.GetModel("wide-classifier"))
                  .c_str());

  auto out = session.Predict("wide-classifier", "events");
  if (!out.ok()) {
    std::fprintf(stderr, "predict: %s\n",
                 out.status().ToString().c_str());
    return 1;
  }
  auto scores = out->ToTensor(session.exec_context());
  if (!scores.ok()) return 1;

  const BufferPoolStats pool_stats = session.catalog()->pool()->stats();
  std::printf("predictions: %s\n",
              scores->shape().ToString().c_str());
  std::printf("peak arena use     : %lld MiB (never held the whole "
              "weight)\n",
              static_cast<long long>(
                  session.working_memory()->peak_bytes() >> 20));
  std::printf("buffer pool        : %s\n",
              RenderJson(pool_stats).c_str());
  std::printf("spill file traffic : %lld page reads, %lld page "
              "writes\n",
              static_cast<long long>(
                  session.catalog()->pool()->disk()->num_reads()),
              static_cast<long long>(
                  session.catalog()->pool()->disk()->num_writes()));
  return 0;
}
