// Extension bench (paper Sec. 5(2)): DL-style operator pipelining vs
// whole-batch execution inside the RDBMS. Reports end-to-end latency
// and the peak working-arena footprint for each regime across
// micro-batch sizes — the memory-boundedness is the paper's argument
// for streaming operator UDFs.

#include <cstdio>

#include "bench_util.h"
#include "engine/hybrid_executor.h"
#include "engine/pipeline_executor.h"
#include "graph/model.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

int Run() {
  const int repeats = bench::RepeatsFromEnv();
  const int64_t batch = 4096;
  MemoryTracker tracker("bench");
  ExecContext ctx;
  ctx.tracker = &tracker;

  auto model = BuildFFNN("m", {256, 1024, 1024, 16}, 1);
  if (!model.ok()) return 1;
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx);
  if (!compiled.ok()) return 1;
  auto input = workloads::GenBatch(batch, Shape{256}, 7);
  if (!input.ok()) return 1;

  std::printf("Sec 5(2) extension: operator pipelining vs whole-batch "
              "UDF (FFNN 256/1024/1024/16, batch %lld)\n\n",
              static_cast<long long>(batch));
  bench::PrintRow({"Mode", "MicroBatch", "Latency(s)", "PeakArena"});
  bench::PrintRule(4);

  tracker.ResetPeak();
  auto whole = bench::TimeBest(repeats, [&]() -> Status {
    RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                              HybridExecutor::Run(**compiled, *input,
                                                  &ctx));
    (void)out;
    return Status::OK();
  });
  bench::PrintRow({"whole-batch", "-", bench::Cell(whole),
                   bench::HumanBytes(tracker.peak_bytes())});

  for (int64_t micro : {64, 256, 1024}) {
    tracker.ResetPeak();
    PipelineConfig config;
    config.micro_batch_rows = micro;
    auto piped = bench::TimeBest(repeats, [&]() -> Status {
      RELSERVE_ASSIGN_OR_RETURN(
          Tensor out,
          PipelineExecutor::Run(**compiled, *input, &ctx, config));
      (void)out;
      return Status::OK();
    });
    bench::PrintRow({"pipelined", std::to_string(micro),
                     bench::Cell(piped),
                     bench::HumanBytes(tracker.peak_bytes())});
  }
  std::printf(
      "\nExpected shape: pipelining bounds peak memory near "
      "(stages x queue x micro-batch)\ninstead of whole-batch "
      "activations; on multicore hosts stage workers also\noverlap, "
      "trading a little per-chunk overhead for concurrency.\n");
  return 0;
}

}  // namespace
}  // namespace relserve

int main() { return relserve::Run(); }
