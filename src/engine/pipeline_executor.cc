#include "engine/pipeline_executor.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/hybrid_executor.h"
#include "resource/bounded_queue.h"

namespace relserve {

namespace {

struct Chunk {
  int64_t row_offset = 0;
  Tensor data;  // [rows, sample dims of the producing stage]
};

using ChunkQueue = BoundedQueue<Chunk>;

// First error wins; later errors are dropped.
class ErrorSlot {
 public:
  void Set(Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.ok()) first_ = std::move(status);
  }
  Status Get() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  std::mutex mu_;
  Status first_;
};

}  // namespace

Result<Tensor> PipelineExecutor::Run(const PhysicalPlan& plan,
                                     const Tensor& input,
                                     ExecContext* ctx,
                                     PipelineConfig config) {
  if (input.shape().ndim() < 1) {
    return Status::InvalidArgument("input must have a batch dimension");
  }
  if (config.micro_batch_rows <= 0 || config.queue_capacity <= 0) {
    return Status::InvalidArgument("bad pipeline configuration");
  }
  if (!plan.logical_plan().AllUdf()) {
    return Status::InvalidArgument(
        "pipeline stages execute whole micro-batches; compile the "
        "model with the UDF representation");
  }
  const int num_stages = static_cast<int>(plan.stages().size());
  if (num_stages < 1) {
    return Status::InvalidArgument("model has no operators");
  }
  const int64_t batch = input.shape().dim(0);
  const int64_t sample_width = input.NumElements() / batch;
  std::vector<int64_t> out_dims = plan.output_sample();
  out_dims.insert(out_dims.begin(), batch);
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor output, Tensor::Create(Shape(out_dims), ctx->tracker));
  const int64_t out_width = output.NumElements() / batch;

  // Route kernel calls through the shared pool only when the pipeline
  // itself leaves pool workers idle (fewer stages than threads);
  // otherwise inter-stage parallelism already saturates the pool and
  // intra-chunk morsels would only add dispatch overhead. The packed
  // GEMM layer forks one morsel per mc-row macro-tile, so a chunk
  // only fans out when micro_batch_rows spans several tiles —
  // sub-tile chunks run inline on the stage thread regardless of this
  // routing. ParallelFor task groups are per-call, so concurrent
  // stages sharing the pool stay isolated. The stage workers share
  // one context carrying that routing; UDF stages bump no ExecStats
  // counter, and their time lands in the plan's StageStats.
  ExecContext stage_ctx = *ctx;
  if (ctx->pool != nullptr && num_stages >= ctx->pool->num_threads()) {
    stage_ctx.pool = nullptr;
  }

  // One queue feeding each stage plus one carrying the final output.
  std::vector<std::unique_ptr<ChunkQueue>> queues;
  queues.reserve(num_stages + 1);
  for (int i = 0; i <= num_stages; ++i) {
    queues.push_back(std::make_unique<ChunkQueue>(
        static_cast<size_t>(config.queue_capacity)));
  }
  ErrorSlot error;
  auto abort_all = [&queues]() {
    for (auto& q : queues) q->Close();
  };

  std::vector<std::thread> workers;
  workers.reserve(num_stages + 1);

  // Producer: slices the input into micro-batches.
  workers.emplace_back([&, batch, sample_width]() {
    for (int64_t row = 0; row < batch;
         row += config.micro_batch_rows) {
      const int64_t rows =
          std::min(config.micro_batch_rows, batch - row);
      auto chunk = Tensor::Create(Shape{rows, sample_width},
                                  ctx->tracker);
      if (!chunk.ok()) {
        error.Set(chunk.status());
        abort_all();
        return;
      }
      std::memcpy(chunk->data(),
                  input.data() + row * sample_width,
                  rows * sample_width * sizeof(float));
      if (!queues[0]->Push(Chunk{row, std::move(*chunk)})) return;
    }
    queues[0]->Close();
  });

  // One worker per compiled stage.
  for (int s = 0; s < num_stages; ++s) {
    workers.emplace_back([&, s]() {
      const PhysicalStage& stage = *plan.stages()[s];
      while (std::optional<Chunk> chunk = queues[s]->Pop()) {
        Result<Tensor> out =
            HybridExecutor::RunChunk(stage, std::move(chunk->data),
                                     &stage_ctx);
        if (!out.ok()) {
          error.Set(out.status());
          abort_all();
          return;
        }
        if (!queues[s + 1]->Push(
                Chunk{chunk->row_offset, std::move(*out)})) {
          return;
        }
      }
      queues[s + 1]->Close();  // upstream done (or aborted)
    });
  }

  // Collector (this thread): scatter finished chunks into the output.
  while (std::optional<Chunk> chunk = queues[num_stages]->Pop()) {
    std::memcpy(output.data() + chunk->row_offset * out_width,
                chunk->data.data(),
                chunk->data.NumElements() * sizeof(float));
  }
  for (std::thread& w : workers) w.join();

  RELSERVE_RETURN_NOT_OK(error.Get());
  return output;
}

}  // namespace relserve
