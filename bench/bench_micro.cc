// google-benchmark microbenchmarks for the substrate: GEMM, im2col,
// block matmul, buffer pool paging, row (de)serialization, and HNSW
// search. These are the building-block costs behind every table in
// EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include "cache/hnsw_index.h"
#include "common/random.h"
#include "engine/block_ops.h"
#include "kernels/kernels.h"
#include "relational/row.h"
#include "storage/buffer_pool.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto a = workloads::GenBatch(n, Shape{n}, 1);
  auto b = workloads::GenBatch(n, Shape{n}, 2);
  for (auto _ : state) {
    auto c = kernels::MatMul(*a, *b, false);
    benchmark::DoNotOptimize(c->data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Arg(512);

void BM_GemmTransposed(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto a = workloads::GenBatch(n, Shape{n}, 1);
  auto b = workloads::GenBatch(n, Shape{n}, 2);
  for (auto _ : state) {
    auto c = kernels::MatMul(*a, *b, true);
    benchmark::DoNotOptimize(c->data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTransposed)->Arg(64)->Arg(256)->Arg(512);

void BM_Im2Col(benchmark::State& state) {
  const int64_t side = state.range(0);
  auto image = workloads::GenBatch(side, Shape{side, 3}, 1);
  auto shaped = image->Reshape(Shape{side, side, 3});
  for (auto _ : state) {
    auto cols = kernels::Im2Col(*shaped, 3, 3, 1);
    benchmark::DoNotOptimize(cols->data());
  }
}
BENCHMARK(BM_Im2Col)->Arg(64)->Arg(256);

void BM_BlockMatMul(benchmark::State& state) {
  const int64_t n = 512;
  const int64_t block = state.range(0);
  DiskManager disk;
  BufferPool pool(&disk, 4096);
  MemoryTracker tracker("bench");
  ExecContext ctx;
  ctx.tracker = &tracker;
  ctx.buffer_pool = &pool;
  ctx.block_rows = block;
  ctx.block_cols = block;
  auto x = workloads::GenBatch(n, Shape{n}, 1);
  auto w = workloads::GenBatch(n, Shape{n}, 2);
  auto xs = blockops::ChunkMatrix(*x, &ctx);
  auto ws = blockops::ChunkMatrix(*w, &ctx, /*share_weights=*/true);
  for (auto _ : state) {
    auto c = blockops::BlockMatMul(**xs, **ws, &ctx);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_BlockMatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_BufferPoolFetch(benchmark::State& state) {
  const int64_t pages = state.range(0);
  DiskManager disk;
  BufferPool pool(&disk, 64);  // resident capacity 64 pages
  std::vector<PageId> ids(pages);
  for (int64_t i = 0; i < pages; ++i) {
    auto page = pool.NewPage(&ids[i]);
    pool.UnpinPage(ids[i], true);
    benchmark::DoNotOptimize(page);
  }
  Rng rng(3);
  for (auto _ : state) {
    const PageId id = ids[rng.UniformInt(0, pages - 1)];
    auto page = pool.FetchPage(id);
    benchmark::DoNotOptimize(*page);
    pool.UnpinPage(id, false);
  }
}
BENCHMARK(BM_BufferPoolFetch)->Arg(32)->Arg(64)->Arg(256);

void BM_RowSerialize(benchmark::State& state) {
  const int64_t width = state.range(0);
  std::vector<float> features(width, 1.5f);
  Row row({Value(int64_t{7}), Value(features)});
  std::string bytes;
  for (auto _ : state) {
    bytes.clear();
    row.SerializeTo(&bytes);
    auto back = Row::Deserialize(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * width * 4);
}
BENCHMARK(BM_RowSerialize)->Arg(28)->Arg(968);

void BM_HnswSearch(benchmark::State& state) {
  const int dim = 64;
  const int64_t n = state.range(0);
  Rng rng(5);
  HnswIndex index(dim);
  std::vector<float> v(dim);
  for (int64_t i = 0; i < n; ++i) {
    for (float& x : v) x = rng.Uniform();
    auto id = index.Add(v);
    benchmark::DoNotOptimize(id);
  }
  for (auto _ : state) {
    for (float& x : v) x = rng.Uniform();
    auto result = index.Search(v, 1);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HnswSearch)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace relserve
