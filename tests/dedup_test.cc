// Tests for the content-addressed, ref-counted PhysicalBlockIndex
// (paper Sec. 4(1)) and the layers above it: BlockStores sharing one
// index, and ServingSession's multi-tenant deploy/undeploy lifecycle.
//
// The load-bearing invariants:
//   - tolerance 0 is byte-exact — dedup never changes a single bit;
//   - physical pages are freed at exactly the last Release, in any
//     undeploy order, and the disk free list returns to baseline;
//   - resident-arm hits share the canonical buffer and charge the
//     memory arena nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graph/model.h"
#include "resource/memory_tracker.h"
#include "serving/serving_session.h"
#include "storage/block_store.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/physical_block_index.h"
#include "tensor/tensor.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

Tensor Filled(const Shape& shape, float start, float step = 1.0f) {
  auto t = Tensor::Create(shape);
  EXPECT_TRUE(t.ok());
  for (int64_t i = 0; i < t->NumElements(); ++i) {
    t->data()[i] = start + step * static_cast<float>(i);
  }
  return std::move(*t);
}

TEST(PhysicalBlockIndexTest, ExactInternDedupsAndRefcounts) {
  DiskManager disk;
  BufferPool pool(&disk, 32);
  PhysicalBlockIndex index(&pool);

  const Tensor a = Filled(Shape{16, 16}, 1.0f);
  auto first = index.Intern(a, /*tolerance=*/0.0f);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->deduped);
  EXPECT_FALSE(first->pages.empty());

  // A byte-identical tensor in a different buffer resolves to the
  // same physical block — same id, same pages, no new allocation.
  auto copy = a.Clone();
  ASSERT_TRUE(copy.ok());
  auto second = index.Intern(*copy, 0.0f);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->deduped);
  EXPECT_EQ(second->id, first->id);
  EXPECT_EQ(second->pages, first->pages);
  EXPECT_FLOAT_EQ(second->match_error, 0.0f);

  PhysicalBlockStats stats = index.stats();
  EXPECT_EQ(stats.unique_blocks, 1);
  EXPECT_EQ(stats.logical_refs, 2);
  EXPECT_EQ(stats.dedup_hits, 1);
  EXPECT_EQ(stats.physical_bytes, a.ByteSize());
  EXPECT_EQ(stats.logical_bytes, 2 * a.ByteSize());

  index.Release(first->id);
  EXPECT_EQ(index.stats().unique_blocks, 1);  // one ref still live
  index.Release(first->id);
  stats = index.stats();
  EXPECT_EQ(stats.unique_blocks, 0);
  EXPECT_EQ(stats.logical_refs, 0);
  EXPECT_EQ(stats.physical_bytes, 0);
  EXPECT_EQ(stats.freed_blocks, 1);
}

TEST(PhysicalBlockIndexTest, ToleranceZeroIsByteExact) {
  DiskManager disk;
  BufferPool pool(&disk, 32);
  PhysicalBlockIndex index(&pool);

  const Tensor a = Filled(Shape{8, 8}, 0.5f);
  Tensor b = Filled(Shape{8, 8}, 0.5f);
  b.data()[0] += 1e-6f;  // near-identical is not identical

  auto ia = index.Intern(a, 0.0f);
  auto ib = index.Intern(b, 0.0f);
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ib.ok());
  EXPECT_FALSE(ib->deduped);
  EXPECT_NE(ib->id, ia->id);
  EXPECT_EQ(index.stats().unique_blocks, 2);
  index.Release(ia->id);
  index.Release(ib->id);
}

TEST(PhysicalBlockIndexTest, ToleranceMergesWithBoundedError) {
  DiskManager disk;
  BufferPool pool(&disk, 32);
  PhysicalBlockIndex index(&pool);

  const Tensor a = Filled(Shape{8, 8}, 0.5f);
  Tensor b = Filled(Shape{8, 8}, 0.5f);
  b.data()[7] += 5e-4f;

  const float tolerance = 1e-3f;
  auto ia = index.Intern(a, tolerance);
  auto ib = index.Intern(b, tolerance);
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ib.ok());
  EXPECT_TRUE(ib->deduped);
  EXPECT_EQ(ib->id, ia->id);
  EXPECT_GT(ib->match_error, 0.0f);
  EXPECT_LE(ib->match_error, tolerance);
  EXPECT_GT(index.stats().max_substitution_error, 0.0f);

  // Beyond the tolerance: no merge.
  Tensor c = Filled(Shape{8, 8}, 0.5f);
  c.data()[7] += 0.5f;
  auto ic = index.Intern(c, tolerance);
  ASSERT_TRUE(ic.ok());
  EXPECT_FALSE(ic->deduped);

  index.Release(ia->id);
  index.Release(ib->id);
  index.Release(ic->id);
}

TEST(PhysicalBlockIndexTest, ReleaseFreesPagesAtLastRef) {
  DiskManager disk;
  BufferPool pool(&disk, 32);
  PhysicalBlockIndex index(&pool);

  // Two refs onto one block whose payload spans several pages.
  const Tensor big = Filled(Shape{256, 256}, 0.0f, 0.25f);
  auto first = index.Intern(big, 0.0f);
  ASSERT_TRUE(first.ok());
  auto second = index.Intern(big, 0.0f);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->pages.size(), 1u);
  const int64_t allocated = disk.num_allocated();

  index.Release(first->id);
  EXPECT_EQ(disk.num_free(), 0);  // one ref left: pages still owned

  index.Release(first->id);
  // Last ref dropped: every page the index allocated is back on the
  // disk free list.
  EXPECT_EQ(disk.num_free(), allocated);
  EXPECT_EQ(index.stats().physical_bytes, 0);

  // Releasing a dead id again is a harmless no-op.
  index.Release(first->id);
  EXPECT_EQ(disk.num_free(), allocated);
}

TEST(PhysicalBlockIndexTest, AddRefExtendsLifetimeAndDiesTyped) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  PhysicalBlockIndex index(&pool);

  const Tensor a = Filled(Shape{4, 4}, 2.0f);
  auto interned = index.Intern(a, 0.0f);
  ASSERT_TRUE(interned.ok());
  ASSERT_TRUE(index.AddRef(interned->id).ok());
  EXPECT_EQ(index.stats().logical_refs, 2);

  index.Release(interned->id);
  index.Release(interned->id);
  EXPECT_EQ(index.stats().unique_blocks, 0);
  // The id is dead now; AddRef must say so, not resurrect it.
  EXPECT_TRUE(index.AddRef(interned->id).IsNotFound());
  EXPECT_TRUE(index.AddRef(kInvalidPhysicalBlockId).IsNotFound());
}

TEST(PhysicalBlockIndexTest, ResidentHitSharesBufferAndChargesOnce) {
  PhysicalBlockIndex index(/*pool=*/nullptr);
  MemoryTracker tracker("test-arena");

  const Tensor a = Filled(Shape{8}, 3.0f);
  auto first = index.InternResident(a, 0.0f, &tracker);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->deduped);
  // The canonical copy was charged to the arena exactly once...
  EXPECT_EQ(tracker.used_bytes(), a.ByteSize());

  auto copy = a.Clone();
  ASSERT_TRUE(copy.ok());
  auto second = index.InternResident(*copy, 0.0f, &tracker);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->deduped);
  // ...and the hit shares that buffer, charging nothing more.
  EXPECT_EQ(second->payload.data(), first->payload.data());
  EXPECT_EQ(tracker.used_bytes(), a.ByteSize());

  index.Release(first->id);
  index.Release(second->id);
}

TEST(PhysicalBlockIndexTest, ArmsNeverCrossDedup) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  PhysicalBlockIndex index(&pool);

  const Tensor a = Filled(Shape{8, 8}, 1.0f);
  auto paged = index.Intern(a, 0.0f);
  auto resident = index.InternResident(a, 0.0f);
  ASSERT_TRUE(paged.ok());
  ASSERT_TRUE(resident.ok());
  // Same bytes, different payload form: two distinct physical blocks.
  EXPECT_FALSE(resident->deduped);
  EXPECT_NE(resident->id, paged->id);
  EXPECT_EQ(index.stats().unique_blocks, 2);
  index.Release(paged->id);
  index.Release(resident->id);
}

TEST(PhysicalBlockIndexTest, MaterializeRoundTrips) {
  DiskManager disk;
  BufferPool pool(&disk, 32);
  PhysicalBlockIndex index(&pool);

  const Tensor big = Filled(Shape{200, 100}, -5.0f, 0.125f);
  auto interned = index.Intern(big, 0.0f);
  ASSERT_TRUE(interned.ok());
  auto back = index.Materialize(interned->id);
  ASSERT_TRUE(back.ok());
  EXPECT_FLOAT_EQ(big.MaxAbsDiff(*back), 0.0f);
  EXPECT_TRUE(index.Materialize(kInvalidPhysicalBlockId)
                  .status()
                  .IsNotFound());
  index.Release(interned->id);
}

TEST(PhysicalBlockIndexTest, ConcurrentInternReleaseIsConsistent) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  PhysicalBlockIndex index(&pool);

  // Four threads repeatedly intern and release the same three
  // payloads; refcounts must never tear (TSan covers the locking,
  // the final stats cover the arithmetic).
  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const Tensor payload =
            Filled(Shape{16, 16}, static_cast<float>((t + i) % 3));
        auto interned = index.Intern(payload, 0.0f);
        if (!interned.ok()) {
          ++failures;
          continue;
        }
        index.Release(interned->id);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  const PhysicalBlockStats stats = index.stats();
  EXPECT_EQ(stats.logical_refs, 0);
  EXPECT_EQ(stats.unique_blocks, 0);
  EXPECT_EQ(stats.physical_bytes, 0);
  EXPECT_EQ(stats.interned, kThreads * kIters);
}

TEST(SharedBlockStoreTest, StoresShareBlocksAndSurviveEachOther) {
  DiskManager disk;
  BufferPool pool(&disk, 32);
  PhysicalBlockIndex index(&pool);

  const Tensor m = Filled(Shape{32, 32}, 0.0f, 0.5f);
  const BlockedShape geometry{32, 32, 16, 16};

  auto a = std::make_unique<BlockStore>(&index, geometry,
                                        /*tolerance=*/0.0f);
  ASSERT_TRUE(a->PutMatrix(m).ok());
  EXPECT_EQ(a->shared_blocks(), 0);

  BlockStore b(&index, geometry, 0.0f);
  ASSERT_TRUE(b.PutMatrix(m).ok());
  // Every one of b's entries resolved to a's physical blocks.
  EXPECT_EQ(b.shared_blocks(),
            static_cast<int64_t>(b.entries().size()));
  EXPECT_EQ(b.shared_bytes(), m.ByteSize());
  EXPECT_EQ(index.stats().unique_blocks, 4);
  EXPECT_EQ(index.stats().logical_refs, 8);

  // Dropping the store that interned first must not pull pages out
  // from under the survivor.
  a.reset();
  EXPECT_EQ(index.stats().unique_blocks, 4);
  auto back = b.ToMatrix();
  ASSERT_TRUE(back.ok());
  EXPECT_FLOAT_EQ(m.MaxAbsDiff(*back), 0.0f);
}

TEST(ServingDedupTest, SecondVariantIsFullyShared) {
  ServingConfig config;
  config.block_rows = 16;
  config.block_cols = 16;
  ServingSession session(config);

  // Same builder seed = byte-identical weights: the textbook
  // fine-tuned-variant case.
  for (const char* name : {"va", "vb"}) {
    auto model = BuildFFNN(name, {16, 32, 4}, /*seed=*/3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session.RegisterModel(std::move(*model)).ok());
    ASSERT_TRUE(
        session.Deploy(name, ServingMode::kForceRelational, 8).ok());
  }

  const auto deployed = session.ListDeployedModels();
  ASSERT_EQ(deployed.size(), 2u);
  EXPECT_EQ(deployed[0].name, "va");
  EXPECT_GT(deployed[0].physical_weight_bytes, 0);
  EXPECT_EQ(deployed[0].logical_weight_bytes,
            deployed[0].physical_weight_bytes);
  // vb's weights are byte-identical to va's: zero marginal bytes.
  EXPECT_EQ(deployed[1].name, "vb");
  EXPECT_GT(deployed[1].logical_weight_bytes, 0);
  EXPECT_EQ(deployed[1].physical_weight_bytes, 0);
  EXPECT_EQ(deployed[1].shared_blocks, deployed[1].total_blocks);
}

// UDF-centric deploys pack their fp32 matmul weights into B panels;
// packing is deterministic, so byte-identical variants pack
// byte-identical panels and the second one holds none of its own.
TEST(ServingDedupTest, SecondUdfVariantSharesItsPackedPanels) {
  ServingSession session{ServingConfig{}};
  for (const char* name : {"va", "vb"}) {
    auto model = BuildFFNN(name, {16, 32, 4}, /*seed=*/3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session.RegisterModel(std::move(*model)).ok());
    ASSERT_TRUE(session.Deploy(name, ServingMode::kForceUdf, 8).ok());
  }

  const auto deployed = session.ListDeployedModels();
  ASSERT_EQ(deployed.size(), 2u);
  EXPECT_EQ(deployed[1].name, "vb");
  EXPECT_GT(deployed[1].logical_weight_bytes, 0);
  EXPECT_EQ(deployed[1].physical_weight_bytes, 0);
  EXPECT_EQ(deployed[1].shared_blocks, deployed[1].total_blocks);

  // Both plans bind the same panel buffers, and the footprint books
  // the panels (w0 [32, 16], w1 [4, 32], padded to whole slivers) plus
  // the two biases.
  auto plan_a = session.DeployedPhysicalPlan("va");
  auto plan_b = session.DeployedPhysicalPlan("vb");
  ASSERT_TRUE(plan_a.ok() && plan_b.ok());
  const auto& stages_a = (*plan_a)->stages();
  const auto& stages_b = (*plan_b)->stages();
  ASSERT_EQ(stages_a.size(), stages_b.size());
  int64_t panel_bytes = 0;
  for (size_t i = 0; i < stages_a.size(); ++i) {
    const kernels::Weight* packed = stages_a[i]->weight;
    if (packed == nullptr) continue;
    ASSERT_NE(stages_b[i]->weight, nullptr);
    EXPECT_EQ(stages_b[i]->weight->panel()->data(),
              packed->panel()->data());
    const int64_t nr = kernels::ActivePanelNr();
    const int64_t padded_n = (packed->n + nr - 1) / nr * nr;
    EXPECT_EQ(packed->ByteSize(),
              padded_n * packed->k * static_cast<int64_t>(sizeof(float)));
    panel_bytes += packed->ByteSize();
  }
  EXPECT_EQ(deployed[0].logical_weight_bytes,
            panel_bytes + (32 + 4) * static_cast<int64_t>(sizeof(float)));
  EXPECT_EQ(deployed[0].physical_weight_bytes,
            deployed[0].logical_weight_bytes);
}

TEST(ServingDedupTest, DedupOutputsAreBitIdentical) {
  auto input = workloads::GenBatch(8, Shape{16}, 77);
  ASSERT_TRUE(input.ok());

  // The same model served with and without the shared index; at
  // tolerance 0 dedup must not change one bit of the output.
  Tensor outputs[2];
  for (const bool dedup : {false, true}) {
    ServingConfig config;
    config.block_rows = 16;
    config.block_cols = 16;
    config.dedup_weights = dedup;
    ServingSession session(config);
    auto model = BuildFFNN("m", {16, 32, 4}, 3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session.RegisterModel(std::move(*model)).ok());
    ASSERT_TRUE(
        session.Deploy("m", ServingMode::kForceRelational, 8).ok());
    auto out = session.PredictBatch("m", *input);
    ASSERT_TRUE(out.ok());
    auto tensor = out->ToTensor(session.exec_context());
    ASSERT_TRUE(tensor.ok());
    // Detach from the session's memory arena: the output outlives
    // the session here.
    auto detached = tensor->Clone();
    ASSERT_TRUE(detached.ok());
    outputs[dedup ? 1 : 0] = std::move(*detached);
  }
  EXPECT_EQ(outputs[0].MaxAbsDiff(outputs[1]), 0.0f);
}

TEST(ServingDedupTest, FiftyVariantsUndeployInAnyOrderNoLeak) {
  ServingConfig config;
  config.block_rows = 16;
  config.block_cols = 16;
  ServingSession session(config);
  ASSERT_NE(session.block_index(), nullptr);

  constexpr int kVariants = 50;
  std::vector<std::string> names;
  for (int i = 0; i < kVariants; ++i) {
    // Appending keeps GCC 12's -Wrestrict false positive on inlined
    // string concatenation quiet.
    names.emplace_back("v");
    names.back() += std::to_string(i);
    auto model = BuildFFNN(names.back(), {16, 32, 4}, 3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session.RegisterModel(std::move(*model)).ok());
    ASSERT_TRUE(
        session.Deploy(names.back(), ServingMode::kForceRelational, 4)
            .ok());
  }

  PhysicalBlockStats stats = session.block_index()->stats();
  // 50 byte-identical variants: block count of exactly one model.
  EXPECT_GT(stats.unique_blocks, 0);
  EXPECT_EQ(stats.logical_refs, kVariants * stats.unique_blocks);
  EXPECT_EQ(stats.logical_bytes, kVariants * stats.physical_bytes);

  // Undeploy in a shuffled order: whichever deployment happens to
  // hold the last reference frees the pages.
  std::mt19937 rng(123);
  std::shuffle(names.begin(), names.end(), rng);
  for (const std::string& name : names) {
    ASSERT_TRUE(session.Undeploy(name).ok());
  }

  stats = session.block_index()->stats();
  EXPECT_EQ(stats.unique_blocks, 0);
  EXPECT_EQ(stats.logical_refs, 0);
  EXPECT_EQ(stats.physical_bytes, 0);
  EXPECT_EQ(stats.interned, stats.dedup_hits + stats.freed_blocks);
}

}  // namespace
}  // namespace relserve
