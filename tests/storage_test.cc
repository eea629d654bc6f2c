#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "storage/block_store.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/physical_block_index.h"
#include "storage/disk_manager.h"

namespace relserve {
namespace {

TEST(DiskManagerTest, RoundTripsPages) {
  DiskManager disk;
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();
  EXPECT_NE(a, b);
  std::vector<char> buf(kPageSize, 'x');
  ASSERT_TRUE(disk.WritePage(a, buf.data()).ok());
  std::vector<char> buf2(kPageSize, 'y');
  ASSERT_TRUE(disk.WritePage(b, buf2.data()).ok());
  std::vector<char> out(kPageSize);
  ASSERT_TRUE(disk.ReadPage(a, out.data()).ok());
  EXPECT_EQ(out[0], 'x');
  ASSERT_TRUE(disk.ReadPage(b, out.data()).ok());
  EXPECT_EQ(out[kPageSize - 1], 'y');
}

TEST(DiskManagerTest, UnwrittenPageReadsZeros) {
  DiskManager disk;
  const PageId p = disk.AllocatePage();
  std::vector<char> out(kPageSize, 'z');
  ASSERT_TRUE(disk.ReadPage(p, out.data()).ok());
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[kPageSize - 1], 0);
}

TEST(BufferPoolTest, NewPageIsPinnedAndWritable) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  PageId id = kInvalidPageId;
  auto page = pool.NewPage(&id);
  ASSERT_TRUE(page.ok());
  (*page)[0] = 'a';
  ASSERT_TRUE(pool.UnpinPage(id, /*dirty=*/true).ok());
  auto again = pool.FetchPage(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)[0], 'a');
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
}

TEST(BufferPoolTest, EvictsLruAndReloadsFromDisk) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  std::vector<PageId> ids(4);
  for (int i = 0; i < 4; ++i) {
    auto page = pool.NewPage(&ids[i]);
    ASSERT_TRUE(page.ok());
    (*page)[0] = static_cast<char>('a' + i);
    ASSERT_TRUE(pool.UnpinPage(ids[i], true).ok());
  }
  // Pages 0 and 1 must have been evicted (capacity 2).
  EXPECT_GE(pool.stats().evictions, 2);
  for (int i = 0; i < 4; ++i) {
    auto page = pool.FetchPage(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)[0], static_cast<char>('a' + i)) << "page " << i;
    ASSERT_TRUE(pool.UnpinPage(ids[i], false).ok());
  }
}

TEST(BufferPoolTest, PinnedPagesCannotBeEvicted) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  PageId a, b, c;
  ASSERT_TRUE(pool.NewPage(&a).ok());  // stays pinned
  ASSERT_TRUE(pool.NewPage(&b).ok());  // stays pinned
  EXPECT_TRUE(pool.NewPage(&c).status().IsOutOfMemory());
  ASSERT_TRUE(pool.UnpinPage(b, false).ok());
  EXPECT_TRUE(pool.NewPage(&c).ok());  // b's frame is reusable now
}

TEST(BufferPoolTest, UnpinErrorsOnBadPage) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  EXPECT_TRUE(pool.UnpinPage(123, false).IsNotFound());
  PageId a;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  EXPECT_FALSE(pool.UnpinPage(a, false).ok());  // double unpin
}

TEST(BufferPoolTest, HitsAndMissesAreCounted) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  PageId a;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  ASSERT_TRUE(pool.UnpinPage(a, true).ok());
  ASSERT_TRUE(pool.FetchPage(a).ok());  // hit
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  EXPECT_EQ(pool.stats().hits, 1);
}

// Every frame starts on a cache line: a relation-centric join hands
// page addresses to SIMD tiles whose B loads are aligned. Frames are
// reused across evictions, so both fresh and reloaded pages count.
TEST(BufferPoolTest, FramesAreCacheLineAligned) {
  DiskManager disk;
  BufferPool pool(&disk, 3);
  auto aligned = [](const char* p) {
    return reinterpret_cast<uintptr_t>(p) % kCacheLineBytes == 0;
  };
  std::vector<PageId> ids(8);
  for (PageId& id : ids) {
    auto page = pool.NewPage(&id);
    ASSERT_TRUE(page.ok());
    EXPECT_TRUE(aligned(*page));
    ASSERT_TRUE(pool.UnpinPage(id, /*dirty=*/true).ok());
  }
  for (const PageId id : ids) {
    auto page = pool.FetchPage(id);
    ASSERT_TRUE(page.ok());
    EXPECT_TRUE(aligned(*page));
    ASSERT_TRUE(pool.UnpinPage(id, /*dirty=*/false).ok());
  }
}

// pinned_peak is the most frames pinned at once; a page pinned twice
// is one frame.
TEST(BufferPoolTest, PinnedPeakCountsFramesAtOnce) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  PageId a, b;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  ASSERT_TRUE(pool.FetchPage(a).ok());  // second pin, same frame
  EXPECT_EQ(pool.stats().pinned_peak, 1);
  ASSERT_TRUE(pool.NewPage(&b).ok());
  EXPECT_EQ(pool.stats().pinned_peak, 2);
  for (const PageId id : {a, a, b}) {
    ASSERT_TRUE(pool.UnpinPage(id, /*dirty=*/true).ok());
  }
  ASSERT_TRUE(pool.FetchPage(b).ok());
  ASSERT_TRUE(pool.UnpinPage(b, /*dirty=*/false).ok());
  EXPECT_EQ(pool.stats().pinned_peak, 2);
}

// VisitPages hands out each page's run of the payload in its frame,
// one pinned page at a time, and the runs cover the block in order.
TEST(BlockStoreTest, VisitPagesWalksThePayloadInPlace) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  auto m = Tensor::Create(Shape{200, 200});
  ASSERT_TRUE(m.ok());
  for (int64_t i = 0; i < m->NumElements(); ++i) {
    m->data()[i] = static_cast<float>(i % 1000);
  }
  BlockStore store(&pool, BlockedShape{200, 200, 200, 200});
  ASSERT_TRUE(store.PutMatrix(*m).ok());
  const BlockStore::BlockEntry& entry = store.entries()[0];
  int64_t next = 0;
  int64_t runs = 0;
  ASSERT_TRUE(store
                  .VisitPages(entry,
                              [&](int64_t pos, const float* data,
                                  int64_t count) {
                                EXPECT_EQ(pos, next);
                                EXPECT_EQ(reinterpret_cast<uintptr_t>(data) %
                                              kCacheLineBytes,
                                          0u);
                                EXPECT_EQ(std::memcmp(data, m->data() + pos,
                                                      count * sizeof(float)),
                                          0);
                                next = pos + count;
                                ++runs;
                                return Status::OK();
                              })
                  .ok());
  EXPECT_EQ(next, m->NumElements());
  EXPECT_EQ(runs, static_cast<int64_t>(entry.pages.size()));
  EXPECT_EQ(pool.stats().pinned_peak, 1);
  // fn's error stops the walk after the first page.
  runs = 0;
  EXPECT_EQ(store
                .VisitPages(entry,
                            [&](int64_t, const float*, int64_t) {
                              ++runs;
                              return Status::Internal("stop");
                            })
                .code(),
            StatusCode::kInternal);
  EXPECT_EQ(runs, 1);
}

TEST(BlockStoreTest, PutGetRoundTrip) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  auto m = Tensor::Create(Shape{10, 8});
  ASSERT_TRUE(m.ok());
  for (int64_t i = 0; i < 80; ++i) m->data()[i] = static_cast<float>(i);
  BlockStore store(&pool, BlockedShape{10, 8, 4, 4});
  ASSERT_TRUE(store.PutMatrix(*m).ok());
  EXPECT_EQ(store.entries().size(), 3u * 2u);
  auto back = store.ToMatrix();
  ASSERT_TRUE(back.ok());
  EXPECT_FLOAT_EQ(m->MaxAbsDiff(*back), 0.0f);
}

TEST(BlockStoreTest, BlocksLargerThanOnePage) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  // 200x200 block = 160 KB > 64 KB page: payload must span pages.
  auto m = Tensor::Create(Shape{200, 200});
  ASSERT_TRUE(m.ok());
  for (int64_t i = 0; i < m->NumElements(); ++i) {
    m->data()[i] = static_cast<float>(i % 1000);
  }
  BlockStore store(&pool, BlockedShape{200, 200, 200, 200});
  ASSERT_TRUE(store.PutMatrix(*m).ok());
  ASSERT_EQ(store.entries().size(), 1u);
  EXPECT_GT(store.entries()[0].pages.size(), 1u);
  auto block = store.Get(store.entries()[0]);
  ASSERT_TRUE(block.ok());
  EXPECT_FLOAT_EQ(block->data.MaxAbsDiff(*m), 0.0f);
  // ToMatrix copies straight from the pages; a page ends mid-row.
  auto back = store.ToMatrix();
  ASSERT_TRUE(back.ok());
  EXPECT_FLOAT_EQ(back->MaxAbsDiff(*m), 0.0f);
}

TEST(BlockStoreTest, SurvivesPoolPressure) {
  DiskManager disk;
  BufferPool pool(&disk, 2);  // much smaller than the data
  auto m = Tensor::Create(Shape{64, 64});
  ASSERT_TRUE(m.ok());
  for (int64_t i = 0; i < m->NumElements(); ++i) {
    m->data()[i] = static_cast<float>(i);
  }
  BlockStore store(&pool, BlockedShape{64, 64, 16, 16});
  ASSERT_TRUE(store.PutMatrix(*m).ok());
  auto back = store.ToMatrix();
  ASSERT_TRUE(back.ok());
  EXPECT_FLOAT_EQ(m->MaxAbsDiff(*back), 0.0f);
  EXPECT_GT(pool.stats().evictions, 0);
}

TEST(BlockStoreTest, TotalBytesSumsPayloads) {
  DiskManager disk;
  BufferPool pool(&disk, 8);
  auto m = Tensor::Zeros(Shape{8, 8});
  BlockStore store(&pool, BlockedShape{8, 8, 4, 4});
  ASSERT_TRUE(store.PutMatrix(*m).ok());
  EXPECT_EQ(store.TotalBytes(), 8 * 8 * 4);
}

TEST(DiskManagerTest, FreedPagesAreRecycled) {
  DiskManager disk;
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();
  disk.FreePage(a);
  EXPECT_EQ(disk.num_free(), 1);
  EXPECT_EQ(disk.AllocatePage(), a);  // recycled, not a fresh id
  EXPECT_EQ(disk.num_free(), 0);
  const PageId c = disk.AllocatePage();
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
}

TEST(BufferPoolTest, DeletePageEvictsResidentCopyAndRecycles) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  PageId id;
  ASSERT_TRUE(pool.NewPage(&id).ok());
  // Pinned pages cannot be deleted.
  EXPECT_FALSE(pool.DeletePage(id).ok());
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());
  ASSERT_TRUE(pool.DeletePage(id).ok());
  EXPECT_EQ(disk.num_free(), 1);
  // The freed id comes back for the next page.
  PageId again;
  ASSERT_TRUE(pool.NewPage(&again).ok());
  EXPECT_EQ(again, id);
  ASSERT_TRUE(pool.UnpinPage(again, false).ok());
}

TEST(BlockStoreTest, DroppedStoreRecyclesItsPages) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  auto m = Tensor::Zeros(Shape{16, 16});
  ASSERT_TRUE(m.ok());
  const int64_t allocated_before = disk.num_allocated();
  {
    BlockStore store(&pool, BlockedShape{16, 16, 8, 8});
    ASSERT_TRUE(store.PutMatrix(*m).ok());
  }
  const int64_t allocated_after_first = disk.num_allocated();
  // A second identical store reuses the freed pages: the high-water
  // mark does not grow.
  {
    BlockStore store(&pool, BlockedShape{16, 16, 8, 8});
    ASSERT_TRUE(store.PutMatrix(*m).ok());
    auto back = store.ToMatrix();
    ASSERT_TRUE(back.ok());
    EXPECT_FLOAT_EQ(m->MaxAbsDiff(*back), 0.0f);
  }
  EXPECT_EQ(disk.num_allocated(), allocated_after_first);
  EXPECT_GT(allocated_after_first, allocated_before);
}

TEST(CatalogTest, TablesAndTensorRelations) {
  DiskManager disk;
  BufferPool pool(&disk, 8);
  Catalog catalog(&pool);
  Schema schema({{"id", ValueType::kInt64}});
  ASSERT_TRUE(catalog.CreateTable("t", schema).ok());
  EXPECT_TRUE(catalog.CreateTable("t", schema)
                  .status()
                  .code() == StatusCode::kAlreadyExists);
  ASSERT_TRUE(catalog.GetTable("t").ok());
  EXPECT_TRUE(catalog.GetTable("missing").status().IsNotFound());

  ASSERT_TRUE(
      catalog.CreateTensorRelation("w", BlockedShape{8, 8, 4, 4}).ok());
  ASSERT_TRUE(catalog.GetTensorRelation("w").ok());
  EXPECT_EQ(catalog.TableNames().size(), 1u);
  EXPECT_EQ(catalog.TensorRelationNames().size(), 1u);
}

TEST(FailureInjectionTest, EvictionWriteBackRetriesAlternateVictim) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  PageId a, b;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  ASSERT_TRUE(pool.UnpinPage(a, /*dirty=*/true).ok());
  ASSERT_TRUE(pool.NewPage(&b).ok());
  ASSERT_TRUE(pool.UnpinPage(b, /*dirty=*/true).ok());
  {
    // The next eviction's write-back fails once; the pool must absorb
    // it by evicting the other candidate instead of surfacing it.
    failpoint::ScopedFailpoint fp(
        "disk.write",
        failpoint::Spec::Error(StatusCode::kIOError).Once());
    PageId c;
    auto page = pool.NewPage(&c);
    ASSERT_TRUE(page.ok()) << page.status();
    ASSERT_TRUE(pool.UnpinPage(c, false).ok());
  }
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.writeback_failures, 1);
  EXPECT_GE(stats.evictions, 1);
  // The failed victim stayed resident and dirty: nothing was lost.
  auto again = pool.FetchPage(a);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
}

TEST(FailureInjectionTest, AllEvictionCandidatesFailingIsUnavailable) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  PageId a, b;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  ASSERT_TRUE(pool.UnpinPage(a, /*dirty=*/true).ok());
  ASSERT_TRUE(pool.NewPage(&b).ok());
  ASSERT_TRUE(pool.UnpinPage(b, /*dirty=*/true).ok());
  {
    failpoint::ScopedFailpoint fp(
        "disk.write", failpoint::Spec::Error(StatusCode::kIOError));
    PageId c;
    auto page = pool.NewPage(&c);
    ASSERT_FALSE(page.ok());
    // Transient (retryable), not an I/O verdict the caller must act
    // on: the dirty pages are intact and a later attempt can succeed.
    EXPECT_TRUE(page.status().IsUnavailable()) << page.status();
    EXPECT_EQ(pool.stats().writeback_failures, 2);
  }
  // After the fault clears, the same pool recovers.
  PageId c;
  ASSERT_TRUE(pool.NewPage(&c).ok());
  ASSERT_TRUE(pool.UnpinPage(c, false).ok());
}

TEST(FailureInjectionTest, FlushAllReportsWriteFailure) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  PageId a;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  ASSERT_TRUE(pool.UnpinPage(a, /*dirty=*/true).ok());
  {
    failpoint::ScopedFailpoint fp(
        "disk.write",
        failpoint::Spec::Error(StatusCode::kIOError).Once());
    EXPECT_EQ(pool.FlushAll().code(), StatusCode::kIOError);
  }
  EXPECT_TRUE(pool.FlushAll().ok());  // retry succeeds
}

TEST(FailureInjectionTest, BlockStorePutFailurePropagates) {
  DiskManager disk;
  BufferPool pool(&disk, 2);  // evictions force write-backs
  BlockStore store(&pool, BlockedShape{64, 64, 16, 16});
  auto m = Tensor::Zeros(Shape{64, 64});
  ASSERT_TRUE(m.ok());
  // Persistent write failure: both eviction candidates fail, so the
  // reservation inside PutMatrix surfaces Unavailable.
  failpoint::ScopedFailpoint fp(
      "disk.write", failpoint::Spec::Error(StatusCode::kIOError));
  Status s = store.PutMatrix(*m);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnavailable()) << s;
}

TEST(BufferPoolTest, ConcurrentFetchStress) {
  DiskManager disk;
  BufferPool pool(&disk, 8);
  // 32 pages, each stamped with its index.
  std::vector<PageId> ids(32);
  for (int i = 0; i < 32; ++i) {
    auto page = pool.NewPage(&ids[i]);
    ASSERT_TRUE(page.ok());
    (*page)[0] = static_cast<char>(i);
    ASSERT_TRUE(pool.UnpinPage(ids[i], true).ok());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t);
      for (int iter = 0; iter < 500; ++iter) {
        const int i = static_cast<int>(rng() % 32);
        auto page = pool.FetchPage(ids[i]);
        if (!page.ok()) {
          // All frames transiently pinned by other threads: retry.
          continue;
        }
        if ((*page)[0] != static_cast<char>(i)) {
          mismatches.fetch_add(1);
        }
        pool.UnpinPage(ids[i], false);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BufferPoolTest, ConcurrentStressTinyCapacityKeepsCountersExact) {
  // Hammer a 4-frame pool from several threads with 24 pages: every
  // fetch either hits or misses (never both, never neither), pin
  // counts stay balanced, and page contents survive constant eviction
  // and write-back.
  DiskManager disk;
  BufferPool pool(&disk, 4);
  constexpr int kPages = 24;
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<PageId> ids(kPages);
  for (int i = 0; i < kPages; ++i) {
    auto page = pool.NewPage(&ids[i]);
    ASSERT_TRUE(page.ok());
    std::memset(*page, static_cast<char>(i + 1), kPageSize);
    ASSERT_TRUE(pool.UnpinPage(ids[i], true).ok());
  }
  const BufferPoolStats before = pool.stats();

  std::atomic<int64_t> ok_fetches{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> unpin_failures{0};
  // The pool allows concurrent pins of one page; *content* access is
  // coordinated above it (as a DBMS page latch would), so rewriters
  // take the page's latch exclusively and readers take it shared.
  std::vector<std::shared_mutex> latches(kPages);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(1234 + t);
      for (int iter = 0; iter < kIters; ++iter) {
        const int i = static_cast<int>(rng() % kPages);
        auto page = pool.FetchPage(ids[i]);
        if (!page.ok()) continue;  // all frames transiently pinned
        ok_fetches.fetch_add(1);
        const char want = static_cast<char>(i + 1);
        // Occasionally rewrite the page (dirty) to force write-backs.
        const bool rewrite = (rng() % 4) == 0;
        if (rewrite) {
          std::unique_lock<std::shared_mutex> latch(latches[i]);
          std::memset(*page, want, kPageSize);
        } else {
          std::shared_lock<std::shared_mutex> latch(latches[i]);
          if ((*page)[0] != want || (*page)[kPageSize - 1] != want) {
            mismatches.fetch_add(1);
          }
        }
        if (!pool.UnpinPage(ids[i], rewrite).ok()) {
          unpin_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(unpin_failures.load(), 0);
  const BufferPoolStats after = pool.stats();
  // Exactness: every successful fetch counted exactly one hit or miss.
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
            ok_fetches.load());
  // All pins released: every page is fetchable and deletable again.
  for (int i = 0; i < kPages; ++i) {
    auto page = pool.FetchPage(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)[0], static_cast<char>(i + 1));
    ASSERT_TRUE(pool.UnpinPage(ids[i], false).ok());
    ASSERT_TRUE(pool.DeletePage(ids[i]).ok());
  }
  EXPECT_EQ(disk.num_free(), kPages);
}

TEST(BufferPoolTest, ConcurrentNewDeleteChurn) {
  // Threads allocate, stamp, drop, and reload pages concurrently —
  // the fetch/unpin/drop races of parallel block stores sharing one
  // pool with a tiny capacity.
  DiskManager disk;
  BufferPool pool(&disk, 4);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(77 + t);
      for (int iter = 0; iter < 120; ++iter) {
        PageId id = kInvalidPageId;
        auto page = pool.NewPage(&id);
        if (!page.ok()) continue;  // pool transiently full of pins
        const char stamp = static_cast<char>(1 + (iter + t) % 120);
        std::memset(*page, stamp, kPageSize);
        if (!pool.UnpinPage(id, true).ok()) failures.fetch_add(1);
        if (rng() % 2 == 0) {
          auto again = pool.FetchPage(id);
          if (again.ok()) {
            if ((*again)[kPageSize / 2] != stamp) failures.fetch_add(1);
            if (!pool.UnpinPage(id, false).ok()) failures.fetch_add(1);
          }
        }
        if (!pool.DeletePage(id).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // After the churn every frame is reusable: fill the pool to capacity.
  std::vector<PageId> ids(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.NewPage(&ids[i]).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.UnpinPage(ids[i], false).ok());
  }
}

TEST(BlockStoreTest, ConcurrentPutFromMorsels) {
  // BlockMatMul emits output blocks from parallel morsels; Put must
  // tolerate concurrent callers on one store.
  DiskManager disk;
  BufferPool pool(&disk, 8);
  BlockStore store(&pool, BlockedShape{32, 32, 4, 4});
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rb = 0; rb < 8; ++rb) {
        for (int cb = t; cb < 8; cb += 4) {
          auto payload = Tensor::Full(
              Shape{4, 4}, static_cast<float>(rb * 8 + cb));
          if (!payload.ok() ||
              !store.Put(TensorBlock{rb, cb, std::move(*payload)})
                   .ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_EQ(store.entries().size(), 64u);
  auto m = store.ToMatrix();
  ASSERT_TRUE(m.ok());
  for (int rb = 0; rb < 8; ++rb) {
    for (int cb = 0; cb < 8; ++cb) {
      EXPECT_FLOAT_EQ(m->At(rb * 4, cb * 4),
                      static_cast<float>(rb * 8 + cb));
    }
  }
}

TEST(DedupTest, ExactDuplicatesCollapse) {
  auto a = Tensor::Full(Shape{4, 4}, 1.0f);
  auto b = Tensor::Full(Shape{4, 4}, 1.0f);
  auto c = Tensor::Full(Shape{4, 4}, 2.0f);
  std::vector<TensorBlock> blocks = {
      {0, 0, *a}, {0, 1, *b}, {1, 0, *c}};
  auto result = DeduplicateBlocks(blocks, 0.0f);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.unique_blocks, 2);
  EXPECT_EQ(result->mapping, (std::vector<int64_t>{0, 0, 1}));
  EXPECT_FLOAT_EQ(result->stats.max_substitution_error, 0.0f);
}

TEST(DedupTest, ToleranceMergesNearDuplicates) {
  auto a = Tensor::Full(Shape{4}, 1.0f);
  auto b = Tensor::Full(Shape{4}, 1.05f);
  std::vector<TensorBlock> blocks = {{0, 0, *a}, {0, 1, *b}};
  auto strict = DeduplicateBlocks(blocks, 0.01f);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->stats.unique_blocks, 2);
  auto loose = DeduplicateBlocks(blocks, 0.1f);
  ASSERT_TRUE(loose.ok());
  EXPECT_EQ(loose->stats.unique_blocks, 1);
  EXPECT_NEAR(loose->stats.max_substitution_error, 0.05f, 1e-5f);
  EXPECT_GT(loose->stats.CompressionRatio(), 1.9);
}

TEST(DedupTest, DifferentShapesNeverMerge) {
  auto a = Tensor::Full(Shape{4}, 1.0f);
  auto b = Tensor::Full(Shape{2, 2}, 1.0f);
  std::vector<TensorBlock> blocks = {{0, 0, *a}, {0, 1, *b}};
  auto result = DeduplicateBlocks(blocks, 10.0f);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.unique_blocks, 2);
}

TEST(DedupTest, ExpandReconstructsLogicalBlocks) {
  auto a = Tensor::Full(Shape{2}, 1.0f);
  auto b = Tensor::Full(Shape{2}, 1.0f);
  std::vector<TensorBlock> blocks = {{0, 0, *a}, {3, 7, *b}};
  auto result = DeduplicateBlocks(blocks, 0.0f);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.unique_blocks, 1);
  auto expanded = ExpandDedup(*result);
  ASSERT_EQ(expanded.size(), 2u);
  // Shared payload, but each logical block keeps its own coordinates.
  EXPECT_FLOAT_EQ(expanded[1].data.data()[0], 1.0f);
  EXPECT_EQ(expanded[0].row_block, 0);
  EXPECT_EQ(expanded[0].col_block, 0);
  EXPECT_EQ(expanded[1].row_block, 3);
  EXPECT_EQ(expanded[1].col_block, 7);
}

TEST(DedupTest, ExpandedBlocksReassembleTheMatrix) {
  // Near-duplicate blocks deduped within tolerance must reassemble to
  // a matrix within that tolerance of the original.
  auto m = Tensor::Create(Shape{8, 8});
  ASSERT_TRUE(m.ok());
  for (int64_t i = 0; i < 64; ++i) {
    // Two repeating 4x4 patterns plus tiny jitter.
    m->data()[i] = static_cast<float>((i / 4 + i % 4) % 2) +
                   1e-4f * static_cast<float>(i % 3);
  }
  auto blocks = SplitMatrix(*m, 4, 4);
  ASSERT_TRUE(blocks.ok());
  auto dedup = DeduplicateBlocks(*blocks, 1e-3f);
  ASSERT_TRUE(dedup.ok());
  ASSERT_LT(dedup->stats.unique_blocks, 4);
  auto back = AssembleMatrix(ExpandDedup(*dedup),
                             BlockedShape{8, 8, 4, 4});
  ASSERT_TRUE(back.ok());
  EXPECT_LE(m->MaxAbsDiff(*back), 1e-3f);
}

TEST(DedupTest, RejectsNegativeTolerance) {
  EXPECT_TRUE(
      DeduplicateBlocks({}, -1.0f).status().IsInvalidArgument());
}

// --- BufferPool::Prefetch ---------------------------------------------

// The prefetcher is asynchronous; issued == completed only once its
// queue has drained, so tests wait for that quiescent point.
void WaitForPrefetchIdle(const BufferPool& pool) {
  for (int i = 0; i < 10000; ++i) {
    const BufferPoolStats s = pool.stats();
    if (s.prefetches_completed == s.prefetches_issued) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "prefetch queue never drained";
}

// Writes `n` pages straight to disk, each filled with a byte derived
// from its id, and returns the ids.
std::vector<PageId> SeedDiskPages(DiskManager* disk, int n) {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    const PageId id = disk->AllocatePage();
    std::vector<char> buf(kPageSize,
                          static_cast<char>('A' + (id % 26)));
    EXPECT_TRUE(disk->WritePage(id, buf.data()).ok());
    ids.push_back(id);
  }
  return ids;
}

TEST(BufferPoolPrefetchTest, PrefetchThenPinCountsUseful) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  const std::vector<PageId> ids = SeedDiskPages(&disk, 2);

  EXPECT_TRUE(pool.Prefetch(ids[0]));
  EXPECT_TRUE(pool.Prefetch(ids[1]));
  WaitForPrefetchIdle(pool);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetches_issued, 2);
  EXPECT_EQ(stats.prefetches_completed, 2);
  EXPECT_EQ(stats.prefetch_useful, 0);  // nothing pinned yet

  auto page = pool.FetchPage(ids[0]);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(pool.stats().prefetch_useful, 1);
  EXPECT_EQ((*page)[0], static_cast<char>('A' + (ids[0] % 26)));
  ASSERT_TRUE(pool.UnpinPage(ids[0], false).ok());

  // The second pin of the same page is an ordinary hit, not another
  // useful prefetch.
  ASSERT_TRUE(pool.FetchPage(ids[0]).ok());
  EXPECT_EQ(pool.stats().prefetch_useful, 1);
  ASSERT_TRUE(pool.UnpinPage(ids[0], false).ok());
}

TEST(BufferPoolPrefetchTest, PrefetchResidentPageIsNoop) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  PageId id = kInvalidPageId;
  auto page = pool.NewPage(&id);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(id, true).ok());

  EXPECT_FALSE(pool.Prefetch(id));  // already resident
  EXPECT_FALSE(pool.Prefetch(kInvalidPageId));
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetches_issued, 0);
  EXPECT_EQ(stats.prefetches_completed, 0);
}

TEST(BufferPoolPrefetchTest, PrefetchRacingEvictionIsSafe) {
  DiskManager disk;
  // Two frames and eight pages: prefetches and demand fetches keep
  // evicting each other's work.
  BufferPool pool(&disk, 2);
  const std::vector<PageId> ids = SeedDiskPages(&disk, 8);

  std::thread prefetcher([&] {
    for (int round = 0; round < 200; ++round) {
      pool.Prefetch(ids[round % ids.size()]);
    }
  });
  std::thread reader([&] {
    for (int round = 0; round < 200; ++round) {
      const PageId id = ids[(round * 3) % ids.size()];
      auto page = pool.FetchPage(id);
      ASSERT_TRUE(page.ok());
      EXPECT_EQ((*page)[kPageSize - 1],
                static_cast<char>('A' + (id % 26)));
      ASSERT_TRUE(pool.UnpinPage(id, false).ok());
    }
  });
  prefetcher.join();
  reader.join();
  WaitForPrefetchIdle(pool);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetches_completed, stats.prefetches_issued);
}

TEST(BufferPoolPrefetchTest, DeletePageCancelsQueuedPrefetch) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  const std::vector<PageId> ids = SeedDiskPages(&disk, 4);

  // Queue prefetches and immediately delete the pages; whichever
  // prefetches had not started yet must be purged, and the counters
  // must still converge.
  for (const PageId id : ids) pool.Prefetch(id);
  for (const PageId id : ids) {
    const Status s = pool.DeletePage(id);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  WaitForPrefetchIdle(pool);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetches_completed, stats.prefetches_issued);
}

}  // namespace
}  // namespace relserve
