#include "optimizer/scan_cost.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "resource/thread_pool.h"

namespace relserve {

namespace {

// EWMA state stored as femtoseconds-per-cell in an atomic int64 so
// updates from concurrent scans stay lock-free and torn-free.
constexpr double kFsPerNs = 1e6;
constexpr double kAlpha = 0.2;  // EWMA weight of a new observation

std::atomic<int64_t> g_columnar_fs_per_cell{static_cast<int64_t>(
    ScanCostModel::kSeedColumnarNsPerCell * kFsPerNs)};

}  // namespace

double ScanCostModel::ColumnarNsPerCell() {
  return static_cast<double>(
             g_columnar_fs_per_cell.load(std::memory_order_relaxed)) /
         kFsPerNs;
}

void ScanCostModel::ObserveColumnarScan(int64_t cells, int64_t nanos) {
  if (cells <= 0 || nanos <= 0) return;
  const double sample_fs =
      static_cast<double>(nanos) / static_cast<double>(cells) * kFsPerNs;
  int64_t cur = g_columnar_fs_per_cell.load(std::memory_order_relaxed);
  while (true) {
    const double next =
        (1.0 - kAlpha) * static_cast<double>(cur) + kAlpha * sample_fs;
    const int64_t next_i =
        std::max<int64_t>(1, static_cast<int64_t>(next));
    if (g_columnar_fs_per_cell.compare_exchange_weak(
            cur, next_i, std::memory_order_relaxed)) {
      return;
    }
  }
}

int64_t ScanCostModel::FragmentWorkHint(int64_t rows_per_fragment,
                                        int64_t num_columns) {
  // Work units are ~ns of estimated scan cost for one fragment, so a
  // fragment that decodes in less than kMinWorkPerMorsel ns gets
  // batched with its neighbors by ParallelFor's grain logic.
  const double ns = ColumnarNsPerCell() *
                    static_cast<double>(rows_per_fragment) *
                    static_cast<double>(std::max<int64_t>(1, num_columns));
  return std::max<int64_t>(1, static_cast<int64_t>(ns));
}

bool ScanCostModel::ShouldParallelize(int64_t total_rows,
                                      int64_t num_columns,
                                      int num_threads) {
  if (num_threads <= 1) return false;
  const double total_ns = ColumnarNsPerCell() *
                          static_cast<double>(total_rows) *
                          static_cast<double>(std::max<int64_t>(1, num_columns));
  // Fan out only when there is at least ~2 morsels' worth of work.
  return total_ns >= 2.0 * ThreadPool::kMinWorkPerMorsel;
}

std::string ScanCostModel::ToString() {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "scan cost: columnar=%.2fns/cell",
                ColumnarNsPerCell());
  return buf;
}

void ScanCostModel::ResetForTest() {
  g_columnar_fs_per_cell.store(
      static_cast<int64_t>(kSeedColumnarNsPerCell * kFsPerNs),
      std::memory_order_relaxed);
}

}  // namespace relserve
