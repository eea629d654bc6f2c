// ScanCostModel: learned per-row scan costs driving fragment-parallel
// grain decisions.
//
// The optimizer's representation decisions (optimizer.h) pick *where*
// tensors live; this model picks *how hard* to parallelize relational
// scans. It keeps an EWMA of measured nanoseconds per (row, column)
// of the columnar scan, seeded with a calibration constant and updated
// by every scan that reports its wall time — so
// the work hints handed to ThreadPool::ParallelFor track the machine
// the server actually runs on, and EXPLAIN can show the cost basis of
// its parallelism decisions.

#ifndef RELSERVE_OPTIMIZER_SCAN_COST_H_
#define RELSERVE_OPTIMIZER_SCAN_COST_H_

#include <cstdint>
#include <string>

namespace relserve {

class ScanCostModel {
 public:
  // Calibration seed (ns per row-cell) before any observation lands:
  // the columnar scan memcpys contiguous arrays.
  static constexpr double kSeedColumnarNsPerCell = 2.0;

  // Current EWMA estimate, ns per (row, column) touched.
  static double ColumnarNsPerCell();

  // Feeds a measured scan back into the model. `cells` is
  // rows * columns touched; observations with cells <= 0 are ignored.
  static void ObserveColumnarScan(int64_t cells, int64_t nanos);

  // ParallelFor work hint for one fragment-scan item (arbitrary units
  // comparable to the pool's kMinWorkPerMorsel).
  static int64_t FragmentWorkHint(int64_t rows_per_fragment,
                                  int64_t num_columns);

  // Whether a columnar scan of `total_rows` x `num_columns` is worth
  // fanning out across the pool at all (tiny tables stay serial: the
  // dispatch costs more than the scan).
  static bool ShouldParallelize(int64_t total_rows, int64_t num_columns,
                                int num_threads);

  // One-line rendering for EXPLAIN ("scan cost: columnar=...").
  static std::string ToString();

  // Test hook: forget every observation, back to the seeds.
  static void ResetForTest();
};

}  // namespace relserve

#endif  // RELSERVE_OPTIMIZER_SCAN_COST_H_
