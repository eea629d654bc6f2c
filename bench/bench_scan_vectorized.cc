// Vectorized columnar scan vs the row-at-a-time path.
//
// Builds one columnar feature table and measures rows/s through three
// pipelines:
//   scan          — full-table scan, all columns
//   scan+filter   — predicate on id at several selectivities
//   scan->tile    — filter + project the float-vector feature column
//                   straight into a packed [n, width] GEMM input tile
// The row path (ColumnarRowScan -> Filter) boxes every value through
// Row/Value; the vectorized path runs branch-free selection vectors
// over contiguous chunks and one memcpy per fragment into the tile. The columnar pipelines also run
// fragment-parallel on a 4-worker pool (morsel = fragment); on a
// single-core machine that speedup is ~1.0 by construction.
//
// Each measurement is emitted both as a table row and as a standard
// BENCH JSON line (grep ^BENCH_JSON).

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/physical_plan.h"
#include "relational/expression.h"
#include "relational/operator.h"
#include "relational/vectorized.h"
#include "resource/memory_tracker.h"
#include "resource/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/column_store.h"
#include "storage/disk_manager.h"

namespace relserve {
namespace {

constexpr int64_t kFeatureWidth = 64;

// A feature table shaped like the paper's serving workloads: the
// model input column plus the usual metadata baggage. The row path
// boxes every column on every scan; the vectorized scan reads only the
// streams the query touches.
Schema BenchSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"score", ValueType::kFloat64},
                 {"user", ValueType::kString},
                 {"label", ValueType::kString},
                 {"ts", ValueType::kInt64},
                 {"weight", ValueType::kFloat64},
                 {"split", ValueType::kInt64},
                 {"features", ValueType::kFloatVector}});
}

constexpr int kFeatureCol = 7;

Row BenchRow(int64_t i) {
  std::vector<float> features(kFeatureWidth);
  for (int64_t j = 0; j < kFeatureWidth; ++j) {
    features[j] = static_cast<float>((i + j) % 97) * 0.25f;
  }
  return Row({Value(i), Value(static_cast<double>(i % 11) * 0.5),
              Value("user_" + std::to_string(i % 1000)),
              Value(std::string(i % 2 == 0 ? "train" : "eval")),
              Value(int64_t{1700000000} + i),
              Value(1.0 + static_cast<double>(i % 5)),
              Value(i % 10), Value(std::move(features))});
}

// id < cutoff keeps the first `cutoff` rows: selectivity = cutoff / n.
ExprPtr IdBelow(int64_t cutoff) {
  return Expression::Binary(ExprKind::kLt, Expression::Column(0),
                            Expression::Literal(Value(cutoff)));
}

struct Tables {
  DiskManager disk;
  BufferPool pool;
  ColumnarTable columnar;

  explicit Tables(int64_t rows)
      : pool(&disk, 2048), columnar(&pool, BenchSchema()) {
    for (int64_t i = 0; i < rows; ++i) {
      Status s = columnar.AppendRow(BenchRow(i));
      if (!s.ok()) {
        std::fprintf(stderr, "table build failed: %s\n",
                     s.ToString().c_str());
        std::abort();
      }
    }
  }
};

// Row path: ColumnarRowScan (+ Filter) and drain the iterator.
Result<int64_t> RowScan(Tables* t, const ExprPtr& pred) {
  RowIteratorPtr it = std::make_unique<ColumnarRowScan>(&t->columnar);
  if (pred != nullptr) it = std::make_unique<Filter>(std::move(it), pred);
  RELSERVE_RETURN_NOT_OK(it->Open());
  Row row;
  int64_t emitted = 0;
  while (true) {
    RELSERVE_ASSIGN_OR_RETURN(bool has, it->Next(&row));
    if (!has) break;
    ++emitted;
  }
  return emitted;
}

// Row path feeding a GEMM tile: boxed rows, per-row vector copy.
Result<int64_t> RowScanToTile(Tables* t, const ExprPtr& pred,
                              std::vector<float>* tile) {
  RowIteratorPtr it = std::make_unique<ColumnarRowScan>(&t->columnar);
  if (pred != nullptr) it = std::make_unique<Filter>(std::move(it), pred);
  RELSERVE_RETURN_NOT_OK(it->Open());
  tile->clear();
  Row row;
  int64_t emitted = 0;
  while (true) {
    RELSERVE_ASSIGN_OR_RETURN(bool has, it->Next(&row));
    if (!has) break;
    const std::vector<float>& features =
        row.value(kFeatureCol).AsFloatVector();
    if (static_cast<int64_t>(features.size()) != kFeatureWidth) {
      return Status::InvalidArgument("bad feature width");
    }
    tile->insert(tile->end(), features.begin(), features.end());
    ++emitted;
  }
  return emitted;
}

Result<int64_t> ColScan(Tables* t, const ExprPtr& pred, ThreadPool* pool,
                        bool* went_parallel) {
  ColumnarScanOptions opts;
  opts.predicate = pred;
  opts.pool = pool;
  opts.force_serial = pool == nullptr;
  RELSERVE_ASSIGN_OR_RETURN(ColumnarScanOutput out,
                            ColumnarScan(t->columnar, opts));
  if (went_parallel != nullptr) *went_parallel = out.parallel;
  return out.rows_emitted;
}

Result<int64_t> ColScanToTile(Tables* t, const ExprPtr& pred,
                              ThreadPool* pool, MemoryTracker* tracker,
                              bool* went_parallel) {
  ColumnarScanOptions opts;
  opts.predicate = pred;
  opts.projection = {kFeatureCol};
  opts.pool = pool;
  opts.force_serial = pool == nullptr;
  RELSERVE_ASSIGN_OR_RETURN(ColumnarScanOutput out,
                            ColumnarScan(t->columnar, opts));
  if (went_parallel != nullptr) *went_parallel = out.parallel;
  PhysicalStage stage;
  stage.kind = StageKind::kColumnarGather;
  stage.label = "pivot bench";
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor tile, ExecuteColumnarGather(stage, out.batches, 0,
                                         kFeatureWidth, "features", tracker));
  (void)tile;
  return out.rows_emitted;
}

struct Measurement {
  double seconds = 0.0;
  int64_t emitted = 0;
  bool parallel = false;
};

int Run() {
  const int repeats = bench::RepeatsFromEnv(3);
  const char* rows_env = std::getenv("RELSERVE_SCAN_ROWS");
  const int64_t rows = rows_env != nullptr ? std::atoll(rows_env) : 100000;
  Tables tables(rows);
  ThreadPool pool(4);
  MemoryTracker tracker("bench_scan_vectorized");

  std::printf(
      "Vectorized scan: %lld rows x 8 columns (feature = float[%lld]), "
      "fragment=%lld rows (hardware threads: %u)\n\n",
      static_cast<long long>(rows),
      static_cast<long long>(kFeatureWidth),
      static_cast<long long>(ColumnarTable::kDefaultFragmentRows),
      std::thread::hardware_concurrency());
  bench::PrintRow({"Pipeline", "Select%", "Path", "Rows/s", "vs row"});
  bench::PrintRule(5);

  struct Config {
    const char* pipeline;
    double selectivity;  // < 0 = no predicate
  };
  const Config configs[] = {
      {"scan", -1.0},         {"scan+filter", 0.01},
      {"scan+filter", 0.10},  {"scan+filter", 0.50},
      {"scan+filter", 0.90},  {"scan->tile", -1.0},
      {"scan->tile", 0.50},
  };

  for (const Config& config : configs) {
    const bool tile = std::strcmp(config.pipeline, "scan->tile") == 0;
    ExprPtr pred;
    if (config.selectivity >= 0.0) {
      pred = IdBelow(static_cast<int64_t>(
          static_cast<double>(rows) * config.selectivity));
    }

    Measurement row_m, col1_m, col4_m;
    std::vector<float> row_tile;
    row_tile.reserve(static_cast<size_t>(rows * kFeatureWidth));
    Result<double> row_s = bench::TimeBest(repeats, [&]() -> Status {
      RELSERVE_ASSIGN_OR_RETURN(
          row_m.emitted, tile ? RowScanToTile(&tables, pred, &row_tile)
                              : RowScan(&tables, pred));
      return Status::OK();
    });
    Result<double> col1_s = bench::TimeBest(repeats, [&]() -> Status {
      RELSERVE_ASSIGN_OR_RETURN(
          col1_m.emitted,
          tile ? ColScanToTile(&tables, pred, nullptr, &tracker,
                               &col1_m.parallel)
               : ColScan(&tables, pred, nullptr, &col1_m.parallel));
      return Status::OK();
    });
    Result<double> col4_s = bench::TimeBest(repeats, [&]() -> Status {
      RELSERVE_ASSIGN_OR_RETURN(
          col4_m.emitted,
          tile ? ColScanToTile(&tables, pred, &pool, &tracker,
                               &col4_m.parallel)
               : ColScan(&tables, pred, &pool, &col4_m.parallel));
      return Status::OK();
    });
    if (!row_s.ok() || !col1_s.ok() || !col4_s.ok()) {
      std::fprintf(stderr, "%s failed: %s %s %s\n", config.pipeline,
                   row_s.status().ToString().c_str(),
                   col1_s.status().ToString().c_str(),
                   col4_s.status().ToString().c_str());
      return 1;
    }
    if (row_m.emitted != col1_m.emitted ||
        row_m.emitted != col4_m.emitted) {
      std::fprintf(stderr, "row/columnar emitted mismatch: %lld %lld %lld\n",
                   static_cast<long long>(row_m.emitted),
                   static_cast<long long>(col1_m.emitted),
                   static_cast<long long>(col4_m.emitted));
      return 1;
    }
    row_m.seconds = *row_s;
    col1_m.seconds = *col1_s;
    col4_m.seconds = *col4_s;

    const double row_rps = static_cast<double>(rows) / row_m.seconds;
    const double col1_rps = static_cast<double>(rows) / col1_m.seconds;
    const double col4_rps = static_cast<double>(rows) / col4_m.seconds;
    char sel_cell[16];
    if (config.selectivity < 0.0) {
      std::snprintf(sel_cell, sizeof(sel_cell), "all");
    } else {
      std::snprintf(sel_cell, sizeof(sel_cell), "%.0f%%",
                    config.selectivity * 100.0);
    }
    auto print_path = [&](const char* path, double rps, bool parallel) {
      char rps_cell[32], ratio_cell[32];
      std::snprintf(rps_cell, sizeof(rps_cell), "%.3g", rps);
      std::snprintf(ratio_cell, sizeof(ratio_cell), "%.2fx",
                    rps / row_rps);
      bench::PrintRow({config.pipeline, sel_cell, path, rps_cell,
                       ratio_cell});
      bench::PrintBenchJson(
          "scan_vectorized",
          {{"pipeline", bench::JsonStr(config.pipeline)},
           {"selectivity", bench::JsonNum(
                               config.selectivity < 0.0
                                   ? 1.0
                                   : config.selectivity)},
           {"path", bench::JsonStr(path)},
           {"rows", std::to_string(rows)},
           {"rows_per_s", bench::JsonNum(rps)},
           {"speedup_vs_row", bench::JsonNum(rps / row_rps)},
           {"parallel", parallel ? "true" : "false"}});
    };
    print_path("row", row_rps, false);
    print_path("columnar-1t", col1_rps, false);
    print_path("columnar-4t", col4_rps, col4_m.parallel);
    std::printf("\n");
  }

  std::printf(
      "Expected shape: the columnar path wins by avoiding Row/Value "
      "boxing —\nlargest on scan->tile where the feature column moves "
      "as one memcpy per\nfragment; 4t only beats 1t on real "
      "multi-core hardware.\n");
  return 0;
}

}  // namespace
}  // namespace relserve

int main() { return relserve::Run(); }
