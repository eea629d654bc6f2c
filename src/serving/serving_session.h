// ServingSession: the public API of relserve — an RDBMS session that
// manages tables, loads models, optimizes inference queries across the
// UDF-centric / relation-centric middle ground, optionally offloads to
// an external DL runtime (DL-centric), and serves cached predictions.
//
// Typical use (see examples/quickstart.cc):
//   ServingSession session(ServingConfig{});
//   auto* table = *session.CreateTable("tx", FeatureTableSchema());
//   ... load rows ...
//   session.RegisterModel(*BuildFFNN("fraud", {28, 256, 2}, 1));
//   session.Deploy("fraud", ServingMode::kAdaptive, batch);
//   Tensor scores = *session.Predict("fraud", "tx");

#ifndef RELSERVE_SERVING_SERVING_SESSION_H_
#define RELSERVE_SERVING_SERVING_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "common/result.h"
#include "engine/connector.h"
#include "engine/exec_context.h"
#include "engine/external_runtime.h"
#include "engine/hybrid_executor.h"
#include "engine/physical_plan.h"
#include "graph/model.h"
#include "optimizer/optimizer.h"
#include "relational/row.h"
#include "relational/vectorized.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/mvcc.h"
#include "storage/physical_block_index.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace relserve {

struct ServingConfig {
  // Buffer pool size in pages (kPageSize each) — the paper's "20 GB
  // buffer pool", scaled.
  int64_t buffer_pool_pages = 2048;  // 128 MiB
  // Hard limit of the in-database working-memory arena.
  int64_t working_memory_bytes = 512LL * 1024 * 1024;
  // The adaptive optimizer's representation threshold — the paper's
  // "2 GB", scaled.
  int64_t memory_threshold_bytes = 64LL * 1024 * 1024;
  // Tensor block geometry for relation-centric execution.
  int64_t block_rows = 512;
  int64_t block_cols = 512;
  // Worker threads for intra-query parallelism. 0 (the default)
  // sizes the pool to the hardware: oversubscribing a small machine
  // roughly doubles the latency of morsel-parallel kernels, so a
  // fixed count is only for tests/benches that pin one deliberately.
  int num_threads = 0;
  // Spill file path; empty = unique temp file.
  std::string spill_path;
  // Spill-file reliability knobs (CRC32C page checksums, re-read
  // budget). The default honors RELSERVE_PAGE_CHECKSUMS — the bench
  // ablation switch.
  DiskManagerOptions disk;
  // Durability: when non-empty, the session write-ahead-logs every
  // CreateTable/ApplyWrite to <wal_dir>/relserve.wal, replaying it on
  // construction (crash recovery). Empty = in-memory only, exactly the
  // pre-WAL behavior.
  std::string wal_dir;
  WalFsyncPolicy wal_fsync = WalFsyncPolicy::kEveryCommit;
  // Cross-model weight deduplication: deploy-time weight binding
  // resolves blocks through a content-addressed, ref-counted
  // PhysicalBlockIndex so fine-tuned variants share identical weight
  // pages/buffers. Off = every deployment owns private copies (the
  // naive arm of bench_multitenant). Matching is byte-exact, so
  // deduped deployments stay bit-identical.
  bool dedup_weights = true;
};

// One row mutation inside an ApplyWrite transaction.
struct WriteOp {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  // Physical row ordinal targeted by kUpdate/kDelete (the scan-visible
  // insertion order); ignored for kInsert.
  int64_t ordinal = -1;
  // New row contents for kInsert/kUpdate.
  Row row;
};

// Where the feature rows of one inference come from: exactly one of
// `dense` and `scanned`. ServingSession::Execute turns either into
// model input the same way.
struct FeatureSource {
  // A batch on dim 0, [n, width] or [n, sample...]; runs without a
  // copy.
  const Tensor* dense = nullptr;
  // A columnar scan of table `table` whose output slot `column` holds
  // the features; the pivot is charged to the table's columnar-gather
  // stage.
  const ColumnarScanOutput* scanned = nullptr;
  int column = 0;
  std::string table{};  // `{}` lets designated initializers omit it
};

enum class ServingMode {
  kAdaptive,          // the rule-based optimizer decides per operator
  kForceUdf,          // pure UDF-centric
  kForceRelational,   // pure relation-centric
};

class ServingSession {
 public:
  explicit ServingSession(ServingConfig config);

  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  // Construction never aborts. A failed spill-file open lands here and
  // on every storage I/O the session performs afterwards.
  Status status() const { return disk_->status(); }

  Catalog* catalog() { return catalog_.get(); }
  ExecContext* exec_context() { return &ctx_; }
  MemoryTracker* working_memory() { return &working_memory_; }
  ThreadPool* thread_pool() { return pool_.get(); }
  const ServingConfig& config() const { return config_; }

  // --- Tables -------------------------------------------------------

  // Creates an empty table. `layout` has one value and is ignored.
  Result<TableInfo*> CreateTable(
      const std::string& name, Schema schema,
      TableLayout layout = TableLayout::kColumnar);
  Result<TableInfo*> GetTable(const std::string& name);

  // --- Transactional writes (serve-while-ingest) --------------------

  // Applies `ops` to `table_name` as one atomic, durable transaction:
  // WAL-log every op plus a commit record, wait for durability per the
  // fsync policy, apply the storage mutations, publish the commit
  // version, then fence the result caches bound to the table. Readers
  // pinned at an earlier snapshot never see any of it; readers pinning
  // afterwards see all of it. On a WAL failure nothing is applied and
  // the typed error (kIOError / injected code) surfaces to the caller.
  Status ApplyWrite(const std::string& table_name,
                    std::vector<WriteOp> ops);

  // Convenience: one insert-only transaction.
  Status IngestRows(const std::string& table_name,
                    const std::vector<Row>& rows);

  // The snapshot a read should evaluate at: every commit published so
  // far, nothing in flight.
  Version PinSnapshot() const { return clock_.LatestPublished(); }

  // Version clock / WAL / recovery introspection. wal() is null when
  // the session runs without a WAL (empty wal_dir) or its open failed
  // (see wal_status()).
  VersionClock* version_clock() { return &clock_; }
  WriteAheadLog* wal() { return wal_.get(); }
  const Status& wal_status() const { return wal_status_; }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  // Declares that cached predictions for `model_name` are computed
  // from rows of `table_name`: every committed write to the table
  // fences the model's cache tiers, so a hit can never return a
  // prediction older than the rows it was derived from.
  Status BindCacheToTable(const std::string& model_name,
                          const std::string& table_name);

  // The per-table EXPLAIN ANALYZE stages of the vectorized serving
  // path (columnar-scan + columnar-gather). Created lazily on first
  // access; stats accumulate across Predict calls on the table.
  struct ColumnarTableStages {
    PhysicalStage scan;
    PhysicalStage gather;
  };
  ColumnarTableStages* ColumnarStages(const std::string& table_name);

  // --- Models -------------------------------------------------------

  // Takes ownership of the model (weights included). `tuning` is the
  // model's deploy configuration: the kernel arms (int8, sparse,
  // fused top-k) every plan of this model uses, in every mode that
  // keeps its matmuls UDF-centric.
  Status RegisterModel(Model model, OptimizerTuning tuning = {});
  Result<const Model*> GetModel(const std::string& name) const;

  // The plan a Deploy of the model in `mode` at `batch_size` would
  // install — what EXPLAIN renders.
  Result<InferencePlan> Plan(const std::string& model_name,
                             ServingMode mode, int64_t batch_size) const;

  // Optimizes + compiles a model for execution. Re-deploying with a
  // different mode/batch replaces the compiled plan. Returns the
  // logical plan for inspection (EXPLAIN).
  Result<const InferencePlan*> Deploy(const std::string& model_name,
                                      ServingMode mode,
                                      int64_t batch_size);

  // Drops every deployed plan (default + AoT variants) for the model;
  // the registered model itself stays. In-flight queries that already
  // resolved their deployment finish on the pinned shared_ptr;
  // requests resolving afterwards — including ones sitting in the
  // scheduler's queue between admission and dispatch — get a typed
  // NotFound, never a crash. NotFound if nothing was deployed.
  Status Undeploy(const std::string& model_name);

  // Ahead-of-time compilation (paper Sec. 2): when the model is
  // loaded, compile one plan per *distinct representation signature*
  // across the given batch sizes; at query time PredictBatch/Predict
  // pick the matching plan without recompiling. Replaces the model's
  // earlier AoT variants; its Deploy()-ed plan stays. Returns the
  // number of distinct plans compiled.
  Result<int> DeployAot(const std::string& model_name,
                        const std::vector<int64_t>& batch_sizes);

  // --- Multi-tenant introspection -----------------------------------

  // One deployed model as SHOW MODELS renders it: plan count (default
  // + AoT variants) and the weight bytes those plans bind, logical
  // (naive per-model storage) vs. physical (after shared-block
  // resolution through the block index).
  struct DeployedModelInfo {
    std::string name;
    int num_plans = 0;
    int64_t logical_weight_bytes = 0;
    int64_t physical_weight_bytes = 0;
    int64_t shared_blocks = 0;
    int64_t total_blocks = 0;
  };

  // Snapshot of every deployed model, name-ordered.
  std::vector<DeployedModelInfo> ListDeployedModels() const;

  // The shared weight-block index (null when dedup_weights is off).
  PhysicalBlockIndex* block_index() { return block_index_.get(); }
  const PhysicalBlockIndex* block_index() const {
    return block_index_.get();
  }

  // The compiled stage pipeline of the current Deploy()-ed plan —
  // what EXPLAIN ANALYZE renders. The shared_ptr keeps the plan
  // (weights included) alive while the caller reads stage stats, even
  // across a concurrent redeploy.
  Result<std::shared_ptr<const PhysicalPlan>> DeployedPhysicalPlan(
      const std::string& model_name);

  // Vectorized scan of a table on the session's pool, under
  // the table's visibility map at `opts.snapshot`. Charges the table's
  // columnar-scan stage and the session's scanned rows/bytes.
  Result<ColumnarScanOutput> ScanColumnar(const TableInfo& table,
                                          ColumnarScanOptions opts);

  // --- In-database inference ----------------------------------------

  // The one inference entry point; every Predict* call and SQL
  // PREDICT runs through it. Resolves the deployment for the source's
  // row count and feeds the rows in the model's sample shape; a row
  // that is not a FLOAT_VECTOR of the model's input width is a typed
  // InvalidArgument. A dense source runs without a copy. A scanned
  // source streams into a block relation when the plan's first stage
  // is relation-centric, so the batch is never materialized whole,
  // and is gathered into one tile otherwise.
  Result<ExecOutput> Execute(const std::string& model_name,
                             const FeatureSource& source);

  // Runs the deployed model over every row of `table_name`
  // (feature_col must be a FLOAT_VECTOR column).
  Result<ExecOutput> Predict(const std::string& model_name,
                             const std::string& table_name,
                             const std::string& feature_col = "features");

  // Predict evaluated at an explicit MVCC snapshot: only rows whose
  // version interval contains `snapshot` feed the model. Bit-identical
  // across concurrent ingest for any fixed snapshot. Predict() itself
  // delegates here at PinSnapshot().
  Result<ExecOutput> PredictAtSnapshot(const std::string& model_name,
                                       const std::string& table_name,
                                       const std::string& feature_col,
                                       Version snapshot);

  // Runs the deployed model on an in-memory batch.
  Result<ExecOutput> PredictBatch(const std::string& model_name,
                                  const Tensor& input);

  // --- DL-centric offload -------------------------------------------

  // Attaches an external runtime (not owned) and registers the model
  // with it.
  Status OffloadModel(const std::string& model_name,
                      ExternalRuntime* runtime);

  // Full DL-centric round trip: export features over the connector,
  // infer in the external runtime, import predictions.
  Result<Tensor> PredictViaRuntime(const std::string& model_name,
                                   const std::string& table_name,
                                   const std::string& feature_col =
                                       "features");

  // --- Inference result caching --------------------------------------

  // Creates an approximate result cache for the model over request
  // rows of `dim` features. InvalidArgument unless `dim` equals the
  // model's flattened sample width.
  Status EnableApproxCache(const std::string& model_name, int64_t dim,
                           ApproxResultCache::Config config);

  Result<ApproxResultCache*> GetApproxCache(
      const std::string& model_name);

  // Enables the exact (hash-keyed) result cache tier for a model —
  // zero accuracy cost, hits only on byte-identical requests. When
  // both tiers are enabled, lookups consult exact before approximate.
  Status EnableExactCache(const std::string& model_name);

  Result<ExactResultCache*> GetExactCache(
      const std::string& model_name);

  // Row-wise serving through the enabled cache tiers: hits return the
  // cached prediction; misses run the model (batched) and populate
  // every enabled tier.
  Result<Tensor> PredictWithCache(const std::string& model_name,
                                  const Tensor& input);

 private:
  struct RegisteredModel {
    Model model;
    OptimizerTuning tuning;
  };

  // The registered model `name`. Models are never erased, so the
  // pointer stays valid after the shared lock this takes drops.
  Result<const RegisteredModel*> FindModel(const std::string& name) const;

  // Builds every plan the session compiles, deploys or explains: the
  // optimizer's (kAdaptive) or a forced representation, then the
  // model's kernel arms. Takes no lock, so GetDeployment can call it
  // under registry_mu_.
  Result<InferencePlan> BuildPlan(const RegisteredModel& entry,
                                  ServingMode mode,
                                  int64_t batch_size) const;

  // Compiled plans by representation signature (the AoT variants).
  using PlanVariants =
      std::map<std::string, std::shared_ptr<const PhysicalPlan>>;

  // BuildPlan, then PhysicalPlan::Compile against the session's
  // context — the one path by which Deploy and DeployAot make a plan.
  // Runs outside the registry lock, so serving never stalls behind a
  // slow compile. With `variants`, files the plan there under its
  // representation signature, and compiles nothing when a plan of
  // that signature is already filed.
  Result<std::shared_ptr<const PhysicalPlan>> CompilePlan(
      const RegisteredModel& entry, ServingMode mode, int64_t batch_size,
      PlanVariants* variants = nullptr);

  // Resolves the plan serving `model_name` for a query of
  // `batch_size` rows: an AoT variant whose representation signature
  // matches what the optimizer would pick for that batch, else the
  // Deploy()-ed plan. `batch_size` < 0 skips AoT matching.
  //
  // Returns a shared_ptr so an in-flight prediction keeps its plan
  // (and the weights it binds) alive even if a concurrent
  // Deploy/DeployAot/Undeploy replaces it mid-query — the
  // use-after-free the serving front-end would otherwise hit. The old
  // plan's arena charge is released when the last query drops it.
  Result<std::shared_ptr<const PhysicalPlan>> GetDeployment(
      const std::string& model_name, int64_t batch_size = -1);

  // Fences every cache tier bound to `table_name` at `version` (a
  // just-published commit). Caches registered after the lookup copy
  // are created empty, so they cannot hold a stale entry.
  void InvalidateCachesForTable(const std::string& table_name,
                                Version version);

  ServingConfig config_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> buffer_pool_;
  // Declared before the deployment maps below: plans release their
  // shared block handles into the index at destruction, so the index
  // must be destroyed after them (members destruct in reverse order).
  std::unique_ptr<PhysicalBlockIndex> block_index_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<ThreadPool> pool_;
  MemoryTracker working_memory_;
  ExecContext ctx_;

  // Guards every registry map below. Queries take it shared (lookups
  // only — model pointers and shared_ptr values stay valid after the
  // lock drops); Register/Deploy/Enable take it exclusive. Plan
  // preparation itself runs outside the lock so serving never stalls
  // behind a slow compile.
  mutable std::shared_mutex registry_mu_;

  std::map<std::string, RegisteredModel> models_;
  // Every compiled plan of one model: the Deploy()-ed plan (null when
  // only DeployAot ran) and the AoT variants by representation
  // signature. A model has an entry only while it holds a plan.
  struct DeployedPlans {
    std::shared_ptr<const PhysicalPlan> deployed;
    PlanVariants aot;
  };
  std::map<std::string, DeployedPlans> deployments_;
  std::map<std::string, ExternalRuntime*> offloaded_;
  std::map<std::string, std::unique_ptr<ColumnarTableStages>>
      columnar_stages_;
  std::map<std::string, std::shared_ptr<ApproxResultCache>> caches_;
  std::map<std::string, std::shared_ptr<ExactResultCache>>
      exact_caches_;
  // table name -> models whose caches derive from that table
  // (guarded by registry_mu_ like every registry map).
  std::map<std::string, std::vector<std::string>> cache_bindings_;

  // --- Durability & MVCC --------------------------------------------

  // Serializes the whole commit protocol (log ops + commit record,
  // wait durable, apply, publish). One lock means transactions never
  // interleave in the WAL, which is what lets recovery equate LSN
  // order with apply order.
  std::mutex commit_mu_;
  VersionClock clock_;
  std::unique_ptr<WriteAheadLog> wal_;
  // Why the WAL is absent/degraded: OK when disabled by config, the
  // open/recovery error otherwise. ApplyWrite refuses to run when the
  // configured WAL failed — no silent loss of durability.
  Status wal_status_ = Status::OK();
  RecoveryStats recovery_stats_;
  uint64_t next_txn_ = 1;  // under commit_mu_
};

}  // namespace relserve

#endif  // RELSERVE_SERVING_SERVING_SESSION_H_
