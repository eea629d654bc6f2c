#include "serving/serving_session.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/failpoint.h"
#include "engine/block_ops.h"
#include "engine/connector.h"
#include "relational/operator.h"
#include "relational/vectorized.h"

namespace relserve {

namespace {

// A plan's representation and kernel-arm choices as a compact key
// ("uurru..." plus arm/topk markers), the identity under which AoT
// variants are cached. Two plans that agree on representations but
// differ in kernel arms bind different weight forms and must not
// share a compiled instance.
std::string PlanSignature(const InferencePlan& plan) {
  std::string signature;
  signature.reserve(plan.decisions.size());
  for (const NodeDecision& d : plan.decisions) {
    signature += d.repr == Repr::kUdf ? 'u' : 'r';
    if (d.arm == KernelArm::kInt8) signature += 'q';
    if (d.arm == KernelArm::kSparse) signature += 's';
    if (d.topk > 0) signature += 'k' + std::to_string(d.topk);
  }
  return signature;
}

}  // namespace

ServingSession::ServingSession(ServingConfig config)
    : config_(config),
      disk_(std::make_unique<DiskManager>(config.spill_path,
                                          config.disk)),
      buffer_pool_(std::make_unique<BufferPool>(
          disk_.get(), config.buffer_pool_pages)),
      block_index_(config.dedup_weights
                       ? std::make_unique<PhysicalBlockIndex>(
                             buffer_pool_.get())
                       : nullptr),
      catalog_(std::make_unique<Catalog>(buffer_pool_.get())),
      pool_(std::make_unique<ThreadPool>(
          config.num_threads > 0
              ? config.num_threads
              : std::max(1, static_cast<int>(
                                std::thread::hardware_concurrency())))),
      working_memory_("db-working-memory",
                      config.working_memory_bytes) {
  ctx_.tracker = &working_memory_;
  ctx_.pool = pool_.get();
  ctx_.buffer_pool = buffer_pool_.get();
  ctx_.block_rows = config.block_rows;
  ctx_.block_cols = config.block_cols;
  ctx_.block_index = block_index_.get();

  if (!config_.wal_dir.empty()) {
    // Replay whatever log survives at the configured path, then open
    // it for appending. Construction never aborts: a failed replay or
    // open parks the error in wal_status_, and every subsequent
    // ApplyWrite refuses with it rather than writing non-durably.
    ::mkdir(config_.wal_dir.c_str(), 0755);  // best-effort
    const std::string wal_path = config_.wal_dir + "/relserve.wal";
    Result<RecoveryStats> recovered =
        RecoverCatalog(wal_path, catalog_.get(), &clock_);
    if (!recovered.ok()) {
      wal_status_ = recovered.status();
      return;
    }
    recovery_stats_ = std::move(recovered).ValueOrDie();
    WalOptions wal_opts;
    wal_opts.path = wal_path;
    wal_opts.fsync_policy = config_.wal_fsync;
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Open(wal_opts);
    if (!wal.ok()) {
      wal_status_ = wal.status();
      return;
    }
    wal_ = std::move(wal).ValueOrDie();
  }
}

Result<TableInfo*> ServingSession::CreateTable(const std::string& name,
                                               Schema schema,
                                               TableLayout /*layout*/) {
  if (wal_ == nullptr) {
    if (!config_.wal_dir.empty() && !wal_status_.ok()) {
      return wal_status_;
    }
    return catalog_->CreateTable(name, std::move(schema));
  }
  std::lock_guard<std::mutex> commit(commit_mu_);
  const uint64_t txn = next_txn_++;
  WalRecord create;
  create.type = WalRecord::Type::kCreateTable;
  create.txn_id = txn;
  create.table = name;
  EncodeSchema(schema, &create.schema_encoding);
  RELSERVE_ASSIGN_OR_RETURN(uint64_t lsn, wal_->Append(create));
  // Catalog failure (duplicate name) leaves the logged create
  // uncommitted; recovery drops it.
  RELSERVE_ASSIGN_OR_RETURN(
      TableInfo * table,
      catalog_->CreateTable(name, std::move(schema)));
  const Version v = clock_.Allocate();
  WalRecord commit_rec;
  commit_rec.type = WalRecord::Type::kCommit;
  commit_rec.txn_id = txn;
  commit_rec.table = name;
  commit_rec.commit_version = v;
  commit_rec.op_count = 1;
  RELSERVE_ASSIGN_OR_RETURN(lsn, wal_->Append(commit_rec));
  RELSERVE_RETURN_NOT_OK(wal_->WaitDurable(lsn));
  clock_.Publish(v);
  return table;
}

ServingSession::ColumnarTableStages* ServingSession::ColumnarStages(
    const std::string& table_name) {
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = columnar_stages_.find(table_name);
    if (it != columnar_stages_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  auto& slot = columnar_stages_[table_name];
  if (slot == nullptr) {
    slot = std::make_unique<ColumnarTableStages>();
    slot->scan.kind = StageKind::kColumnarScan;
    slot->scan.label = "scan " + table_name;
    slot->gather.kind = StageKind::kColumnarGather;
    slot->gather.label = "pivot " + table_name;
  }
  return slot.get();
}

Result<TableInfo*> ServingSession::GetTable(const std::string& name) {
  return catalog_->GetTable(name);
}

Status ServingSession::ApplyWrite(const std::string& table_name,
                                  std::vector<WriteOp> ops) {
  if (ops.empty()) return Status::OK();
  RELSERVE_ASSIGN_OR_RETURN(TableInfo* table,
                            catalog_->GetTable(table_name));
  // Check every op outside the commit lock, before any is logged: a
  // row the table would refuse must never reach the WAL, where a
  // commit record would make recovery replay it. Rows are serialized
  // only for the log.
  std::vector<std::string> row_bytes(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const WriteOp& op = ops[i];
    if (op.kind != WriteOp::Kind::kInsert && op.ordinal < 0) {
      return Status::InvalidArgument(
          "update/delete needs a row ordinal");
    }
    if (op.kind != WriteOp::Kind::kDelete) {
      RELSERVE_RETURN_NOT_OK(table->columnar->CheckRow(op.row));
      if (wal_ != nullptr) op.row.SerializeTo(&row_bytes[i]);
    }
  }

  std::lock_guard<std::mutex> commit(commit_mu_);
  if (!config_.wal_dir.empty() && !wal_status_.ok()) {
    // The configured WAL never opened/recovered: refuse rather than
    // apply a write that would not survive a crash.
    return wal_status_;
  }
  const uint64_t txn = next_txn_++;

  // 1. Log every op, then the commit record, then wait for
  //    durability. Any failure here returns before a single storage
  //    mutation: recovery sees an uncommitted (or absent) transaction
  //    and drops it — no torn writes, no phantom rows.
  uint64_t last_lsn = 0;
  if (wal_ != nullptr) {
    for (size_t i = 0; i < ops.size(); ++i) {
      const WriteOp& op = ops[i];
      WalRecord rec;
      rec.txn_id = txn;
      rec.table = table_name;
      switch (op.kind) {
        case WriteOp::Kind::kInsert:
          rec.type = WalRecord::Type::kInsert;
          rec.row_bytes = row_bytes[i];
          break;
        case WriteOp::Kind::kUpdate:
          rec.type = WalRecord::Type::kUpdate;
          rec.ordinal = op.ordinal;
          rec.row_bytes = row_bytes[i];
          break;
        case WriteOp::Kind::kDelete:
          rec.type = WalRecord::Type::kDelete;
          rec.ordinal = op.ordinal;
          break;
      }
      RELSERVE_ASSIGN_OR_RETURN(last_lsn, wal_->Append(rec));
    }
  }
  const Version v = clock_.Allocate();
  if (wal_ != nullptr) {
    WalRecord commit_rec;
    commit_rec.type = WalRecord::Type::kCommit;
    commit_rec.txn_id = txn;
    commit_rec.table = table_name;
    commit_rec.commit_version = v;
    commit_rec.op_count = static_cast<uint32_t>(ops.size());
    RELSERVE_ASSIGN_OR_RETURN(last_lsn, wal_->Append(commit_rec));
    RELSERVE_RETURN_NOT_OK(wal_->WaitDurable(last_lsn));
  }

  // 2. Apply. The version is not yet published, so rows landing here
  //    carry begin = v > every pinned snapshot — concurrent readers
  //    cannot observe a partially applied transaction.
  VisibilityMap* vis = table->visibility.get();
  for (size_t i = 0; i < ops.size(); ++i) {
    const WriteOp& op = ops[i];
    if (op.kind != WriteOp::Kind::kInsert) {
      RELSERVE_RETURN_NOT_OK(vis->MarkDeleted(op.ordinal, v));
    }
    if (op.kind != WriteOp::Kind::kDelete) {
      // Interval first, bytes second: an untracked ordinal defaults
      // to always-visible, so registering [v, inf) before the row
      // physically exists is what keeps a reader pinned below v from
      // glimpsing it mid-append. (A storage failure past this point
      // leaves memory behind the durable log either way — the commit
      // is already on disk.)
      vis->PadTo(table->columnar->num_rows());
      vis->AppendRow(v);
      RELSERVE_RETURN_NOT_OK(table->columnar->AppendRow(op.row));
    }
  }

  // 3. Publish, then fence the caches serving this table. A cached
  //    entry stamped with a snapshot < v can no longer hit.
  clock_.Publish(v);
  InvalidateCachesForTable(table_name, v);
  return Status::OK();
}

Status ServingSession::IngestRows(const std::string& table_name,
                                  const std::vector<Row>& rows) {
  std::vector<WriteOp> ops;
  ops.reserve(rows.size());
  for (const Row& row : rows) {
    WriteOp op;
    op.kind = WriteOp::Kind::kInsert;
    op.row = row;
    ops.push_back(std::move(op));
  }
  return ApplyWrite(table_name, std::move(ops));
}

Status ServingSession::BindCacheToTable(const std::string& model_name,
                                        const std::string& table_name) {
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  if (models_.count(model_name) == 0) {
    return Status::NotFound("model '" + model_name + "'");
  }
  std::vector<std::string>& bound = cache_bindings_[table_name];
  if (std::find(bound.begin(), bound.end(), model_name) ==
      bound.end()) {
    bound.push_back(model_name);
  }
  return Status::OK();
}

void ServingSession::InvalidateCachesForTable(
    const std::string& table_name, Version version) {
  std::vector<std::shared_ptr<ApproxResultCache>> approx;
  std::vector<std::shared_ptr<ExactResultCache>> exact;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = cache_bindings_.find(table_name);
    if (it == cache_bindings_.end()) return;
    for (const std::string& model : it->second) {
      auto a = caches_.find(model);
      if (a != caches_.end()) approx.push_back(a->second);
      auto e = exact_caches_.find(model);
      if (e != exact_caches_.end()) exact.push_back(e->second);
    }
  }
  for (auto& cache : approx) cache->Invalidate(version);
  for (auto& cache : exact) cache->Invalidate(version);
}

Status ServingSession::RegisterModel(Model model, OptimizerTuning tuning) {
  const std::string name = model.name();
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  if (models_.count(name) > 0) {
    return Status::AlreadyExists("model '" + name + "'");
  }
  models_.emplace(name, RegisteredModel{std::move(model), tuning});
  return Status::OK();
}

Result<const ServingSession::RegisteredModel*> ServingSession::FindModel(
    const std::string& name) const {
  // The lock only orders the map lookup against concurrent
  // RegisterModel insertions.
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + name + "'");
  }
  return &it->second;
}

Result<const Model*> ServingSession::GetModel(
    const std::string& name) const {
  RELSERVE_ASSIGN_OR_RETURN(const RegisteredModel* entry, FindModel(name));
  return &entry->model;
}

Result<InferencePlan> ServingSession::BuildPlan(const RegisteredModel& entry,
                                                ServingMode mode,
                                                int64_t batch_size) const {
  InferencePlan plan;
  if (mode == ServingMode::kAdaptive) {
    RuleBasedOptimizer optimizer(config_.memory_threshold_bytes);
    RELSERVE_ASSIGN_OR_RETURN(plan,
                              optimizer.Optimize(entry.model, batch_size));
  } else {
    plan = MakeForcedPlan(
        entry.model,
        mode == ServingMode::kForceUdf ? Repr::kUdf : Repr::kRelational,
        batch_size);
  }
  RELSERVE_RETURN_NOT_OK(AssignKernelArms(entry.model, entry.tuning, &plan));
  return plan;
}

Result<InferencePlan> ServingSession::Plan(const std::string& model_name,
                                           ServingMode mode,
                                           int64_t batch_size) const {
  RELSERVE_ASSIGN_OR_RETURN(const RegisteredModel* entry,
                            FindModel(model_name));
  return BuildPlan(*entry, mode, batch_size);
}

Result<std::shared_ptr<const PhysicalPlan>> ServingSession::CompilePlan(
    const RegisteredModel& entry, ServingMode mode, int64_t batch_size,
    PlanVariants* variants) {
  RELSERVE_ASSIGN_OR_RETURN(InferencePlan logical,
                            BuildPlan(entry, mode, batch_size));
  std::shared_ptr<const PhysicalPlan>* slot = nullptr;
  if (variants != nullptr) {
    slot = &(*variants)[PlanSignature(logical)];
    if (*slot != nullptr) return *slot;
  }
  RELSERVE_ASSIGN_OR_RETURN(
      std::shared_ptr<const PhysicalPlan> plan,
      PhysicalPlan::Compile(&entry.model, std::move(logical), &ctx_));
  if (slot != nullptr) *slot = plan;
  return plan;
}

Result<const InferencePlan*> ServingSession::Deploy(
    const std::string& model_name, ServingMode mode,
    int64_t batch_size) {
  RELSERVE_ASSIGN_OR_RETURN(const RegisteredModel* entry,
                            FindModel(model_name));
  // Compile outside the registry lock, then swap atomically: queries
  // in flight keep serving the old plan (their shared_ptr holds it
  // and its arena charge alive) and never observe a window with no
  // plan at all. The old plan's weights leave the arena when the
  // last in-flight query drops its reference.
  RELSERVE_ASSIGN_OR_RETURN(std::shared_ptr<const PhysicalPlan> plan,
                            CompilePlan(*entry, mode, batch_size));
  const InferencePlan* installed_plan = &plan->logical_plan();
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    deployments_[model_name].deployed = std::move(plan);
  }
  return installed_plan;
}

Status ServingSession::Undeploy(const std::string& model_name) {
  DeployedPlans dropped;
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    const auto it = deployments_.find(model_name);
    if (it == deployments_.end()) {
      return Status::NotFound("model '" + model_name +
                              "' has no deployment");
    }
    dropped = std::move(it->second);
    deployments_.erase(it);
  }
  // `dropped` destructs outside the lock: queries that resolved their
  // plan before the erase finish on their pinned shared_ptr; anything
  // resolving after gets a typed NotFound.
  return Status::OK();
}

Result<int> ServingSession::DeployAot(
    const std::string& model_name,
    const std::vector<int64_t>& batch_sizes) {
  RELSERVE_ASSIGN_OR_RETURN(const RegisteredModel* entry,
                            FindModel(model_name));
  if (batch_sizes.empty()) {
    return Status::InvalidArgument("no batch sizes to compile for");
  }
  // Compile the variants outside the registry lock; in-flight queries
  // keep serving the old generation until the swap below.
  PlanVariants variants;
  for (const int64_t batch : batch_sizes) {
    RELSERVE_RETURN_NOT_OK(
        CompilePlan(*entry, ServingMode::kAdaptive, batch, &variants)
            .status());
  }
  const int compiled = static_cast<int>(variants.size());
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    deployments_[model_name].aot = std::move(variants);
  }
  return compiled;
}

Result<std::shared_ptr<const PhysicalPlan>>
ServingSession::DeployedPhysicalPlan(const std::string& model_name) {
  return GetDeployment(model_name);
}

std::vector<ServingSession::DeployedModelInfo>
ServingSession::ListDeployedModels() const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  std::vector<DeployedModelInfo> out;
  out.reserve(deployments_.size());
  for (const auto& [name, plans] : deployments_) {
    // Each compiled plan (the Deploy()-ed one and every AoT variant)
    // binds its own weight set.
    DeployedModelInfo info;
    info.name = name;
    auto fold = [&info](const PhysicalPlan& plan) {
      info.num_plans += 1;
      const WeightFootprint& fp = plan.weight_footprint();
      info.logical_weight_bytes += fp.logical_bytes;
      info.physical_weight_bytes += fp.physical_bytes;
      info.shared_blocks += fp.shared_blocks;
      info.total_blocks += fp.total_blocks;
    };
    if (plans.deployed != nullptr) fold(*plans.deployed);
    for (const auto& [signature, plan] : plans.aot) fold(*plan);
    out.push_back(std::move(info));
  }
  return out;
}

Result<std::shared_ptr<const PhysicalPlan>> ServingSession::GetDeployment(
    const std::string& model_name, int64_t batch_size) {
  // Runtime plan selection among the AoT-compiled variants: cheap
  // re-optimization yields the signature; the matching compiled plan
  // is reused without re-chunking any weights. The whole resolution
  // runs under the shared registry lock (the optimizer pass touches
  // no registry state), and the returned shared_ptr pins the chosen
  // plan across the caller's execution.
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  const auto it = deployments_.find(model_name);
  if (it == deployments_.end()) {
    return Status::NotFound("model '" + model_name +
                            "' is not deployed");
  }
  const DeployedPlans& plans = it->second;
  if (batch_size >= 0 && !plans.aot.empty()) {
    auto model = models_.find(model_name);
    if (model != models_.end()) {
      auto logical = BuildPlan(model->second, ServingMode::kAdaptive,
                               batch_size);
      if (logical.ok()) {
        auto variant = plans.aot.find(PlanSignature(*logical));
        if (variant != plans.aot.end()) return variant->second;
      }
    }
  }
  if (plans.deployed == nullptr) {
    return Status::NotFound(
        "no AoT plan variant matches batch " +
        std::to_string(batch_size) + " for model '" + model_name +
        "' and the model has no default deployment");
  }
  return plans.deployed;
}

Result<ExecOutput> ServingSession::Predict(
    const std::string& model_name, const std::string& table_name,
    const std::string& feature_col) {
  return PredictAtSnapshot(model_name, table_name, feature_col,
                           PinSnapshot());
}

Result<ExecOutput> ServingSession::PredictAtSnapshot(
    const std::string& model_name, const std::string& table_name,
    const std::string& feature_col, Version snapshot) {
  RELSERVE_ASSIGN_OR_RETURN(TableInfo* table,
                            catalog_->GetTable(table_name));
  RELSERVE_ASSIGN_OR_RETURN(int col,
                            table->schema.FieldIndex(feature_col));
  // Scan only the feature column (fragment-parallel). The rows visible
  // at the pinned snapshot are the model's batch; rows a concurrent
  // commit appends carry begin versions beyond `snapshot`.
  ColumnarScanOptions opts;
  opts.projection = {col};
  opts.snapshot = snapshot;
  RELSERVE_ASSIGN_OR_RETURN(ColumnarScanOutput scanned,
                            ScanColumnar(*table, opts));
  if (scanned.rows_emitted == 0) {
    return Status::InvalidArgument("empty table");
  }
  return Execute(model_name, {.scanned = &scanned, .table = table_name});
}

Result<ColumnarScanOutput> ServingSession::ScanColumnar(
    const TableInfo& table, ColumnarScanOptions opts) {
  opts.pool = pool_.get();
  opts.visibility = table.visibility.get();
  RELSERVE_ASSIGN_OR_RETURN(ColumnarScanOutput scanned,
                            ColumnarScan(*table.columnar, opts));
  ColumnarStages(table.name)
      ->scan.stats.Record(scanned.nanos, scanned.rows_scanned,
                          scanned.bytes_scanned);
  return scanned;
}

Result<ExecOutput> ServingSession::Execute(const std::string& model_name,
                                           const FeatureSource& source) {
  int64_t n = 0;
  if (source.dense != nullptr) {
    if (source.dense->shape().ndim() < 1) {
      return Status::InvalidArgument("input must have a batch dimension");
    }
    n = source.dense->shape().dim(0);
  } else if (source.scanned != nullptr) {
    n = source.scanned->rows_emitted;
  } else {
    return Status::InvalidArgument("feature source has no rows");
  }
  RELSERVE_ASSIGN_OR_RETURN(std::shared_ptr<const PhysicalPlan> plan,
                            GetDeployment(model_name, n));
  const Shape& sample = plan->model().sample_shape();
  const int64_t width = sample.NumElements();

  // Hands all n feature rows of the scan, checked, to `sink` in whole
  // chunks, charged to the table's gather stage.
  auto feed = [&](const FeatureSink& sink) -> Status {
    return GatherColumnar(
        ColumnarStages(source.table)->gather, source.scanned->batches,
        source.column, width,
        source.scanned->schema.column(source.column).name, sink);
  };

  Tensor input;
  if (source.dense != nullptr) {
    input = *source.dense;
  } else if (plan->logical_plan().decisions[0].repr == Repr::kRelational) {
    // The batch never exists whole: rows go straight into a block
    // relation through a one-strip staging buffer.
    RELSERVE_ASSIGN_OR_RETURN(
        blockops::MatrixStreamWriter writer,
        blockops::MatrixStreamWriter::Create(n, width, &ctx_));
    RELSERVE_RETURN_NOT_OK(
        feed([&writer, width](const float* rows, int64_t count) {
          for (int64_t r = 0; r < count; ++r) {
            RELSERVE_RETURN_NOT_OK(writer.AppendRow(rows + r * width));
          }
          return Status::OK();
        }));
    RELSERVE_ASSIGN_OR_RETURN(std::unique_ptr<BlockStore> store,
                              writer.Finish());
    return HybridExecutor::RunOnStore(*plan, std::move(store), &ctx_);
  } else {
    // Whole-batch path: materialize [n, width] in the working arena.
    RELSERVE_ASSIGN_OR_RETURN(
        input, Tensor::Create(Shape{n, width}, &working_memory_));
    float* dst = input.data();
    RELSERVE_RETURN_NOT_OK(
        feed([&dst, width](const float* rows, int64_t count) {
          std::memcpy(dst, rows, count * width * sizeof(float));
          dst += count * width;
          return Status::OK();
        }));
  }
  // The model's sample shape; an input of any other width fails here.
  std::vector<int64_t> dims = {n};
  dims.insert(dims.end(), sample.dims().begin(), sample.dims().end());
  RELSERVE_ASSIGN_OR_RETURN(input, input.Reshape(Shape(std::move(dims))));
  return HybridExecutor::Run(*plan, input, &ctx_);
}

Result<ExecOutput> ServingSession::PredictBatch(
    const std::string& model_name, const Tensor& input) {
  return Execute(model_name, {.dense = &input});
}

Status ServingSession::OffloadModel(const std::string& model_name,
                                    ExternalRuntime* runtime) {
  RELSERVE_ASSIGN_OR_RETURN(const Model* model, GetModel(model_name));
  RELSERVE_RETURN_NOT_OK(runtime->RegisterModel(model));
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  offloaded_[model_name] = runtime;
  return Status::OK();
}

Result<Tensor> ServingSession::PredictViaRuntime(
    const std::string& model_name, const std::string& table_name,
    const std::string& feature_col) {
  ExternalRuntime* runtime = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = offloaded_.find(model_name);
    if (it == offloaded_.end()) {
      return Status::NotFound("model '" + model_name +
                              "' is not offloaded to a runtime");
    }
    runtime = it->second;
  }
  RELSERVE_ASSIGN_OR_RETURN(TableInfo* table,
                            catalog_->GetTable(table_name));
  RELSERVE_ASSIGN_OR_RETURN(int col,
                            table->schema.FieldIndex(feature_col));

  // Export: scan -> wire encoding -> copy across the system boundary.
  // The scan reads one pinned snapshot, like Predict.
  ColumnarRowScan scan(table->columnar.get());
  scan.set_visibility(table->visibility.get(), PinSnapshot());
  RELSERVE_ASSIGN_OR_RETURN(std::string encoded,
                            Connector::EncodeFeatureStream(&scan, col));
  // Both hops pay the simulated link (TransferLink's defaults).
  const std::string request = Connector::Transmit(encoded, TransferLink{});
  RELSERVE_ASSIGN_OR_RETURN(std::string response,
                            runtime->Infer(model_name, request));
  // Import: copy back -> decode into database memory.
  const std::string imported = Connector::Transmit(response, TransferLink{});
  return Connector::DecodeTensor(imported, &working_memory_);
}

Status ServingSession::EnableApproxCache(
    const std::string& model_name, int64_t dim,
    ApproxResultCache::Config config) {
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  auto it = models_.find(model_name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + model_name + "'");
  }
  // The cache keys on whole request rows: any other width would abort
  // in the index, truncate in the narrowing below, or miss on every
  // lookup and then fail every insert.
  const int64_t width = it->second.model.sample_shape().NumElements();
  if (dim != width) {
    return Status::InvalidArgument(
        "approx cache dim " + std::to_string(dim) + " != model '" +
        model_name + "' sample width " + std::to_string(width));
  }
  caches_[model_name] = std::make_shared<ApproxResultCache>(
      static_cast<int>(dim), config);
  return Status::OK();
}

Result<ApproxResultCache*> ServingSession::GetApproxCache(
    const std::string& model_name) {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = caches_.find(model_name);
  if (it == caches_.end()) {
    return Status::NotFound("no cache for model '" + model_name + "'");
  }
  return it->second.get();
}

Status ServingSession::EnableExactCache(const std::string& model_name) {
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  if (models_.count(model_name) == 0) {
    return Status::NotFound("model '" + model_name + "'");
  }
  exact_caches_[model_name] = std::make_shared<ExactResultCache>();
  return Status::OK();
}

Result<ExactResultCache*> ServingSession::GetExactCache(
    const std::string& model_name) {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = exact_caches_.find(model_name);
  if (it == exact_caches_.end()) {
    return Status::NotFound("no exact cache for model '" + model_name +
                            "'");
  }
  return it->second.get();
}

Result<Tensor> ServingSession::PredictWithCache(
    const std::string& model_name, const Tensor& input) {
  // Pin the snapshot before any lookup: entries inserted below are
  // stamped with it, so a commit that lands during this call (version
  // > snap) raises the fence above the stamp and the entry can never
  // serve a stale hit — the invalidation race is lost by construction.
  const Version snap = PinSnapshot();
  // Copy the shared_ptrs out so a concurrent Enable*Cache replacing a
  // tier cannot free it under this query; the caches themselves are
  // safe for concurrent Lookup/Insert.
  std::shared_ptr<ApproxResultCache> approx;
  std::shared_ptr<ExactResultCache> exact;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto approx_it = caches_.find(model_name);
    if (approx_it != caches_.end()) approx = approx_it->second;
    auto exact_it = exact_caches_.find(model_name);
    if (exact_it != exact_caches_.end()) exact = exact_it->second;
  }
  if (approx == nullptr && exact == nullptr) {
    return Status::NotFound("no cache enabled for model '" +
                            model_name + "'");
  }
  if (input.shape().ndim() != 2) {
    return Status::InvalidArgument(
        "PredictWithCache expects [batch, features]");
  }
  const int64_t n = input.shape().dim(0);
  const int64_t width = input.shape().dim(1);

  std::vector<int64_t> miss_rows;
  std::vector<std::vector<float>> hits(n);
  std::vector<bool> hit_mask(n, false);
  for (int64_t r = 0; r < n; ++r) {
    std::vector<float> features(input.data() + r * width,
                                input.data() + (r + 1) * width);
    if (failpoint::AnyActive() &&
        !failpoint::InjectedStatus("cache.lookup").ok()) {
      // Graceful degradation: a failed cache tier is treated as a
      // miss and the row takes the full inference path. The cache is
      // an accelerator, never a correctness dependency — its failure
      // costs latency, not availability.
      miss_rows.push_back(r);
      continue;
    }
    // Exact tier first (free of accuracy cost), then approximate.
    std::optional<std::vector<float>> cached;
    if (exact != nullptr) cached = exact->Lookup(features);
    if (!cached.has_value() && approx != nullptr) {
      cached = approx->Lookup(features);
    }
    if (cached.has_value()) {
      hits[r] = std::move(*cached);
      hit_mask[r] = true;
    } else {
      miss_rows.push_back(r);
    }
  }

  int64_t out_width = -1;
  Tensor miss_output;
  // An empty batch runs the model too, exactly like PredictBatch: no
  // hit holds the output width.
  if (!miss_rows.empty() || n == 0) {
    RELSERVE_ASSIGN_OR_RETURN(
        Tensor misses,
        Tensor::Create(
            Shape{static_cast<int64_t>(miss_rows.size()), width},
            &working_memory_));
    for (size_t i = 0; i < miss_rows.size(); ++i) {
      std::memcpy(misses.data() + i * width,
                  input.data() + miss_rows[i] * width,
                  width * sizeof(float));
    }
    RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                              Execute(model_name, {.dense = &misses}));
    RELSERVE_ASSIGN_OR_RETURN(miss_output, out.ToTensor(&ctx_));
    out_width = miss_output.shape().dim(1);
    // Populate every enabled tier with the fresh predictions.
    for (size_t i = 0; i < miss_rows.size(); ++i) {
      std::vector<float> features(
          input.data() + miss_rows[i] * width,
          input.data() + (miss_rows[i] + 1) * width);
      std::vector<float> prediction(
          miss_output.data() + i * out_width,
          miss_output.data() + (i + 1) * out_width);
      if (exact != nullptr) exact->Insert(features, prediction, snap);
      if (approx != nullptr) {
        RELSERVE_RETURN_NOT_OK(
            approx->Insert(features, std::move(prediction), snap));
      }
    }
  } else {
    out_width = static_cast<int64_t>(hits[0].size());
  }

  RELSERVE_ASSIGN_OR_RETURN(
      Tensor output,
      Tensor::Create(Shape{n, out_width}, &working_memory_));
  size_t miss_cursor = 0;
  for (int64_t r = 0; r < n; ++r) {
    if (hit_mask[r]) {
      std::memcpy(output.data() + r * out_width, hits[r].data(),
                  out_width * sizeof(float));
    } else {
      std::memcpy(output.data() + r * out_width,
                  miss_output.data() + miss_cursor * out_width,
                  out_width * sizeof(float));
      ++miss_cursor;
    }
  }
  return output;
}

}  // namespace relserve
