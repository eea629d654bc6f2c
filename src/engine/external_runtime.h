// ExternalRuntime: the simulated decoupled DL framework of the
// DL-centric architecture (stands in for the paper's TensorFlow /
// PyTorch baselines).
//
// It is a separate "system" in the precise senses the evaluation
// cares about:
//  - it only accepts requests over the Connector wire format, so
//    every query pays encode + transmit + decode on both directions;
//  - it executes whole-tensor (no blocking, no spilling) against its
//    own bounded memory arena, so an operator that does not fit
//    returns OutOfMemory;
//  - registered models are resident in its arena, like a framework
//    that has loaded the model onto the device.
// The compute kernels are the same ones the in-database executors
// use, so latency differences between architectures reflect data
// movement and memory management, not kernel quality.

#ifndef RELSERVE_ENGINE_EXTERNAL_RUNTIME_H_
#define RELSERVE_ENGINE_EXTERNAL_RUNTIME_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/counter.h"
#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/physical_plan.h"
#include "graph/model.h"
#include "resource/memory_tracker.h"
#include "resource/thread_pool.h"

namespace relserve {

class ExternalRuntime {
 public:
  ExternalRuntime(std::string name, int64_t memory_limit_bytes,
                  ThreadPool* pool = nullptr);

  ExternalRuntime(const ExternalRuntime&) = delete;
  ExternalRuntime& operator=(const ExternalRuntime&) = delete;

  // Copies the model's weights into the runtime arena (may OOM).
  // `model` must outlive the runtime.
  Status RegisterModel(const Model* model);

  // One inference round trip: decode the feature stream, run the whole
  // model on whole tensors, encode the prediction tensor.
  // `request_bytes` must already be on the runtime side (see
  // Connector::Transmit).
  Result<std::string> Infer(const std::string& model_name,
                            const std::string& request_bytes);

  MemoryTracker* tracker() { return &tracker_; }

  // Concurrent Infer calls (one per ServingSession::PredictViaRuntime
  // caller) bump these unlocked.
  struct Stats {
    Counter requests;
    Counter bytes_received;
    Counter bytes_sent;
  };
  const Stats& stats() const { return stats_; }

 private:
  MemoryTracker tracker_;
  ThreadPool* pool_;
  // Whole-tensor execution context over the runtime arena (no buffer
  // pool: a DL framework has no disk spilling).
  ExecContext ctx_;
  // Model name -> its all-UDF plan (which knows its model).
  std::map<std::string, std::unique_ptr<PhysicalPlan>> models_;
  Stats stats_;
};

}  // namespace relserve

#endif  // RELSERVE_ENGINE_EXTERNAL_RUNTIME_H_
