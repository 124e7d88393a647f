#pragma once

// Overlapped, optionally compressed gradient allreduce (DESIGN.md §12).
// One engine per rank per ProcessGroup incarnation: begin_step() arms
// the step, autograd's GradReadyHook feeds on_grad_ready() as leaf
// gradients finalize (launching each bucket's non-blocking allreduce
// the moment its last member is ready), and finish_step() flushes
// stragglers, waits out every bucket, scatters the averaged gradients
// back, and reports the step's comm accounting.

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/coll/bucketer.hpp"
#include "comm/coll/compressor.hpp"
#include "comm/communicator.hpp"
#include "core/autograd.hpp"

namespace matsci::comm::coll {

/// Per-step communication accounting.
struct StepStats {
  std::int64_t buckets = 0;
  std::int64_t bytes = 0;             ///< fp32 payload posted (per rank)
  std::int64_t compressed_bytes = 0;  ///< simulated wire bytes (per rank)
  /// Fraction of bucket in-flight time hidden under the backward pass:
  /// sum over buckets of the in-flight interval clipped to backward,
  /// divided by total in-flight time. 0 when nothing overlapped (e.g.
  /// every bucket flushed at finish_step), > 0 whenever a bucket's
  /// reduction completed while backward was still running.
  double overlap_fraction = 0.0;
  double reduce_us = 0.0;        ///< summed pool-side reduction time
  double exposed_wait_us = 0.0;  ///< time blocked in wait after backward
};

/// Cumulative view across steps (what fig2_scaleout reports).
struct EngineTotals {
  std::int64_t steps = 0;
  std::int64_t bytes = 0;
  std::int64_t compressed_bytes = 0;
  double overlap_fraction_sum = 0.0;  ///< divide by steps for the mean
  double mean_overlap_fraction() const {
    return steps > 0 ? overlap_fraction_sum / static_cast<double>(steps) : 0.0;
  }
};

class BucketAllreduce {
 public:
  /// `params` is the model's registration-order parameter list; `comm`
  /// must outlive the engine. Slot ids are the engine's bucket indices,
  /// so at most one bucketed engine may be live per group at a time.
  BucketAllreduce(Communicator& comm, std::vector<core::Tensor> params,
                  const CollOptions& opts);

  /// Abandons any still-in-flight contributions (exception unwind) so
  /// no pool-side reduction can touch the freed bucket buffers.
  ~BucketAllreduce();

  BucketAllreduce(const BucketAllreduce&) = delete;
  BucketAllreduce& operator=(const BucketAllreduce&) = delete;

  /// Arm the next step. Call after zero_grad, before backward.
  void begin_step();

  /// Autograd readiness callback: when `leaf` is the last pending
  /// member of its bucket, the bucket is flattened, (error-feedback)
  /// compressed, and posted for reduction — all on the caller's thread,
  /// with the reduction itself running on the shared pool.
  void on_grad_ready(const std::shared_ptr<core::TensorImpl>& leaf);

  /// Convenience adapter for GradReadyHookGuard.
  core::GradReadyHook hook();

  /// Flush buckets whose params backward never reached, wait for every
  /// reduction, scatter averaged gradients back into param .grad
  /// buffers, and return the step's accounting.
  StepStats finish_step();

  const GradBucketer& bucketer() const { return bucketer_; }
  const EngineTotals& totals() const { return totals_; }

 private:
  void launch(std::size_t bucket);

  Communicator& comm_;
  GradBucketer bucketer_;
  CollOptions opts_;
  std::unique_ptr<Compressor> compressor_;

  struct BucketState {
    std::int64_t pending = 0;  ///< params not yet grad-ready this step
    bool launched = false;
    bool waited = false;
    std::chrono::steady_clock::time_point post_time{};
    core::memory::FloatStorage residual;  ///< error-feedback carry (lossy only)
  };
  std::vector<BucketState> state_;
  std::int64_t step_bytes_ = 0;
  std::int64_t step_compressed_bytes_ = 0;
  bool step_armed_ = false;
  EngineTotals totals_;
  std::int64_t step_index_ = 0;
};

}  // namespace matsci::comm::coll
