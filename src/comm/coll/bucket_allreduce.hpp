#pragma once

// Overlapped gradient allreduce (DESIGN.md §12). One engine per rank
// per ProcessGroup incarnation: begin_step() arms the step, autograd's
// GradReadyHook feeds on_grad_ready() as leaf gradients finalize
// (launching each bucket's non-blocking allreduce the moment its last
// member is ready), and finish_step() flushes stragglers, waits out
// every bucket, scatters the averaged gradients back, and accounts the
// step's bytes and overlap.

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/coll/bucketer.hpp"
#include "comm/communicator.hpp"
#include "core/autograd.hpp"

namespace matsci::comm::coll {

/// Cumulative view across steps (what DDPResult reports).
struct EngineTotals {
  std::int64_t steps = 0;
  std::int64_t bytes = 0;  ///< fp32 payload posted (per rank)
  /// Per step: the fraction of bucket in-flight time hidden under the
  /// backward pass — the in-flight interval clipped to backward, summed
  /// over buckets, over total in-flight time. 0 when every bucket
  /// flushed at finish_step. Divide by steps for the mean.
  double overlap_fraction_sum = 0.0;
  double mean_overlap_fraction() const {
    return steps > 0 ? overlap_fraction_sum / static_cast<double>(steps) : 0.0;
  }
};

class BucketAllreduce {
 public:
  /// `params` is the model's registration-order parameter list; `comm`
  /// must outlive the engine. Slot ids are the engine's bucket indices,
  /// so at most one bucketed engine may be live per group at a time.
  BucketAllreduce(Communicator& comm, std::vector<core::Tensor> params);

  /// Abandons any still-in-flight contributions (exception unwind) so
  /// no pool-side reduction can touch the freed bucket buffers.
  ~BucketAllreduce();

  BucketAllreduce(const BucketAllreduce&) = delete;
  BucketAllreduce& operator=(const BucketAllreduce&) = delete;

  /// Arm the next step. Call after zero_grad, before backward.
  void begin_step();

  /// Autograd readiness callback: when `leaf` is the last pending
  /// member of its bucket, the bucket is flattened and posted for
  /// reduction on the caller's thread, with the reduction itself
  /// running on the shared pool.
  void on_grad_ready(const std::shared_ptr<core::TensorImpl>& leaf);

  /// Convenience adapter for GradReadyHookGuard.
  core::GradReadyHook hook();

  /// Flush buckets whose params backward never reached, wait for every
  /// reduction, and scatter averaged gradients back into param .grad
  /// buffers.
  void finish_step();

  const GradBucketer& bucketer() const { return bucketer_; }
  const EngineTotals& totals() const { return totals_; }

 private:
  void launch(std::size_t bucket);

  Communicator& comm_;
  GradBucketer bucketer_;

  struct BucketState {
    std::int64_t pending = 0;  ///< params not yet grad-ready this step
    bool launched = false;
    bool waited = false;
    std::chrono::steady_clock::time_point post_time{};
  };
  std::vector<BucketState> state_;
  bool step_armed_ = false;
  EngineTotals totals_;
};

}  // namespace matsci::comm::coll
