#pragma once

// The one rendezvous of a rank group (DESIGN.md §12). One GroupState
// lives inside each ProcessGroup and every collective meets here: the
// gradient buckets post non-blocking mean rounds as their gradients
// become ready, and each blocking Communicator call posts one round on
// a reserved slot and waits for it. The last-arriving rank launches the
// reduction on the shared thread pool; every rank later waits for it.
//
// Slots are matched by id, not call order: ranks may post bucket 3
// before bucket 1 without deadlocking, which is exactly what happens
// when autograd readiness order differs per rank.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <string>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/parallel/thread_pool.hpp"

namespace matsci::comm::coll {

/// What a round writes into every rank's buffer, per element. kMean,
/// kSum: a double sum in ascending rank order, one float cast (kMean
/// then scales by 1/world in float). kMax: the largest contribution,
/// NaN contributions dropped. kCopy: the root's buffer (broadcast).
enum class ReduceOp : std::uint8_t { kMean, kSum, kMax, kCopy };

/// Completion record returned by wait(): how long the pool task spent
/// reducing, and when it finished — the inputs to the per-step overlap
/// accounting in BucketAllreduce.
struct WaitInfo {
  double reduce_us = 0.0;
  std::chrono::steady_clock::time_point done_at{};
};

/// Match-based collective slots for one rank group. Thread-safe. The
/// first arrival fixes a round's size, op and root; a peer that posts
/// otherwise poisons the slot, so this round and every later use of the
/// slot id throw on every rank instead of deadlocking. Each rank pairs
/// every post() with exactly one wait() before reusing the slot id.
class GroupState {
 public:
  explicit GroupState(std::int64_t world_size);
  /// Drives any still-launched reduction to completion so no pool task
  /// outlives the state it captures.
  ~GroupState();
  GroupState(const GroupState&) = delete;
  GroupState& operator=(const GroupState&) = delete;

  std::int64_t world_size() const { return world_; }

  /// Post this rank's contribution for `slot_id`. When the last rank
  /// arrives the reduction is submitted to the shared thread pool. The
  /// buffer must stay alive and untouched until the matching wait()
  /// returns (or abandon() is called during unwind).
  void post(std::int64_t slot_id, std::int64_t rank, std::span<float> data,
            ReduceOp op, std::int64_t root = 0);

  /// Block until `slot_id`'s reduction completes; afterwards this
  /// rank's posted buffer holds the result. Helps execute the reduction
  /// inline when the pool has not picked it up yet.
  WaitInfo wait(std::int64_t slot_id, std::int64_t rank);

  /// Mark the group failed: wakes every waiter of an unlaunched round
  /// (they throw RankFailedError) and prevents new reductions from
  /// launching.
  void notify_failure();

  /// Unwind path for a rank abandoning its posted contributions (its
  /// engine is being destroyed mid-round, typically during exception
  /// unwind). Guarantees no reduction will ever read this rank's
  /// buffers again: launched reductions are driven to completion
  /// inline, unlaunched contributions are withdrawn (so a late-arriving
  /// peer cannot trigger a reduce over a freed buffer — it blocks until
  /// the group is marked failed and then throws). Must be called before
  /// the rank frees its bucket buffers.
  void abandon(std::int64_t rank);

 private:
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<float*> bufs;  ///< per-rank contribution, this round
    std::size_t size = 0;      ///< floats per contribution, this round
    ReduceOp op = ReduceOp::kMean;
    std::int64_t root = 0;
    std::int64_t arrived = 0;
    std::int64_t departed = 0;
    bool done = false;
    bool poisoned = false;     ///< contract violation (mismatched round)
    std::string poison_msg;
    double reduce_us = 0.0;
    std::chrono::steady_clock::time_point done_at{};
    core::parallel::TaskHandle task;
  };

  Slot& slot(std::int64_t id);
  void reduce(Slot& s);

  std::int64_t world_;
  std::atomic<bool> failed_{false};
  mutable std::mutex map_mu_;
  std::unordered_map<std::int64_t, std::unique_ptr<Slot>> slots_;
};

}  // namespace matsci::comm::coll
