#pragma once

#include <cstdint>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/macros.hpp"

namespace matsci::comm {

namespace coll {
class GroupState;
struct WaitInfo;
enum class ReduceOp : std::uint8_t;
}  // namespace coll

/// Thrown by collectives on the *surviving* ranks when a peer has been
/// marked failed: the collective can never complete, so instead of
/// deadlocking at the barrier every waiter unblocks with this error.
/// Elastic DDP catches it and rebuilds a resized group; non-elastic
/// callers see it propagate out of run_ranks.
class RankFailedError : public matsci::Error {
 public:
  explicit RankFailedError(const std::string& what) : Error(what) {}
};

/// Thrown on the rank being killed by the fault-injection hook (the
/// simulated process death). run_ranks treats it as an expected death:
/// it is reported, not rethrown.
class RankKilledError : public matsci::Error {
 public:
  explicit RankKilledError(const std::string& what) : Error(what) {}
};

/// Shared state for a group of communicating ranks. The toolkit's DDP
/// substitutes threads for MPI processes (DESIGN.md §2): the collective
/// semantics — synchronous allreduce at the gradient-averaging step,
/// broadcast from a root, barriers — match MPI/oneCCL exactly, so the
/// training code is structured the same way as the paper's.
///
/// Every collective, blocking or bucketed, meets in the group's one
/// coll::GroupState. Failure model (DESIGN.md §12): any rank can be
/// marked failed (fault injection or an escaped exception); the
/// rendezvous wakes the survivors so they throw RankFailedError instead
/// of hanging, and rebuild_survivors() lets them agree on a fresh,
/// densely re-ranked group.
class ProcessGroup {
 public:
  /// Returns true to kill this rank at this collective entry (the
  /// rank's `collective_calls` counter starts at 1). Applies only to
  /// the group it is installed on — rebuilt survivor groups do not
  /// inherit it, so an injected fault fires at most one incarnation.
  using FaultHook =
      std::function<bool(std::int64_t rank, std::int64_t collective_calls)>;

  explicit ProcessGroup(std::int64_t world_size);
  ~ProcessGroup();
  std::int64_t world_size() const { return world_size_; }

  /// Install the fault-injection hook. Must happen before rank threads
  /// start issuing collectives (run_ranks does it before spawning).
  void set_fault_hook(FaultHook hook);

  /// Mark `rank` dead: wakes every blocked collective so survivors
  /// throw RankFailedError. Idempotent.
  void mark_failed(std::int64_t rank);
  bool has_failures() const;
  std::vector<std::int64_t> failed_ranks() const;

  /// The collective rendezvous every Communicator call meets in
  /// (created eagerly).
  coll::GroupState& coll_state() { return *coll_; }

  struct Rebuilt {
    std::shared_ptr<ProcessGroup> group;
    std::int64_t rank = 0;  ///< dense new rank of the caller
  };
  /// Survivor rendezvous after a failure: blocks until every live rank
  /// arrives, then all agree on one fresh ProcessGroup of size
  /// world - failed, with new ranks assigned by ascending old rank.
  /// Call once per surviving rank per group.
  Rebuilt rebuild_survivors(std::int64_t old_rank);

 private:
  friend class Communicator;

  void throw_failed_locked() const;

  std::int64_t world_size_;
  // Guards failure marking, the fault hook and the survivor rebuild;
  // no collective waits on cv_.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<bool> failed_;
  std::int64_t failed_count_ = 0;
  FaultHook fault_hook_;

  // Survivor-rebuild rendezvous (guarded by mu_).
  std::vector<std::int64_t> rebuild_waiters_;
  std::shared_ptr<ProcessGroup> rebuilt_;
  std::vector<std::int64_t> rebuilt_members_;

  std::unique_ptr<coll::GroupState> coll_;
};

/// Per-rank handle onto a ProcessGroup. All ranks must call the same
/// blocking collectives in the same order (standard MPI contract); each
/// call is one round on a reserved GroupState slot whose size, op and
/// root are checked across ranks, so a mismatch throws on every rank
/// instead of deadlocking.
class Communicator {
 public:
  Communicator(std::shared_ptr<ProcessGroup> group, std::int64_t rank);

  std::int64_t rank() const { return rank_; }
  std::int64_t world_size() const { return group_->world_size(); }
  const std::shared_ptr<ProcessGroup>& group() const { return group_; }

  /// A zero-length allreduce_sum round.
  void barrier();

  /// In-place sum across ranks (all ranks end with the identical total,
  /// accumulated in double precision for rank-count independence).
  void allreduce_sum(std::span<float> data);

  /// In-place element-wise max across ranks; NaN contributions are
  /// dropped (see the scalar forms below).
  void allreduce_max(std::span<float> data);

  /// In-place broadcast of root's buffer to every rank.
  void broadcast(std::span<float> data, std::int64_t root);

  /// Scalar convenience forms. NaN caveat: sum propagates NaN to every
  /// rank, but max silently drops NaN contributions (std::max
  /// comparison semantics) — callers needing NaN detection must reduce
  /// an is-finite indicator with sum, which is what the health monitor
  /// does.
  double allreduce_scalar_sum(double value);
  double allreduce_scalar_max(double value);

  /// Non-blocking entry points for the bucketed-collective subsystem
  /// (comm/coll): post this rank's contribution for logical slot
  /// `slot` (>= 0; the blocking calls own a reserved id) and return
  /// immediately; the mean-reduction runs on the shared thread pool
  /// once the last rank posts. Slots are matched by id (not call
  /// order), so ranks may post buckets in different orders. The buffer
  /// must stay alive until wait_allreduce returns.
  void allreduce_mean_nb(std::int64_t slot, std::span<float> data);
  coll::WaitInfo wait_allreduce(std::int64_t slot);

  /// Collectives issued by this rank (fault-injection hook input).
  std::int64_t collective_calls() const { return collective_calls_; }

 private:
  /// Per-collective prologue: bumps the call counter, fires the fault
  /// hook, and fails fast when the group already has dead ranks.
  void collective_entry(const char* what);

  /// One blocking round: post `data` on the reserved slot and wait
  /// for the result.
  void meet(std::span<float> data, coll::ReduceOp op, std::int64_t root);

  std::shared_ptr<ProcessGroup> group_;
  std::int64_t rank_;
  std::int64_t collective_calls_ = 0;
};

struct RunRanksOptions {
  /// Fault-injection hook installed on the initial group (see
  /// ProcessGroup::FaultHook).
  ProcessGroup::FaultHook fault_hook;
};

struct RunRanksReport {
  /// Ranks that died to the injected fault (original-group numbering).
  std::vector<std::int64_t> killed_ranks;
};

/// Launch `world_size` rank threads, each receiving its Communicator,
/// and join them. A rank killed by fault injection (RankKilledError) is
/// recorded in the report, marked failed on the group, and NOT
/// rethrown; any other escaped exception also marks its rank failed (so
/// surviving ranks unblock instead of deadlocking) and is rethrown
/// after all threads joined — real errors first, secondary
/// RankFailedError fallout only when nothing else was thrown.
RunRanksReport run_ranks(std::int64_t world_size,
                         const std::function<void(Communicator&)>& rank_fn,
                         const RunRanksOptions& opts);
void run_ranks(std::int64_t world_size,
               const std::function<void(Communicator&)>& rank_fn);

}  // namespace matsci::comm
