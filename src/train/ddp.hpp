#pragma once

#include <memory>
#include <string>

#include "comm/communicator.hpp"
#include "train/trainer.hpp"

namespace matsci::train {

/// Everything one DDP rank needs. Built by a user factory per rank;
/// parameters are broadcast from rank 0 before training, so factories
/// need not produce bit-identical initializations.
struct RankContext {
  std::unique_ptr<tasks::Task> task;
  std::unique_ptr<optim::Optimizer> optimizer;
  std::unique_ptr<optim::LRScheduler> scheduler;  ///< optional
  std::unique_ptr<data::DataLoader> train_loader;
  std::unique_ptr<data::DataLoader> val_loader;  ///< used on rank 0 only
};

struct DDPOptions {
  std::int64_t world_size = 2;
  std::int64_t max_epochs = 1;
  double grad_clip = 0.0;
  bool verbose = false;
  /// Per-rank health monitoring. Local detection runs on post-allreduce
  /// gradients and the allreduced mean loss; per-rank grad norms are
  /// additionally reduced (min/mean/max + non-finite rank count) so the
  /// policy decision is identical on every rank — no rank is ever left
  /// waiting at a collective (lockstep invariant, obs/health.hpp).
  obs::health::HealthOptions health;
  /// Rank-0 anomaly callback (same semantics as Trainer's).
  Trainer::AnomalyCallback on_anomaly;
  /// Elastic recovery (DESIGN.md §12): when a rank dies mid-training,
  /// survivors rebuild a resized group, re-invoke the factory with
  /// their new (rank, world), resume from the last checkpoint in
  /// `checkpoint_dir`, and continue. Requires `checkpoint_dir`.
  bool elastic = false;
  std::string checkpoint_dir;
  /// Fault-injection hook installed on the initial group (tests /
  /// chaos drills); rebuilt survivor groups do not inherit it.
  comm::ProcessGroup::FaultHook fault_hook;
};

struct DDPResult {
  std::vector<EpochStats> epochs;  ///< rank-0 validation, mean train loss
  std::int64_t total_steps = 0;
  double total_samples = 0.0;  ///< across all ranks
  double wall_seconds = 0.0;
  /// Anomalies flagged on rank 0 (cross-rank stats are identical on all
  /// ranks, so rank 0's view is the global view).
  std::vector<obs::health::Anomaly> anomalies;
  /// Lockstep-skipped optimizer steps (counted once, not per rank).
  std::int64_t skipped_steps = 0;
  /// Elastic recovery accounting.
  std::int64_t recoveries = 0;             ///< group rebuilds performed
  std::vector<std::int64_t> lost_ranks;    ///< original-group numbering
  std::int64_t final_world = 0;            ///< world size at completion
  /// Gradient-allreduce accounting, rank 0's view of the incarnation
  /// that finished: one that lost a rank never reports, so after a
  /// recovery these cover the survivor group's steps only.
  std::int64_t comm_bytes = 0;         ///< fp32 payload posted
  double mean_overlap_fraction = 0.0;  ///< mean over steps
  double samples_per_second() const {
    return wall_seconds > 0.0 ? total_samples / wall_seconds : 0.0;
  }
};

/// Thread-backed synchronous data-parallel trainer (paper §4.2): each
/// rank owns a model replica and a disjoint data shard; gradients are
/// averaged with an allreduce every step, so all replicas stay identical.
/// The allreduce streams reverse-registration-order buckets out as
/// backward finalizes them (comm/coll, DESIGN.md §12). Functionally
/// equivalent to torch DDP over MPI ranks.
class DDPTrainer {
 public:
  using Factory =
      std::function<RankContext(std::int64_t rank, std::int64_t world_size)>;

  DDPResult fit(const Factory& factory, const DDPOptions& opts);
};

}  // namespace matsci::train
