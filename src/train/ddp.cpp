#include "train/ddp.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>

#include "comm/coll/bucket_allreduce.hpp"
#include "core/autograd.hpp"
#include "core/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "train/checkpoint.hpp"

namespace matsci::train {

namespace {

std::string checkpoint_path(const DDPOptions& opts) {
  return opts.checkpoint_dir + "/ddp_checkpoint.bin";
}

/// Everything the per-rank closure shares with the caller.
struct Shared {
  DDPResult& result;
  std::mutex& result_mu;
  const DDPOptions& opts;
  const DDPTrainer::Factory& factory;
};

/// Run one group incarnation end-to-end: build this rank's context
/// (resuming model/optimizer from the last checkpoint when this is a
/// post-recovery incarnation), then train the remaining epochs. Throws
/// RankFailedError when a peer dies; the elastic loop in fit() catches
/// it, rebuilds the group, and calls back in with incarnation + 1.
void train_incarnation(comm::Communicator& comm, std::int64_t incarnation,
                       const Shared& sh) {
  const DDPOptions& opts = sh.opts;
  const std::int64_t rank = comm.rank();
  RankContext ctx = sh.factory(rank, comm.world_size());
  MATSCI_CHECK(ctx.task && ctx.optimizer && ctx.train_loader,
               "rank factory must provide task, optimizer, train loader");

  std::int64_t epoch_start = 0;
  if (incarnation > 0) {
    // Survivors restart from the last consistent snapshot: any
    // in-memory divergence between ranks that noticed the failure at
    // different steps is erased here.
    epoch_start =
        resume_training(checkpoint_path(opts), *ctx.task, *ctx.optimizer);
    if (ctx.scheduler) {
      for (std::int64_t e = 0; e < epoch_start; ++e) {
        ctx.scheduler->epoch_step();
      }
    }
  }

  // Synchronize initial parameters: rank 0 is the source of truth.
  auto params = ctx.task->parameters();
  for (core::Tensor& p : params) {
    comm.broadcast(p.span(), /*root=*/0);
  }

  if (opts.elastic) {
    // Guarantee a checkpoint exists before any step can fail, and keep
    // readers (resume happens strictly before this barrier on later
    // incarnations) away from the writer.
    if (incarnation == 0 && rank == 0) {
      save_training_checkpoint(checkpoint_path(opts), *ctx.task,
                               *ctx.optimizer, /*epoch=*/0);
    }
    comm.barrier();
  }

  std::optional<obs::health::HealthMonitor> monitor;
  if (opts.health.enabled) {
    obs::health::HealthOptions hopts = opts.health;
    // One crash-dump recorder per process; rank 0 owns it.
    hopts.arm_crash_handler = opts.health.arm_crash_handler && rank == 0;
    monitor.emplace(hopts, *ctx.task, *ctx.optimizer);
    monitor->set_rank(rank);
  }

  comm::coll::BucketAllreduce engine(comm, params);

  double local_samples = 0.0;
  std::int64_t local_steps = 0;      // applied optimizer steps
  std::int64_t attempted_steps = 0;  // batches seen; advances on skip too

  for (std::int64_t epoch = epoch_start; epoch < opts.max_epochs; ++epoch) {
    ctx.task->train(true);
    ctx.train_loader->set_epoch(epoch);

    // Lockstep batch count: every rank runs the minimum shard length.
    const double nb_min = -comm.allreduce_scalar_max(
        -static_cast<double>(ctx.train_loader->num_batches()));
    const std::int64_t num_batches = static_cast<std::int64_t>(nb_min);

    tasks::MetricAccumulator train_acc;
    obs::Histogram& allreduce_us =
        obs::MetricsRegistry::global().histogram("ddp.allreduce_us");
    for (std::int64_t b = 0; b < num_batches; ++b) {
      data::Batch batch = ctx.train_loader->batch(b);
      ++attempted_steps;
      ctx.optimizer->zero_grad();
      tasks::TaskOutput out;
      {
        MATSCI_TRACE_SCOPE("ddp/forward");
        out = ctx.task->step(batch);
      }
      {
        // Arm the engine, then run backward with the readiness hook
        // installed — buckets post their allreduce from inside the
        // backward walk as their last gradient finalizes.
        engine.begin_step();
        core::GradReadyHookGuard hook_guard(engine.hook());
        MATSCI_TRACE_SCOPE("ddp/backward");
        out.loss.backward();
      }
      train_acc.add(out);
      local_samples += static_cast<double>(batch.num_graphs());

      // Pre-allreduce local gradient norm: param .grad buffers still
      // hold local gradients here — the engine averages in its flat
      // staging buffers and only scatters back in finish_step —
      // and after averaging every rank is identical, so per-rank
      // divergence is only visible now.
      double local_gn = 0.0;
      bool local_nonfinite = false;
      if (monitor) {
        local_gn = ctx.optimizer->grad_norm();
        local_nonfinite = !std::isfinite(local_gn);
      }

      {
        // The defining DDP collective: average gradients across ranks.
        // This histogram records only the *exposed* tail after backward;
        // most reduction time hides under the backward walk.
        MATSCI_TRACE_SCOPE("ddp/allreduce");
        const obs::StopWatch watch;
        engine.finish_step();
        allreduce_us.observe(watch.elapsed_us());
      }

      // Health: every detector input below comes out of a collective
      // (or the already-allreduced gradients), so the anomaly set and
      // therefore the skip/abort decision is identical on all ranks.
      bool skip_step = false;
      if (monitor) {
        MATSCI_TRACE_SCOPE("ddp/health");
        // Three packed collectives; each element rounds through float
        // exactly as its scalar form would.
        const double finite_gn = local_nonfinite ? 0.0 : local_gn;
        const auto gn = static_cast<float>(finite_gn);
        std::array<float, 3> sums = {out.loss.item(), gn,
                                     local_nonfinite ? 1.0f : 0.0f};
        std::array<float, 3> maxes = {
            gn, -gn, local_nonfinite ? static_cast<float>(rank) : -1.0f};
        comm.allreduce_sum(sums);
        comm.allreduce_max(maxes);
        const double world = static_cast<double>(comm.world_size());
        std::vector<obs::health::Anomaly> step_anomalies =
            monitor->on_step(attempted_steps, sums[0] / world);

        obs::health::CrossRankHealth cross;
        cross.reduced = true;
        cross.world_size = comm.world_size();
        cross.grad_norm_mean = sums[1] / world;
        cross.grad_norm_max = maxes[0];
        cross.grad_norm_min = -maxes[1];
        cross.nonfinite_ranks = static_cast<std::int64_t>(sums[2] + 0.5);
        // Offending rank: a non-finite rank if any exists, else the
        // owner of the max norm (ties resolve to the highest rank;
        // identical on all ranks by allreduce). The max went through
        // float, so ownership compares in float space or the owner
        // misses its own maximum.
        const double max_offender = comm.allreduce_scalar_max(
            gn >= maxes[0] ? static_cast<double>(rank) : -1.0);
        const double offender =
            cross.nonfinite_ranks > 0 ? maxes[2] : max_offender;
        const std::vector<obs::health::Anomaly> cross_anomalies =
            monitor->on_cross_rank(cross, static_cast<std::int64_t>(offender));
        step_anomalies.insert(step_anomalies.end(), cross_anomalies.begin(),
                              cross_anomalies.end());

        if (!step_anomalies.empty()) {
          if (rank == 0) {
            {
              std::lock_guard<std::mutex> lock(sh.result_mu);
              for (const obs::health::Anomaly& a : step_anomalies) {
                sh.result.anomalies.push_back(a);
              }
            }
            if (opts.on_anomaly) {
              for (const obs::health::Anomaly& a : step_anomalies) {
                opts.on_anomaly(a);
              }
            }
          }
          if (opts.health.policy == obs::health::AnomalyPolicy::kAbort) {
            std::string bundle;
            if (rank == 0) {
              bundle = monitor->dump_bundle("abort", step_anomalies);
            }
            MATSCI_CHECK(false,
                         "ddp health abort at step "
                             << attempted_steps << " on rank " << rank << " ("
                             << obs::health::to_string(
                                    step_anomalies.front().type)
                             << ")"
                             << (bundle.empty()
                                     ? std::string()
                                     : "; flight bundle: " + bundle));
          }
          if (opts.health.dump_on_anomaly && rank == 0) {
            monitor->dump_bundle("anomaly", step_anomalies);
          }
          skip_step =
              opts.health.policy == obs::health::AnomalyPolicy::kSkipStep;
        }
      }

      if (skip_step) {
        if (rank == 0) {
          std::lock_guard<std::mutex> lock(sh.result_mu);
          ++sh.result.skipped_steps;
        }
        continue;
      }

      {
        MATSCI_TRACE_SCOPE("ddp/optimizer");
        if (opts.grad_clip > 0.0) {
          ctx.optimizer->clip_grad_norm(opts.grad_clip);
        }
        ctx.optimizer->step();
      }
      ++local_steps;
    }

    // Mean training loss across ranks for the epoch record.
    const double loss_mean =
        comm.allreduce_scalar_sum(train_acc.has("loss")
                                      ? train_acc.mean("loss")
                                      : 0.0) /
        static_cast<double>(comm.world_size());

    if (rank == 0) {
      EpochStats stats;
      stats.epoch = epoch;
      stats.lr = ctx.optimizer->lr();
      stats.train = train_acc.means();
      stats.train["loss"] = loss_mean;
      if (ctx.val_loader) {
        stats.val = Trainer::evaluate(*ctx.task, *ctx.val_loader);
      }
      if (opts.verbose) {
        std::printf("[ddp %lld ranks] epoch %3lld  train_loss %.5f\n",
                    static_cast<long long>(comm.world_size()),
                    static_cast<long long>(epoch), loss_mean);
      }
      std::lock_guard<std::mutex> lock(sh.result_mu);
      sh.result.epochs.push_back(std::move(stats));
    }
    if (opts.elastic && rank == 0) {
      // Snapshot the completed epoch; the peers are still pre-barrier,
      // so nobody can be reading the file while it is written.
      save_training_checkpoint(checkpoint_path(opts), *ctx.task,
                               *ctx.optimizer, epoch + 1);
    }
    if (ctx.scheduler) {
      ctx.scheduler->epoch_step();
    }
    comm.barrier();
  }

  const double all_samples = comm.allreduce_scalar_sum(local_samples);
  if (rank == 0) {
    std::lock_guard<std::mutex> lock(sh.result_mu);
    sh.result.total_samples = all_samples;
    sh.result.total_steps = local_steps;
    sh.result.final_world = comm.world_size();
    sh.result.comm_bytes = engine.totals().bytes;
    sh.result.mean_overlap_fraction = engine.totals().mean_overlap_fraction();
  }
}

}  // namespace

DDPResult DDPTrainer::fit(const Factory& factory, const DDPOptions& opts) {
  MATSCI_CHECK(opts.world_size >= 1, "world_size must be >= 1");
  MATSCI_CHECK(opts.max_epochs >= 1, "max_epochs must be >= 1");
  MATSCI_CHECK(!opts.elastic || !opts.checkpoint_dir.empty(),
               "elastic DDP requires checkpoint_dir");

  DDPResult result;
  std::mutex result_mu;
  const Shared sh{result, result_mu, opts, factory};
  const auto t0 = std::chrono::steady_clock::now();

  comm::RunRanksOptions ropts;
  ropts.fault_hook = opts.fault_hook;
  comm::run_ranks(
      opts.world_size,
      [&](comm::Communicator& boot) {
        comm::Communicator cur = boot;
        std::int64_t incarnation = 0;
        while (true) {
          try {
            train_incarnation(cur, incarnation, sh);
            break;
          } catch (const comm::RankFailedError&) {
            if (!opts.elastic) throw;
            // A peer died. All survivors funnel here (every collective
            // on the old group throws), agree on a resized group, and
            // retry from the last checkpoint.
            const std::vector<std::int64_t> dead =
                cur.group()->failed_ranks();
            const comm::ProcessGroup::Rebuilt rb =
                cur.group()->rebuild_survivors(cur.rank());
            cur = comm::Communicator(rb.group, rb.rank);
            ++incarnation;
            if (cur.rank() == 0) {
              obs::health::Anomaly a;
              a.type = obs::health::AnomalyType::kRankLost;
              a.rank = dead.empty() ? -1 : dead.front();
              a.value = static_cast<double>(dead.size());
              a.detail = "ddp rank lost; survivors rebuilt world=" +
                         std::to_string(cur.world_size()) +
                         " and resumed from checkpoint";
              {
                std::lock_guard<std::mutex> lock(result_mu);
                ++result.recoveries;
                for (std::int64_t r : dead) result.lost_ranks.push_back(r);
                result.anomalies.push_back(a);
              }
              if (opts.on_anomaly) opts.on_anomaly(a);
            }
          }
        }
      },
      ropts);

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (result.final_world == 0) result.final_world = opts.world_size;
  return result;
}

}  // namespace matsci::train
