#include "train/trainer.hpp"

#include <chrono>
#include <limits>
#include <cstdio>

#include "core/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace matsci::train {

namespace {

/// Step-phase telemetry of Trainer::fit: the paper's forward / backward
/// / optimizer decomposition. DDPTrainer ranks do not record these; they
/// time only the exposed allreduce tail (`ddp.allreduce_us`) and emit
/// ddp/* trace spans.
struct TrainMetrics {
  obs::Counter& steps;
  obs::Counter& epochs;
  obs::Counter& samples;
  obs::Histogram& forward_us;
  obs::Histogram& backward_us;
  obs::Histogram& optimizer_us;

  static TrainMetrics& get() {
    static TrainMetrics* m = new TrainMetrics{
        obs::MetricsRegistry::global().counter("train.steps"),
        obs::MetricsRegistry::global().counter("train.epochs"),
        obs::MetricsRegistry::global().counter("train.samples"),
        obs::MetricsRegistry::global().histogram("train.forward_us"),
        obs::MetricsRegistry::global().histogram("train.backward_us"),
        obs::MetricsRegistry::global().histogram("train.optimizer_us"),
    };
    return *m;
  }
};

}  // namespace

Trainer::Trainer(TrainerOptions opts) : opts_(opts) {
  MATSCI_CHECK(opts.max_epochs >= 1, "max_epochs must be >= 1");
  MATSCI_CHECK(opts.accumulate_batches >= 1,
               "accumulate_batches must be >= 1");
}

std::map<std::string, double> Trainer::evaluate(const tasks::Task& task,
                                                data::DataLoader& loader,
                                                std::int64_t max_batches) {
  core::NoGradGuard no_grad;
  const bool was_training = task.is_training();
  const_cast<tasks::Task&>(task).train(false);

  tasks::MetricAccumulator acc;
  const std::int64_t n = loader.num_batches();
  const std::int64_t limit =
      max_batches > 0 ? std::min(max_batches, n) : n;
  for (std::int64_t b = 0; b < limit; ++b) {
    acc.add(task.step(loader.batch(b)));
  }
  const_cast<tasks::Task&>(task).train(was_training);
  return acc.means();
}

FitResult Trainer::fit(tasks::Task& task, data::DataLoader& train_loader,
                       data::DataLoader* val_loader, optim::Optimizer& opt,
                       optim::LRScheduler* scheduler,
                       const EpochCallback& on_epoch,
                       const AnomalyCallback& on_anomaly) {
  MATSCI_CHECK(opts_.early_stopping_patience == 0 || val_loader != nullptr,
               "early stopping requires a validation loader");
  FitResult result;
  const auto t0 = std::chrono::steady_clock::now();
  double best_metric = std::numeric_limits<double>::infinity();
  std::int64_t epochs_without_improvement = 0;

  std::optional<obs::health::HealthMonitor> monitor;
  if (opts_.health.enabled) {
    monitor.emplace(opts_.health, task, opt);
  }

  for (std::int64_t epoch = 0; epoch < opts_.max_epochs; ++epoch) {
    task.train(true);
    train_loader.set_epoch(epoch);
    tasks::MetricAccumulator train_acc;

    const std::int64_t num_batches = train_loader.num_batches();
    std::int64_t accumulated = 0;
    double flush_loss = 0.0;  ///< sum of microbatch losses since last flush
    opt.zero_grad();

    TrainMetrics& metrics = TrainMetrics::get();
    MATSCI_TRACE_SCOPE("train/epoch");
    for (std::int64_t b = 0; b < num_batches; ++b) {
      data::Batch batch = train_loader.batch(b);
      tasks::TaskOutput out;
      {
        MATSCI_TRACE_SCOPE("train/forward");
        const obs::StopWatch watch;
        out = task.step(batch);
        metrics.forward_us.observe(watch.elapsed_us());
      }
      {
        MATSCI_TRACE_SCOPE("train/backward");
        const obs::StopWatch watch;
        out.loss.backward();
        metrics.backward_us.observe(watch.elapsed_us());
      }
      train_acc.add(out);
      result.total_samples += static_cast<double>(batch.num_graphs());
      metrics.samples.add(batch.num_graphs());
      ++accumulated;
      if (monitor) flush_loss += static_cast<double>(out.loss.item());

      const bool flush =
          accumulated == opts_.accumulate_batches || b + 1 == num_batches;
      if (!flush) continue;

      if (accumulated > 1) {
        // Average, matching synchronous-DDP gradient semantics.
        const float inv = 1.0f / static_cast<float>(accumulated);
        for (core::Tensor p : opt.params()) {  // cheap handle copy
          if (!p.has_grad()) continue;
          for (float& g : p.grad_span()) g *= inv;
        }
      }

      // Health probe on the averaged, pre-clip gradients: spikes must be
      // measured before clip_grad_norm rescales them away.
      bool skip_step = false;
      // Health steps count *attempted* flushes: a skipped step still
      // advances the index, so consecutive anomalies get distinct steps.
      const std::int64_t health_step =
          result.total_steps + result.skipped_steps + 1;
      if (monitor) {
        MATSCI_TRACE_SCOPE("train/health");
        const double step_loss =
            flush_loss / static_cast<double>(accumulated);
        const std::vector<obs::health::Anomaly> anomalies =
            monitor->on_step(health_step, step_loss);
        if (!anomalies.empty()) {
          for (const obs::health::Anomaly& a : anomalies) {
            result.anomalies.push_back(a);
            if (on_anomaly) on_anomaly(a);
          }
          if (opts_.health.policy == obs::health::AnomalyPolicy::kAbort) {
            const std::string bundle = monitor->dump_bundle("abort", anomalies);
            MATSCI_CHECK(false,
                         "health abort at step "
                             << health_step << " ("
                             << obs::health::to_string(anomalies.front().type)
                             << "); flight bundle: " << bundle);
          }
          if (opts_.health.dump_on_anomaly) {
            monitor->dump_bundle("anomaly", anomalies);
          }
          skip_step =
              opts_.health.policy == obs::health::AnomalyPolicy::kSkipStep;
        }
      }
      flush_loss = 0.0;
      accumulated = 0;

      if (skip_step) {
        opt.zero_grad();
        ++result.skipped_steps;
        continue;
      }

      {
        MATSCI_TRACE_SCOPE("train/optimizer");
        const obs::StopWatch watch;
        if (opts_.grad_clip > 0.0) {
          opt.clip_grad_norm(opts_.grad_clip);
        }
        opt.step();
        opt.zero_grad();
        metrics.optimizer_us.observe(watch.elapsed_us());
      }
      ++result.total_steps;
      metrics.steps.add(1);

      if (opts_.validate_every_steps > 0 && val_loader != nullptr &&
          result.total_steps % opts_.validate_every_steps == 0) {
        result.step_validation.emplace_back(
            result.total_steps,
            evaluate(task, *val_loader, opts_.step_val_max_batches));
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.lr = opt.lr();
    stats.train = train_acc.means();
    if (val_loader != nullptr) {
      stats.val = evaluate(task, *val_loader);
    }
    if (scheduler != nullptr) {
      scheduler->epoch_step();
    }
    if (opts_.verbose) {
      std::printf("epoch %3lld  lr %.3e  train_loss %.5f",
                  static_cast<long long>(epoch), stats.lr,
                  stats.train.count("loss") ? stats.train.at("loss") : 0.0);
      if (stats.val.count("loss")) {
        std::printf("  val_loss %.5f", stats.val.at("loss"));
      }
      std::printf("\n");
    }
    if (on_epoch) on_epoch(stats);
    result.epochs.push_back(std::move(stats));
    metrics.epochs.add(1);

    if (opts_.early_stopping_patience > 0) {
      const std::map<std::string, double>& val_metrics =
          result.epochs.back().val;
      auto it = val_metrics.find(opts_.early_stopping_metric);
      MATSCI_CHECK(it != val_metrics.end(),
                   "early stopping metric '" << opts_.early_stopping_metric
                                             << "' not in validation metrics");
      if (it->second < best_metric) {
        best_metric = it->second;
        epochs_without_improvement = 0;
      } else if (++epochs_without_improvement >=
                 opts_.early_stopping_patience) {
        if (opts_.verbose) {
          std::printf("early stopping at epoch %lld (no %s improvement "
                      "for %lld epochs)\n",
                      static_cast<long long>(epoch),
                      opts_.early_stopping_metric.c_str(),
                      static_cast<long long>(opts_.early_stopping_patience));
        }
        break;
      }
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace matsci::train
