// Workload pretrain_ddp: the paper's Fig. 2 pretraining step in closed
// loop — symmetry point-group classification on complete-graph point
// clouds, the bench EGNN + head, B=32 per rank, SGD, DDPTrainer at
// world_size=2 on the default bucketed identity-compression path.
//
// The timed window is a sequence of identical DDPTrainer::fit calls
// (same seed, same data, one epoch of kStepsPerFit steps each), so the
// final loss of every fit must be bit-identical; so must that of the
// shorter warm-up fits run during set-up. Step periods come from
// a timing Optimizer decorator handed out by the rank factory; the
// traced run adds a timing Task decorator and splits every rank-0 step
// into data / forward / backward(+allreduce) / optimizer, which add up
// to the step period by construction.
#include <cstring>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/memory/pool.hpp"
#include "core/parallel/thread_pool.hpp"
#include "models/egnn.hpp"
#include "optim/sgd.hpp"
#include "sym/synthetic_dataset.hpp"
#include "tasks/classification.hpp"
#include "train/ddp.hpp"

namespace perfbench {
namespace {

using namespace matsci;

constexpr std::int64_t kWorld = 2;
constexpr std::int64_t kPoolThreads = 2;  // + 2 rank threads = 4 cores
constexpr std::int64_t kBatchPerRank = 32;
constexpr std::int64_t kStepsPerFit = 80;
constexpr std::int64_t kWarmupSteps = 16;
constexpr double kLr = 1e-3;

/// Frozen copy of the bench model/data configuration
/// (bench/bench_common.hpp: hidden 32, 3 EGCL layers, 2 head blocks,
/// point clouds of at most 20 points), so later edits to the figure
/// benches cannot silently change this workload.
models::EGNNConfig encoder_config() {
  models::EGNNConfig cfg;
  cfg.hidden_dim = 32;
  cfg.pos_hidden = 16;
  cfg.num_layers = 3;
  return cfg;
}
models::OutputHeadConfig head_config() {
  models::OutputHeadConfig cfg;
  cfg.hidden_dim = 32;
  cfg.num_blocks = 2;
  cfg.dropout = 0.0f;
  return cfg;
}
sym::SyntheticPointGroupOptions sym_options() {
  sym::SyntheticPointGroupOptions opts;
  opts.max_points = 20;
  return opts;
}

/// Per-rank timestamps of one fit, written only by that rank's thread.
struct RankTimeline {
  std::vector<Clock::time_point> task_enter, task_exit, opt_enter, opt_exit;
  std::int64_t edges = 0;
  std::int64_t batches = 0;
};

/// Task decorator: timestamps Task::step entry/exit (traced run only).
class TimingTask : public tasks::Task {
 public:
  TimingTask(std::shared_ptr<tasks::Task> inner, RankTimeline* timeline)
      : inner_(register_module("inner", std::move(inner))),
        timeline_(timeline) {}

  tasks::TaskOutput step(const data::Batch& batch) const override {
    timeline_->task_enter.push_back(Clock::now());
    timeline_->edges += batch.topology.num_edges();
    ++timeline_->batches;
    tasks::TaskOutput out = inner_->step(batch);
    timeline_->task_exit.push_back(Clock::now());
    return out;
  }
  std::shared_ptr<models::Encoder> encoder() const override {
    return inner_->encoder();
  }
  std::vector<tasks::Prediction> predict_batch(
      const data::Batch& batch, const std::string& target) const override {
    return inner_->predict_batch(batch, target);
  }

 private:
  std::shared_ptr<tasks::Task> inner_;
  RankTimeline* timeline_;
};

/// Optimizer decorator over the same parameter tensors: timestamps the
/// end of every Optimizer::step (the step-period clock) and, traced,
/// its entry.
class TimingOptimizer : public optim::Optimizer {
 public:
  TimingOptimizer(std::unique_ptr<optim::Optimizer> inner,
                  RankTimeline* timeline, bool trace)
      : Optimizer(inner->params(), inner->lr()),
        inner_(std::move(inner)),
        timeline_(timeline),
        trace_(trace) {}

  void step() override {
    if (trace_) timeline_->opt_enter.push_back(Clock::now());
    inner_->step();
    timeline_->opt_exit.push_back(Clock::now());
  }

 private:
  std::unique_ptr<optim::Optimizer> inner_;
  RankTimeline* timeline_;
  bool trace_;
};

/// The product's rank factory for this workload, optionally decorated.
train::RankContext make_rank(const data::StructureDataset& dataset,
                             std::uint64_t seed, std::int64_t rank,
                             std::int64_t world, RankTimeline* timeline,
                             bool trace) {
  train::RankContext ctx;
  core::RngEngine rng(seed);
  auto encoder = std::make_shared<models::EGNN>(encoder_config(), rng);
  auto task = std::make_unique<tasks::ClassificationTask>(
      encoder, "point_group", sym::num_point_groups(), head_config(), rng);
  data::DataLoaderOptions lo;
  lo.batch_size = kBatchPerRank;
  lo.seed = seed;
  lo.rank = rank;
  lo.world_size = world;
  lo.collate.representation = data::Representation::kPointCloud;
  ctx.train_loader = std::make_unique<data::DataLoader>(dataset, lo);
  std::unique_ptr<optim::Optimizer> opt = std::make_unique<optim::SGD>(
      task->parameters(), optim::SGDOptions{.lr = kLr});
  if (timeline != nullptr) {
    opt = std::make_unique<TimingOptimizer>(std::move(opt), timeline, trace);
  }
  ctx.optimizer = std::move(opt);
  if (trace) {
    ctx.task = std::make_unique<TimingTask>(std::move(task), timeline);
  } else {
    ctx.task = std::move(task);
  }
  return ctx;
}

struct FitRecord {
  train::DDPResult result;
  std::vector<RankTimeline> timelines;
  std::uint64_t fresh_allocs = 0;
};

/// One DDPTrainer::fit: a single epoch over `dataset`.
FitRecord run_fit(const data::StructureDataset& dataset, std::uint64_t seed,
                  bool trace) {
  FitRecord rec;
  rec.timelines.resize(kWorld);
  train::DDPOptions opts;
  opts.world_size = kWorld;
  opts.max_epochs = 1;
  const std::uint64_t allocs0 =
      core::memory::BufferPool::global().stats().fresh_allocs;
  rec.result = train::DDPTrainer().fit(
      [&](std::int64_t rank, std::int64_t world) {
        return make_rank(dataset, seed, rank, world,
                         &rec.timelines[static_cast<std::size_t>(rank)],
                         trace);
      },
      opts);
  rec.fresh_allocs =
      core::memory::BufferPool::global().stats().fresh_allocs - allocs0;
  return rec;
}

double final_loss(const FitRecord& rec) {
  return rec.result.epochs.back().train.at("loss");
}

}  // namespace

Result run_pretrain_ddp(const Args& args) {
  core::parallel::set_num_threads(kPoolThreads);
  Result res;
  note("pretrain_ddp: world %lld, B=%lld/rank, %lld steps per fit, pool %lld "
       "threads, seed %llu",
       static_cast<long long>(kWorld), static_cast<long long>(kBatchPerRank),
       static_cast<long long>(kStepsPerFit),
       static_cast<long long>(kPoolThreads),
       static_cast<unsigned long long>(args.seed));

  // Set-up: the datasets plus one short warm-up fit, in which pools,
  // arenas and page mappings reach steady state. Repeated for a stable
  // median; the repetitions double as warm-up, outside the timed window.
  const std::uint64_t data_seed = args.seed * 7919 + 11;
  std::unique_ptr<sym::SyntheticPointGroupDataset> dataset;
  std::vector<double> warm_losses;
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    dataset = std::make_unique<sym::SyntheticPointGroupDataset>(
        kWorld * kBatchPerRank * kStepsPerFit, data_seed, sym_options());
    const sym::SyntheticPointGroupDataset warm_dataset(
        kWorld * kBatchPerRank * kWarmupSteps, data_seed, sym_options());
    warm_losses.push_back(
        final_loss(run_fit(warm_dataset, args.seed, args.trace)));
  });

  // Timed window: whole fits until --seconds have elapsed (at least two,
  // so the loss check always compares).
  std::vector<FitRecord> fits;
  const Clock::time_point t0 = Clock::now();
  while (fits.size() < 2 || seconds_since(t0) < args.seconds) {
    fits.push_back(run_fit(*dataset, args.seed, args.trace));
  }

  // Figures per fit (each fit repeats the same work), then the median
  // over fits.
  std::vector<double> periods, fit_rate, fit_p50, fit_p90, losses;
  double samples = 0.0, wall = 0.0;
  bool full = true;
  for (const FitRecord& f : fits) {
    samples += f.result.total_samples;
    wall += f.result.wall_seconds;
    res.attempted += f.result.total_steps + f.result.skipped_steps;
    res.failed += f.result.skipped_steps;
    fit_rate.push_back(f.result.total_samples / f.result.wall_seconds);
    losses.push_back(final_loss(f));
    const auto& ex = f.timelines[0].opt_exit;  // rank-0 step clock
    std::vector<double> fp;
    for (std::size_t k = 1; k < ex.size(); ++k) {
      fp.push_back(ms_between(ex[k - 1], ex[k]));
    }
    periods.insert(periods.end(), fp.begin(), fp.end());
    fit_p50.push_back(quantile(fp, 0.5));
    fit_p90.push_back(quantile(fp, 0.9));
    full = full && f.result.total_steps == kStepsPerFit &&
           static_cast<std::int64_t>(ex.size()) == kStepsPerFit;
  }

  const auto identical = [](const std::vector<double>& v) {
    bool same = true;
    for (double x : v) same = same && std::memcmp(&x, &v[0], sizeof x) == 0;
    return same;
  };
  res.check(identical(losses),
            "final loss bit-identical across " +
                std::to_string(losses.size()) + " same-seed " +
                std::to_string(kStepsPerFit) + "-step fits (" +
                std::to_string(losses[0]) + ")");
  res.check(identical(warm_losses),
            "final loss bit-identical across " +
                std::to_string(warm_losses.size()) + " same-seed " +
                std::to_string(kWarmupSteps) + "-step warm-up fits");
  res.check(full, "every fit ran " + std::to_string(kStepsPerFit) +
                      " optimizer steps on rank 0");

  const double throughput =
      median_of_windows("train_samples_per_s (fits)", fit_rate);
  const double step_p50 =
      median_of_windows("train_step_p50_ms (fits)", fit_p50);
  const double step_p90 =
      median_of_windows("train_step_p90_ms (fits)", fit_p90);
  note("timed: %zu fits, %.0f samples in %.3f s (%.3f samples/s overall)",
       fits.size(), samples, wall, samples / wall);
  note_quantiles("train_step (rank 0)", periods, 0.9, "ms");
  note("failure share: %lld skipped of %lld optimizer steps",
       static_cast<long long>(res.failed),
       static_cast<long long>(res.attempted));

  res.e2e("setup_s", setup_s, "s");
  res.e2e("throughput_per_s", throughput, "1/s");
  res.e2e("latency_p50_ms", step_p50, "ms");
  if (!args.trace) return res;

  res.layer("latency_tail_ms", step_p90, "ms");
  res.layer("memory.peak_rss_mb", peak_rss_mb(), "MB");

  // Per-layer split of every step k >= 1 of every timed fit, per rank.
  for (std::int64_t r = 0; r < kWorld; ++r) {
    std::vector<double> data_ms, fwd_ms, bwd_ms, opt_ms;
    for (const FitRecord& f : fits) {
      const RankTimeline& t = f.timelines[static_cast<std::size_t>(r)];
      for (std::size_t k = 1; k < t.opt_exit.size(); ++k) {
        data_ms.push_back(ms_between(t.opt_exit[k - 1], t.task_enter[k]));
        fwd_ms.push_back(ms_between(t.task_enter[k], t.task_exit[k]));
        bwd_ms.push_back(ms_between(t.task_exit[k], t.opt_enter[k]));
        opt_ms.push_back(ms_between(t.opt_enter[k], t.opt_exit[k]));
      }
    }
    const std::string p = "train.rank" + std::to_string(r) + ".";
    res.layer(p + "data_ms", mean(data_ms), "ms");
    res.layer(p + "fwd_ms", mean(fwd_ms), "ms");
    res.layer(p + "bwd_ms", mean(bwd_ms), "ms");
    res.layer(p + "opt_ms", mean(opt_ms), "ms");
  }
  res.layer("train.step_mean_ms", mean(periods), "ms");

  double overlap = 0.0, bytes = 0.0, steps = 0.0, allocs = 0.0, edges = 0.0,
         batches = 0.0;
  for (const FitRecord& f : fits) {
    overlap += f.result.mean_overlap_fraction;
    bytes += static_cast<double>(f.result.comm_bytes);
    steps += static_cast<double>(f.result.total_steps);
    allocs += static_cast<double>(f.fresh_allocs);
    for (const RankTimeline& t : f.timelines) {
      edges += static_cast<double>(t.edges);
      batches += static_cast<double>(t.batches);
    }
  }
  res.layer("comm.overlap_fraction",
            overlap / static_cast<double>(fits.size()), "ratio");
  res.layer("comm.bytes_per_step", bytes / steps, "B");
  res.layer("memory.fresh_allocs_per_step", allocs / steps, "count");
  res.layer("data.edges_per_batch", edges / batches, "count");
  return res;
}

}  // namespace perfbench
