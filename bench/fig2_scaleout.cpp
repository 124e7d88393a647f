// Figure 2 — pretraining throughput vs number of DDP workers.
//
// The paper measures aggregate samples/s for the symmetry pretraining
// task from 16 to 512 ranks (1–32 Sapphire Rapids nodes, 16 ranks/node)
// and finds linear scaling: gradient-allreduce time is negligible next
// to per-rank compute. Reproduction strategy (DESIGN.md §2):
//   1. run *real* thread-backed DDP for small worlds to validate the
//      synchronous-training semantics end to end;
//   2. measure true single-rank compute time per step (median of
//      repeated timing windows, with quartiles);
//   3. compose it with the α-β ring-allreduce model of the HDR200
//      cluster to regenerate the 16→512-rank curve and epoch times for
//      the paper's 2M-sample dataset.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "comm/perf_model.hpp"
#include "optim/sgd.hpp"
#include "train/ddp.hpp"

namespace {

using namespace matsci;

constexpr std::int64_t kBatchPerRank = 32;
constexpr std::int64_t kPaperDatasetSize = 2'000'000;

/// One rank's full training context for the DDP validation runs.
train::RankContext make_rank_context(
    const sym::SyntheticPointGroupDataset& ds, std::int64_t rank,
    std::int64_t world) {
  train::RankContext ctx;
  core::RngEngine rng(7);
  auto encoder = std::make_shared<models::EGNN>(
      bench::bench_encoder_config(), rng);
  auto task = std::make_unique<tasks::ClassificationTask>(
      encoder, "point_group", sym::num_point_groups(),
      bench::bench_head_config(), rng);
  data::DataLoaderOptions lo;
  lo.batch_size = kBatchPerRank;
  lo.seed = 3;
  lo.rank = rank;
  lo.world_size = world;
  lo.collate.representation = data::Representation::kPointCloud;
  ctx.train_loader = std::make_unique<data::DataLoader>(ds, lo);
  ctx.optimizer = std::make_unique<optim::SGD>(
      task->parameters(), optim::SGDOptions{.lr = 1e-3});
  ctx.task = std::move(task);
  return ctx;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 2 — DDP throughput scaling (symmetry pretraining)");
  obs::BenchReporter reporter = bench::make_reporter("fig2_scaleout");

  // --- Part 1: functional thread-DDP validation at small worlds -------
  std::printf(
      "\n[1] Thread-backed DDP validation (real collectives between rank\n"
      "    threads of one process — this validates semantics, not\n"
      "    speedup):\n\n");
  std::printf("%8s %12s %14s %16s\n", "ranks", "steps", "samples", "train CE");
  sym::SyntheticPointGroupDataset ds(512, 11, bench::bench_sym_options());
  // fp32 gradient bytes each rank posts per step (the engine's byte
  // count over its steps; the same at every world size).
  std::int64_t step_grad_bytes = 0;
  for (const std::int64_t world : {1, 2, 4}) {
    train::DDPTrainer ddp;
    train::DDPOptions opts;
    opts.world_size = world;
    opts.max_epochs = 1;
    const train::DDPResult result = ddp.fit(
        [&ds](std::int64_t rank, std::int64_t ws) {
          return make_rank_context(ds, rank, ws);
        },
        opts);
    std::printf("%8lld %12lld %14.0f %16.4f\n",
                static_cast<long long>(world),
                static_cast<long long>(result.total_steps),
                result.total_samples,
                result.epochs.back().train.at("ce"));
    if (result.total_steps > 0) {
      step_grad_bytes = result.comm_bytes / result.total_steps;
    }
    reporter.add(obs::JsonRecord()
                     .set("record", "ddp_validation")
                     .set("world_size", world)
                     .set("steps", result.total_steps)
                     .set("samples", result.total_samples)
                     .set("train_ce", result.epochs.back().train.at("ce")));
  }

  // The thread-DDP runs above fed the obs registry. The exposed tail
  // (ddp.allreduce_us) is what a rank blocks in finish_step after its
  // own backward: waiting for the slower ranks' backward to post the
  // last bucket, plus the pool-side reduction (comm.bucket.reduce_us).
  // Print both to split the two, and compare with what the α-β model
  // predicts for one step's gradient on the paper's HDR200 fabric at
  // world=4.
  {
    const obs::HistogramSnapshot tail =
        obs::MetricsRegistry::global().histogram("ddp.allreduce_us")
            .snapshot();
    const obs::HistogramSnapshot reduce =
        obs::MetricsRegistry::global().histogram("comm.bucket.reduce_us")
            .snapshot();
    comm::PerfModel hdr200;
    const double modeled_us =
        hdr200.allreduce_seconds(4, step_grad_bytes) * 1e6;
    std::printf(
        "\n    gradient allreduce: %.2f MiB per rank per step\n"
        "    exposed tail after backward (%lld rank-steps): mean %.1f us,\n"
        "      p50 %.1f us, p95 %.1f us\n"
        "    pool-side reduction: mean %.1f us, max %.1f us per bucket;\n"
        "      the rest of the tail waits for the slower rank's backward\n"
        "    α-β-modeled full allreduce (HDR200, w=4): %.1f us\n",
        static_cast<double>(step_grad_bytes) / (1024.0 * 1024.0),
        static_cast<long long>(tail.count), tail.mean(),
        tail.percentile(0.5), tail.percentile(0.95), reduce.mean(),
        reduce.max, modeled_us);
    reporter.add(obs::JsonRecord()
                     .set("record", "allreduce_vs_model")
                     .set("gradient_bytes", step_grad_bytes)
                     .set("exposed_tail_rank_steps", tail.count)
                     .set("exposed_tail_mean_us", tail.mean())
                     .set("exposed_tail_p50_us", tail.percentile(0.5))
                     .set("exposed_tail_p95_us", tail.percentile(0.95))
                     .set("pool_reduce_mean_us", reduce.mean())
                     .set("pool_reduce_max_us", reduce.max)
                     .set("modeled_hdr200_w4_us", modeled_us));
  }

  // --- Part 2: measure single-rank compute time per step --------------
  core::RngEngine rng(5);
  auto encoder = std::make_shared<models::EGNN>(
      bench::bench_encoder_config(), rng);
  tasks::ClassificationTask task(encoder, "point_group",
                                 sym::num_point_groups(),
                                 bench::bench_head_config(), rng);
  optim::SGD opt(task.parameters(), {.lr = 1e-3});
  data::DataLoaderOptions lo;
  lo.batch_size = kBatchPerRank;
  lo.collate.representation = data::Representation::kPointCloud;
  data::DataLoader loader(ds, lo);

  // Warmup, then kWindows timed windows of the same kWindowSteps
  // batches (forward + backward + optimizer). The median window sets
  // the step time part 3 scales from; the quartiles show how much a
  // disturbed window could have moved it.
  constexpr int kWindows = 7;
  constexpr std::int64_t kWindowSteps = 8;
  const auto train_step = [&](std::int64_t b) {
    opt.zero_grad();
    task.step(loader.batch(b)).loss.backward();
    opt.step();
  };
  for (std::int64_t b = 0; b < 2; ++b) train_step(b);
  std::vector<double> window_s_per_step;
  for (int w = 0; w < kWindows; ++w) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t b = 0; b < kWindowSteps; ++b) train_step(b);
    window_s_per_step.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(kWindowSteps));
  }
  const bench::Spread step_s = bench::spread_of(window_s_per_step);
  const double compute_per_step = step_s.median;
  const std::int64_t grad_bytes = task.num_parameters() * 4;
  std::printf(
      "\n[2] Measured single-rank compute: %.4f s/step median of %d windows\n"
      "    of %lld steps (quartiles %.4f-%.4f; B=%lld, %lld parameters ->\n"
      "    %.2f MiB gradient bucket)\n",
      compute_per_step, kWindows, static_cast<long long>(kWindowSteps),
      step_s.q1, step_s.q3, static_cast<long long>(kBatchPerRank),
      static_cast<long long>(task.num_parameters()),
      static_cast<double>(grad_bytes) / (1024.0 * 1024.0));
  reporter.add(obs::JsonRecord()
                   .set("record", "single_rank_compute")
                   .set("batch_per_rank", kBatchPerRank)
                   .set("compute_s_per_step", compute_per_step)
                   .set("compute_s_per_step_q1", step_s.q1)
                   .set("compute_s_per_step_q3", step_s.q3)
                   .set("windows", kWindows)
                   .set("parameters", task.num_parameters())
                   .set("gradient_bytes", grad_bytes));

  // --- Part 3: α-β-modeled scale-out curve (the Fig. 2 series) --------
  comm::PerfModel model;
  std::printf(
      "\n[3] Modeled scale-out on the paper's cluster (16 ranks/node,\n"
      "    HDR200 inter-node; dataset = %lld samples as in Fig. 2):\n\n",
      static_cast<long long>(kPaperDatasetSize));
  std::printf("%8s %8s %16s %18s %14s\n", "ranks", "nodes", "samples/s",
              "epoch time (s)", "efficiency");
  const double t1 = model.throughput(1, kBatchPerRank, compute_per_step, 0);
  double efficiency_512 = 0.0;
  for (const std::int64_t ranks : {16, 32, 64, 128, 256, 512}) {
    const double tput =
        model.throughput(ranks, kBatchPerRank, compute_per_step, grad_bytes);
    const double epoch = model.epoch_seconds(
        ranks, kBatchPerRank, compute_per_step, grad_bytes,
        kPaperDatasetSize);
    std::printf("%8lld %8lld %16.0f %18.1f %13.1f%%\n",
                static_cast<long long>(ranks),
                static_cast<long long>((ranks + 15) / 16), tput, epoch,
                100.0 * tput / (static_cast<double>(ranks) * t1));
    efficiency_512 = tput / (static_cast<double>(ranks) * t1);
    reporter.add(obs::JsonRecord()
                     .set("record", "modeled_scaleout")
                     .set("ranks", ranks)
                     .set("nodes", (ranks + 15) / 16)
                     .set("samples_per_s", tput)
                     .set("epoch_s", epoch)
                     .set("efficiency",
                          tput / (static_cast<double>(ranks) * t1)));
  }
  // The allreduce model is fixed, so a faster single-rank step lowers
  // the modeled efficiency: report it rather than assume a figure.
  std::printf(
      "\nShape check vs paper: throughput grows near-linearly in worker\n"
      "count (%.1f%% efficiency at 512 ranks), and epoch time falls to\n"
      "minutes — the communication overhead of per-step gradient\n"
      "averaging stays small against per-rank compute.\n",
      100.0 * efficiency_512);

  reporter.finish();
  return 0;
}
