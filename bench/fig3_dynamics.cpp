// Figure 3 — early training dynamics vs number of DDP workers.
//
// The paper fixes the optimizer-step budget and sweeps the worker count
// N (effective batch B_eff = N·B, learning rate scaled by N per Goyal et
// al.). Two regimes: η_base = 1e-3 stagnates at every scale; η_base =
// 1e-5 converges, but with validation-loss spikes that grow with N and,
// at N = 512, a spike the run never recovers from (attributed to Adam's
// large-batch instability, Molybog et al.).
//
// Emulation: synchronous DDP over N ranks is mathematically gradient
// averaging over N shard batches, so we reproduce B_eff = N·B with
// sequential gradient accumulation (Trainer::accumulate_batches = N) —
// identical update trajectories without N threads (DESIGN.md §2).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "optim/lr_scheduler.hpp"

namespace {

using namespace matsci;

constexpr std::int64_t kBasePerRankBatch = 2;  // paper uses 32; scaled down
constexpr std::int64_t kOptimizerSteps = 20;

void run_regime(obs::BenchReporter& reporter, const char* label,
                double base_lr,
                const std::vector<std::int64_t>& worker_counts) {
  std::printf("\n--- Regime: %s (eta_base = %.0e, lr = eta_base * N) ---\n",
              label, base_lr);
  std::printf("%6s", "step");
  for (const std::int64_t n : worker_counts) {
    std::printf("      N=%-5lld", static_cast<long long>(n));
  }
  std::printf("\n");

  std::vector<std::vector<double>> curves;
  for (const std::int64_t n : worker_counts) {
    const std::int64_t dataset_size =
        kOptimizerSteps * n * kBasePerRankBatch;
    sym::SyntheticPointGroupDataset train_ds(dataset_size, 31,
                                             bench::bench_sym_options());
    sym::SyntheticPointGroupDataset val_ds(96, 77, bench::bench_sym_options());

    data::DataLoaderOptions lo;
    lo.batch_size = kBasePerRankBatch;
    lo.seed = 5;
    lo.collate.representation = data::Representation::kPointCloud;
    data::DataLoader train_loader(train_ds, lo);
    data::DataLoaderOptions vo = lo;
    vo.batch_size = 48;
    vo.shuffle = false;
    data::DataLoader val_loader(val_ds, vo);

    core::RngEngine rng(13);
    auto encoder = std::make_shared<models::EGNN>(
        bench::bench_encoder_config(24, 2), rng);
    tasks::ClassificationTask task(encoder, "point_group",
                                   sym::num_point_groups(),
                                   bench::bench_head_config(24, 1), rng);
    optim::AdamOptions ao;
    ao.lr = optim::scale_lr_for_world_size(base_lr, n);
    ao.decoupled_weight_decay = true;
    optim::Adam opt(task.parameters(), ao);

    train::TrainerOptions topts;
    topts.max_epochs = 1;
    topts.accumulate_batches = n;  // emulated world size
    topts.validate_every_steps = 1;
    topts.step_val_max_batches = 2;
    const train::FitResult result =
        train::Trainer(topts).fit(task, train_loader, &val_loader, opt);

    std::vector<double> curve;
    for (const auto& [step, metrics] : result.step_validation) {
      curve.push_back(metrics.at("ce"));
    }
    curves.push_back(std::move(curve));
  }

  std::size_t max_len = 0;
  for (const auto& c : curves) max_len = std::max(max_len, c.size());
  for (std::size_t s = 0; s < max_len; ++s) {
    std::printf("%6zu", s + 1);
    for (const auto& c : curves) {
      if (s < c.size()) {
        std::printf(" %12.4f", c[s]);
      } else {
        std::printf(" %12s", "-");
      }
    }
    std::printf("\n");
  }

  // Spike statistics: count upward excursions > 3% between consecutive
  // validation checks (the paper's full-blown non-recovering spikes only
  // appear after hundreds of steps at production scale; within this
  // bench's budget, the precursors are smaller upward excursions whose
  // frequency grows with N), and the final error.
  std::printf("%6s", "spike#");
  for (const auto& c : curves) {
    int spikes = 0;
    for (std::size_t s = 1; s < c.size(); ++s) {
      if (c[s] > 1.03 * c[s - 1]) ++spikes;
    }
    std::printf(" %12d", spikes);
  }
  std::printf("\n%6s", "final");
  for (const auto& c : curves) std::printf(" %12.4f", c.back());
  std::printf("\n");

  for (std::size_t i = 0; i < curves.size(); ++i) {
    const std::vector<double>& c = curves[i];
    int spikes = 0;
    for (std::size_t s = 1; s < c.size(); ++s) {
      if (c[s] > 1.03 * c[s - 1]) ++spikes;
    }
    reporter.add(obs::JsonRecord()
                     .set("record", "dynamics")
                     .set("regime", label)
                     .set("base_lr", base_lr)
                     .set("workers", worker_counts[i])
                     .set("spikes", spikes)
                     .set("final_ce", c.back()));
  }
}

// Health-on mode: the same training loop with the HealthMonitor
// active (log-and-continue). Reports the per-step overhead of the
// monitor — per-layer grad norms, rolling-window detection, flight
// recorder — which must stay < 5% of a (deliberately small-model,
// monitor-unfriendly) step. Off and on run as adjacent pairs, the
// order alternating from pair to pair, so a slow spell of the host
// lands on both sides of a pair; the median pair overhead is the
// figure, the min and max its spread.
void run_health_overhead(obs::BenchReporter& reporter) {
  constexpr int kPairs = 5;
  constexpr std::int64_t kSteps = 200;

  std::printf("\n--- Health monitor overhead (N = 1, %lld steps) ---\n",
              static_cast<long long>(kSteps));

  const auto run_once = [](bool health_on, std::int64_t* anomalies) {
    sym::SyntheticPointGroupDataset train_ds(kSteps * kBasePerRankBatch, 31,
                                             bench::bench_sym_options());
    data::DataLoaderOptions lo;
    lo.batch_size = kBasePerRankBatch;
    lo.seed = 5;
    lo.collate.representation = data::Representation::kPointCloud;
    data::DataLoader train_loader(train_ds, lo);

    core::RngEngine rng(13);
    auto encoder = std::make_shared<models::EGNN>(
        bench::bench_encoder_config(24, 2), rng);
    tasks::ClassificationTask task(encoder, "point_group",
                                   sym::num_point_groups(),
                                   bench::bench_head_config(24, 1), rng);
    optim::AdamOptions ao;
    ao.lr = 1e-4;
    ao.decoupled_weight_decay = true;
    optim::Adam opt(task.parameters(), ao);

    train::TrainerOptions topts;
    topts.max_epochs = 1;
    topts.health.enabled = health_on;
    topts.health.record_metrics = false;  // isolate the monitor itself
    const obs::StopWatch watch;
    const train::FitResult result =
        train::Trainer(topts).fit(task, train_loader, nullptr, opt);
    if (anomalies != nullptr) {
      *anomalies = static_cast<std::int64_t>(result.anomalies.size());
    }
    return watch.elapsed_us();
  };

  std::vector<double> off_us, on_us, overhead_pct;
  std::int64_t anomalies = 0;
  for (int r = 0; r < kPairs; ++r) {
    double off = 0.0, on = 0.0;
    if (r % 2 == 0) {
      off = run_once(false, nullptr);
      on = run_once(true, &anomalies);
    } else {
      on = run_once(true, &anomalies);
      off = run_once(false, nullptr);
    }
    off_us.push_back(off);
    on_us.push_back(on);
    overhead_pct.push_back(100.0 * (on - off) / off);
  }

  const double off_med = bench::spread_of(off_us).median;
  const double on_med = bench::spread_of(on_us).median;
  const double overhead_med = bench::spread_of(overhead_pct).median;
  const auto [overhead_min, overhead_max] =
      std::minmax_element(overhead_pct.begin(), overhead_pct.end());
  std::printf("health off: %8.1f us/step (median of %d)\n", off_med / kSteps,
              kPairs);
  std::printf("health on:  %8.1f us/step (median of %d)   anomalies flagged: "
              "%lld\n",
              on_med / kSteps, kPairs, static_cast<long long>(anomalies));
  std::printf("overhead:   %+7.2f %%  median of %d pairs (min %+.2f %%, max "
              "%+.2f %%)  (acceptance: < 5%%)\n",
              overhead_med, kPairs, *overhead_min, *overhead_max);

  reporter.add(obs::JsonRecord()
                   .set("record", "health_overhead")
                   .set("steps", kSteps)
                   .set("pairs", kPairs)
                   .set("off_us_per_step", off_med / kSteps)
                   .set("on_us_per_step", on_med / kSteps)
                   .set("overhead_pct", overhead_med)
                   .set("overhead_pct_min", *overhead_min)
                   .set("overhead_pct_max", *overhead_max)
                   .set("anomalies", anomalies));
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 3 — validation error vs optimizer step for worker counts N\n"
      "(B_eff = N*B emulated via gradient accumulation; cross-entropy of\n"
      "the symmetry pretraining task, fixed step budget)");

  obs::BenchReporter reporter = bench::make_reporter("fig3_dynamics");
  run_regime(reporter, "high base lr (stagnation expected)", 1e-3,
             {8, 32, 128, 256});
  // The low-rate regime needs the largest emulated worlds to reach the
  // instability window (paper: the N = 512 run spikes and never
  // recovers; scaled lr there is 512e-5 ≈ 5e-3).
  run_regime(reporter, "low base lr (convergence + spikes at large N)", 1e-5,
             {8, 32, 128, 512});
  run_health_overhead(reporter);

  std::printf(
      "\nShape check vs paper: at the high base rate, every scale\n"
      "stagnates or outright diverges (instability severity grows with\n"
      "N). At the low rate, all scales converge, larger N converging\n"
      "faster per step (Goyal scaling working as intended), with upward\n"
      "excursions concentrated at the largest N. The paper's\n"
      "non-recovering N=512 spike at step ~550 sits beyond this bench's\n"
      "step budget; see ablation_adam for the per-step instability\n"
      "probes of the underlying mechanism.\n");
  return 0;
}
