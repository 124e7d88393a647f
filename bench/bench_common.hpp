#pragma once

/// Shared scaffolding for the figure/table regeneration binaries.
///
/// Scale note (DESIGN.md §2): the paper trained hidden-256 E(n)-GNNs on
/// 2M synthetic samples across 32 Xeon nodes; these benches regenerate
/// each figure's *shape* at laptop scale — smaller widths, datasets of
/// 10²–10³ samples — so a full run of every bench finishes in minutes.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "data/dataloader.hpp"
#include "data/tagged.hpp"
#include "models/egnn.hpp"
#include "optim/adam.hpp"
#include "obs/obs.hpp"
#include "sym/synthetic_dataset.hpp"
#include "tasks/classification.hpp"
#include "train/trainer.hpp"

namespace matsci::bench {

/// Directory the BENCH_*.json / TRACE_*.json artifacts land in —
/// $MATSCI_BENCH_DIR or the working directory.
inline std::string bench_out_dir() {
  const char* dir = std::getenv("MATSCI_BENCH_DIR");
  return (dir != nullptr && dir[0] != '\0') ? dir : ".";
}

/// The one way bench binaries emit structured results: records echo to
/// stdout as JSON lines and land in BENCH_<name>.json alongside a
/// registry snapshot and a Chrome trace (see obs/export.hpp).
inline obs::BenchReporter make_reporter(const std::string& name) {
  return obs::BenchReporter(name, bench_out_dir());
}

/// Encoder sized for bench runs (same architecture family as the paper's
/// hidden-256/pos-64/3-layer model, narrower).
inline models::EGNNConfig bench_encoder_config(std::int64_t hidden = 32,
                                               std::int64_t layers = 3) {
  models::EGNNConfig cfg;
  cfg.hidden_dim = hidden;
  cfg.pos_hidden = hidden / 2;
  cfg.num_layers = layers;
  return cfg;
}

inline models::OutputHeadConfig bench_head_config(std::int64_t hidden = 32,
                                                  std::int64_t blocks = 2) {
  models::OutputHeadConfig cfg;
  cfg.hidden_dim = hidden;
  cfg.num_blocks = blocks;
  cfg.dropout = 0.0f;
  return cfg;
}

/// Synthetic point-group options trimmed for bench throughput.
inline sym::SyntheticPointGroupOptions bench_sym_options() {
  sym::SyntheticPointGroupOptions opts;
  opts.max_points = 20;
  return opts;
}

/// Pretrain an encoder on the symmetry task for `epochs` and return it
/// (the paper's §5.2 model, miniaturized). Deterministic in `seed`.
inline std::shared_ptr<models::EGNN> pretrain_symmetry_encoder(
    std::int64_t dataset_size, std::int64_t epochs, std::uint64_t seed,
    models::EGNNConfig ecfg = bench_encoder_config(), bool verbose = false) {
  sym::SyntheticPointGroupDataset ds(dataset_size, seed ^ 0x5157ull,
                                     bench_sym_options());
  data::DataLoaderOptions lo;
  lo.batch_size = 32;
  lo.seed = seed;
  lo.collate.representation = data::Representation::kPointCloud;
  data::DataLoader loader(ds, lo);

  core::RngEngine rng(seed);
  auto encoder = std::make_shared<models::EGNN>(ecfg, rng);
  tasks::ClassificationTask task(encoder, "point_group",
                                 sym::num_point_groups(),
                                 bench_head_config(ecfg.hidden_dim), rng);
  optim::Adam opt = optim::make_adamw(task.parameters(), 3e-3);
  train::TrainerOptions topts;
  topts.max_epochs = epochs;
  topts.verbose = verbose;
  train::Trainer(topts).fit(task, loader, nullptr, opt);
  return encoder;
}

/// Lower quartile, median and upper quartile of repeated timings
/// (linear interpolation between order statistics).
struct Spread {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};
inline Spread spread_of(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto at = [&v](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace matsci::bench
