#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/macros.hpp"
#include "materials/materials_project.hpp"
#include "models/egnn.hpp"
#include "optim/adam.hpp"
#include "optim/sgd.hpp"
#include "tasks/regression.hpp"
#include "test_util.hpp"
#include "train/ddp.hpp"
#include "train/logging.hpp"
#include "train/trainer.hpp"

namespace matsci::train {
namespace {

using core::RngEngine;

std::unique_ptr<tasks::ScalarRegressionTask> make_task(std::uint64_t seed,
                                                       float dropout = 0.0f) {
  RngEngine rng(seed);
  models::EGNNConfig ecfg;
  ecfg.hidden_dim = 16;
  ecfg.pos_hidden = 8;
  ecfg.num_layers = 2;
  auto enc = std::make_shared<models::EGNN>(ecfg, rng);
  models::OutputHeadConfig hcfg;
  hcfg.hidden_dim = 16;
  hcfg.num_blocks = 1;
  hcfg.dropout = dropout;
  return std::make_unique<tasks::ScalarRegressionTask>(
      enc, "band_gap", hcfg, rng, data::TargetStats{1.4f, 1.1f});
}

data::DataLoaderOptions loader_opts(std::int64_t batch = 8) {
  data::DataLoaderOptions o;
  o.batch_size = batch;
  o.seed = 3;
  o.collate.radius.cutoff = 4.0;
  return o;
}

TEST(Trainer, LossDecreasesOnRegression) {
  materials::MaterialsProjectDataset ds(96, 21);
  auto [train_ds, val_ds] = data::train_val_split(ds, 0.25, 1);
  data::DataLoader train_loader(train_ds, loader_opts());
  data::DataLoader val_loader(val_ds, loader_opts());
  auto task = make_task(5);
  optim::Adam opt = optim::make_adamw(task->parameters(), 3e-3, 1e-4);
  TrainerOptions topts;
  topts.max_epochs = 5;
  Trainer trainer(topts);
  const FitResult result =
      trainer.fit(*task, train_loader, &val_loader, opt);
  ASSERT_EQ(result.epochs.size(), 5u);
  EXPECT_LT(result.epochs.back().train.at("loss"),
            0.7 * result.epochs.front().train.at("loss"));
  EXPECT_GT(result.total_steps, 0);
  EXPECT_GT(result.samples_per_second(), 0.0);
}

TEST(Trainer, EvaluateUsesEvalModeAndRestores) {
  materials::MaterialsProjectDataset ds(16, 22);
  data::DataLoader loader(ds, loader_opts());
  auto task = make_task(6, /*dropout=*/0.5f);
  task->train(true);
  const auto m1 = Trainer::evaluate(*task, loader);
  const auto m2 = Trainer::evaluate(*task, loader);
  EXPECT_DOUBLE_EQ(m1.at("mae"), m2.at("mae"));  // dropout disabled
  EXPECT_TRUE(task->is_training());              // mode restored
}

TEST(Trainer, EvaluateMaxBatchesTruncates) {
  materials::MaterialsProjectDataset ds(64, 23);
  data::DataLoader loader(ds, loader_opts(8));
  auto task = make_task(7);
  // Truncation changes the number of samples seen, not the validity.
  const auto full = Trainer::evaluate(*task, loader);
  const auto truncated = Trainer::evaluate(*task, loader, /*max_batches=*/1);
  EXPECT_TRUE(full.count("mae"));
  EXPECT_TRUE(truncated.count("mae"));
}

TEST(Trainer, StepValidationRecordedAtInterval) {
  materials::MaterialsProjectDataset ds(64, 24);
  auto [train_ds, val_ds] = data::train_val_split(ds, 0.25, 2);
  data::DataLoader train_loader(train_ds, loader_opts(8));
  data::DataLoader val_loader(val_ds, loader_opts(8));
  auto task = make_task(8);
  optim::Adam opt = optim::make_adamw(task->parameters(), 1e-3);
  TrainerOptions topts;
  topts.max_epochs = 2;
  topts.validate_every_steps = 3;
  Trainer trainer(topts);
  const FitResult result = trainer.fit(*task, train_loader, &val_loader, opt);
  ASSERT_FALSE(result.step_validation.empty());
  EXPECT_EQ(result.step_validation.front().first, 3);
  for (const auto& [step, metrics] : result.step_validation) {
    EXPECT_EQ(step % 3, 0);
    EXPECT_TRUE(metrics.count("loss"));
  }
}

TEST(Trainer, SchedulerAdvancesPerEpoch) {
  materials::MaterialsProjectDataset ds(32, 25);
  data::DataLoader train_loader(ds, loader_opts());
  auto task = make_task(9);
  optim::Adam opt = optim::make_adamw(task->parameters(), 1.0);
  optim::ExponentialDecay sched(opt, 1.0, 0.5);
  TrainerOptions topts;
  topts.max_epochs = 3;
  Trainer trainer(topts);
  const FitResult result = trainer.fit(*task, train_loader, nullptr, opt, &sched);
  EXPECT_NEAR(result.epochs[0].lr, 1.0, 1e-12);
  EXPECT_NEAR(result.epochs[1].lr, 0.5, 1e-12);
  EXPECT_NEAR(result.epochs[2].lr, 0.25, 1e-12);
}

TEST(Trainer, GradAccumulationMatchesManualAverage) {
  materials::MaterialsProjectDataset ds(16, 26);
  data::DataLoaderOptions lo = loader_opts(8);
  lo.shuffle = false;

  // Path A: accumulate over the 2 batches with the Trainer.
  auto task_a = make_task(11);
  {
    data::DataLoader loader(ds, lo);
    optim::SGD opt(task_a->parameters(), {.lr = 0.1});
    TrainerOptions topts;
    topts.max_epochs = 1;
    topts.accumulate_batches = 2;
    Trainer(topts).fit(*task_a, loader, nullptr, opt);
  }

  // Path B: manual averaged-gradient step.
  auto task_b = make_task(11);
  {
    data::DataLoader loader(ds, lo);
    optim::SGD opt(task_b->parameters(), {.lr = 0.1});
    opt.zero_grad();
    task_b->step(loader.batch(0)).loss.backward();
    task_b->step(loader.batch(1)).loss.backward();
    for (core::Tensor p : opt.params()) {
      for (float& g : p.grad_span()) g *= 0.5f;
    }
    opt.step();
  }

  const auto pa = task_a->parameters();
  const auto pb = task_b->parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_LT(matsci::testing::max_abs_diff(pa[i], pb[i]), 1e-6);
  }
}

TEST(Ddp, TwoRankTrainingMatchesManualSynchronousReference) {
  materials::MaterialsProjectDataset ds(32, 27);
  const std::int64_t world = 2;

  // DDP path.
  DDPTrainer ddp;
  DDPOptions dopts;
  dopts.world_size = world;
  dopts.max_epochs = 1;
  std::vector<core::Tensor> ddp_params;
  std::mutex mu;
  auto factory = [&](std::int64_t rank, std::int64_t ws) {
    RankContext ctx;
    auto task = make_task(13);  // same seed on every rank
    data::DataLoaderOptions lo = loader_opts(4);
    lo.shuffle = false;
    lo.rank = rank;
    lo.world_size = ws;
    ctx.train_loader = std::make_unique<data::DataLoader>(ds, lo);
    ctx.optimizer = std::make_unique<optim::SGD>(
        task->parameters(), optim::SGDOptions{.lr = 0.05});
    if (rank == 0) {
      std::lock_guard<std::mutex> lock(mu);
      for (core::Tensor p : task->parameters()) ddp_params.push_back(p);
    }
    ctx.task = std::move(task);
    return ctx;
  };
  const DDPResult result = ddp.fit(factory, dopts);
  EXPECT_EQ(result.total_samples, 32.0);

  // Manual synchronous reference on one process.
  auto ref = make_task(13);
  optim::SGD opt(ref->parameters(), {.lr = 0.05});
  std::vector<std::unique_ptr<data::DataLoader>> loaders;
  for (std::int64_t r = 0; r < world; ++r) {
    data::DataLoaderOptions lo = loader_opts(4);
    lo.shuffle = false;
    lo.rank = r;
    lo.world_size = world;
    loaders.push_back(std::make_unique<data::DataLoader>(ds, lo));
  }
  const std::int64_t steps = loaders[0]->num_batches();
  for (std::int64_t b = 0; b < steps; ++b) {
    opt.zero_grad();
    for (std::int64_t r = 0; r < world; ++r) {
      ref->step(loaders[static_cast<std::size_t>(r)]->batch(b))
          .loss.backward();
    }
    for (core::Tensor p : opt.params()) {
      for (float& g : p.grad_span()) g /= static_cast<float>(world);
    }
    opt.step();
  }

  const auto pr = ref->parameters();
  ASSERT_EQ(ddp_params.size(), pr.size());
  for (std::size_t i = 0; i < pr.size(); ++i) {
    EXPECT_LT(matsci::testing::max_abs_diff(ddp_params[i], pr[i]), 1e-4)
        << "parameter " << i;
  }
}

TEST(Ddp, BroadcastSynchronizesDifferentInits) {
  materials::MaterialsProjectDataset ds(8, 28);
  DDPTrainer ddp;
  DDPOptions dopts;
  dopts.world_size = 2;
  dopts.max_epochs = 1;
  std::vector<double> final_first_weight(2, 0.0);
  auto factory = [&](std::int64_t rank, std::int64_t ws) {
    RankContext ctx;
    // Intentionally different seeds: broadcast must reconcile them.
    auto task = make_task(100 + static_cast<std::uint64_t>(rank));
    data::DataLoaderOptions lo = loader_opts(4);
    lo.shuffle = false;
    lo.rank = rank;
    lo.world_size = ws;
    ctx.train_loader = std::make_unique<data::DataLoader>(ds, lo);
    ctx.optimizer = std::make_unique<optim::SGD>(
        task->parameters(), optim::SGDOptions{.lr = 0.01});
    ctx.task = std::move(task);
    return ctx;
  };
  EXPECT_NO_THROW(ddp.fit(factory, dopts));
  (void)final_first_weight;
}

TEST(Logging, SeriesLastAndTable) {
  MetricsLogger logger;
  logger.log(1, "loss", 1.0);
  logger.log(2, "loss", 0.5);
  logger.log(2, "mae", 0.3);
  logger.log(5, {{"loss", 0.25}, {"mae", 0.2}});
  const auto series = logger.series("loss");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[1].first, 2);
  EXPECT_DOUBLE_EQ(series[2].second, 0.25);
  EXPECT_DOUBLE_EQ(logger.last("mae"), 0.2);
  EXPECT_THROW(logger.last("nope"), matsci::Error);
  const std::string table = logger.format_table({"loss", "mae"});
  EXPECT_NE(table.find("loss"), std::string::npos);
  EXPECT_NE(table.find("0.25000"), std::string::npos);
}

TEST(Logging, CsvWritesUnifiedHeader) {
  MetricsLogger logger;
  logger.log(0, "a", 1.0);
  logger.log(1, "b", 2.0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "matsci_log_test.csv")
          .string();
  logger.write_csv(path);
  std::ifstream is(path);
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "step,a,b");
  std::string row0;
  std::getline(is, row0);
  EXPECT_EQ(row0, "0,1,");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace matsci::train
