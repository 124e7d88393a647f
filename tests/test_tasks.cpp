#include <gtest/gtest.h>

#include <cmath>

#include "core/macros.hpp"
#include "data/dataloader.hpp"
#include "materials/carolina.hpp"
#include "materials/materials_project.hpp"
#include "models/egnn.hpp"
#include "sym/synthetic_dataset.hpp"
#include "tasks/classification.hpp"
#include "tasks/multitask.hpp"
#include "tasks/regression.hpp"

namespace matsci::tasks {
namespace {

using core::RngEngine;

std::shared_ptr<models::EGNN> tiny_encoder(std::uint64_t seed) {
  RngEngine rng(seed);
  models::EGNNConfig cfg;
  cfg.hidden_dim = 16;
  cfg.pos_hidden = 8;
  cfg.num_layers = 2;
  return std::make_shared<models::EGNN>(cfg, rng);
}

models::OutputHeadConfig tiny_head() {
  models::OutputHeadConfig cfg;
  cfg.hidden_dim = 16;
  cfg.num_blocks = 1;
  return cfg;
}

data::Batch mp_batch(std::int64_t n = 8, std::int64_t dataset_id = 0) {
  materials::MaterialsProjectDataset ds(n, 31);
  std::vector<data::StructureSample> samples;
  for (std::int64_t i = 0; i < n; ++i) {
    auto s = ds.get(i);
    s.dataset_id = dataset_id;
    samples.push_back(std::move(s));
  }
  data::CollateOptions opts;
  opts.radius.cutoff = 4.0;
  return data::collate(samples, opts);
}

TEST(RegressionTask, StepProducesLossAndMae) {
  RngEngine rng(1);
  ScalarRegressionTask task(tiny_encoder(1), "band_gap", tiny_head(), rng,
                            {1.0f, 1.0f});
  const TaskOutput out = task.step(mp_batch());
  EXPECT_TRUE(out.loss.defined());
  EXPECT_TRUE(std::isfinite(out.loss.item()));
  EXPECT_GT(out.metrics.at("mae"), 0.0);
  EXPECT_EQ(out.count, 8);
  // Gradients flow to both encoder and head.
  out.loss.backward();
  bool any = false;
  for (core::Tensor p : task.parameters()) {
    for (const float g : p.grad_span()) {
      if (g != 0.0f) any = true;
    }
  }
  EXPECT_TRUE(any);
}

TEST(RegressionTask, MaeReportedInPhysicalUnits) {
  RngEngine rng(2);
  // With stats (mean=0, std=10), an untrained model predicting ~0 in
  // normalized units must show MAE on the scale of the raw targets.
  data::TargetStats stats{0.0f, 10.0f};
  ScalarRegressionTask task(tiny_encoder(2), "band_gap", tiny_head(), rng,
                            stats);
  task.train(false);
  const TaskOutput out = task.step(mp_batch());
  // Raw band gaps are O(1); normalized loss should be tiny relative to
  // a std=1 setting while MAE stays O(1).
  EXPECT_LT(out.metrics.at("loss"), 10.0);
  EXPECT_GT(out.metrics.at("mae"), 0.01);
}

TEST(RegressionTask, PredictDenormalizes) {
  RngEngine rng(3);
  data::TargetStats stats{5.0f, 2.0f};
  ScalarRegressionTask task(tiny_encoder(3), "band_gap", tiny_head(), rng,
                            stats);
  task.train(false);
  const core::Tensor pred = task.predict(mp_batch());
  EXPECT_EQ(pred.size(0), 8);
  // Fresh model outputs are small in normalized units; denormalized
  // predictions should cluster near the mean.
  for (std::int64_t i = 0; i < pred.size(0); ++i) {
    EXPECT_GT(pred.at(i, 0), -20.0f);
    EXPECT_LT(pred.at(i, 0), 30.0f);
  }
}

TEST(RegressionTask, MissingTargetThrows) {
  RngEngine rng(4);
  ScalarRegressionTask task(tiny_encoder(4), "not_a_target", tiny_head(), rng);
  EXPECT_THROW(task.step(mp_batch()), matsci::Error);
}

data::Batch sym_batch(std::int64_t n = 8) {
  sym::SyntheticPointGroupDataset ds(n, 17);
  std::vector<data::StructureSample> samples;
  for (std::int64_t i = 0; i < n; ++i) samples.push_back(ds.get(i));
  data::CollateOptions opts;
  opts.representation = data::Representation::kPointCloud;
  return data::collate(samples, opts);
}

TEST(ClassificationTask, MulticlassStep) {
  RngEngine rng(6);
  ClassificationTask task(tiny_encoder(6), "point_group", 32, tiny_head(),
                          rng);
  const TaskOutput out = task.step(sym_batch());
  EXPECT_TRUE(std::isfinite(out.loss.item()));
  // Untrained logits are unnormalized (sum pooling), so CE is merely
  // finite and positive, not near log(32).
  EXPECT_GT(out.metrics.at("ce"), 0.0);
  EXPECT_GE(out.metrics.at("accuracy"), 0.0);
  EXPECT_LE(out.metrics.at("accuracy"), 1.0);
  const auto pred = task.predict(sym_batch());
  EXPECT_EQ(pred.size(), 8u);
  for (const std::int64_t p : pred) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 32);
  }
}

TEST(ClassificationTask, BinaryStabilityUsesBce) {
  RngEngine rng(7);
  ClassificationTask task(tiny_encoder(7), "stability", 2, tiny_head(), rng,
                          /*binary=*/true);
  const TaskOutput out = task.step(mp_batch());
  EXPECT_TRUE(out.metrics.count("bce"));
  EXPECT_TRUE(std::isfinite(out.metrics.at("bce")));
  const auto pred = task.predict(mp_batch());
  for (const std::int64_t p : pred) {
    EXPECT_TRUE(p == 0 || p == 1);
  }
}

TEST(ClassificationTask, Validation) {
  RngEngine rng(8);
  EXPECT_THROW(
      ClassificationTask(tiny_encoder(8), "x", 1, tiny_head(), rng),
      matsci::Error);
  EXPECT_THROW(ClassificationTask(tiny_encoder(8), "x", 3, tiny_head(), rng,
                                  /*binary=*/true),
               matsci::Error);
  EXPECT_THROW(
      ClassificationTask(nullptr, "x", 2, tiny_head(), rng),
      matsci::Error);
}

TEST(MultiTask, RoutesByDatasetId) {
  auto encoder = tiny_encoder(9);
  MultiTaskModule mt(encoder, tiny_head(), 99);
  mt.add_regression(/*dataset_id=*/0, "band_gap", {1.4f, 1.1f}, "mp/band_gap");
  mt.add_regression(0, "formation_energy", {0.2f, 1.0f}, "mp/eform");
  mt.add_binary_classification(0, "stability", "mp/stability");
  mt.add_regression(/*dataset_id=*/1, "formation_energy", {0.3f, 1.1f},
                    "cmd/eform");
  EXPECT_EQ(mt.num_heads(), 4);

  const TaskOutput mp_out = mt.step(mp_batch(8, /*dataset_id=*/0));
  EXPECT_TRUE(mp_out.metrics.count("mp/band_gap/mae"));
  EXPECT_TRUE(mp_out.metrics.count("mp/eform/mae"));
  EXPECT_TRUE(mp_out.metrics.count("mp/stability/bce"));
  EXPECT_FALSE(mp_out.metrics.count("cmd/eform/mae"));

  // A Carolina batch routes to the CMD head only.
  materials::CarolinaMaterialsDataset cmd(8, 3);
  std::vector<data::StructureSample> samples;
  for (std::int64_t i = 0; i < 8; ++i) {
    auto s = cmd.get(i);
    s.dataset_id = 1;
    samples.push_back(std::move(s));
  }
  data::CollateOptions copts;
  copts.radius.cutoff = 4.0;
  const TaskOutput cmd_out = mt.step(data::collate(samples, copts));
  EXPECT_TRUE(cmd_out.metrics.count("cmd/eform/mae"));
  EXPECT_FALSE(cmd_out.metrics.count("mp/band_gap/mae"));
}

TEST(MultiTask, UnroutedDatasetThrows) {
  MultiTaskModule mt(tiny_encoder(10), tiny_head(), 1);
  mt.add_regression(0, "band_gap", {}, "mp/band_gap");
  EXPECT_THROW(mt.step(mp_batch(4, /*dataset_id=*/7)), matsci::Error);
}

TEST(MultiTask, SharedEncoderReceivesGradsFromAllHeads) {
  auto encoder = tiny_encoder(11);
  MultiTaskModule mt(encoder, tiny_head(), 2);
  mt.add_regression(0, "band_gap", {}, "a");
  mt.add_binary_classification(0, "stability", "b");
  const TaskOutput out = mt.step(mp_batch());
  out.loss.backward();
  bool encoder_grads = false;
  for (core::Tensor p : encoder->parameters()) {
    for (const float g : p.grad_span()) {
      if (g != 0.0f) encoder_grads = true;
    }
  }
  EXPECT_TRUE(encoder_grads);
}

TEST(MultiTask, DuplicateLabelRejected) {
  MultiTaskModule mt(tiny_encoder(12), tiny_head(), 3);
  mt.add_regression(0, "band_gap", {}, "same");
  EXPECT_THROW(mt.add_regression(0, "efermi", {}, "same"), matsci::Error);
}

TEST(MetricAccumulator, WeightedMeans) {
  MetricAccumulator acc;
  TaskOutput a;
  a.count = 2;
  a.metrics["mae"] = 1.0;
  TaskOutput b;
  b.count = 6;
  b.metrics["mae"] = 2.0;
  b.metrics["extra"] = 5.0;
  acc.add(a);
  acc.add(b);
  EXPECT_NEAR(acc.mean("mae"), (2.0 * 1.0 + 6.0 * 2.0) / 8.0, 1e-12);
  EXPECT_TRUE(acc.has("extra"));
  EXPECT_FALSE(acc.has("missing"));
  EXPECT_THROW(acc.mean("missing"), matsci::Error);
  acc.reset();
  EXPECT_FALSE(acc.has("mae"));
}

}  // namespace
}  // namespace matsci::tasks
