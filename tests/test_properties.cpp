// Property-based sweeps: invariants that must hold across the whole
// configuration space, exercised with parameterized gtest suites —
// encoder E(3) invariance for every architecture and topology, loader
// partition laws for every (batch, world) shape, optimizer descent for
// every optimizer family, and oracle-label consistency across dataset
// regenerations.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/macros.hpp"
#include "core/ops.hpp"
#include "data/dataloader.hpp"
#include "materials/materials_project.hpp"
#include "models/attention.hpp"
#include "models/egnn.hpp"
#include "models/schnet.hpp"
#include "optim/adam.hpp"
#include "optim/sgd.hpp"
#include "sym/symop.hpp"
#include "sym/synthetic_dataset.hpp"
#include "test_util.hpp"

namespace matsci {
namespace {

using core::RngEngine;
using core::Tensor;

// --- encoder invariance across architectures × representations × seeds ----

enum class EncoderKind { kEgnn, kSchNet, kAttention };

struct InvarianceCase {
  EncoderKind kind;
  data::Representation representation;
  std::uint64_t seed;
};

std::string invariance_name(
    const ::testing::TestParamInfo<InvarianceCase>& info) {
  std::string name;
  switch (info.param.kind) {
    case EncoderKind::kEgnn: name = "Egnn"; break;
    case EncoderKind::kSchNet: name = "SchNet"; break;
    case EncoderKind::kAttention: name = "Attention"; break;
  }
  name += info.param.representation == data::Representation::kPointCloud
              ? "Cloud"
              : "Radius";
  name += "Seed" + std::to_string(info.param.seed);
  return name;
}

std::shared_ptr<models::Encoder> make_encoder(EncoderKind kind,
                                              RngEngine& rng) {
  switch (kind) {
    case EncoderKind::kEgnn: {
      models::EGNNConfig cfg;
      cfg.hidden_dim = 12;
      cfg.pos_hidden = 6;
      cfg.num_layers = 2;
      return std::make_shared<models::EGNN>(cfg, rng);
    }
    case EncoderKind::kSchNet: {
      models::SchNetConfig cfg;
      cfg.hidden_dim = 12;
      cfg.num_interactions = 2;
      cfg.num_rbf = 6;
      return std::make_shared<models::SchNet>(cfg, rng);
    }
    case EncoderKind::kAttention: {
      models::PointCloudAttentionConfig cfg;
      cfg.hidden_dim = 12;
      cfg.num_layers = 2;
      cfg.num_rbf = 6;
      return std::make_shared<models::PointCloudAttentionEncoder>(cfg, rng);
    }
  }
  return nullptr;
}

class EncoderInvarianceTest
    : public ::testing::TestWithParam<InvarianceCase> {};

TEST_P(EncoderInvarianceTest, EmbeddingInvariantUnderE3) {
  const InvarianceCase& tc = GetParam();
  RngEngine rng(tc.seed);

  data::StructureSample s;
  for (int i = 0; i < 7; ++i) {
    s.species.push_back(1 + rng.next_int(10));
    s.positions.push_back(
        {rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)});
  }
  s.scalar_targets["y"] = 0.0f;
  data::CollateOptions copts;
  copts.representation = tc.representation;
  copts.radius.cutoff = 3.0;
  data::Batch batch = data::collate({s}, copts);

  RngEngine model_rng(tc.seed ^ 0xE3ull);
  auto encoder = make_encoder(tc.kind, model_rng);
  Tensor before = encoder->encode(batch);

  const core::Mat3 op = sym::rotation(
      {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1) + 2.0},
      rng.uniform(0.1, 3.0));
  const core::Vec3 shift = {rng.uniform(-3, 3), rng.uniform(-3, 3),
                            rng.uniform(-3, 3)};
  data::Batch moved = batch;
  moved.coords = batch.coords.clone();
  for (std::int64_t i = 0; i < batch.coords.size(0); ++i) {
    const core::Vec3 p = {batch.coords.at(i, 0), batch.coords.at(i, 1),
                          batch.coords.at(i, 2)};
    const core::Vec3 q = core::matvec(op, p) + shift;
    for (int c = 0; c < 3; ++c) {
      moved.coords.set(i, c, static_cast<float>(q[c]));
    }
  }
  // NOTE: the topology is rebuilt identically because E(3) maps preserve
  // pairwise distances; reuse of `batch.topology` is exact.
  Tensor after = encoder->encode(moved);
  EXPECT_LT(matsci::testing::max_abs_diff(before, after), 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncoders, EncoderInvarianceTest,
    ::testing::Values(
        InvarianceCase{EncoderKind::kEgnn, data::Representation::kPointCloud, 1},
        InvarianceCase{EncoderKind::kEgnn, data::Representation::kRadiusGraph, 2},
        InvarianceCase{EncoderKind::kEgnn, data::Representation::kPointCloud, 3},
        InvarianceCase{EncoderKind::kSchNet, data::Representation::kPointCloud, 1},
        InvarianceCase{EncoderKind::kSchNet, data::Representation::kRadiusGraph, 2},
        InvarianceCase{EncoderKind::kSchNet, data::Representation::kPointCloud, 3},
        InvarianceCase{EncoderKind::kAttention, data::Representation::kPointCloud, 1},
        InvarianceCase{EncoderKind::kAttention, data::Representation::kRadiusGraph, 2},
        InvarianceCase{EncoderKind::kAttention, data::Representation::kPointCloud, 3}),
    invariance_name);

// --- loader partition laws across (batch_size, world_size) -----------------

struct ShardCase {
  std::int64_t batch_size;
  std::int64_t world_size;
  bool drop_last;
};

// Keeps the discovered ctest name free of the struct's padding bytes.
void PrintTo(const ShardCase& c, std::ostream* os) {
  *os << "b" << c.batch_size << "_w" << c.world_size
      << (c.drop_last ? "_drop" : "_keep");
}

class LoaderShardTest : public ::testing::TestWithParam<ShardCase> {};

TEST_P(LoaderShardTest, ShardsPartitionTheDataset) {
  const auto& [batch_size, world_size, drop_last] = GetParam();
  const std::int64_t n = 37;  // deliberately not divisible by anything
  materials::MaterialsProjectDataset ds(n, 5);

  std::multiset<float> seen;
  std::int64_t total_batches = 0;
  for (std::int64_t rank = 0; rank < world_size; ++rank) {
    data::DataLoaderOptions opts;
    opts.batch_size = batch_size;
    opts.seed = 11;
    opts.rank = rank;
    opts.world_size = world_size;
    opts.drop_last = drop_last;
    opts.collate.radius.cutoff = 4.0;
    data::DataLoader loader(ds, opts);
    total_batches += loader.num_batches();
    for (std::int64_t b = 0; b < loader.num_batches(); ++b) {
      const data::Batch batch = loader.batch(b);
      EXPECT_LE(batch.num_graphs(), batch_size);
      if (drop_last) EXPECT_EQ(batch.num_graphs(), batch_size);
      const Tensor& gaps = batch.scalar_targets.at("band_gap");
      for (std::int64_t g = 0; g < gaps.size(0); ++g) {
        seen.insert(gaps.at(g, 0));
      }
    }
  }
  // Without drop_last, every sample appears exactly once across shards.
  if (!drop_last) {
    EXPECT_EQ(static_cast<std::int64_t>(seen.size()), n);
    for (const float v : seen) {
      EXPECT_EQ(seen.count(v), 1u);
    }
  } else {
    EXPECT_LE(static_cast<std::int64_t>(seen.size()), n);
  }
  EXPECT_GT(total_batches, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LoaderShardTest,
    ::testing::Values(ShardCase{1, 1, false}, ShardCase{5, 1, false},
                      ShardCase{5, 2, false}, ShardCase{4, 3, false},
                      ShardCase{8, 4, false}, ShardCase{37, 1, false},
                      ShardCase{5, 2, true}, ShardCase{4, 4, true}));

// --- optimizer descent across families and options --------------------------

struct OptimizerCase {
  const char* name;
  std::function<std::unique_ptr<optim::Optimizer>(std::vector<Tensor>)> make;
};

// Keeps the discovered ctest name free of pointer bytes (see test_sym.cpp).
void PrintTo(const OptimizerCase& c, std::ostream* os) { *os << c.name; }

class OptimizerDescentTest : public ::testing::TestWithParam<OptimizerCase> {};

TEST_P(OptimizerDescentTest, ReducesConvexObjective) {
  RngEngine rng(3);
  Tensor x = Tensor::randn({8}, rng, 0.0f, 3.0f);
  x.set_requires_grad(true);
  auto opt = GetParam().make({x});
  const double initial = core::sum(core::square(x)).item();
  for (int i = 0; i < 60; ++i) {
    opt->zero_grad();
    core::sum(core::square(x)).backward();
    opt->step();
  }
  const double final_value = core::sum(core::square(x)).item();
  EXPECT_LT(final_value, 0.25 * initial) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, OptimizerDescentTest,
    ::testing::Values(
        OptimizerCase{"sgd",
                      [](std::vector<Tensor> p) -> std::unique_ptr<optim::Optimizer> {
                        return std::make_unique<optim::SGD>(
                            std::move(p), optim::SGDOptions{.lr = 0.05});
                      }},
        OptimizerCase{"sgd_momentum",
                      [](std::vector<Tensor> p) -> std::unique_ptr<optim::Optimizer> {
                        return std::make_unique<optim::SGD>(
                            std::move(p),
                            optim::SGDOptions{.lr = 0.02, .momentum = 0.9});
                      }},
        OptimizerCase{"sgd_nesterov",
                      [](std::vector<Tensor> p) -> std::unique_ptr<optim::Optimizer> {
                        return std::make_unique<optim::SGD>(
                            std::move(p),
                            optim::SGDOptions{.lr = 0.02,
                                              .momentum = 0.9,
                                              .nesterov = true});
                      }},
        OptimizerCase{"adam",
                      [](std::vector<Tensor> p) -> std::unique_ptr<optim::Optimizer> {
                        return std::make_unique<optim::Adam>(
                            std::move(p), optim::AdamOptions{.lr = 0.2});
                      }},
        OptimizerCase{"adamw",
                      [](std::vector<Tensor> p) -> std::unique_ptr<optim::Optimizer> {
                        return std::make_unique<optim::Adam>(
                            std::move(p),
                            optim::AdamOptions{.lr = 0.2,
                                               .weight_decay = 1e-3,
                                               .decoupled_weight_decay = true});
                      }},
        OptimizerCase{"adam_large_eps",
                      [](std::vector<Tensor> p) -> std::unique_ptr<optim::Optimizer> {
                        return std::make_unique<optim::Adam>(
                            std::move(p),
                            optim::AdamOptions{.lr = 0.2, .eps = 1e-3});
                      }}),
    [](const auto& info) { return std::string(info.param.name); });

// --- dataset regeneration invariance ----------------------------------------

class DatasetSizeInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(DatasetSizeInvarianceTest, SampleIndependentOfDatasetSize) {
  // Lazily generated datasets must give the same sample for the same
  // index regardless of total size (index-keyed streams, DESIGN.md).
  const std::int64_t index = GetParam();
  materials::MaterialsProjectDataset small(index + 1, 77);
  materials::MaterialsProjectDataset large(256, 77);
  const auto a = small.get(index);
  const auto b = large.get(index);
  ASSERT_EQ(a.num_atoms(), b.num_atoms());
  EXPECT_EQ(a.species, b.species);
  EXPECT_EQ(a.scalar_targets.at("band_gap"),
            b.scalar_targets.at("band_gap"));

  sym::SyntheticPointGroupDataset s_small(index + 1, 99);
  sym::SyntheticPointGroupDataset s_large(512, 99);
  EXPECT_EQ(s_small.get(index).class_targets.at("point_group"),
            s_large.get(index).class_targets.at("point_group"));
}

INSTANTIATE_TEST_SUITE_P(Indices, DatasetSizeInvarianceTest,
                         ::testing::Values(0, 1, 7, 31, 100));

}  // namespace
}  // namespace matsci
