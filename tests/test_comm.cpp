#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "comm/communicator.hpp"
#include "comm/perf_model.hpp"
#include "core/macros.hpp"

namespace matsci::comm {
namespace {

TEST(Communicator, SingleRankCollectivesAreNoOps) {
  run_ranks(1, [](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.world_size(), 1);
    std::vector<float> data = {1.0f, 2.0f};
    comm.allreduce_sum(data);
    EXPECT_FLOAT_EQ(data[0], 1.0f);
    EXPECT_FLOAT_EQ(data[1], 2.0f);
    comm.broadcast(data, 0);
    comm.barrier();
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar_sum(3.5), 3.5);
  });
}

class CommWorldTest : public ::testing::TestWithParam<int> {};

TEST_P(CommWorldTest, AllreduceSumAcrossRanks) {
  const std::int64_t world = GetParam();
  run_ranks(world, [world](Communicator& comm) {
    std::vector<float> data = {static_cast<float>(comm.rank() + 1), 10.0f};
    comm.allreduce_sum(data);
    // Sum of 1..world in slot 0, world*10 in slot 1.
    EXPECT_FLOAT_EQ(data[0], static_cast<float>(world * (world + 1) / 2));
    EXPECT_FLOAT_EQ(data[1], static_cast<float>(world * 10));
  });
}

TEST_P(CommWorldTest, BroadcastFromEveryRoot) {
  const std::int64_t world = GetParam();
  for (std::int64_t root = 0; root < world; ++root) {
    run_ranks(world, [root](Communicator& comm) {
      std::vector<float> data = {static_cast<float>(comm.rank() * 100)};
      comm.broadcast(data, root);
      EXPECT_FLOAT_EQ(data[0], static_cast<float>(root * 100));
    });
  }
}

TEST_P(CommWorldTest, ScalarMax) {
  const std::int64_t world = GetParam();
  run_ranks(world, [world](Communicator& comm) {
    const double m =
        comm.allreduce_scalar_max(static_cast<double>(comm.rank()));
    EXPECT_DOUBLE_EQ(m, static_cast<double>(world - 1));
  });
}

TEST_P(CommWorldTest, ElementwiseMaxDropsNaN) {
  const std::int64_t world = GetParam();
  run_ranks(world, [world](Communicator& comm) {
    const float r = static_cast<float>(comm.rank());
    std::vector<float> data = {r, -r, comm.rank() == 0 ? std::nanf("") : r};
    comm.allreduce_max(data);
    EXPECT_EQ(data[0], static_cast<float>(world - 1));
    EXPECT_EQ(data[1], 0.0f);
    EXPECT_EQ(data[2], static_cast<float>(world - 1));
  });
}

TEST_P(CommWorldTest, RepeatedCollectivesStayConsistent) {
  const std::int64_t world = GetParam();
  run_ranks(world, [world](Communicator& comm) {
    for (int round = 0; round < 8; ++round) {
      std::vector<float> data = {static_cast<float>(round)};
      comm.allreduce_sum(data);
      EXPECT_FLOAT_EQ(data[0], static_cast<float>(round * world));
      comm.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Worlds, CommWorldTest, ::testing::Values(2, 3, 4, 8));

TEST(Communicator, BarrierOrdersPhases) {
  // All ranks must see the phase-1 writes of every other rank after the
  // barrier.
  const std::int64_t world = 4;
  std::vector<std::atomic<int>> flags(world);
  for (auto& f : flags) f = 0;
  run_ranks(world, [&flags](Communicator& comm) {
    flags[static_cast<std::size_t>(comm.rank())] = 1;
    comm.barrier();
    for (std::int64_t r = 0; r < comm.world_size(); ++r) {
      EXPECT_EQ(flags[static_cast<std::size_t>(r)].load(), 1);
    }
  });
}

TEST(Communicator, RankExceptionPropagates) {
  EXPECT_THROW(run_ranks(2,
                         [](Communicator& comm) {
                           // Both ranks throw so no barrier deadlocks.
                           MATSCI_CHECK(false, "rank failure");
                           (void)comm;
                         }),
               matsci::Error);
}

TEST(Communicator, Validation) {
  EXPECT_THROW(ProcessGroup(0), matsci::Error);
  auto group = std::make_shared<ProcessGroup>(2);
  EXPECT_THROW(Communicator(group, 2), matsci::Error);
  EXPECT_THROW(Communicator(nullptr, 0), matsci::Error);
}

TEST(PerfModel, SingleRankHasNoCommCost) {
  PerfModel model;
  EXPECT_DOUBLE_EQ(model.allreduce_seconds(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(model.step_seconds(1, 0.1, 1 << 20), 0.1);
}

TEST(PerfModel, AllreduceGrowsWithRanksAndBytes) {
  PerfModel model;
  const std::int64_t mb = 1 << 20;
  EXPECT_LT(model.allreduce_seconds(4, mb), model.allreduce_seconds(64, mb));
  EXPECT_LT(model.allreduce_seconds(16, mb),
            model.allreduce_seconds(16, 64 * mb));
}

TEST(PerfModel, ThroughputNearLinearWhenComputeBound) {
  // The paper's Fig. 2 regime: per-step compute far exceeds allreduce.
  PerfModel model;
  const double compute = 0.5;           // 500 ms per step per rank
  const std::int64_t grad_bytes = 4 << 20;  // ~1M params
  const double t1 = model.throughput(1, 32, compute, grad_bytes);
  const double t512 = model.throughput(512, 32, compute, grad_bytes);
  EXPECT_GT(t512 / t1, 0.9 * 512.0 / 1.0);  // ≥ 90% parallel efficiency
  EXPECT_GT(model.scaling_efficiency(512, 32, compute, grad_bytes), 0.9);
}

TEST(PerfModel, EfficiencyDegradesWhenCommBound) {
  PerfModel model;
  // Tiny compute + huge gradients: communication dominates.
  const double eff =
      model.scaling_efficiency(512, 1, 1e-5, 512LL << 20);
  EXPECT_LT(eff, 0.5);
}

TEST(PerfModel, EpochTimeScalesInversely) {
  PerfModel model;
  const double e16 = model.epoch_seconds(16, 32, 0.2, 4 << 20, 2'000'000);
  const double e256 = model.epoch_seconds(256, 32, 0.2, 4 << 20, 2'000'000);
  EXPECT_GT(e16 / e256, 10.0);  // near-linear reduction
}

TEST(PerfModel, Validation) {
  PerfModel model;
  EXPECT_THROW(model.allreduce_seconds(0, 10), matsci::Error);
  EXPECT_THROW(model.step_seconds(2, -1.0, 10), matsci::Error);
  ClusterConfig bad;
  bad.ranks_per_node = 0;
  EXPECT_THROW(PerfModel{bad}, matsci::Error);
}

}  // namespace
}  // namespace matsci::comm
