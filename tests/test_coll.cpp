// Tests for the bucketed, elastic DDP subsystem (comm/coll + the
// elastic recovery path in train/ddp). Runs with test_comm.cpp in the
// binary labelled `ddp`, which scripts/ci_matrix.sh runs under
// ThreadSanitizer and AddressSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <vector>

#include "comm/coll/bucket_allreduce.hpp"
#include "comm/coll/bucketer.hpp"
#include "comm/coll/group_state.hpp"
#include "comm/communicator.hpp"
#include "core/autograd.hpp"
#include "core/macros.hpp"
#include "core/ops.hpp"
#include "core/random.hpp"
#include "core/tensor.hpp"
#include "materials/materials_project.hpp"
#include "models/egnn.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "optim/sgd.hpp"
#include "tasks/regression.hpp"
#include "train/ddp.hpp"

namespace matsci {
namespace {

using core::RngEngine;
using core::Tensor;

// ---------------------------------------------------------------------------
// GradBucketer
// ---------------------------------------------------------------------------

TEST(GradBucketer, ReverseRegistrationOrderWithByteCap) {
  std::vector<Tensor> params = {Tensor::zeros({4}), Tensor::zeros({4}),
                                Tensor::zeros({4})};
  // 32-byte cap = 8 floats per bucket: the last two registered params
  // share bucket 0, the first registered lands alone in bucket 1.
  comm::coll::GradBucketer b(params, /*bucket_bytes=*/32);
  ASSERT_EQ(b.num_buckets(), 2u);
  EXPECT_EQ(b.bucket(0).param_indices, (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(b.bucket(1).param_indices, (std::vector<std::size_t>{0}));
  EXPECT_EQ(b.total_numel(), 12);
  EXPECT_EQ(b.bucket_of(params[2].impl().get()), 0);
  EXPECT_EQ(b.bucket_of(params[0].impl().get()), 1);
}

TEST(GradBucketer, OversizedParamGetsItsOwnBucket) {
  std::vector<Tensor> params = {Tensor::zeros({2}), Tensor::zeros({100})};
  comm::coll::GradBucketer b(params, /*bucket_bytes=*/16);  // 4-float cap
  ASSERT_EQ(b.num_buckets(), 2u);
  EXPECT_EQ(b.bucket(0).numel, 100);  // reverse order: big param first
  EXPECT_EQ(b.bucket(1).numel, 2);
}

TEST(GradBucketer, ZeroSizeParamsAreCarried) {
  std::vector<Tensor> params = {Tensor::zeros({0}), Tensor::zeros({3})};
  comm::coll::GradBucketer b(params, /*bucket_bytes=*/1024);
  ASSERT_EQ(b.num_buckets(), 1u);
  EXPECT_EQ(b.total_numel(), 3);
  EXPECT_EQ(b.bucket_of(params[0].impl().get()), 0);
  // Round-trip must cover the zero-size param without touching payload.
  for (float& g : params[1].grad_span()) g = 2.5f;
  const std::span<float> flat = b.flatten(0);
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_FLOAT_EQ(flat[0], 2.5f);
  b.unflatten(0);
  EXPECT_FLOAT_EQ(params[1].grad_span()[0], 2.5f);
}

TEST(GradBucketer, FlattenUnflattenRoundTripAndUnknownPayload) {
  std::vector<Tensor> params = {Tensor::zeros({2, 2}), Tensor::zeros({3})};
  comm::coll::GradBucketer b(params, /*bucket_bytes=*/1 << 20);
  ASSERT_EQ(b.num_buckets(), 1u);
  float v = 0.0f;
  for (Tensor p : params) {
    for (float& g : p.grad_span()) g = v += 1.0f;
  }
  std::span<float> flat = b.flatten(0);
  // Reverse order: params[1]'s 3 grads (5, 6, 7) come first.
  EXPECT_FLOAT_EQ(flat[0], 5.0f);
  EXPECT_FLOAT_EQ(flat[3], 1.0f);
  for (float& f : flat) f *= 2.0f;
  b.unflatten(0);
  EXPECT_FLOAT_EQ(params[0].grad_span()[0], 2.0f);
  EXPECT_FLOAT_EQ(params[1].grad_span()[2], 14.0f);

  Tensor stranger = Tensor::zeros({5});
  EXPECT_EQ(b.bucket_of(stranger.impl().get()), -1);
}

TEST(GradBucketer, DuplicateParamThrows) {
  Tensor p = Tensor::zeros({4});
  EXPECT_THROW(comm::coll::GradBucketer({p, p}, 1 << 20), matsci::Error);
}

// ---------------------------------------------------------------------------
// Non-blocking collectives (GroupState through the Communicator API)
// ---------------------------------------------------------------------------

TEST(NbAllreduce, OutOfOrderSlotWaits) {
  comm::run_ranks(2, [](comm::Communicator& comm) {
    const float r = static_cast<float>(comm.rank());
    std::vector<float> a = {r, r + 1.0f};          // slot 0
    std::vector<float> b = {10.0f * (r + 1.0f)};   // slot 1
    comm.allreduce_mean_nb(0, a);
    comm.allreduce_mean_nb(1, b);
    // Wait in the opposite order from posting: slots match by id.
    const comm::coll::WaitInfo w1 = comm.wait_allreduce(1);
    const comm::coll::WaitInfo w0 = comm.wait_allreduce(0);
    EXPECT_GE(w1.reduce_us, 0.0);
    EXPECT_GE(w0.reduce_us, 0.0);
    EXPECT_FLOAT_EQ(b[0], 15.0f);  // mean(10, 20)
    EXPECT_FLOAT_EQ(a[0], 0.5f);   // mean(0, 1)
    EXPECT_FLOAT_EQ(a[1], 1.5f);   // mean(1, 2)
  });
}

TEST(NbAllreduce, SlotsReusableAcrossSteps) {
  comm::run_ranks(3, [](comm::Communicator& comm) {
    for (int step = 0; step < 5; ++step) {
      std::vector<float> v = {static_cast<float>(comm.rank() + step)};
      comm.allreduce_mean_nb(0, v);
      comm.wait_allreduce(0);
      EXPECT_NEAR(v[0], 1.0f + static_cast<float>(step), 1e-6f);
    }
  });
}

TEST(NbAllreduce, BlockingCollectivesRunBesidePostedBuckets) {
  // Blocking calls meet on their own slot, so they complete while
  // bucket slots 0 and 1 are posted but not yet waited.
  comm::run_ranks(2, [](comm::Communicator& comm) {
    const float r = static_cast<float>(comm.rank());
    std::vector<float> bucket0 = {r, 2.0f * r};
    std::vector<float> bucket1 = {4.0f + r};
    comm.allreduce_mean_nb(0, bucket0);
    comm.allreduce_mean_nb(1, bucket1);

    std::vector<float> sum = {r + 1.0f, -r, 0.5f};
    comm.allreduce_sum(sum);
    EXPECT_EQ(sum, (std::vector<float>{3.0f, -1.0f, 1.0f}));
    std::vector<float> bcast = {10.0f * r, 7.0f + r};
    comm.broadcast(bcast, /*root=*/1);
    EXPECT_EQ(bcast, (std::vector<float>{10.0f, 8.0f}));
    comm.barrier();
    EXPECT_EQ(comm.allreduce_scalar_max(-r), 0.0);

    comm.wait_allreduce(1);
    comm.wait_allreduce(0);
    EXPECT_EQ(bucket0, (std::vector<float>{0.5f, 1.0f}));
    EXPECT_EQ(bucket1, (std::vector<float>{4.5f}));
  });
}

// ---------------------------------------------------------------------------
// Communicator contract: mismatched rounds must throw, not deadlock
// ---------------------------------------------------------------------------

TEST(CommunicatorContract, MismatchedBlockingSizesThrowOnEveryRank) {
  std::atomic<int> threw{0};
  EXPECT_THROW(
      comm::run_ranks(2,
                      [&threw](comm::Communicator& comm) {
                        std::vector<float> data(
                            comm.rank() == 0 ? 3u : 4u, 1.0f);
                        try {
                          comm.allreduce_sum(data);
                        } catch (const matsci::Error&) {
                          ++threw;
                          throw;
                        }
                      }),
      matsci::Error);
  EXPECT_EQ(threw.load(), 2);
}

TEST(CommunicatorContract, MismatchedNbSizesPoisonTheSlotOnEveryRank) {
  std::atomic<int> threw{0};
  EXPECT_THROW(
      comm::run_ranks(2,
                      [&threw](comm::Communicator& comm) {
                        std::vector<float> data(
                            comm.rank() == 0 ? 2u : 5u, 1.0f);
                        try {
                          comm.allreduce_mean_nb(0, data);
                          comm.wait_allreduce(0);
                        } catch (const matsci::Error&) {
                          ++threw;
                          throw;
                        }
                      }),
      matsci::Error);
  EXPECT_EQ(threw.load(), 2);
}

/// Run `call` on every rank of a world-2 group; every rank must throw.
void expect_mismatch_throws_on_every_rank(
    const std::function<void(comm::Communicator&)>& call) {
  std::atomic<int> threw{0};
  EXPECT_THROW(comm::run_ranks(2,
                               [&](comm::Communicator& comm) {
                                 try {
                                   call(comm);
                                 } catch (const matsci::Error&) {
                                   ++threw;
                                   throw;
                                 }
                               }),
               matsci::Error);
  EXPECT_EQ(threw.load(), 2);
}

TEST(CommunicatorContract, MismatchedBroadcastRootThrowsOnEveryRank) {
  expect_mismatch_throws_on_every_rank([](comm::Communicator& comm) {
    std::vector<float> data(3, static_cast<float>(comm.rank()));
    comm.broadcast(data, /*root=*/comm.rank());
  });
}

TEST(CommunicatorContract, BroadcastAgainstAllreduceThrowsOnEveryRank) {
  expect_mismatch_throws_on_every_rank([](comm::Communicator& comm) {
    std::vector<float> data(3, 1.0f);
    if (comm.rank() == 0) {
      comm.broadcast(data, /*root=*/0);
    } else {
      comm.allreduce_sum(data);
    }
  });
}

TEST(CommunicatorContract, RankKilledInBlockingCollectivesFailsSurvivors) {
  // Kill rank 2 of 3 at each kind of blocking call in turn: ranks 0 and
  // 1 must throw RankFailedError out of whatever call they are in
  // (never hang), and run_ranks reports only the killed rank.
  for (int rep = 0; rep < 20; ++rep) {
    const std::int64_t kill_at = 1 + rep % 8;
    comm::RunRanksOptions opts;
    opts.fault_hook = [kill_at](std::int64_t rank, std::int64_t calls) {
      return rank == 2 && calls == kill_at;
    };
    std::atomic<int> survivors_failed{0};
    const comm::RunRanksReport report = comm::run_ranks(
        3,
        [&survivors_failed](comm::Communicator& comm) {
          try {
            for (int i = 0; i < 100; ++i) {
              std::vector<float> v = {static_cast<float>(comm.rank())};
              comm.allreduce_sum(v);
              comm.broadcast(v, /*root=*/i % 3);
              comm.barrier();
              comm.allreduce_scalar_max(static_cast<double>(comm.rank()));
            }
          } catch (const comm::RankFailedError&) {
            ++survivors_failed;
          }
        },
        opts);
    EXPECT_EQ(report.killed_ranks, std::vector<std::int64_t>{2})
        << "rep " << rep;
    EXPECT_EQ(survivors_failed.load(), 2) << "rep " << rep;
  }
}

// ---------------------------------------------------------------------------
// Autograd readiness hook
// ---------------------------------------------------------------------------

TEST(GradReadyHook, FiresExactlyOncePerReachedLeaf) {
  Tensor a = Tensor::from_vector({1.0f, 2.0f}, {2});
  Tensor b = Tensor::from_vector({3.0f, 4.0f}, {2});
  a.impl()->requires_grad = true;
  b.impl()->requires_grad = true;
  std::vector<const core::TensorImpl*> fired;
  {
    core::GradReadyHookGuard guard(
        [&fired](const std::shared_ptr<core::TensorImpl>& leaf) {
          fired.push_back(leaf.get());
        });
    core::sum(core::mul(a, b)).backward();
  }
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_NE(std::find(fired.begin(), fired.end(), a.impl().get()),
            fired.end());
  EXPECT_NE(std::find(fired.begin(), fired.end(), b.impl().get()),
            fired.end());
}

TEST(GradReadyHook, UnreachedLeavesGetNoCallback) {
  Tensor a = Tensor::from_vector({1.0f}, {1});
  Tensor lonely = Tensor::from_vector({2.0f}, {1});
  a.impl()->requires_grad = true;
  lonely.impl()->requires_grad = true;
  std::vector<const core::TensorImpl*> fired;
  {
    core::GradReadyHookGuard guard(
        [&fired](const std::shared_ptr<core::TensorImpl>& leaf) {
          fired.push_back(leaf.get());
        });
    core::sum(core::square(a)).backward();  // graph never touches `lonely`
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], a.impl().get());
}

// ---------------------------------------------------------------------------
// BucketAllreduce engine
// ---------------------------------------------------------------------------

TEST(BucketAllreduce, IdentityFlushAveragesAcrossRanks) {
  comm::run_ranks(2, [](comm::Communicator& comm) {
    std::vector<Tensor> params = {Tensor::zeros({3}), Tensor::zeros({2})};
    const float r = static_cast<float>(comm.rank());
    for (Tensor p : params) {
      for (float& g : p.grad_span()) g = r + 1.0f;  // rank0: 1, rank1: 2
    }
    comm::coll::BucketAllreduce engine(comm, params);
    engine.begin_step();
    engine.finish_step();
    for (Tensor p : params) {
      for (const float g : p.grad_span()) EXPECT_FLOAT_EQ(g, 1.5f);
    }
    EXPECT_EQ(engine.totals().bytes, 5 * 4);
    // Every bucket was flushed after backward: nothing overlapped.
    EXPECT_EQ(engine.totals().overlap_fraction_sum, 0.0);
    EXPECT_EQ(engine.totals().steps, 1);
  });
}

TEST(BucketAllreduce, SeveralBucketsPostFromInsideBackward) {
  // Registration order {unreached, bias, w1, w2}. Each [600, 600]
  // weight exceeds the engine's 1 MiB bucket cap and gets a bucket of
  // its own; the bias shares the third bucket with a parameter the loss
  // never reaches, so only finish_step can flush that one.
  obs::Counter& calls =
      obs::MetricsRegistry::global().counter("comm.allreduce.calls");
  for (const std::int64_t world : {1, 2, 3}) {
    const auto ws = static_cast<std::size_t>(world);
    // [rank][param]: each rank's local gradients, read after backward
    // (the engine averages in its flat buffers), and the averaged
    // gradients finish_step scatters back.
    std::vector<std::vector<std::vector<float>>> local(ws);
    std::vector<std::vector<std::vector<float>>> averaged(ws);
    comm::run_ranks(world, [&](comm::Communicator& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      RngEngine rng(41);  // the same parameters on every rank
      std::vector<Tensor> params = {
          Tensor::zeros({7}), Tensor::randn({600}, rng),
          Tensor::randn({600, 600}, rng, 0.0f, 0.05f),
          Tensor::randn({600, 600}, rng, 0.0f, 0.05f)};
      for (Tensor& p : params) p.set_requires_grad(true);
      RngEngine data_rng(100 + rank);  // a rank-local batch
      const Tensor x = Tensor::randn({4, 600}, data_rng);

      comm::coll::BucketAllreduce engine(comm, params);
      EXPECT_EQ(engine.bucketer().num_buckets(), 3u);
      const std::int64_t calls_before = calls.value();
      engine.begin_step();
      {
        core::GradReadyHookGuard guard(engine.hook());
        const Tensor h = core::silu(core::matmul(x, params[2]));
        const Tensor y = core::add(core::matmul(h, params[3]), params[1]);
        core::sum(core::square(y)).backward();
      }
      // Both weight buckets posted from inside backward; the bias
      // bucket still waits for its unreached member.
      if (world == 1) {
        EXPECT_EQ(calls.value() - calls_before, 2);
      }
      for (Tensor& p : params) {
        const std::span<float> g = p.grad_span();
        local[rank].emplace_back(g.begin(), g.end());
      }
      engine.finish_step();
      if (world == 1) {
        EXPECT_EQ(calls.value() - calls_before, 3);
      }
      for (Tensor& p : params) {
        const std::span<float> g = p.grad_span();
        averaged[rank].emplace_back(g.begin(), g.end());
      }
    });

    // The documented fold (DESIGN.md §12): per element, a double sum in
    // ascending rank order, one float cast, then * (1/world).
    const float inv = 1.0f / static_cast<float>(world);
    for (std::size_t i = 0; i < local[0].size(); ++i) {
      std::int64_t mismatches = 0;
      for (std::size_t j = 0; j < local[0][i].size(); ++j) {
        double acc = 0.0;
        for (std::size_t r = 0; r < ws; ++r) {
          acc += static_cast<double>(local[r][i][j]);
        }
        float want = static_cast<float>(acc);
        want *= inv;
        for (std::size_t r = 0; r < ws; ++r) {
          if (std::bit_cast<std::uint32_t>(averaged[r][i][j]) !=
              std::bit_cast<std::uint32_t>(want)) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0) << "world " << world << " parameter " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// DDP integration: bucketed training, elastic recovery
// ---------------------------------------------------------------------------

std::unique_ptr<tasks::ScalarRegressionTask> make_task(std::uint64_t seed) {
  RngEngine rng(seed);
  models::EGNNConfig ecfg;
  ecfg.hidden_dim = 16;
  ecfg.pos_hidden = 8;
  ecfg.num_layers = 2;
  auto enc = std::make_shared<models::EGNN>(ecfg, rng);
  models::OutputHeadConfig hcfg;
  hcfg.hidden_dim = 16;
  hcfg.num_blocks = 1;
  return std::make_unique<tasks::ScalarRegressionTask>(
      enc, "band_gap", hcfg, rng, data::TargetStats{1.4f, 1.1f});
}

data::DataLoaderOptions loader_opts(std::int64_t batch, std::int64_t rank,
                                    std::int64_t world) {
  data::DataLoaderOptions o;
  o.batch_size = batch;
  o.seed = 3;
  o.shuffle = false;
  o.rank = rank;
  o.world_size = world;
  o.collate.radius.cutoff = 4.0;
  return o;
}

train::DDPTrainer::Factory make_factory(
    const materials::MaterialsProjectDataset& ds) {
  return [&ds](std::int64_t rank, std::int64_t world) {
    train::RankContext ctx;
    auto task = make_task(13);
    ctx.train_loader = std::make_unique<data::DataLoader>(
        ds, loader_opts(4, rank, world));
    // lr 0.01 with grad_clip 1.0 (set in DDPOptions) keeps this recipe
    // stable: lr 0.05 unclipped diverges to NaN within one epoch.
    ctx.optimizer = std::make_unique<optim::SGD>(
        task->parameters(), optim::SGDOptions{.lr = 0.01});
    ctx.task = std::move(task);
    return ctx;
  };
}

TEST(DdpColl, IdentityReductionMatchesReferenceBitExact) {
  // Reference: one replica + optimizer per rank (each with its own
  // dropout stream, as each DDP rank has), gradients summed per element
  // in double in ascending rank order, cast once to float and scaled by
  // 1/world — the numerics of GroupState::reduce.
  materials::MaterialsProjectDataset ds(40, 29);
  for (const std::int64_t world : {1, 2, 3}) {
    std::vector<Tensor> ddp_params;
    const train::DDPTrainer::Factory base = make_factory(ds);
    const train::DDPTrainer::Factory factory = [&](std::int64_t rank,
                                                   std::int64_t ws) {
      train::RankContext ctx = base(rank, ws);
      if (rank == 0) ddp_params = ctx.task->parameters();
      return ctx;
    };
    train::DDPTrainer ddp;
    train::DDPOptions opts;
    opts.world_size = world;
    opts.max_epochs = 1;
    opts.grad_clip = 1.0;
    const train::DDPResult result = ddp.fit(factory, opts);

    // make_task(13) on every rank, so DDP's initial broadcast is a no-op.
    std::vector<std::unique_ptr<tasks::ScalarRegressionTask>> replicas;
    std::vector<std::vector<Tensor>> params;
    std::vector<std::unique_ptr<optim::SGD>> optims;
    std::vector<std::unique_ptr<data::DataLoader>> loaders;
    std::int64_t num_batches = -1;
    for (std::int64_t r = 0; r < world; ++r) {
      replicas.push_back(make_task(13));
      replicas.back()->train(true);
      params.push_back(replicas.back()->parameters());
      optims.push_back(std::make_unique<optim::SGD>(
          params.back(), optim::SGDOptions{.lr = 0.01}));
      loaders.push_back(std::make_unique<data::DataLoader>(
          ds, loader_opts(4, r, world)));
      loaders.back()->set_epoch(0);
      const std::int64_t nb = loaders.back()->num_batches();
      num_batches = num_batches < 0 ? nb : std::min(num_batches, nb);
    }
    ASSERT_GT(num_batches, 0);
    ASSERT_EQ(result.total_steps, num_batches);
    const float inv = 1.0f / static_cast<float>(world);
    for (std::int64_t b = 0; b < num_batches; ++b) {
      for (std::int64_t r = 0; r < world; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        optims[ri]->zero_grad();
        replicas[ri]->step(loaders[ri]->batch(b)).loss.backward();
      }
      for (std::size_t i = 0; i < params[0].size(); ++i) {
        std::vector<std::span<float>> grads;
        for (std::vector<Tensor>& p : params) grads.push_back(p[i].grad_span());
        for (std::size_t j = 0; j < grads[0].size(); ++j) {
          double acc = 0.0;
          for (const std::span<float>& g : grads) {
            acc += static_cast<double>(g[j]);
          }
          float v = static_cast<float>(acc);
          v *= inv;
          for (const std::span<float>& g : grads) g[j] = v;
        }
      }
      for (const auto& opt : optims) {
        opt->clip_grad_norm(1.0);
        opt->step();
      }
    }

    const std::vector<Tensor>& ref = params[0];
    ASSERT_EQ(ddp_params.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const std::span<const float> got = ddp_params[i].span();
      const std::span<const float> want = ref[i].span();
      ASSERT_EQ(got.size(), want.size());
      std::int64_t mismatches = 0;
      for (std::size_t j = 0; j < want.size(); ++j) {
        if (std::bit_cast<std::uint32_t>(got[j]) !=
            std::bit_cast<std::uint32_t>(want[j])) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0) << "world " << world << " parameter " << i;
    }
  }
}

TEST(DdpColl, ElasticRecoveryAfterRankKilledMidEpoch) {
  materials::MaterialsProjectDataset ds(24, 31);
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "matsci_elastic_test")
          .string();
  std::filesystem::create_directories(ckpt_dir);

  // Fire the fault a few collectives past setup (per-param broadcasts +
  // checkpoint barrier), i.e. inside the first epoch's step loop.
  const std::int64_t setup_calls =
      static_cast<std::int64_t>(make_task(13)->parameters().size());

  train::DDPTrainer ddp;
  train::DDPOptions opts;
  opts.world_size = 3;
  opts.max_epochs = 2;
  opts.grad_clip = 1.0;
  opts.elastic = true;
  opts.checkpoint_dir = ckpt_dir;
  opts.fault_hook = [setup_calls](std::int64_t rank,
                                  std::int64_t collective_calls) {
    return rank == 1 && collective_calls > setup_calls + 8;
  };
  const train::DDPResult result = ddp.fit(make_factory(ds), opts);

  EXPECT_EQ(result.recoveries, 1);
  ASSERT_EQ(result.lost_ranks.size(), 1u);
  EXPECT_EQ(result.lost_ranks[0], 1);
  EXPECT_EQ(result.final_world, 2);
  ASSERT_FALSE(result.epochs.empty());
  EXPECT_TRUE(std::isfinite(result.epochs.back().train.at("loss")));
  bool saw_rank_lost = false;
  for (const auto& a : result.anomalies) {
    if (a.type == obs::health::AnomalyType::kRankLost) {
      saw_rank_lost = true;
      EXPECT_EQ(a.rank, 1);
    }
  }
  EXPECT_TRUE(saw_rank_lost);
  // Health is off, so every step of the finishing incarnation posted
  // the whole gradient once; the incarnation that lost a rank reports
  // nothing.
  std::int64_t numel = 0;
  for (const Tensor& p : make_task(13)->parameters()) numel += p.numel();
  EXPECT_GT(result.total_steps, 0);
  EXPECT_EQ(result.comm_bytes, result.total_steps * 4 * numel);
  std::filesystem::remove_all(ckpt_dir);
}

TEST(DdpColl, CommCountersSeeEveryRankAndBucketRound) {
  // Collectives are counted where ranks meet, once per rank per post:
  // the bucket rounds feed comm.allreduce.bytes (on both ranks), and
  // the initial parameter broadcast feeds comm.broadcast.bytes once
  // per rank.
  materials::MaterialsProjectDataset ds(16, 35);
  obs::Counter& allreduce_bytes =
      obs::MetricsRegistry::global().counter("comm.allreduce.bytes");
  obs::Counter& broadcast_bytes =
      obs::MetricsRegistry::global().counter("comm.broadcast.bytes");
  const std::int64_t allreduce_before = allreduce_bytes.value();
  const std::int64_t broadcast_before = broadcast_bytes.value();
  train::DDPTrainer ddp;
  train::DDPOptions opts;
  opts.world_size = 2;
  opts.max_epochs = 1;
  const train::DDPResult result = ddp.fit(make_factory(ds), opts);

  ASSERT_GT(result.comm_bytes, 0);
  EXPECT_GE(allreduce_bytes.value() - allreduce_before, 2 * result.comm_bytes);
  std::int64_t param_bytes = 0;
  for (const Tensor& p : make_task(13)->parameters()) {
    param_bytes += p.numel() * static_cast<std::int64_t>(sizeof(float));
  }
  EXPECT_EQ(broadcast_bytes.value() - broadcast_before, 2 * param_bytes);
}

TEST(DdpColl, ElasticRequiresCheckpointDir) {
  train::DDPTrainer ddp;
  train::DDPOptions opts;
  opts.world_size = 2;
  opts.elastic = true;  // no checkpoint_dir
  materials::MaterialsProjectDataset ds(8, 33);
  EXPECT_THROW(ddp.fit(make_factory(ds), opts), matsci::Error);
}

}  // namespace
}  // namespace matsci
