// The determinism contract of src/core/parallel: every kernel on the
// shared pool must produce bit-identical results at any thread count
// (chunk layout is a function of problem shape only, partials merge in
// fixed order). These tests run the primitives and a full EGNN forward
// at 1, 2, and 8 threads and compare raw float bits. Built with the
// ctest label `parallel` and run under -DMATSCI_SANITIZE=thread like
// the serve suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "core/backend/backend.hpp"
#include "core/graph_ops.hpp"
#include "core/macros.hpp"
#include "core/ops.hpp"
#include "core/parallel/parallel_for.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/random.hpp"
#include "core/tensor.hpp"
#include "core/vec3.hpp"
#include "data/collate.hpp"
#include "graph/radius_graph.hpp"
#include "models/egnn.hpp"
#include "sym/synthetic_dataset.hpp"
#include "test_util.hpp"

namespace {

using namespace matsci;
namespace par = matsci::core::parallel;

constexpr std::int64_t kThreadCounts[] = {1, 2, 8};

/// Restores the global pool size on scope exit so test order doesn't
/// leak thread-count state.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : saved_(par::num_threads()) {}
  ~PoolSizeGuard() { par::set_num_threads(saved_); }

 private:
  std::int64_t saved_;
};

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> tensor_bits(const core::Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

/// Run `fn` once per thread count and assert all results bit-match
/// the 1-thread run.
template <typename Fn>
void expect_invariant_across_threads(Fn&& fn, const char* what) {
  PoolSizeGuard guard;
  par::set_num_threads(kThreadCounts[0]);
  const std::vector<float> reference = fn();
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    par::set_num_threads(kThreadCounts[i]);
    const std::vector<float> got = fn();
    EXPECT_TRUE(bit_identical(reference, got))
        << what << " differs at " << kThreadCounts[i] << " threads";
  }
}

// --- pool mechanics ----------------------------------------------------------

TEST(ThreadPool, SubmitRunsTaskAndPropagatesExceptions) {
  std::atomic<int> ran{0};
  par::TaskHandle ok = par::ThreadPool::global().submit([&] { ++ran; });
  ok.run_now_or_wait();
  EXPECT_EQ(ran.load(), 1);

  par::TaskHandle bad = par::ThreadPool::global().submit(
      [] { throw matsci::Error("task failed"); });
  EXPECT_THROW(bad.run_now_or_wait(), matsci::Error);
}

TEST(ThreadPool, RunNowOrWaitExecutesInlineOnBusyPool) {
  // With the pool collapsed to one worker occupied by a parked task,
  // a second task can still be driven to completion by the owner.
  PoolSizeGuard guard;
  par::set_num_threads(1);
  std::atomic<bool> release{false};
  par::TaskHandle parked = par::ThreadPool::global().submit([&] {
    while (!release.load()) {
    }
  });
  std::atomic<int> ran{0};
  par::TaskHandle queued = par::ThreadPool::global().submit([&] { ++ran; });
  queued.run_now_or_wait();  // pool is busy: must run inline, not hang
  EXPECT_EQ(ran.load(), 1);
  release.store(true);
  parked.run_now_or_wait();
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  PoolSizeGuard guard;
  for (const std::int64_t threads : kThreadCounts) {
    par::set_num_threads(threads);
    std::vector<int> hits(1013, 0);
    par::parallel_for(0, 1013, 64, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
    });
    for (const int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelFor, PropagatesChunkExceptions) {
  EXPECT_THROW(
      par::parallel_for(0, 1000, 10,
                        [&](std::int64_t b, std::int64_t) {
                          if (b >= 500) throw matsci::Error("chunk error");
                        }),
      matsci::Error);
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A parallel_for issued from inside a pool task must execute without
  // re-enqueueing (the nesting guard) — this would deadlock a
  // single-thread pool if the inner loop waited on pool helpers.
  PoolSizeGuard guard;
  par::set_num_threads(1);
  std::atomic<std::int64_t> total{0};
  par::TaskHandle job = par::ThreadPool::global().submit([&] {
    par::parallel_for(0, 256, 16, [&](std::int64_t b, std::int64_t e) {
      total.fetch_add(e - b);
    });
  });
  job.run_now_or_wait();
  EXPECT_EQ(total.load(), 256);
}

// --- determinism: primitives -------------------------------------------------

TEST(ParallelDeterminism, ParallelReduceIsThreadCountInvariant) {
  core::RngEngine rng(11);
  std::vector<float> values(100'000);
  for (auto& v : values) v = rng.normal();
  expect_invariant_across_threads(
      [&] {
        const double total = par::parallel_reduce(
            0, static_cast<std::int64_t>(values.size()), 4096, 0.0,
            [&](std::int64_t b, std::int64_t e) {
              double part = 0.0;
              for (std::int64_t i = b; i < e; ++i) part += values[i];
              return part;
            },
            [](double x, double y) { return x + y; });
        return std::vector<float>{static_cast<float>(total)};
      },
      "parallel_reduce");
}

TEST(ParallelDeterminism, SegmentSumIsThreadCountInvariant) {
  core::RngEngine rng(12);
  const std::int64_t rows = 8192, d = 64, segments = 512;
  core::Tensor x = core::Tensor::randn({rows, d}, rng);
  std::vector<std::int64_t> seg(static_cast<std::size_t>(rows));
  for (auto& s : seg) s = rng.next_int(segments);

  // Serial reference: the exact loop the seed kernel used.
  std::vector<float> expected(static_cast<std::size_t>(segments * d), 0.0f);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < d; ++j) {
      expected[seg[static_cast<std::size_t>(r)] * d + j] +=
          x.data()[r * d + j];
    }
  }

  expect_invariant_across_threads(
      [&] {
        core::NoGradGuard no_grad;
        return tensor_bits(core::segment_sum(x, seg, segments));
      },
      "segment_sum");

  // And the parallel kernel matches the serial accumulation order
  // bit-for-bit (bucketed order == ascending row order per segment).
  core::NoGradGuard no_grad;
  EXPECT_TRUE(
      bit_identical(expected, tensor_bits(core::segment_sum(x, seg, segments))));
}

TEST(ParallelDeterminism, ScatterGatherMatmulAreThreadCountInvariant) {
  core::RngEngine rng(13);
  const std::int64_t n = 1024, d = 64;
  core::Tensor x = core::Tensor::randn({n, d}, rng);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(4 * n));
  for (auto& i : idx) i = rng.next_int(n);
  core::Tensor edges = core::Tensor::randn({4 * n, d}, rng);
  core::Tensor a = core::Tensor::randn({192, 96}, rng);
  core::Tensor b = core::Tensor::randn({96, 160}, rng);

  expect_invariant_across_threads(
      [&] {
        core::NoGradGuard no_grad;
        return tensor_bits(core::gather_rows(x, idx));
      },
      "gather_rows");
  expect_invariant_across_threads(
      [&] {
        core::NoGradGuard no_grad;
        return tensor_bits(core::scatter_add_rows(edges, idx, n));
      },
      "scatter_add_rows");
  expect_invariant_across_threads(
      [&] {
        core::NoGradGuard no_grad;
        return tensor_bits(core::matmul(a, b));
      },
      "matmul");
}

TEST(ParallelDeterminism, RadiusGraphEdgesAreThreadCountInvariant) {
  core::RngEngine rng(14);
  std::vector<core::Vec3> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)});
  }
  graph::RadiusGraphOptions opts;
  opts.cutoff = 3.0;
  opts.max_neighbors = 12;

  PoolSizeGuard guard;
  par::set_num_threads(1);
  const graph::Graph reference = graph::build_radius_graph(pts, opts);
  for (const std::int64_t threads : {2, 8}) {
    par::set_num_threads(threads);
    const graph::Graph got = graph::build_radius_graph(pts, opts);
    EXPECT_EQ(reference.src, got.src) << threads << " threads";
    EXPECT_EQ(reference.dst, got.dst) << threads << " threads";
  }
}

/// Every compiled-and-supported backend, with the active one restored
/// on scope exit.
struct EachBackend {
  core::backend::Backend saved = core::backend::active_backend();
  ~EachBackend() { core::backend::set_backend(saved); }
  std::vector<core::backend::Backend> list() const {
    std::vector<core::backend::Backend> out;
    for (int i = 0; i < core::backend::kNumBackends; ++i) {
      const auto b = static_cast<core::backend::Backend>(i);
      if (core::backend::backend_supported(b)) out.push_back(b);
    }
    return out;
  }
};

TEST(ParallelDeterminism, KernelsAreThreadCountInvariantUnderEveryBackend) {
  // The thread-count contract holds per backend, not just for the
  // default table: chunk layout depends only on shape and grain, and
  // every kernel's chunk arithmetic is independent of thread count. Run
  // the reassociating kernels (the ones that would betray a
  // chunk-dependent accumulation first) under each compiled-and-
  // supported tier.
  namespace bk = core::backend;
  EachBackend backends;

  core::RngEngine rng(16);
  core::Tensor a = core::Tensor::randn({160, 96}, rng);
  core::Tensor b = core::Tensor::randn({96, 128}, rng);
  core::Tensor x = core::Tensor::randn({8192, 64}, rng);
  core::Tensor logits = core::Tensor::randn({2048, 33}, rng);
  std::vector<std::int64_t> labels(2048);
  for (auto& y : labels) y = rng.next_int(33);

  for (const bk::Backend backend : backends.list()) {
    bk::set_backend(backend);
    const std::string tag = std::string("backend ") + bk::backend_name(backend);
    expect_invariant_across_threads(
        [&] {
          core::NoGradGuard no_grad;
          return tensor_bits(core::matmul(a, b));
        },
        (tag + " matmul").c_str());
    expect_invariant_across_threads(
        [&] {
          core::NoGradGuard no_grad;
          return tensor_bits(core::sum(x));
        },
        (tag + " sum").c_str());
    expect_invariant_across_threads(
        [&] {
          core::Tensor x = logits.detach();
          x.set_requires_grad(true);
          core::Tensor loss = core::cross_entropy(x, labels);
          loss.backward();
          std::vector<float> out = tensor_bits(loss);
          const std::vector<float> g = tensor_bits(x.grad());
          out.insert(out.end(), g.begin(), g.end());
          return out;
        },
        (tag + " cross_entropy").c_str());
  }
}

TEST(ParallelDeterminism, MatmulGradsAreThreadCountInvariantUnderEveryBackend) {
  // A tall product with a 65-wide inner dimension. dW chunks hold whole
  // 4-row kk groups and dA runs matmul_nn on W^T; neither may depend on
  // how many threads share the chunks.
  namespace bk = core::backend;
  EachBackend backends;
  PoolSizeGuard pool;
  core::RngEngine rng(17);
  const std::int64_t n = 2000, k = 65, m = 32;
  const std::vector<float> av = tensor_bits(core::Tensor::randn({n, k}, rng));
  const std::vector<float> wv = tensor_bits(core::Tensor::randn({k, m}, rng));
  const core::Tensor g = core::Tensor::randn({n, m}, rng);
  const auto grads = [&] {
    return matsci::testing::grads_under(
        core::matmul, av, {n, k}, wv, {k, m}, g);
  };
  for (const bk::Backend backend : backends.list()) {
    bk::set_backend(backend);
    par::set_num_threads(1);
    const matsci::testing::PairGrads reference = grads();
    for (const std::int64_t threads : {2, 4}) {
      par::set_num_threads(threads);
      const matsci::testing::PairGrads got = grads();
      EXPECT_TRUE(bit_identical(reference.a, got.a))
          << bk::backend_name(backend) << " dA at " << threads << " threads";
      EXPECT_TRUE(bit_identical(reference.b, got.b))
          << bk::backend_name(backend) << " dW at " << threads << " threads";
    }
  }
}

TEST(ParallelDeterminism, EdgeConcatLinearIsThreadCountInvariantUnderEveryBackend) {
  // The fused first edge layer at a pretraining batch's shape (640
  // nodes, 9216 edges, width 32), so the node GEMMs, the edge pass, the
  // bucketed scatter and the dW rows all split into several chunks.
  namespace bk = core::backend;
  EachBackend backends;
  PoolSizeGuard pool;
  core::RngEngine rng(19);
  const std::int64_t n = 640, e = 9216, d = 32, m = 32;
  std::vector<std::int64_t> dst(static_cast<std::size_t>(e));
  std::vector<std::int64_t> src(static_cast<std::size_t>(e));
  for (std::int64_t r = 0; r < e; ++r) {
    dst[static_cast<std::size_t>(r)] = rng.next_int(n);
    src[static_cast<std::size_t>(r)] = rng.next_int(n);
  }
  const std::vector<float> hv = tensor_bits(core::Tensor::randn({n, d}, rng));
  const std::vector<float> d2v =
      tensor_bits(core::Tensor::rand_uniform({e, 1}, rng, 0.0f, 4.0f));
  const std::vector<float> wv =
      tensor_bits(core::Tensor::randn({2 * d + 1, m}, rng, 0.0f, 0.2f));
  const std::vector<float> bv = tensor_bits(core::Tensor::randn({m}, rng));
  const core::Tensor up = core::Tensor::randn({e, m}, rng);
  const auto run = [&] {
    std::vector<core::Tensor> in = {
        core::Tensor::from_vector(hv, {n, d}),
        core::Tensor::from_vector(d2v, {e, 1}),
        core::Tensor::from_vector(wv, {2 * d + 1, m}),
        core::Tensor::from_vector(bv, {m})};
    for (core::Tensor& t : in) t.set_requires_grad(true);
    const core::Tensor out =
        core::edge_concat_linear(in[0], in[1], in[2], in[3], dst, src);
    std::vector<float> bits = tensor_bits(out);
    core::sum(core::mul(out, up)).backward();
    for (const core::Tensor& t : in) {
      const std::vector<float> g = tensor_bits(t.grad());
      bits.insert(bits.end(), g.begin(), g.end());
    }
    return bits;
  };
  for (const bk::Backend backend : backends.list()) {
    bk::set_backend(backend);
    par::set_num_threads(1);
    const std::vector<float> reference = run();
    for (const std::int64_t threads : {2, 4}) {
      par::set_num_threads(threads);
      EXPECT_TRUE(bit_identical(reference, run()))
          << bk::backend_name(backend) << " at " << threads << " threads";
    }
  }
}

TEST(ParallelDeterminism, BroadcastGradientsMatchSerialReference) {
  // A broadcast operand's gradient sums per-element terms
  // g * d(op)/db: kRow adds whole rows, kCol reduces each row in
  // parallel. Each output still sums its terms in ascending order from
  // zero, as the serial loop did, so every tier and thread count gives
  // the reference bits.
  namespace bk = core::backend;
  EachBackend backends;
  PoolSizeGuard pool;
  core::RngEngine rng(18);
  const std::int64_t n = 4000, d = 37;
  const std::vector<float> av = tensor_bits(core::Tensor::randn({n, d}, rng));
  const core::Tensor g = core::Tensor::randn({n, d}, rng);
  const float* gd = g.data();
  // Kept away from zero so div's terms stay well scaled.
  const auto away_from_zero = [&](std::int64_t count) {
    std::vector<float> v = tensor_bits(core::Tensor::randn({count}, rng));
    for (float& x : v) x = x < 0.0f ? x - 0.5f : x + 0.5f;
    return v;
  };
  const std::vector<float> row = away_from_zero(d);
  const std::vector<float> col = away_from_zero(n);

  struct Op {
    const char* name;
    core::Tensor (*fn)(const core::Tensor&, const core::Tensor&);
    float (*dfa)(float, float);
    float (*dfb)(float, float);
  };
  const Op ops[] = {
      {"add", core::add, [](float, float) { return 1.0f; },
       [](float, float) { return 1.0f; }},
      {"sub", core::sub, [](float, float) { return 1.0f; },
       [](float, float) { return -1.0f; }},
      {"mul", core::mul, [](float, float y) { return y; },
       [](float x, float) { return x; }},
      {"div", core::div, [](float, float y) { return 1.0f / y; },
       [](float x, float y) { return -x / (y * y); }},
  };
  for (const Op& op : ops) {
    for (const bool by_row : {true, false}) {
      const std::vector<float>& bv = by_row ? row : col;
      const auto bat = [&](std::int64_t i) {
        return by_row ? bv[i % d] : bv[i / d];
      };
      std::vector<float> ga(static_cast<std::size_t>(n * d));
      std::vector<float> gb(bv.size(), 0.0f);
      for (std::int64_t i = 0; i < n * d; ++i) {
        ga[i] = gd[i] * op.dfa(av[i], bat(i));
        gb[by_row ? i % d : i / d] += gd[i] * op.dfb(av[i], bat(i));
      }
      const core::Shape bshape = by_row ? core::Shape{d} : core::Shape{n, 1};
      for (const bk::Backend backend : backends.list()) {
        bk::set_backend(backend);
        for (const std::int64_t threads : {1, 4}) {
          par::set_num_threads(threads);
          const matsci::testing::PairGrads got =
              matsci::testing::grads_under(op.fn, av, {n, d}, bv, bshape, g);
          EXPECT_TRUE(bit_identical(ga, got.a))
              << op.name << (by_row ? " row" : " col") << " da, "
              << bk::backend_name(backend) << ", " << threads << " threads";
          EXPECT_TRUE(bit_identical(gb, got.b))
              << op.name << (by_row ? " row" : " col") << " db, "
              << bk::backend_name(backend) << ", " << threads << " threads";
        }
      }
    }
  }
}

// --- determinism: full model forward ----------------------------------------

TEST(ParallelDeterminism, EgnnForwardIsThreadCountInvariant) {
  core::RngEngine rng(15);
  models::EGNNConfig cfg;
  cfg.hidden_dim = 64;
  cfg.pos_hidden = 16;
  cfg.num_layers = 3;
  models::EGNN encoder(cfg, rng);

  sym::SyntheticPointGroupDataset ds(16, 21);
  std::vector<data::StructureSample> samples;
  for (std::int64_t i = 0; i < 16; ++i) samples.push_back(ds.get(i));
  data::CollateOptions copts;
  copts.representation = data::Representation::kPointCloud;

  expect_invariant_across_threads(
      [&] {
        core::NoGradGuard no_grad;
        const data::Batch batch = data::collate(samples, copts);
        return tensor_bits(encoder.encode(batch));
      },
      "EGNN forward");
}

TEST(ParallelDeterminism, EgnnBackwardIsThreadCountInvariant) {
  sym::SyntheticPointGroupDataset ds(8, 22);
  std::vector<data::StructureSample> samples;
  for (std::int64_t i = 0; i < 8; ++i) samples.push_back(ds.get(i));
  data::CollateOptions copts;
  copts.representation = data::Representation::kPointCloud;
  const data::Batch batch = data::collate(samples, copts);

  models::EGNNConfig cfg;
  cfg.hidden_dim = 32;
  cfg.pos_hidden = 8;
  cfg.num_layers = 2;

  expect_invariant_across_threads(
      [&] {
        core::RngEngine rng(23);  // fresh identical model per run
        models::EGNN encoder(cfg, rng);
        core::Tensor loss = core::mean(core::square(encoder.encode(batch)));
        loss.backward();
        std::vector<float> grads;
        for (const core::Tensor& p : encoder.parameters()) {
          const core::Tensor g = p.grad();
          grads.insert(grads.end(), g.data(), g.data() + g.numel());
        }
        grads.push_back(loss.item());
        return grads;
      },
      "EGNN backward");
}

}  // namespace
