// Kernel microbenchmarks (google-benchmark): the primitive operations
// underneath the training pipeline — dense matmul, the DGL-style
// gather/segment message-passing kernels, radius-graph construction,
// and a full EGNN forward — so performance regressions in the substrate
// are visible independent of end-to-end training noise.
//
// The custom main() additionally sweeps {scalar, best-SIMD} kernel
// backends x {1, 2, 4, max} pool threads on the large matmul, a tall
// 65-wide matmul forward + backward, the fused EGNN edge layer forward
// + backward, and the elementwise / reduction / segment_sum / gather
// shapes and emits one
// JSON line per (kernel, backend, threads) point through the shared
// bench reporter (bench_common.hpp). Each line carries
// `speedup_vs_1t` (thread scaling within a backend) and
// `speedup_vs_scalar` (SIMD win at the same thread count), so both the
// parallel runtime and the vector kernels are tracked release over
// release. `--sweep-only` skips the google-benchmark suite;
// `--no-sweep` skips the sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/backend/backend.hpp"
#include "core/graph_ops.hpp"
#include "core/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "data/collate.hpp"
#include "graph/radius_graph.hpp"
#include "materials/lips.hpp"
#include "materials/md.hpp"
#include "models/egnn.hpp"
#include "sym/synthetic_dataset.hpp"

namespace {

using namespace matsci;

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  core::RngEngine rng(1);
  core::Tensor a = core::Tensor::randn({n, n}, rng);
  core::Tensor b = core::Tensor::randn({n, n}, rng);
  core::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GatherRows(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  core::RngEngine rng(2);
  core::Tensor x = core::Tensor::randn({n, 64}, rng);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(4 * n));
  for (auto& i : idx) i = rng.next_int(n);
  core::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::gather_rows(x, idx));
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * 64);
}
BENCHMARK(BM_GatherRows)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SegmentSum(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const std::int64_t segments = rows / 8;
  core::RngEngine rng(3);
  core::Tensor x = core::Tensor::randn({rows, 64}, rng);
  std::vector<std::int64_t> seg(static_cast<std::size_t>(rows));
  for (auto& s : seg) s = rng.next_int(segments);
  core::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::segment_sum(x, seg, segments));
  }
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_SegmentSum)->Arg(1024)->Arg(8192);

void BM_RadiusGraph(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  core::RngEngine rng(4);
  std::vector<core::Vec3> pts;
  for (std::int64_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 12)});
  }
  graph::RadiusGraphOptions opts;
  opts.cutoff = 4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_radius_graph(pts, opts));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_RadiusGraph)->Arg(32)->Arg(128)->Arg(512);

void BM_RadiusGraphPeriodic(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  core::RngEngine rng(5);
  std::vector<core::Vec3> pts;
  for (std::int64_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 12)});
  }
  const core::Mat3 cell =
      core::mat3_rows({12, 0, 0}, {0, 12, 0}, {0, 0, 12});
  graph::RadiusGraphOptions opts;
  opts.cutoff = 4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_radius_graph(pts, opts, cell));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_RadiusGraphPeriodic)->Arg(32)->Arg(128);

// LJ energy/forces on an n x n x n LiPS supercell with the neighbor
// list rebuilt every iteration (atom 0 is bounced past the skin/2
// displacement threshold, the MD steady state for a diffusing system):
// cell-list binning vs the O(N^2) candidate scan. The cell path's win
// grows with atom count; both paths produce bit-identical energies
// (tested in test_md).
void lj_provider_loop(benchmark::State& state,
                      const materials::NeighborListOptions& nlopts) {
  const std::int64_t n = state.range(0);
  materials::Structure sc =
      materials::LiPSDataset::initial_structure().supercell(n, n, n);
  materials::LJForceProvider provider(4.0, nlopts);
  std::vector<core::Vec3> forces;
  const double bounce = 1.5 * (nlopts.skin / 2.0) / (6.2 * n);
  double sign = 1.0;
  for (auto _ : state) {
    sc.frac[0].x += sign * bounce;
    sign = -sign;
    benchmark::DoNotOptimize(provider.energy_and_forces(sc, forces));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sc.num_atoms()));
}

void BM_LJCellList(benchmark::State& state) {
  lj_provider_loop(state, {});
}
BENCHMARK(BM_LJCellList)->Arg(2)->Arg(3)->Arg(4);

void BM_LJPairScan(benchmark::State& state) {
  materials::NeighborListOptions opts;
  opts.disable_cells = true;
  lj_provider_loop(state, opts);
}
BENCHMARK(BM_LJPairScan)->Arg(2)->Arg(3)->Arg(4);

void BM_EgnnForward(benchmark::State& state) {
  const std::int64_t hidden = state.range(0);
  core::RngEngine rng(6);
  models::EGNNConfig cfg;
  cfg.hidden_dim = hidden;
  cfg.pos_hidden = hidden / 4;
  cfg.num_layers = 3;
  models::EGNN encoder(cfg, rng);

  sym::SyntheticPointGroupDataset ds(16, 7);
  std::vector<data::StructureSample> samples;
  for (std::int64_t i = 0; i < 16; ++i) samples.push_back(ds.get(i));
  data::CollateOptions copts;
  copts.representation = data::Representation::kPointCloud;
  const data::Batch batch = data::collate(samples, copts);

  core::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(batch));
  }
  state.SetItemsProcessed(state.iterations() * batch.num_nodes());
}
BENCHMARK(BM_EgnnForward)->Arg(32)->Arg(64)->Arg(128);

void BM_EgnnTrainStep(benchmark::State& state) {
  core::RngEngine rng(8);
  models::EGNNConfig cfg;
  cfg.hidden_dim = 64;
  cfg.pos_hidden = 16;
  cfg.num_layers = 3;
  models::EGNN encoder(cfg, rng);

  sym::SyntheticPointGroupDataset ds(16, 9);
  std::vector<data::StructureSample> samples;
  for (std::int64_t i = 0; i < 16; ++i) samples.push_back(ds.get(i));
  data::CollateOptions copts;
  copts.representation = data::Representation::kPointCloud;
  const data::Batch batch = data::collate(samples, copts);

  for (auto _ : state) {
    encoder.zero_grad();
    core::Tensor loss = core::mean(core::square(encoder.encode(batch)));
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * batch.num_nodes());
}
BENCHMARK(BM_EgnnTrainStep);

// --- thread-count scaling sweep ---------------------------------------------

/// Best-of-3 wall time per call, microseconds. One untimed warm-up call
/// absorbs first-touch allocation; best-of filters scheduler noise.
template <typename Fn>
double time_us_per_call(Fn&& fn, int reps) {
  fn();
  double best = 1e300;
  for (int round = 0; round < 3; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::micro>(t1 - t0).count() / reps);
  }
  return best;
}

struct SweepKernel {
  const char* name;
  std::int64_t size;  ///< problem-size knob, reported in the JSON line
  double (*run)(std::int64_t size);
};

double sweep_matmul(std::int64_t n) {
  core::RngEngine rng(41);
  core::Tensor a = core::Tensor::randn({n, n}, rng);
  core::Tensor b = core::Tensor::randn({n, n}, rng);
  core::NoGradGuard no_grad;
  return time_us_per_call(
      [&] { benchmark::DoNotOptimize(core::matmul(a, b)); }, 5);
}

double sweep_matmul_bwd(std::int64_t n) {
  // A tall product with a 65-wide inner dimension, [n,65]·[65,32], the
  // GEMM reference beside edge_linear: the forward plus the backward to
  // both operands (dA and dW).
  core::RngEngine rng(46);
  core::Tensor a = core::Tensor::randn({n, 65}, rng);
  core::Tensor w = core::Tensor::randn({65, 32}, rng);
  a.set_requires_grad(true);
  w.set_requires_grad(true);
  return time_us_per_call(
      [&] {
        a.zero_grad();
        w.zero_grad();
        core::sum(core::matmul(a, w)).backward();
      },
      5);
}

double sweep_edge_linear(std::int64_t edges) {
  // The first EGNN edge layer of a pretraining step as the fused op:
  // 640 nodes of width 32, `edges` edges, weight [65,32]; the forward
  // plus the backward to h, d2, the weight and the bias.
  const std::int64_t n = 640, h = 32;
  core::RngEngine rng(47);
  core::Tensor x = core::Tensor::randn({n, h}, rng);
  core::Tensor d2 = core::Tensor::rand_uniform({edges, 1}, rng, 0.0f, 4.0f);
  core::Tensor w = core::Tensor::randn({2 * h + 1, h}, rng, 0.0f, 0.2f);
  core::Tensor b = core::Tensor::randn({h}, rng);
  std::vector<std::int64_t> dst(static_cast<std::size_t>(edges));
  std::vector<std::int64_t> src(static_cast<std::size_t>(edges));
  for (auto& i : dst) i = rng.next_int(n);
  for (auto& i : src) i = rng.next_int(n);
  for (core::Tensor* t : {&x, &d2, &w, &b}) t->set_requires_grad(true);
  return time_us_per_call(
      [&] {
        for (core::Tensor* t : {&x, &d2, &w, &b}) t->zero_grad();
        core::sum(core::edge_concat_linear(x, d2, w, b, dst, src)).backward();
      },
      5);
}

double sweep_segment_sum(std::int64_t rows) {
  const std::int64_t segments = rows / 8;
  core::RngEngine rng(42);
  core::Tensor x = core::Tensor::randn({rows, 64}, rng);
  std::vector<std::int64_t> seg(static_cast<std::size_t>(rows));
  for (auto& s : seg) s = rng.next_int(segments);
  core::NoGradGuard no_grad;
  return time_us_per_call(
      [&] { benchmark::DoNotOptimize(core::segment_sum(x, seg, segments)); },
      20);
}

double sweep_gather(std::int64_t n) {
  core::RngEngine rng(43);
  core::Tensor x = core::Tensor::randn({n, 64}, rng);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(4 * n));
  for (auto& i : idx) i = rng.next_int(n);
  core::NoGradGuard no_grad;
  return time_us_per_call(
      [&] { benchmark::DoNotOptimize(core::gather_rows(x, idx)); }, 20);
}

double sweep_elementwise(std::int64_t n) {
  // mul + add + silu over a flat [n] tensor: the fused shape of one
  // message-MLP activation, dominated by the binary/unary kernels.
  core::RngEngine rng(44);
  core::Tensor a = core::Tensor::randn({n, 1}, rng);
  core::Tensor b = core::Tensor::randn({n, 1}, rng);
  core::NoGradGuard no_grad;
  return time_us_per_call(
      [&] { benchmark::DoNotOptimize(core::silu(core::add(core::mul(a, b), a))); },
      10);
}

double sweep_reduce(std::int64_t n) {
  core::RngEngine rng(45);
  core::Tensor x = core::Tensor::randn({n, 1}, rng);
  core::NoGradGuard no_grad;
  return time_us_per_call(
      [&] { benchmark::DoNotOptimize(core::sum(x)); }, 10);
}

/// Sweep {scalar, best-SIMD} backends x {1, 2, 4, max} pool threads
/// (deduplicated, ascending) and report per-call time plus two
/// speedups: over the same backend at 1 thread, and over the scalar
/// backend at the same thread count. Within a backend the kernels are
/// bit-deterministic across the sweep, so those points differ only in
/// wall time.
void run_thread_sweep(obs::BenchReporter& reporter) {
  namespace par = core::parallel;
  namespace bk = core::backend;
  const std::int64_t saved = par::num_threads();
  const bk::Backend saved_backend = bk::active_backend();
  const std::int64_t max_threads = par::ThreadPool::default_size();
  std::vector<std::int64_t> counts = {1, 2, 4, max_threads};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  std::vector<bk::Backend> backends = {bk::Backend::kScalar};
  if (bk::best_supported() != bk::Backend::kScalar) {
    backends.push_back(bk::best_supported());
  }

  const SweepKernel kernels[] = {
      {"matmul", 256, sweep_matmul},
      {"matmul_bwd", 9216, sweep_matmul_bwd},
      {"edge_linear", 9216, sweep_edge_linear},
      {"elementwise", 1 << 20, sweep_elementwise},
      {"reduce_sum", 1 << 20, sweep_reduce},
      {"segment_sum", 8192, sweep_segment_sum},
      {"gather_rows", 4096, sweep_gather},
  };

  std::printf("kernel sweep: {scalar,%s} x threads {1,2,4,max=%lld}\n",
              bk::backend_name(backends.back()),
              static_cast<long long>(max_threads));
  for (const SweepKernel& k : kernels) {
    // scalar_us[i] = scalar-backend time at counts[i], the denominator
    // for speedup_vs_scalar at matching thread counts.
    std::vector<double> scalar_us(counts.size(), 0.0);
    for (const bk::Backend backend : backends) {
      bk::set_backend(backend);
      double base_us = 0.0;
      for (std::size_t ci = 0; ci < counts.size(); ++ci) {
        const std::int64_t t = counts[ci];
        par::set_num_threads(t);
        const double us = k.run(k.size);
        if (t == 1) base_us = us;
        if (backend == bk::Backend::kScalar) scalar_us[ci] = us;
        reporter.add(obs::JsonRecord()
                         .set("kernel", k.name)
                         .set("backend", bk::backend_name(backend))
                         .set("size", k.size)
                         .set("threads", t)
                         .set("us_per_call", us)
                         .set("speedup_vs_1t",
                              base_us > 0.0 ? base_us / us : 0.0)
                         .set("speedup_vs_scalar",
                              scalar_us[ci] > 0.0 ? scalar_us[ci] / us : 0.0));
      }
    }
  }
  bk::set_backend(saved_backend);
  par::set_num_threads(saved);
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep = true, suite = true;
  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep-only") == 0) {
      suite = false;
    } else if (std::strcmp(argv[i], "--no-sweep") == 0) {
      sweep = false;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  obs::BenchReporter reporter = bench::make_reporter("kernels");
  if (sweep) run_thread_sweep(reporter);
  // Write artifacts and disarm tracing before the google-benchmark
  // suite: an armed span costs two clock reads, which would distort the
  // microsecond-scale kernel timings below.
  reporter.finish();
  obs::Tracer::global().set_enabled(false);
  if (suite) {
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
