// Kernel microbenchmark: the primitive operations underneath the
// training, serving and MD pipelines, timed apart from end-to-end noise
// (perfbench times the EGNN forward and train step end to end).
//
// One sweep over {scalar, best-SIMD} kernel backends x {1, 2, 4, max}
// pool threads: the large matmul, a tall 65-wide matmul forward +
// backward, the fused EGNN edge layer forward + backward, the
// elementwise / reduction / segment_sum / gather shapes, the periodic
// radius graph, and LJ energy/forces on a 768-atom LiPS supercell with
// cell-list binning against the O(N^2) pair scan. It emits one JSON
// line per (kernel, backend, threads) point through the shared bench
// reporter (bench_common.hpp). Each line carries the median per-call
// time of 7 rounds with its quartiles, `speedup_vs_1t` (thread scaling
// within a backend) and `speedup_vs_scalar` (SIMD win at the same
// thread count), so both the parallel runtime and the vector kernels
// are tracked release over release.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/backend/backend.hpp"
#include "core/graph_ops.hpp"
#include "core/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "graph/radius_graph.hpp"
#include "materials/lips.hpp"
#include "materials/md.hpp"

namespace {

using namespace matsci;

/// Keeps a timed call's result observable so the compiler cannot drop
/// the call.
volatile double g_sink = 0.0;
void sink(const core::Tensor& t) { g_sink = g_sink + t.data()[0]; }
void sink(double v) { g_sink = g_sink + v; }
void sink(const graph::Graph& g) {
  g_sink = g_sink + static_cast<double>(g.src.size());
}

/// Per-call wall time in microseconds over 7 rounds of `reps` calls:
/// the median round and the quartiles. One untimed warm-up call absorbs
/// first-touch allocation.
template <typename Fn>
bench::Spread time_us_per_call(Fn&& fn, int reps) {
  constexpr int kRounds = 7;
  fn();
  std::vector<double> us;
  for (int round = 0; round < kRounds; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count() /
                 reps);
  }
  return bench::spread_of(std::move(us));
}

struct SweepKernel {
  const char* name;
  std::int64_t size;  ///< problem-size knob, reported in the JSON line
  bench::Spread (*run)(std::int64_t size);
};

bench::Spread sweep_matmul(std::int64_t n) {
  core::RngEngine rng(41);
  core::Tensor a = core::Tensor::randn({n, n}, rng);
  core::Tensor b = core::Tensor::randn({n, n}, rng);
  core::NoGradGuard no_grad;
  return time_us_per_call([&] { sink(core::matmul(a, b)); }, 5);
}

bench::Spread sweep_matmul_bwd(std::int64_t n) {
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

bench::Spread sweep_edge_linear(std::int64_t edges) {
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

bench::Spread sweep_segment_sum(std::int64_t rows) {
  const std::int64_t segments = rows / 8;
  core::RngEngine rng(42);
  core::Tensor x = core::Tensor::randn({rows, 64}, rng);
  std::vector<std::int64_t> seg(static_cast<std::size_t>(rows));
  for (auto& s : seg) s = rng.next_int(segments);
  core::NoGradGuard no_grad;
  return time_us_per_call([&] { sink(core::segment_sum(x, seg, segments)); },
                          20);
}

bench::Spread sweep_gather(std::int64_t n) {
  core::RngEngine rng(43);
  core::Tensor x = core::Tensor::randn({n, 64}, rng);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(4 * n));
  for (auto& i : idx) i = rng.next_int(n);
  core::NoGradGuard no_grad;
  return time_us_per_call([&] { sink(core::gather_rows(x, idx)); }, 20);
}

bench::Spread sweep_elementwise(std::int64_t n) {
  // mul + add + silu over a flat [n] tensor: the fused shape of one
  // message-MLP activation, dominated by the binary/unary kernels.
  core::RngEngine rng(44);
  core::Tensor a = core::Tensor::randn({n, 1}, rng);
  core::Tensor b = core::Tensor::randn({n, 1}, rng);
  core::NoGradGuard no_grad;
  return time_us_per_call(
      [&] { sink(core::silu(core::add(core::mul(a, b), a))); }, 10);
}

bench::Spread sweep_reduce(std::int64_t n) {
  core::RngEngine rng(45);
  core::Tensor x = core::Tensor::randn({n, 1}, rng);
  core::NoGradGuard no_grad;
  return time_us_per_call([&] { sink(core::sum(x)); }, 10);
}

bench::Spread sweep_radius_graph_pbc(std::int64_t n) {
  // n random points in a periodic 12 Å cube, 4 Å cutoff: the
  // minimal-image distance kernel (sq_dists_pbc) and the chunked scan.
  core::RngEngine rng(5);
  std::vector<core::Vec3> pts;
  for (std::int64_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 12)});
  }
  const core::Mat3 cell = core::mat3_rows({12, 0, 0}, {0, 12, 0}, {0, 0, 12});
  graph::RadiusGraphOptions opts;
  opts.cutoff = 4.0;
  return time_us_per_call(
      [&] { sink(graph::build_radius_graph(pts, opts, cell)); }, 5);
}

/// LJ energy/forces on the cubic LiPS supercell of `atoms` atoms with
/// the neighbor list rebuilt on every call (atom 0 is bounced past the
/// skin/2 displacement threshold, the MD steady state for a diffusing
/// system). Both paths produce bit-identical energies (tested in
/// test_md); DESIGN.md §13 reads the cell list's win from the two lines.
bench::Spread lj_rebuild_loop(std::int64_t atoms, bool pair_scan) {
  const materials::Structure unit = materials::LiPSDataset::initial_structure();
  std::int64_t n = 1;
  while (n * n * n * unit.num_atoms() < atoms) ++n;
  materials::Structure sc = unit.supercell(n, n, n);
  materials::NeighborListOptions nlopts;
  nlopts.disable_cells = pair_scan;
  materials::LJForceProvider provider(4.0, nlopts);
  std::vector<core::Vec3> forces;
  const double bounce =
      1.5 * (nlopts.skin / 2.0) / (6.2 * static_cast<double>(n));
  double sign = 1.0;
  return time_us_per_call(
      [&] {
        sc.frac[0].x += sign * bounce;
        sign = -sign;
        sink(provider.energy_and_forces(sc, forces));
      },
      5);
}

bench::Spread sweep_lj_cell_list(std::int64_t atoms) {
  return lj_rebuild_loop(atoms, /*pair_scan=*/false);
}

bench::Spread sweep_lj_pair_scan(std::int64_t atoms) {
  return lj_rebuild_loop(atoms, /*pair_scan=*/true);
}

/// Sweep {scalar, best-SIMD} backends x {1, 2, 4, max} pool threads
/// (deduplicated, ascending) and report the median per-call time with
/// its quartiles plus two speedups of medians: over the same backend at
/// 1 thread, and over the scalar backend at the same thread count.
/// Within a backend the kernels are bit-deterministic across the sweep,
/// so those points differ only in wall time.
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
      {"radius_graph_pbc", 512, sweep_radius_graph_pbc},
      {"lj_cell_list", 768, sweep_lj_cell_list},
      {"lj_pair_scan", 768, sweep_lj_pair_scan},
  };

  std::printf("kernel sweep: {scalar,%s} x threads {1,2,4,max=%lld}\n",
              bk::backend_name(backends.back()),
              static_cast<long long>(max_threads));
  for (const SweepKernel& k : kernels) {
    // scalar_us[i] = scalar-backend median at counts[i], the denominator
    // for speedup_vs_scalar at matching thread counts.
    std::vector<double> scalar_us(counts.size(), 0.0);
    for (const bk::Backend backend : backends) {
      bk::set_backend(backend);
      double base_us = 0.0;
      for (std::size_t ci = 0; ci < counts.size(); ++ci) {
        const std::int64_t t = counts[ci];
        par::set_num_threads(t);
        const bench::Spread us = k.run(k.size);
        if (t == 1) base_us = us.median;
        if (backend == bk::Backend::kScalar) scalar_us[ci] = us.median;
        reporter.add(
            obs::JsonRecord()
                .set("kernel", k.name)
                .set("backend", bk::backend_name(backend))
                .set("size", k.size)
                .set("threads", t)
                .set("us_per_call", us.median)
                .set("us_q1", us.q1)
                .set("us_q3", us.q3)
                .set("speedup_vs_1t", base_us > 0.0 ? base_us / us.median : 0.0)
                .set("speedup_vs_scalar", scalar_us[ci] > 0.0
                                              ? scalar_us[ci] / us.median
                                              : 0.0));
      }
    }
  }
  bk::set_backend(saved_backend);
  par::set_num_threads(saved);
}

}  // namespace

int main() {
  obs::BenchReporter reporter = bench::make_reporter("kernels");
  run_thread_sweep(reporter);
  reporter.finish();
  return 0;
}
