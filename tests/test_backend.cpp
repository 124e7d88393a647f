// The runtime-dispatched kernel backend and the tensor memory runtime
// (ctest label `backend`): dispatch resolution and forced fallback,
// scalar-backend bit-compatibility with the legacy serial kernels,
// scalar-vs-SIMD agreement (bit-exact for pointwise IEEE ops and the
// losses, tolerance for reassociating/polynomial kernels), the fused
// EGNN edge layer against its concat-form reference, 64-byte buffer
// alignment, pool reuse, first gradient writes, and the
// zero-fresh-allocation steady state of fixed-shape train/serve loops. Also run under
// -DMATSCI_SANITIZE=address (the pool's recycled buffers must not mask
// lifetime bugs with MATSCI_TENSOR_POOL=0).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/backend/backend.hpp"
#include "core/graph_ops.hpp"
#include "core/memory/arena.hpp"
#include "core/memory/pool.hpp"
#include "core/memory/storage.hpp"
#include "core/ops.hpp"
#include "core/random.hpp"
#include "core/tensor.hpp"
#include "data/collate.hpp"
#include "graph/radius_graph.hpp"
#include "models/egnn.hpp"
#include "sym/synthetic_dataset.hpp"
#include "test_util.hpp"

namespace {

using namespace matsci;
namespace bk = core::backend;
namespace mem = core::memory;

/// Restores the active backend on scope exit so one test's forced
/// fallback never leaks into the next.
class BackendGuard {
 public:
  BackendGuard() : saved_(bk::active_backend()) {}
  ~BackendGuard() { bk::set_backend(saved_); }

 private:
  bk::Backend saved_;
};

std::vector<bk::Backend> supported_backends() {
  std::vector<bk::Backend> out;
  for (int i = 0; i < bk::kNumBackends; ++i) {
    const auto b = static_cast<bk::Backend>(i);
    if (bk::backend_supported(b)) out.push_back(b);
  }
  return out;
}

std::vector<float> tensor_bits(const core::Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// |got - ref| <= tol * max(1, |ref|), elementwise.
void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  float tol, const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float bound = tol * std::max(1.0f, std::fabs(ref[i]));
    ASSERT_NEAR(ref[i], got[i], bound) << what << " at index " << i;
  }
}

// --- dispatch ---------------------------------------------------------------

TEST(BackendDispatch, ScalarIsAlwaysCompiledAndSupported) {
  EXPECT_TRUE(bk::backend_compiled(bk::Backend::kScalar));
  EXPECT_TRUE(bk::backend_supported(bk::Backend::kScalar));
  EXPECT_TRUE(bk::backend_supported(bk::best_supported()));
  EXPECT_TRUE(bk::backend_supported(bk::active_backend()));
}

TEST(BackendDispatch, ActiveTableMatchesActiveBackend) {
  EXPECT_STREQ(bk::kernels().name, bk::backend_name(bk::active_backend()));
}

TEST(BackendDispatch, ParseBackendRoundTripsNames) {
  for (const bk::Backend b : supported_backends()) {
    const auto parsed = bk::parse_backend(bk::backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(bk::parse_backend("auto").has_value());  // dispatcher-only
  EXPECT_FALSE(bk::parse_backend("sse9").has_value());
  EXPECT_FALSE(bk::parse_backend("").has_value());
}

TEST(BackendDispatch, SetBackendSwitchesTheKernelTable) {
  BackendGuard guard;
  for (const bk::Backend b : supported_backends()) {
    bk::set_backend(b);
    EXPECT_EQ(bk::active_backend(), b);
    EXPECT_STREQ(bk::kernels().name, bk::backend_name(b));
  }
}

TEST(BackendDispatch, SetBackendRejectsUnsupportedTiers) {
  for (int i = 0; i < bk::kNumBackends; ++i) {
    const auto b = static_cast<bk::Backend>(i);
    if (!bk::backend_supported(b)) {
      EXPECT_THROW(bk::set_backend(b), matsci::Error);
    }
  }
}

// --- scalar backend == legacy serial numerics -------------------------------

TEST(BackendScalar, MatmulMatchesLegacySerialLoopBitForBit) {
  // The forced-fallback contract: the scalar backend reproduces the
  // pre-backend serial kernel exactly — same loop nest (i, l-skip-zero,
  // j), same accumulation order — so MATSCI_KERNEL_BACKEND=scalar is a
  // bit-exact escape hatch, not an approximation.
  BackendGuard guard;
  bk::set_backend(bk::Backend::kScalar);

  core::RngEngine rng(71);
  const std::int64_t n = 37, k = 23, m = 29;  // awkward non-vector shapes
  core::Tensor a = core::Tensor::randn({n, k}, rng);
  core::Tensor b = core::Tensor::randn({k, m}, rng);
  a.data()[5] = 0.0f;  // exercise the zero-skip shortcut
  a.data()[k + 1] = 0.0f;

  std::vector<float> expected(static_cast<std::size_t>(n * m), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t l = 0; l < k; ++l) {
      const float av = a.data()[i * k + l];
      if (av == 0.0f) continue;
      for (std::int64_t j = 0; j < m; ++j) {
        expected[static_cast<std::size_t>(i * m + j)] += av * b.data()[l * m + j];
      }
    }
  }

  core::NoGradGuard no_grad;
  EXPECT_TRUE(bit_identical(expected, tensor_bits(core::matmul(a, b))));
}

// --- GEMM kernels -----------------------------------------------------------

TEST(BackendGemm, MatmulRowDependsOnlyOnItsOwnInputRow) {
  // The SIMD register block spans 4 rows, so a row must never see the
  // rows blocked with it: n rows at once equal n one-row products bit
  // for bit, across 2-vector, 1-vector and masked column panels. This is
  // what keeps a batched forward equal to single-structure forwards.
  BackendGuard guard;
  core::RngEngine rng(77);
  const std::int64_t k = 13;
  for (const bk::Backend backend : supported_backends()) {
    bk::set_backend(backend);
    for (const std::int64_t m : {1, 8, 15, 16, 17, 31, 32, 33, 65}) {
      core::Tensor b = core::Tensor::randn({k, m}, rng);
      for (std::int64_t n = 1; n <= 9; ++n) {
        core::Tensor a = core::Tensor::randn({n, k}, rng);
        a.data()[(n - 1) * k + 2] = 0.0f;  // the scalar zero-skip
        core::NoGradGuard no_grad;
        const std::vector<float> all = tensor_bits(core::matmul(a, b));
        for (std::int64_t i = 0; i < n; ++i) {
          core::Tensor row = core::Tensor::from_vector(
              std::vector<float>(a.data() + i * k, a.data() + (i + 1) * k),
              {1, k});
          const std::vector<float> one = tensor_bits(core::matmul(row, b));
          ASSERT_EQ(0, std::memcmp(one.data(), all.data() + i * m,
                                   static_cast<std::size_t>(m) * sizeof(float)))
              << bk::backend_name(backend) << " n=" << n << " m=" << m
              << " row " << i;
        }
      }
    }
  }
}

TEST(BackendGemm, WeightGradIsOneAscendingChainPerElement) {
  // dW[kk, j] sums A[i, kk] * dC[i, j] over i ascending. The SIMD tiers
  // form each element as one fused chain from zero, whatever kk block
  // it falls in; the scalar tier keeps the legacy zero-skip loop.
  BackendGuard guard;
  core::RngEngine rng(78);
  const std::int64_t n = 37, m = 33;
  for (const std::int64_t k : {1, 3, 4, 5, 65}) {
    std::vector<float> av = tensor_bits(core::Tensor::randn({n, k}, rng));
    av[0] = 0.0f;
    av[static_cast<std::size_t>(n * k - 1)] = -0.0f;
    const std::vector<float> wv = tensor_bits(core::Tensor::randn({k, m}, rng));
    const core::Tensor g = core::Tensor::randn({n, m}, rng);
    const float* gd = g.data();

    std::vector<float> fused(static_cast<std::size_t>(k * m));
    std::vector<float> legacy(static_cast<std::size_t>(k * m), 0.0f);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < m; ++j) {
        float acc = 0.0f;
        for (std::int64_t i = 0; i < n; ++i)
          acc = std::fmaf(av[i * k + kk], gd[i * m + j], acc);
        fused[kk * m + j] = acc;
      }
      for (std::int64_t i = 0; i < n; ++i) {
        const float x = av[i * k + kk];
        if (x == 0.0f) continue;
        for (std::int64_t j = 0; j < m; ++j)
          legacy[kk * m + j] += x * gd[i * m + j];
      }
    }

    for (const bk::Backend backend : supported_backends()) {
      bk::set_backend(backend);
      const auto grads = matsci::testing::grads_under(
          core::matmul, av, {n, k}, wv, {k, m}, g);
      const bool scalar = backend == bk::Backend::kScalar;
      EXPECT_TRUE(bit_identical(scalar ? legacy : fused, grads.b))
          << bk::backend_name(backend) << " k=" << k;
    }
  }
}

TEST(BackendGemm, InputGradMatchesLegacyNtLoop) {
  // dA = dC * W^T runs on matmul_nn over the transposed weight. The
  // scalar tier must reproduce the legacy dA loop bit for bit: j outer
  // with the zero-skip on dC (-0 skips too), kk inner. SIMD tiers form
  // one fused chain per element and agree to tolerance.
  BackendGuard guard;
  core::RngEngine rng(79);
  const std::int64_t n = 29, k = 37, m = 21;
  const std::vector<float> av = tensor_bits(core::Tensor::randn({n, k}, rng));
  const std::vector<float> wv = tensor_bits(core::Tensor::randn({k, m}, rng));
  core::Tensor g = core::Tensor::randn({n, m}, rng);
  float* gd = g.data();
  gd[0] = 0.0f;
  gd[5] = -0.0f;
  gd[m + 3] = -0.0f;
  for (std::int64_t j = 0; j < m; ++j) gd[3 * m + j] = (j % 2) ? 0.0f : -0.0f;

  std::vector<float> legacy(static_cast<std::size_t>(n * k), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      const float gv = gd[i * m + j];
      if (gv == 0.0f) continue;
      for (std::int64_t kk = 0; kk < k; ++kk)
        legacy[i * k + kk] += gv * wv[kk * m + j];
    }
  }

  for (const bk::Backend backend : supported_backends()) {
    bk::set_backend(backend);
    const auto grads = matsci::testing::grads_under(
        core::matmul, av, {n, k}, wv, {k, m}, g);
    if (backend == bk::Backend::kScalar) {
      EXPECT_TRUE(bit_identical(legacy, grads.a));
    } else {
      expect_close(legacy, grads.a, 2e-5f, bk::backend_name(backend));
    }
  }
}

TEST(BackendScalar, TranscendentalsUseLibm) {
  BackendGuard guard;
  bk::set_backend(bk::Backend::kScalar);
  core::RngEngine rng(72);
  core::Tensor x = core::Tensor::randn({13, 17}, rng);
  core::NoGradGuard no_grad;
  const std::vector<float> got = tensor_bits(core::exp(x));
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], std::exp(x.data()[i]));
  }
}

// --- scalar vs SIMD agreement -----------------------------------------------

TEST(BackendAgreement, PointwiseOpsAreBitIdenticalAcrossBackends) {
  BackendGuard guard;
  core::RngEngine rng(73);
  // Odd sizes so every SIMD kernel runs both its vector body and its
  // scalar tail.
  core::Tensor a = core::Tensor::randn({37, 27}, rng);
  core::Tensor b = core::Tensor::randn({37, 27}, rng);
  core::Tensor row = core::Tensor::randn({1, 27}, rng);
  core::Tensor pos = core::abs(core::add_scalar(core::abs(a), 0.1f));
  std::vector<std::int64_t> idx(100);
  for (auto& i : idx) i = rng.next_int(37);

  const auto run_all = [&] {
    core::NoGradGuard no_grad;
    std::vector<std::vector<float>> r;
    r.push_back(tensor_bits(core::add(a, b)));
    r.push_back(tensor_bits(core::sub(a, b)));
    r.push_back(tensor_bits(core::mul(a, b)));
    r.push_back(tensor_bits(core::div(a, b)));
    r.push_back(tensor_bits(core::add(a, row)));  // kRow broadcast
    r.push_back(tensor_bits(core::abs(a)));
    r.push_back(tensor_bits(core::square(a)));
    r.push_back(tensor_bits(core::sqrt(pos)));
    r.push_back(tensor_bits(core::rsqrt(pos)));
    r.push_back(tensor_bits(core::relu(a)));
    r.push_back(tensor_bits(core::clamp(a, -0.5f, 0.5f)));
    r.push_back(tensor_bits(core::add_scalar(a, 1.25f)));
    r.push_back(tensor_bits(core::mul_scalar(a, -3.0f)));
    r.push_back(tensor_bits(core::gather_rows(a, idx)));
    r.push_back(tensor_bits(core::scatter_add_rows(
        core::gather_rows(a, idx), idx, 37)));
    return r;
  };

  bk::set_backend(bk::Backend::kScalar);
  const auto reference = run_all();
  for (const bk::Backend backend : supported_backends()) {
    if (backend == bk::Backend::kScalar) continue;
    bk::set_backend(backend);
    const auto got = run_all();
    ASSERT_EQ(reference.size(), got.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(bit_identical(reference[i], got[i]))
          << "pointwise op #" << i << " differs under "
          << bk::backend_name(backend);
    }
  }
}

TEST(BackendAgreement, ReassociatingKernelsAgreeToTolerance) {
  BackendGuard guard;
  core::RngEngine rng(74);
  core::Tensor a = core::Tensor::randn({53, 67}, rng);
  core::Tensor b = core::Tensor::randn({67, 41}, rng);
  core::Tensor x = core::Tensor::randn({31, 43}, rng);
  core::Tensor d = core::abs(core::Tensor::randn({97, 1}, rng));
  std::vector<float> centers;
  for (int i = 0; i < 19; ++i) centers.push_back(0.1f * static_cast<float>(i));

  const auto run_all = [&] {
    core::NoGradGuard no_grad;
    std::vector<std::vector<float>> r;
    r.push_back(tensor_bits(core::matmul(a, b)));
    r.push_back(tensor_bits(core::sum(x)));
    r.push_back(tensor_bits(core::sum_dim(x, 0)));
    r.push_back(tensor_bits(core::sum_dim(x, 1)));
    r.push_back(tensor_bits(core::exp(x)));
    r.push_back(tensor_bits(core::sigmoid(x)));
    r.push_back(tensor_bits(core::tanh(x)));
    r.push_back(tensor_bits(core::silu(x)));
    r.push_back(tensor_bits(core::gaussian_rbf(d, centers, 4.0f)));
    return r;
  };

  bk::set_backend(bk::Backend::kScalar);
  const auto reference = run_all();
  for (const bk::Backend backend : supported_backends()) {
    if (backend == bk::Backend::kScalar) continue;
    bk::set_backend(backend);
    const auto got = run_all();
    ASSERT_EQ(reference.size(), got.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_close(reference[i], got[i], 2e-5f, bk::backend_name(backend));
    }
  }
}

TEST(BackendAgreement, LossesAreBitIdenticalAcrossBackends) {
  // cross_entropy and bce_with_logits are one scalar loop in ops.cpp on
  // every tier, so each tier's loss and gradients equal the scalar
  // tier's bit for bit. Odd sizes, as for the pointwise ops above.
  BackendGuard guard;
  core::RngEngine rng(77);
  const std::vector<float> logits =
      tensor_bits(core::Tensor::randn({37, 27}, rng, 0.0f, 3.0f));
  std::vector<std::int64_t> labels(37);
  for (auto& y : labels) y = rng.next_int(27);
  const std::vector<float> z =
      tensor_bits(core::Tensor::randn({37}, rng, 0.0f, 4.0f));
  std::vector<float> t(37);
  for (auto& v : t) v = rng.bernoulli(0.5f) ? 1.0f : 0.0f;

  const auto run_all = [&] {
    std::vector<std::vector<float>> r;
    core::Tensor x = core::Tensor::from_vector(logits, {37, 27});
    x.set_requires_grad(true);
    core::Tensor ce = core::cross_entropy(x, labels);
    ce.backward();
    r.push_back(tensor_bits(ce));
    r.push_back(tensor_bits(x.grad()));
    core::Tensor zt = core::Tensor::from_vector(z, {37});
    core::Tensor tt = core::Tensor::from_vector(t, {37});
    zt.set_requires_grad(true);
    tt.set_requires_grad(true);
    core::Tensor bce = core::bce_with_logits(zt, tt);
    bce.backward();
    r.push_back(tensor_bits(bce));
    r.push_back(tensor_bits(zt.grad()));
    r.push_back(tensor_bits(tt.grad()));
    return r;
  };

  bk::set_backend(bk::Backend::kScalar);
  const auto reference = run_all();
  for (const bk::Backend backend : supported_backends()) {
    if (backend == bk::Backend::kScalar) continue;
    bk::set_backend(backend);
    const auto got = run_all();
    ASSERT_EQ(reference.size(), got.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(bit_identical(reference[i], got[i]))
          << "loss output #" << i << " differs under "
          << bk::backend_name(backend);
    }
  }
}

TEST(BackendAgreement, CrossEntropyIsStableAtLargeLogits) {
  // The max shift lives in cross_entropy: the row {1000, 1001} with
  // label 0 must give log(1 + e) and the gradient (p - onehot) with
  // p = softmax(0, 1), on every tier.
  BackendGuard guard;
  const double p1 = 1.0 / (1.0 + std::exp(-1.0));
  for (const bk::Backend backend : supported_backends()) {
    bk::set_backend(backend);
    core::Tensor x = core::Tensor::from_vector({1000.0f, 1001.0f}, {1, 2});
    x.set_requires_grad(true);
    core::Tensor loss = core::cross_entropy(x, {0});
    loss.backward();
    const char* name = bk::backend_name(backend);
    ASSERT_TRUE(std::isfinite(loss.item())) << name;
    EXPECT_NEAR(loss.item(), std::log1p(std::exp(1.0)), 1e-5) << name;
    EXPECT_NEAR(x.grad().at(0, 0), (1.0 - p1) - 1.0, 1e-6) << name;
    EXPECT_NEAR(x.grad().at(0, 1), p1, 1e-6) << name;
  }
}

TEST(BackendAgreement, GradientsAgreeToToleranceAcrossBackends) {
  // One composite touching matmul_nn/tn (forward, dA, dW), unary_grad,
  // binary_grad and the reduction backward.
  BackendGuard guard;
  core::RngEngine rng(75);
  const std::vector<float> xv = tensor_bits(core::Tensor::randn({21, 33}, rng));
  const std::vector<float> wv = tensor_bits(core::Tensor::randn({33, 17}, rng));

  const auto grads = [&] {
    core::Tensor x = core::Tensor::from_vector(xv, {21, 33});
    core::Tensor w = core::Tensor::from_vector(wv, {33, 17});
    x.set_requires_grad(true);
    w.set_requires_grad(true);
    core::sum(core::silu(core::matmul(x, w))).backward();
    std::vector<float> out = tensor_bits(x.grad());
    const std::vector<float> gw = tensor_bits(w.grad());
    out.insert(out.end(), gw.begin(), gw.end());
    return out;
  };

  bk::set_backend(bk::Backend::kScalar);
  const std::vector<float> reference = grads();
  for (const bk::Backend backend : supported_backends()) {
    if (backend == bk::Backend::kScalar) continue;
    bk::set_backend(backend);
    expect_close(reference, grads(), 2e-5f, bk::backend_name(backend));
  }
}

TEST(BackendAgreement, RadiusGraphEdgesIdenticalAcrossBackends) {
  // Free-boundary squared distances are pointwise IEEE arithmetic, so
  // the edge list (a set of threshold decisions) must match exactly.
  // The periodic variant is tolerance-only (vectorized round) and is
  // covered by the geometry tests in test_graph.cpp.
  BackendGuard guard;
  core::RngEngine rng(76);
  std::vector<core::Vec3> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)});
  }
  graph::RadiusGraphOptions opts;
  opts.cutoff = 2.5;
  opts.max_neighbors = 10;

  bk::set_backend(bk::Backend::kScalar);
  const graph::Graph reference = graph::build_radius_graph(pts, opts);
  for (const bk::Backend backend : supported_backends()) {
    if (backend == bk::Backend::kScalar) continue;
    bk::set_backend(backend);
    const graph::Graph got = graph::build_radius_graph(pts, opts);
    EXPECT_EQ(reference.src, got.src) << bk::backend_name(backend);
    EXPECT_EQ(reference.dst, got.dst) << bk::backend_name(backend);
  }
}

// --- fused edge layer -------------------------------------------------------

/// One edge_concat_linear problem as plain values: node features h
/// [n, d], an edge list with self edges and repeated edges whose last
/// `isolated` nodes touch no edge, d2 [e, 1], w [2d+1, m], b [m], and
/// the upstream gradient `up` [e, m].
struct EdgeLayerCase {
  std::int64_t n, d, m;
  std::vector<std::int64_t> dst, src;
  std::vector<float> h, d2, w, b, up;
};

EdgeLayerCase make_edge_case(std::int64_t n, std::int64_t isolated,
                             std::int64_t edges, std::int64_t d,
                             std::int64_t m, std::uint64_t seed) {
  core::RngEngine rng(seed);
  EdgeLayerCase c{n, d, m, {}, {}, {}, {}, {}, {}, {}};
  for (std::int64_t r = 0; r < edges; ++r) {
    const std::int64_t i = rng.next_int(n - isolated);
    c.dst.push_back(i);
    c.src.push_back(r % 5 == 0 ? i : rng.next_int(n - isolated));
  }
  for (std::int64_t r = 0; r < edges / 4; ++r) {  // repeated edges
    c.dst.push_back(c.dst[static_cast<std::size_t>(r)]);
    c.src.push_back(c.src[static_cast<std::size_t>(r)]);
  }
  const std::int64_t e = static_cast<std::int64_t>(c.dst.size());
  c.h = tensor_bits(core::Tensor::randn({n, d}, rng));
  c.d2 = tensor_bits(core::Tensor::rand_uniform({e, 1}, rng, 0.0f, 4.0f));
  c.w = tensor_bits(core::Tensor::randn({2 * d + 1, m}, rng, 0.0f, 0.3f));
  c.b = tensor_bits(core::Tensor::randn({m}, rng));
  c.up = tensor_bits(core::Tensor::randn({e, m}, rng));
  return c;
}

/// The op's output and the gradients of L = sum(out * up) for the
/// inputs named in `grads` ("h", "d2", "w", "b"); a gradient that was
/// never written reads as empty. `fused` picks edge_concat_linear over
/// the gather -> concat -> matmul -> add reference.
struct EdgeLayerResult {
  std::vector<float> out, gh, gd2, gw, gb;
  bool taped = false;
};

EdgeLayerResult run_edge_layer(const EdgeLayerCase& c, bool fused,
                               const std::string& grads = "h d2 w b") {
  const std::int64_t e = static_cast<std::int64_t>(c.dst.size());
  const auto leaf = [&](const std::vector<float>& v, core::Shape shape,
                        const char* name) {
    core::Tensor t = core::Tensor::from_vector(v, std::move(shape));
    t.set_requires_grad(grads.find(name) != std::string::npos);
    return t;
  };
  core::Tensor h = leaf(c.h, {c.n, c.d}, "h");
  core::Tensor d2 = leaf(c.d2, {e, 1}, "d2");
  core::Tensor w = leaf(c.w, {2 * c.d + 1, c.m}, "w");
  core::Tensor b = leaf(c.b, {c.m}, "b");
  core::Tensor out =
      fused ? core::edge_concat_linear(h, d2, w, b, c.dst, c.src)
            : core::add(core::matmul(core::concat_cols(
                                         {core::gather_rows(h, c.dst),
                                          core::gather_rows(h, c.src), d2}),
                                     w),
                        b);
  EdgeLayerResult r;
  r.out = tensor_bits(out);
  r.taped = out.impl()->grad_fn != nullptr;
  if (!r.taped) return r;
  core::sum(core::mul(out, core::Tensor::from_vector(c.up, {e, c.m})))
      .backward();
  const auto grad_of = [](const core::Tensor& t) {
    return t.has_grad() ? tensor_bits(t.grad()) : std::vector<float>{};
  };
  r.gh = grad_of(h);
  r.gd2 = grad_of(d2);
  r.gw = grad_of(w);
  r.gb = grad_of(b);
  return r;
}

/// |got - ref| <= tol * max(1, mag) elementwise, where mag is the same
/// quantity summed over absolute values: the scale of the rounding error
/// of a reassociated sum, which exceeds |ref| when terms cancel.
void expect_close_to_scale(const std::vector<float>& ref,
                           const std::vector<float>& got,
                           const std::vector<float>& mag, float tol,
                           const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  ASSERT_EQ(ref.size(), mag.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(ref[i], got[i], tol * std::max(1.0f, mag[i]))
        << what << " at index " << i;
  }
}

TEST(BackendEdgeLayer, MatchesConcatReferenceOnEveryBackend) {
  // The fused op sums P_i + P_j + d2·w_d + b where the reference runs one
  // chain over all 2d+1 columns, and dW sums per node where the reference
  // sums per edge, so the two agree to rounding of those sums. Their
  // scale is the reference run on absolute values.
  BackendGuard guard;
  const EdgeLayerCase cases[] = {
      make_edge_case(12, 2, 40, 8, 6, 91),    // masked column tails
      make_edge_case(50, 5, 300, 20, 37, 92),  // 2-vector panels + tail
      make_edge_case(7, 7, 0, 4, 5, 93),      // E = 0: every node isolated
  };
  for (const bk::Backend backend : supported_backends()) {
    bk::set_backend(backend);
    for (const EdgeLayerCase& c : cases) {
      const std::string tag = std::string(bk::backend_name(backend)) +
                              " e=" + std::to_string(c.dst.size());
      EdgeLayerCase abs_case = c;
      for (auto* v : {&abs_case.h, &abs_case.d2, &abs_case.w, &abs_case.b,
                      &abs_case.up}) {
        for (float& x : *v) x = std::fabs(x);
      }
      const EdgeLayerResult mag = run_edge_layer(abs_case, /*fused=*/false);
      const EdgeLayerResult ref = run_edge_layer(c, /*fused=*/false);
      const EdgeLayerResult got = run_edge_layer(c, /*fused=*/true);
      expect_close_to_scale(ref.out, got.out, mag.out, 1e-5f, tag + " out");
      expect_close_to_scale(ref.gh, got.gh, mag.gh, 1e-5f, tag + " dh");
      expect_close_to_scale(ref.gd2, got.gd2, mag.gd2, 1e-5f, tag + " dd2");
      expect_close_to_scale(ref.gw, got.gw, mag.gw, 1e-5f, tag + " dW");
      expect_close_to_scale(ref.gb, got.gb, mag.gb, 1e-5f, tag + " db");
      // With no edges the output is empty, so no gradient reaches the op
      // in either form; otherwise every input has one.
      const std::size_t want = c.dst.empty() ? 0 : 1;
      EXPECT_EQ(got.gh.size(), want * c.h.size()) << tag;
      EXPECT_EQ(got.gw.size(), want * c.w.size()) << tag;
      EXPECT_EQ(got.gb.size(), want * c.b.size()) << tag;
    }
  }
}

TEST(BackendEdgeLayer, PassesGradcheckOnASmallGraph) {
  const EdgeLayerCase c = make_edge_case(5, 1, 6, 2, 3, 94);
  const std::int64_t e = static_cast<std::int64_t>(c.dst.size());
  std::vector<core::Tensor> inputs = {
      core::Tensor::from_vector(c.h, {c.n, c.d}),
      core::Tensor::from_vector(c.d2, {e, 1}),
      core::Tensor::from_vector(c.w, {2 * c.d + 1, c.m}),
      core::Tensor::from_vector(c.b, {c.m})};
  for (core::Tensor& t : inputs) t.set_requires_grad(true);
  matsci::testing::gradcheck(
      [&](std::vector<core::Tensor>& in) {
        return core::sum(core::square(core::edge_concat_linear(
            in[0], in[1], in[2], in[3], c.dst, c.src)));
      },
      inputs);
}

TEST(BackendEdgeLayer, ComputesOnlyTheGradientsThatAreNeeded) {
  const EdgeLayerCase c = make_edge_case(12, 2, 40, 8, 6, 95);
  const EdgeLayerResult ref = run_edge_layer(c, /*fused=*/false);

  // Only d2, as when the edge features are differentiated for forces
  // through frozen parameters.
  const EdgeLayerResult only_d2 = run_edge_layer(c, /*fused=*/true, "d2");
  EXPECT_TRUE(only_d2.gh.empty() && only_d2.gw.empty() && only_d2.gb.empty());
  expect_close(ref.gd2, only_d2.gd2, 1e-5f, "dd2 alone");

  // Only the parameters.
  const EdgeLayerResult only_wb = run_edge_layer(c, /*fused=*/true, "w b");
  EXPECT_TRUE(only_wb.gh.empty() && only_wb.gd2.empty());
  expect_close(ref.gw, only_wb.gw, 1e-5f, "dW alone");
  expect_close(ref.gb, only_wb.gb, 1e-5f, "db alone");

  // Nothing needs a gradient, or grad mode is off: no tape node.
  EXPECT_FALSE(run_edge_layer(c, /*fused=*/true, "").taped);
  core::NoGradGuard no_grad;
  const EdgeLayerResult untaped = run_edge_layer(c, /*fused=*/true);
  EXPECT_FALSE(untaped.taped);
  expect_close(ref.out, untaped.out, 1e-5f, "no-grad out");
}

TEST(BackendEdgeLayer, EgnnParameterNamesAndShapesAreUnchanged) {
  // The fused op reads edge_mlp.layer0's [2h+1, h] weight in place, so
  // checkpoints written before it load unchanged.
  core::RngEngine rng(96);
  models::EGNNConfig cfg;
  cfg.hidden_dim = 4;
  cfg.pos_hidden = 3;
  cfg.num_layers = 2;
  cfg.max_species = 5;
  models::EGNN encoder(cfg, rng);
  const std::vector<std::pair<std::string, core::Shape>> expected = {
      {"species_embedding.weight", {5, 4}},
      {"layer0.edge_mlp.layer0.weight", {9, 4}},
      {"layer0.edge_mlp.layer0.bias", {4}},
      {"layer0.edge_mlp.layer1.weight", {4, 4}},
      {"layer0.edge_mlp.layer1.bias", {4}},
      {"layer0.coord_mlp.layer0.weight", {4, 3}},
      {"layer0.coord_mlp.layer0.bias", {3}},
      {"layer0.coord_mlp.layer1.weight", {3, 1}},
      {"layer0.coord_mlp.layer1.bias", {1}},
      {"layer0.node_mlp.layer0.weight", {8, 4}},
      {"layer0.node_mlp.layer0.bias", {4}},
      {"layer0.node_mlp.layer1.weight", {4, 4}},
      {"layer0.node_mlp.layer1.bias", {4}},
      {"layer1.edge_mlp.layer0.weight", {9, 4}},
      {"layer1.edge_mlp.layer0.bias", {4}},
      {"layer1.edge_mlp.layer1.weight", {4, 4}},
      {"layer1.edge_mlp.layer1.bias", {4}},
      {"layer1.node_mlp.layer0.weight", {8, 4}},
      {"layer1.node_mlp.layer0.bias", {4}},
      {"layer1.node_mlp.layer1.weight", {4, 4}},
      {"layer1.node_mlp.layer1.bias", {4}},
  };
  const auto named = encoder.named_parameters();
  ASSERT_EQ(named.size(), expected.size());
  for (std::size_t i = 0; i < named.size(); ++i) {
    EXPECT_EQ(named[i].first, expected[i].first);
    EXPECT_EQ(named[i].second.shape(), expected[i].second) << expected[i].first;
  }
}

// --- memory runtime ---------------------------------------------------------

TEST(BackendMemory, FirstGradWriteEqualsZeroFillPlusAdd) {
  // A first write adopts (or copies) g + 0.0f instead of adding g into
  // a zero-filled buffer; both must give 0 + g bit for bit, −0 included.
  const std::vector<float> g = {-0.0f, 0.0f, 1.5f, -2.25f, -0.0f,
                                1e-40f, -3.0e38f, 7.0f};
  const std::size_t n = g.size();
  mem::FloatStorage zero_fill_add = mem::FloatStorage::zeros(n);
  bk::kernels().add_rows(zero_fill_add.data(), g.data(),
                         static_cast<std::int64_t>(n));
  const auto fresh_impl = [n] {
    auto impl = std::make_shared<core::TensorImpl>();
    impl->shape = {static_cast<std::int64_t>(n)};
    impl->data = mem::FloatStorage::zeros(n);
    return impl;
  };
  const auto same_bits = [n](const mem::FloatStorage& a, const float* b) {
    return std::memcmp(a.data(), b, n * sizeof(float)) == 0;
  };

  auto adopted = fresh_impl();
  adopted->accumulate_grad(mem::FloatStorage::copy_of(g.data(), n));
  EXPECT_TRUE(same_bits(adopted->grad, zero_fill_add.data()));
  EXPECT_FALSE(std::signbit(adopted->grad[0]));

  auto copied = fresh_impl();
  copied->accumulate_grad(g.data());
  EXPECT_TRUE(same_bits(copied->grad, zero_fill_add.data()));

  // Later writes add into the existing buffer, from either overload.
  bk::kernels().add_rows(zero_fill_add.data(), g.data(),
                         static_cast<std::int64_t>(n));
  adopted->accumulate_grad(mem::FloatStorage::copy_of(g.data(), n));
  copied->accumulate_grad(g.data());
  EXPECT_TRUE(same_bits(adopted->grad, zero_fill_add.data()));
  EXPECT_TRUE(same_bits(copied->grad, zero_fill_add.data()));
}

TEST(BackendMemory, StorageBuffersAre64ByteAligned) {
  for (const std::size_t n : {1ul, 17ul, 1000ul, 65536ul}) {
    mem::FloatStorage f = mem::FloatStorage::uninitialized(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f.data()) %
                  mem::kBufferAlignment,
              0u);
    mem::DoubleStorage d = mem::DoubleStorage::uninitialized(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) %
                  mem::kBufferAlignment,
              0u);
  }
  core::RngEngine rng(77);
  core::Tensor t = core::Tensor::randn({13, 5}, rng);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) %
                mem::kBufferAlignment,
            0u);
}

TEST(BackendMemory, SizeClassLadderIsPowersOfTwoPlusMidpoints) {
  EXPECT_EQ(mem::round_up_to_class(1), 64u);
  EXPECT_EQ(mem::round_up_to_class(64), 64u);
  EXPECT_EQ(mem::round_up_to_class(65), 96u);
  EXPECT_EQ(mem::round_up_to_class(96), 96u);
  EXPECT_EQ(mem::round_up_to_class(97), 128u);
  EXPECT_EQ(mem::round_up_to_class(1000), 1024u);
  EXPECT_EQ(mem::round_up_to_class(1537), 2048u);
  // Internal waste never exceeds 1/3 of the handed-out capacity (above
  // the 64-byte minimum class, where tiny requests round up further).
  for (std::size_t bytes = 64; bytes < (1u << 20); bytes = bytes * 5 / 3 + 7) {
    const std::size_t cls = mem::round_up_to_class(bytes);
    EXPECT_GE(cls, bytes);
    EXPECT_LE(cls, bytes + (bytes + 1) / 2);
  }
}

TEST(BackendMemory, PoolReusesBuffersAfterWarmup) {
  mem::BufferPool& pool = mem::BufferPool::global();
  if (!pool.enabled()) GTEST_SKIP() << "MATSCI_TENSOR_POOL=0";

  { mem::FloatStorage warm = mem::FloatStorage::uninitialized(4096); }

  const mem::PoolStats before = pool.stats();
  for (int i = 0; i < 100; ++i) {
    mem::FloatStorage s = mem::FloatStorage::uninitialized(4096);
    s.data()[0] = static_cast<float>(i);  // keep the buffer observable
  }
  const mem::PoolStats after = pool.stats();
  EXPECT_EQ(after.fresh_allocs, before.fresh_allocs);
  EXPECT_GE(after.hits, before.hits + 100);
}

TEST(BackendMemory, TrimReleasesIdleBuffersThenRefills) {
  mem::BufferPool& pool = mem::BufferPool::global();
  if (!pool.enabled()) GTEST_SKIP() << "MATSCI_TENSOR_POOL=0";

  { mem::FloatStorage warm = mem::FloatStorage::uninitialized(8192); }
  pool.trim();
  EXPECT_EQ(pool.stats().bytes_cached, 0u);

  const std::uint64_t fresh_before = pool.stats().fresh_allocs;
  { mem::FloatStorage again = mem::FloatStorage::uninitialized(8192); }
  EXPECT_GT(pool.stats().fresh_allocs, fresh_before);  // cache was emptied
  EXPECT_GT(pool.stats().bytes_cached, 0u);            // and refilled
}

/// Fixed-shape EGNN batch for the steady-state loops.
data::Batch make_steady_batch() {
  sym::SyntheticPointGroupDataset ds(12, 78);
  std::vector<data::StructureSample> samples;
  for (std::int64_t i = 0; i < 12; ++i) samples.push_back(ds.get(i));
  data::CollateOptions copts;
  copts.representation = data::Representation::kPointCloud;
  return data::collate(samples, copts);
}

TEST(BackendMemory, ServeStepIsAllocationFreeAfterWarmup) {
  mem::BufferPool& pool = mem::BufferPool::global();
  if (!pool.enabled()) GTEST_SKIP() << "MATSCI_TENSOR_POOL=0";

  core::RngEngine rng(79);
  models::EGNNConfig cfg;
  cfg.hidden_dim = 32;
  cfg.pos_hidden = 8;
  cfg.num_layers = 2;
  models::EGNN encoder(cfg, rng);
  const data::Batch batch = make_steady_batch();

  core::NoGradGuard no_grad;
  for (int i = 0; i < 3; ++i) encoder.encode(batch);  // warmup

  const std::uint64_t fresh = pool.stats().fresh_allocs;
  for (int i = 0; i < 5; ++i) encoder.encode(batch);
  EXPECT_EQ(pool.stats().fresh_allocs, fresh)
      << "inference step still hits the heap in steady state";
}

TEST(BackendMemory, TrainStepIsAllocationFreeAfterWarmup) {
  mem::BufferPool& pool = mem::BufferPool::global();
  if (!pool.enabled()) GTEST_SKIP() << "MATSCI_TENSOR_POOL=0";

  core::RngEngine rng(80);
  models::EGNNConfig cfg;
  cfg.hidden_dim = 32;
  cfg.pos_hidden = 8;
  cfg.num_layers = 2;
  models::EGNN encoder(cfg, rng);
  const data::Batch batch = make_steady_batch();

  const auto step = [&] {
    encoder.zero_grad();
    core::Tensor loss = core::mean(core::square(encoder.encode(batch)));
    loss.backward();
    return loss.item();
  };
  for (int i = 0; i < 3; ++i) step();  // warmup: pool + arena fill up

  mem::Arena& arena = mem::Arena::thread_local_arena();
  const std::uint64_t fresh = pool.stats().fresh_allocs;
  const std::uint64_t chunks = arena.chunks_allocated();
  for (int i = 0; i < 5; ++i) step();
  EXPECT_EQ(pool.stats().fresh_allocs, fresh)
      << "train step still takes fresh pool allocations in steady state";
  EXPECT_EQ(arena.chunks_allocated(), chunks)
      << "backward traversal still grows the arena in steady state";
}

}  // namespace
