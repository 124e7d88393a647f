#include <gtest/gtest.h>

#include "core/graph_ops.hpp"
#include "core/macros.hpp"
#include "core/ops.hpp"
#include "test_util.hpp"

namespace matsci::core {
namespace {

using matsci::testing::gradcheck;

Tensor make_input(Shape shape, std::uint64_t seed, float lo = -2.0f,
                  float hi = 2.0f) {
  RngEngine rng(seed);
  return Tensor::rand_uniform(std::move(shape), rng, lo, hi)
      .set_requires_grad(true);
}

TEST(Autograd, AddSameShape) {
  gradcheck([](auto& in) { return sum(add(in[0], in[1])); },
            {make_input({3, 4}, 1), make_input({3, 4}, 2)});
}

TEST(Autograd, AddRowBroadcast) {
  gradcheck([](auto& in) { return sum(add(in[0], in[1])); },
            {make_input({3, 4}, 1), make_input({4}, 2)});
}

TEST(Autograd, AddColBroadcast) {
  gradcheck([](auto& in) { return sum(add(in[0], in[1])); },
            {make_input({3, 4}, 1), make_input({3, 1}, 2)});
}

TEST(Autograd, AddScalarBroadcast) {
  gradcheck([](auto& in) { return sum(add(in[0], in[1])); },
            {make_input({3, 4}, 1), make_input({1}, 2)});
}

TEST(Autograd, MulAllBroadcasts) {
  gradcheck([](auto& in) { return sum(mul(in[0], in[1])); },
            {make_input({2, 3}, 3), make_input({2, 3}, 4)});
  gradcheck([](auto& in) { return sum(mul(in[0], in[1])); },
            {make_input({2, 3}, 3), make_input({3}, 4)});
  gradcheck([](auto& in) { return sum(mul(in[0], in[1])); },
            {make_input({2, 3}, 3), make_input({2, 1}, 4)});
}

TEST(Autograd, SubAndDiv) {
  gradcheck([](auto& in) { return sum(sub(in[0], in[1])); },
            {make_input({2, 3}, 5), make_input({2, 3}, 6)});
  // Divisor bounded away from zero.
  gradcheck([](auto& in) { return sum(div(in[0], in[1])); },
            {make_input({2, 3}, 7), make_input({2, 3}, 8, 1.0f, 3.0f)});
}

TEST(Autograd, UnaryElementwise) {
  gradcheck([](auto& in) { return sum(square(in[0])); }, {make_input({6}, 9)});
  gradcheck([](auto& in) { return sum(exp(in[0])); },
            {make_input({6}, 10, -1.0f, 1.0f)});
  gradcheck([](auto& in) { return sum(log(in[0])); },
            {make_input({6}, 11, 0.5f, 3.0f)});
  gradcheck([](auto& in) { return sum(sqrt(in[0])); },
            {make_input({6}, 12, 0.5f, 3.0f)});
  gradcheck([](auto& in) { return sum(rsqrt(in[0])); },
            {make_input({6}, 13, 0.5f, 3.0f)});
  gradcheck([](auto& in) { return sum(sigmoid(in[0])); },
            {make_input({6}, 14)});
  gradcheck([](auto& in) { return sum(tanh(in[0])); }, {make_input({6}, 15)});
}

TEST(Autograd, Activations) {
  gradcheck([](auto& in) { return sum(silu(in[0])); }, {make_input({8}, 16)});
  gradcheck([](auto& in) { return sum(selu(in[0])); }, {make_input({8}, 17)});
  gradcheck([](auto& in) { return sum(gelu(in[0])); }, {make_input({8}, 18)});
  gradcheck([](auto& in) { return sum(softplus(in[0])); },
            {make_input({8}, 19)});
  // ReLU / abs / clamp away from their kinks.
  gradcheck([](auto& in) { return sum(relu(in[0])); },
            {make_input({6}, 20, 0.5f, 2.0f)});
  gradcheck([](auto& in) { return sum(abs(in[0])); },
            {make_input({6}, 21, 0.5f, 2.0f)});
  gradcheck([](auto& in) { return sum(clamp(in[0], -0.4f, 0.4f)); },
            {make_input({6}, 22, 0.5f, 2.0f)});
}

TEST(Autograd, Reductions) {
  gradcheck([](auto& in) { return mean(in[0]); }, {make_input({3, 4}, 23)});
  gradcheck([](auto& in) { return sum(sum_dim(in[0], 0, true)); },
            {make_input({3, 4}, 24)});
  gradcheck([](auto& in) { return sum(sum_dim(in[0], 1, true)); },
            {make_input({3, 4}, 25)});
  gradcheck([](auto& in) { return sum(mean_dim(in[0], 1, false)); },
            {make_input({3, 4}, 26)});
}

TEST(Autograd, MatmulBothSides) {
  gradcheck([](auto& in) { return sum(matmul(in[0], in[1])); },
            {make_input({3, 4}, 27), make_input({4, 2}, 28)});
}

TEST(Autograd, ReshapeConcatSlice) {
  gradcheck([](auto& in) { return sum(square(reshape(in[0], {4, 3}))); },
            {make_input({3, 4}, 30)});
  gradcheck(
      [](auto& in) { return sum(square(concat_cols({in[0], in[1]}))); },
      {make_input({3, 2}, 31), make_input({3, 4}, 32)});
  gradcheck(
      [](auto& in) { return sum(square(concat_rows({in[0], in[1]}))); },
      {make_input({2, 3}, 33), make_input({4, 3}, 34)});
  gradcheck([](auto& in) { return sum(square(slice_rows(in[0], 1, 2))); },
            {make_input({4, 3}, 36)});
}

TEST(Autograd, Losses) {
  gradcheck([](auto& in) { return mse_loss(in[0], in[1]); },
            {make_input({5, 1}, 37), make_input({5, 1}, 38)});
  const std::vector<std::int64_t> labels = {0, 2, 1, 2};
  gradcheck([&labels](auto& in) { return cross_entropy(in[0], labels); },
            {make_input({4, 3}, 41)});
  Tensor targets = Tensor::from_vector({0, 1, 1, 0, 1}, {5, 1});
  gradcheck([&targets](auto& in) { return bce_with_logits(in[0], targets); },
            {make_input({5, 1}, 42)});
}

TEST(Autograd, GatherAndSegmentOps) {
  const std::vector<std::int64_t> idx = {2, 0, 1, 2, 2};
  gradcheck(
      [&idx](auto& in) { return sum(square(gather_rows(in[0], idx))); },
      {make_input({3, 4}, 44)});
  const std::vector<std::int64_t> seg = {0, 1, 0, 2, 1};
  gradcheck(
      [&seg](auto& in) { return sum(square(segment_sum(in[0], seg, 3))); },
      {make_input({5, 3}, 45)});
  gradcheck(
      [&seg](auto& in) { return sum(square(segment_mean(in[0], seg, 3))); },
      {make_input({5, 3}, 46)});
}

TEST(Autograd, SegmentSoftmax) {
  const std::vector<std::int64_t> seg = {0, 1, 0, 2, 1, 0};
  gradcheck(
      [&seg](auto& in) {
        Tensor w = Tensor::from_vector({1.5f, -0.7f, 0.2f, 2.0f, -1.1f, 0.6f},
                                       {6, 1});
        return sum(mul(segment_softmax(in[0], seg, 3), w));
      },
      {make_input({6, 1}, 50)});
}

TEST(Autograd, GaussianRbf) {
  const std::vector<float> centers = {0.5f, 1.5f, 2.5f};
  gradcheck(
      [&centers](auto& in) {
        return sum(square(gaussian_rbf(in[0], centers, 2.0f)));
      },
      {make_input({5, 1}, 51, 0.2f, 3.0f)});
}

TEST(Autograd, RowSqNorm) {
  gradcheck([](auto& in) { return sum(row_sq_norm(in[0])); },
            {make_input({4, 3}, 48)});
}

TEST(Autograd, DiamondReuseAccumulates) {
  // f(x) = sum(x*x + x) uses x twice; grad = 2x + 1.
  Tensor x = Tensor::from_vector({1.0f, -2.0f, 3.0f}, {3});
  x.set_requires_grad(true);
  Tensor y = sum(add(mul(x, x), x));
  y.backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 3.0f);
  EXPECT_FLOAT_EQ(x.grad().at(1), -3.0f);
  EXPECT_FLOAT_EQ(x.grad().at(2), 7.0f);
}

TEST(Autograd, ChainedGraphGradcheck) {
  // A miniature message-passing-like composite.
  const std::vector<std::int64_t> src = {0, 1, 2, 0};
  const std::vector<std::int64_t> dst = {1, 2, 0, 2};
  gradcheck(
      [&](auto& in) {
        Tensor h = in[0];
        Tensor hj = gather_rows(h, src);
        Tensor hi = gather_rows(h, dst);
        Tensor m = silu(mul(hi, hj));
        Tensor agg = segment_sum(m, dst, 3);
        return sum(square(add(h, agg)));
      },
      {make_input({3, 4}, 49)});
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor x = Tensor::ones({3}).set_requires_grad(true);
  Tensor y = mul_scalar(x, 2.0f);
  EXPECT_THROW(y.backward(), matsci::Error);
}

TEST(Autograd, NoGradThroughDetachedBranch) {
  Tensor x = Tensor::ones({2}).set_requires_grad(true);
  Tensor d = mul_scalar(x, 3.0f).detach();
  Tensor y = sum(mul(x, d));  // d is a constant
  y.backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 3.0f);
}

TEST(Autograd, GradAccumulatesAcrossBackwards) {
  Tensor x = Tensor::ones({2}).set_requires_grad(true);
  sum(x).backward();
  sum(x).backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 2.0f);
}

}  // namespace
}  // namespace matsci::core
