#include <gtest/gtest.h>

#include <cmath>

#include "core/macros.hpp"
#include "core/ops.hpp"

namespace matsci::core {
namespace {

TEST(Ops, AddForwardBroadcasts) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor row = Tensor::from_vector({10, 20, 30}, {3});
  Tensor col = Tensor::from_vector({100, 200}, {2, 1});
  Tensor s = Tensor::scalar(0.5f);

  Tensor ar = add(a, row);
  EXPECT_FLOAT_EQ(ar.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(ar.at(1, 2), 36.0f);
  Tensor ac = add(a, col);
  EXPECT_FLOAT_EQ(ac.at(0, 2), 103.0f);
  EXPECT_FLOAT_EQ(ac.at(1, 0), 204.0f);
  Tensor as = add(a, s);
  EXPECT_FLOAT_EQ(as.at(1, 1), 5.5f);
}

TEST(Ops, IncompatibleBroadcastThrows) {
  Tensor a = Tensor::zeros({2, 3});
  EXPECT_THROW(add(a, Tensor::zeros({2})), matsci::Error);
  EXPECT_THROW(add(a, Tensor::zeros({3, 2})), matsci::Error);
  EXPECT_THROW(add(a, Tensor::zeros({2, 2})), matsci::Error);
}

TEST(Ops, OperatorOverloads) {
  Tensor a = Tensor::from_vector({2, 4}, {2});
  Tensor b = Tensor::from_vector({1, 2}, {2});
  EXPECT_FLOAT_EQ((a + b).at(1), 6.0f);
  EXPECT_FLOAT_EQ((a - b).at(1), 2.0f);
  EXPECT_FLOAT_EQ((a * b).at(1), 8.0f);
  EXPECT_FLOAT_EQ((a / b).at(1), 2.0f);
  EXPECT_FLOAT_EQ((a * 3.0f).at(0), 6.0f);
  EXPECT_FLOAT_EQ((a + 1.0f).at(0), 3.0f);
  EXPECT_FLOAT_EQ((-a).at(0), -2.0f);
}

TEST(Ops, MatmulMatchesManual) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::from_vector({7, 8, 9, 10, 11, 12}, {3, 2});
  Tensor c = matmul(a, b);
  // Row 0: [1*7+2*9+3*11, 1*8+2*10+3*12] = [58, 64]
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
  EXPECT_THROW(matmul(a, a), matsci::Error);
}

TEST(Ops, ReductionValues) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_FLOAT_EQ(sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(mean(a).item(), 3.5f);
  Tensor s0 = sum_dim(a, 0, false);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0.at(0), 5.0f);
  Tensor s1 = sum_dim(a, 1, true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1.at(1), 15.0f);
  Tensor m1 = mean_dim(a, 1, true);
  EXPECT_FLOAT_EQ(m1.at(0), 2.0f);
}

TEST(Ops, ActivationValues) {
  Tensor x = Tensor::from_vector({-1.0f, 0.0f, 2.0f}, {3});
  Tensor r = relu(x);
  EXPECT_FLOAT_EQ(r.at(0), 0.0f);
  EXPECT_FLOAT_EQ(r.at(2), 2.0f);
  Tensor s = sigmoid(Tensor::scalar(0.0f));
  EXPECT_FLOAT_EQ(s.item(), 0.5f);
  // SELU fixed point properties: selu(0) = 0.
  EXPECT_FLOAT_EQ(selu(Tensor::scalar(0.0f)).item(), 0.0f);
  // SiLU(x) = x * sigmoid(x).
  EXPECT_NEAR(silu(Tensor::scalar(1.0f)).item(), 1.0 / (1.0 + std::exp(-1.0)),
              1e-6);
}

TEST(Ops, ClampValues) {
  Tensor x = Tensor::from_vector({-5, 0, 5}, {3});
  Tensor c = clamp(x, -1.0f, 1.0f);
  EXPECT_FLOAT_EQ(c.at(0), -1.0f);
  EXPECT_FLOAT_EQ(c.at(1), 0.0f);
  EXPECT_FLOAT_EQ(c.at(2), 1.0f);
  EXPECT_THROW(clamp(x, 1.0f, -1.0f), matsci::Error);
}

TEST(Ops, CrossEntropyMatchesManual) {
  // Uniform logits over C classes -> loss = log(C).
  Tensor logits = Tensor::zeros({4, 5});
  const std::vector<std::int64_t> labels = {0, 1, 2, 3};
  EXPECT_NEAR(cross_entropy(logits, labels).item(), std::log(5.0), 1e-6);
  EXPECT_THROW(cross_entropy(logits, {0, 1, 2}), matsci::Error);
  EXPECT_THROW(cross_entropy(logits, {0, 1, 2, 7}), matsci::Error);
}

TEST(Ops, BceWithLogitsMatchesManual) {
  Tensor logits = Tensor::from_vector({0.0f}, {1});
  Tensor target = Tensor::from_vector({1.0f}, {1});
  EXPECT_NEAR(bce_with_logits(logits, target).item(), std::log(2.0), 1e-6);
  // Extreme logits stay finite.
  Tensor big = Tensor::from_vector({80.0f}, {1});
  EXPECT_TRUE(std::isfinite(bce_with_logits(big, target).item()));
}

TEST(Ops, LossValues) {
  Tensor p = Tensor::from_vector({1, 2, 3}, {3, 1});
  Tensor t = Tensor::from_vector({2, 2, 5}, {3, 1});
  EXPECT_NEAR(mse_loss(p, t).item(), (1.0 + 0.0 + 4.0) / 3.0, 1e-6);
}

TEST(Ops, ArgmaxRows) {
  Tensor a = Tensor::from_vector({1, 5, 2, 9, 0, 3}, {2, 3});
  const auto idx = argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Ops, ConcatAndSliceRoundTrip) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::from_vector({5, 6}, {2, 1});
  Tensor cat = concat_cols({a, b});
  EXPECT_EQ(cat.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(cat.at(0, 2), 5.0f);
  EXPECT_FLOAT_EQ(cat.at(1, 2), 6.0f);

  Tensor rows = concat_rows({a, a});
  EXPECT_EQ(rows.shape(), (Shape{4, 2}));
  EXPECT_FLOAT_EQ(slice_rows(rows, 2, 2).at(0, 0), 1.0f);
}

TEST(Ops, DropoutSemantics) {
  RngEngine rng(9);
  Tensor x = Tensor::ones({1000});
  // Eval mode / p = 0: identity.
  Tensor id = dropout(x, 0.5f, /*training=*/false, rng);
  EXPECT_FLOAT_EQ(id.at(0), 1.0f);
  Tensor id2 = dropout(x, 0.0f, /*training=*/true, rng);
  EXPECT_FLOAT_EQ(id2.at(17), 1.0f);

  // Training: kept units scaled by 1/(1-p); mean approximately preserved.
  Tensor d = dropout(x, 0.4f, /*training=*/true, rng);
  std::int64_t zeros = 0;
  double total = 0.0;
  for (std::int64_t i = 0; i < 1000; ++i) {
    const float v = d.at(i);
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 1.0f / 0.6f) < 1e-6);
    if (v == 0.0f) ++zeros;
    total += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.4, 0.07);
  EXPECT_NEAR(total / 1000.0, 1.0, 0.1);
  EXPECT_THROW(dropout(x, 1.0f, true, rng), matsci::Error);
}

TEST(Ops, ReshapeValidation) {
  Tensor a = Tensor::zeros({2, 3});
  EXPECT_EQ(reshape(a, {6}).shape(), (Shape{6}));
  EXPECT_EQ(reshape(a, {3, 2}).shape(), (Shape{3, 2}));
  EXPECT_THROW(reshape(a, {4, 2}), matsci::Error);
}

}  // namespace
}  // namespace matsci::core
