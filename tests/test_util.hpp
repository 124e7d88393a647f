#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "core/ops.hpp"
#include "core/tensor.hpp"

namespace matsci::testing {

/// Finite-difference gradient check: `fn` maps the (leaf) inputs to a
/// scalar tensor. Verifies d(fn)/d(input[i]) against central differences
/// for every coordinate of every input. Inputs must have requires_grad.
inline void gradcheck(
    const std::function<core::Tensor(std::vector<core::Tensor>&)>& fn,
    std::vector<core::Tensor> inputs, double eps = 1e-3, double rtol = 5e-2,
    double atol = 1e-4) {
  // Analytic gradients.
  for (core::Tensor& t : inputs) {
    t.zero_grad();
  }
  core::Tensor out = fn(inputs);
  ASSERT_EQ(out.numel(), 1) << "gradcheck target must be scalar";
  out.backward();

  for (std::size_t ti = 0; ti < inputs.size(); ++ti) {
    core::Tensor& t = inputs[ti];
    ASSERT_TRUE(t.requires_grad());
    auto impl = t.impl();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      const float orig = impl->data[static_cast<std::size_t>(i)];
      impl->data[static_cast<std::size_t>(i)] = orig + static_cast<float>(eps);
      const double up = fn(inputs).item();
      impl->data[static_cast<std::size_t>(i)] = orig - static_cast<float>(eps);
      const double down = fn(inputs).item();
      impl->data[static_cast<std::size_t>(i)] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic =
          impl->grad.empty() ? 0.0
                             : static_cast<double>(
                                   impl->grad[static_cast<std::size_t>(i)]);
      const double tol = atol + rtol * std::max(std::fabs(numeric),
                                                std::fabs(analytic));
      EXPECT_NEAR(analytic, numeric, tol)
          << "input " << ti << " coordinate " << i;
    }
  }
}

/// Gradients of L = sum(op(a, b) * g) with respect to a and b. The
/// upstream gradient reaching op is exactly g (1.0f * g), so a test can
/// inject any dL/d(out), zeros and -0 included.
struct PairGrads {
  std::vector<float> a, b;
};
inline PairGrads grads_under(
    core::Tensor (*op)(const core::Tensor&, const core::Tensor&),
    const std::vector<float>& av, core::Shape ashape,
    const std::vector<float>& bv, core::Shape bshape, const core::Tensor& g) {
  core::Tensor a = core::Tensor::from_vector(av, std::move(ashape));
  core::Tensor b = core::Tensor::from_vector(bv, std::move(bshape));
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  core::sum(core::mul(op(a, b), g)).backward();
  const core::Tensor ga = a.grad();
  const core::Tensor gb = b.grad();
  return {std::vector<float>(ga.data(), ga.data() + ga.numel()),
          std::vector<float>(gb.data(), gb.data() + gb.numel())};
}

/// Max absolute difference between two same-sized tensors.
inline double max_abs_diff(const core::Tensor& a, const core::Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a.at(i)) - b.at(i)));
  }
  return m;
}

}  // namespace matsci::testing
