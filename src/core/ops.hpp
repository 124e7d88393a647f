#pragma once

#include <cstdint>
#include <vector>

#include "core/tensor.hpp"

/// Differentiable op library. All ops are pure (no aliasing of inputs)
/// and record autograd metadata when grad mode is enabled.
///
/// Broadcasting for binary elementwise ops supports, for a = [N, D]:
///   b of identical shape, b scalar ([1]), b row vector ([D] or [1, D]),
///   and b column vector ([N, 1]).
namespace matsci::core {

// --- binary elementwise --------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// --- unary elementwise ---------------------------------------------------
Tensor neg(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor square(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor rsqrt(const Tensor& a);  ///< 1/sqrt(x)
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor silu(const Tensor& a);  ///< x * sigmoid(x)
Tensor selu(const Tensor& a);  ///< Klambauer et al. 2017 constants
Tensor gelu(const Tensor& a);  ///< tanh approximation
Tensor softplus(const Tensor& a);
Tensor clamp(const Tensor& a, float lo, float hi);

// --- reductions ----------------------------------------------------------
Tensor sum(const Tensor& a);   ///< -> [1]
Tensor mean(const Tensor& a);  ///< -> [1]
/// Reduce a 2-D tensor along `dim` (0 or 1). keepdim keeps a size-1 axis.
Tensor sum_dim(const Tensor& a, std::int64_t dim, bool keepdim = true);
Tensor mean_dim(const Tensor& a, std::int64_t dim, bool keepdim = true);

// --- linear algebra ------------------------------------------------------
Tensor matmul(const Tensor& a, const Tensor& b);  ///< [N,K] x [K,M]

// --- shape ---------------------------------------------------------------
Tensor reshape(const Tensor& a, Shape shape);
Tensor concat_cols(const std::vector<Tensor>& parts);  ///< all [N, Di]
Tensor concat_rows(const std::vector<Tensor>& parts);  ///< all [Ni, D]
Tensor slice_rows(const Tensor& a, std::int64_t start, std::int64_t len);

// --- regularization ------------------------------------------------------
/// Inverted dropout: scales kept activations by 1/(1-p) during training;
/// identity when `training` is false or p == 0.
Tensor dropout(const Tensor& a, float p, bool training, RngEngine& rng);

// --- losses & classification helpers -------------------------------------
/// Mean cross-entropy over rows with integer class labels.
Tensor cross_entropy(const Tensor& logits, const std::vector<std::int64_t>& labels);
/// Mean binary cross-entropy on logits ([N] or [N,1]) vs targets in {0,1}.
Tensor bce_with_logits(const Tensor& logits, const Tensor& targets);
Tensor mse_loss(const Tensor& pred, const Tensor& target);

/// Row-wise argmax of a 2-D tensor (no autograd).
std::vector<std::int64_t> argmax_rows(const Tensor& a);

// --- operators -----------------------------------------------------------
inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }
inline Tensor operator+(const Tensor& a, float s) { return add_scalar(a, s); }
inline Tensor operator-(const Tensor& a, float s) { return add_scalar(a, -s); }
inline Tensor operator*(const Tensor& a, float s) { return mul_scalar(a, s); }
inline Tensor operator/(const Tensor& a, float s) { return mul_scalar(a, 1.0f / s); }
inline Tensor operator-(const Tensor& a) { return neg(a); }

}  // namespace matsci::core
