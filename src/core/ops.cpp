#include "core/ops.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/autograd.hpp"
#include "core/backend/backend.hpp"
#include "core/macros.hpp"
#include "core/memory/storage.hpp"
#include "core/parallel/parallel_for.hpp"
#include "obs/trace.hpp"

namespace matsci::core {

namespace {

using backend::Bcast;
using backend::BinaryOp;
using backend::UnaryOp;
using memory::FloatStorage;

using parallel::gemm_grain;
using parallel::rows_grain;

// Fixed work-per-chunk targets (in scalar operations). Chunk layout
// depends only on tensor shape, so every kernel is bit-exact across
// thread counts within a backend; problems below one grain collapse to
// a single chunk and execute exactly like the previous serial code.
// Row-sliced and GEMM grains are shared with graph_ops.cpp
// (core/parallel/parallel_for.hpp).
constexpr std::int64_t kElemGrain = 1 << 15;    // elementwise loops
constexpr std::int64_t kReduceGrain = 1 << 16;  // scalar reductions

struct BcastInfo {
  Bcast kind;
  std::int64_t rows;  // of a (or numel when 1-D)
  std::int64_t cols;
};

BcastInfo classify_broadcast(const Tensor& a, const Tensor& b,
                             const char* opname) {
  const Shape& sa = a.shape();
  const Shape& sb = b.shape();
  if (same_shape(sa, sb)) {
    const std::int64_t c = sa.size() == 2 ? sa[1] : a.numel();
    return {Bcast::kSame, sa.size() == 2 ? sa[0] : 1, c};
  }
  if (b.numel() == 1) {
    return {Bcast::kScalar, 1, a.numel()};
  }
  MATSCI_CHECK(sa.size() == 2,
               opname << ": broadcasting requires a 2-D lhs, got "
                      << shape_to_string(sa) << " vs " << shape_to_string(sb));
  const std::int64_t n = sa[0];
  const std::int64_t d = sa[1];
  const bool row = (sb.size() == 1 && sb[0] == d) ||
                   (sb.size() == 2 && sb[0] == 1 && sb[1] == d);
  const bool col = sb.size() == 2 && sb[0] == n && sb[1] == 1;
  MATSCI_CHECK(row || col, opname << ": cannot broadcast "
                                  << shape_to_string(sb) << " over "
                                  << shape_to_string(sa));
  return {row ? Bcast::kRow : Bcast::kCol, n, d};
}

/// Differentiable binary elementwise op, routed through the backend
/// kernel table (b-side broadcasting).
Tensor binary_op(const Tensor& a, const Tensor& b, const char* name,
                 BinaryOp op) {
  MATSCI_CHECK(a.defined() && b.defined(), name << ": undefined operand");
  const BcastInfo info = classify_broadcast(a, b, name);
  const std::int64_t n = a.numel();
  const std::int64_t d = info.cols;
  const float* pa = a.data();
  const float* pb = b.data();

  const backend::KernelTable& kt = backend::kernels();
  FloatStorage out = FloatStorage::uninitialized(static_cast<std::size_t>(n));
  parallel::parallel_for(
      0, n, kElemGrain, [&](std::int64_t bb, std::int64_t e) {
        kt.binary_ew(op, info.kind, pa, pb, out.data(), bb, e, d);
      });

  auto ia = a.impl();
  auto ib = b.impl();
  return make_op_result(
      a.shape(), std::move(out), name, {ia, ib},
      [ia, ib, info, n, d, op](TensorImpl& o) {
        const backend::KernelTable& kt2 = backend::kernels();
        const float* go = o.grad.data();
        const float* pa2 = ia->data.data();
        const float* pb2 = ib->data.data();
        // add and sub pass go through unchanged to a (dfa == 1), and add
        // to b: those terms are go itself, with no copy.
        if (ia->needs_grad()) {
          if (op == BinaryOp::kAdd || op == BinaryOp::kSub) {
            ia->accumulate_grad(go);
          } else {
            FloatStorage ga =
                FloatStorage::uninitialized(static_cast<std::size_t>(n));
            parallel::parallel_for(
                0, n, kElemGrain, [&](std::int64_t bb, std::int64_t e) {
                  kt2.binary_grad_a(op, info.kind, go, pa2, pb2, ga.data(),
                                    bb, e, d);
                });
            ia->accumulate_grad(std::move(ga));
          }
        }
        if (!ib->needs_grad()) return;
        FloatStorage terms;
        const float* t = go;
        if (op != BinaryOp::kAdd) {
          terms = FloatStorage::uninitialized(static_cast<std::size_t>(n));
          parallel::parallel_for(
              0, n, kElemGrain, [&](std::int64_t bb, std::int64_t e) {
                kt2.binary_grad_b(op, info.kind, go, pa2, pb2, terms.data(),
                                  bb, e, d);
              });
          t = terms.data();
        }
        // Reduce the terms into b's shape. Every output sums its terms in
        // ascending flat order from zero, which keeps the scalar tier
        // legacy-exact and every tier thread-count invariant.
        switch (info.kind) {
          case Bcast::kSame:
            if (op == BinaryOp::kAdd) {
              ib->accumulate_grad(go);
            } else {
              ib->accumulate_grad(std::move(terms));
            }
            break;
          case Bcast::kScalar: {
            float s = 0.0f;
            for (std::int64_t i = 0; i < n; ++i) s += t[i];
            ib->accumulate_grad(&s);
            break;
          }
          case Bcast::kRow: {
            FloatStorage gb = FloatStorage::zeros(static_cast<std::size_t>(d));
            for (std::int64_t r = 0; r < info.rows; ++r)
              kt2.add_rows(gb.data(), t + r * d, d);
            ib->accumulate_grad(std::move(gb));
            break;
          }
          case Bcast::kCol: {
            FloatStorage gb = FloatStorage::uninitialized(
                static_cast<std::size_t>(info.rows));
            parallel::parallel_for(
                0, info.rows, rows_grain(d),
                [&](std::int64_t rb, std::int64_t re) {
                  for (std::int64_t r = rb; r < re; ++r) {
                    float s = 0.0f;
                    for (std::int64_t j = 0; j < d; ++j) s += t[r * d + j];
                    gb[r] = s;
                  }
                });
            ib->accumulate_grad(std::move(gb));
            break;
          }
        }
      });
}

/// Differentiable unary elementwise op routed through the backend
/// kernel table. arg0/arg1 carry op parameters (scalar, clamp bounds).
Tensor routed_unary(const Tensor& a, const char* name, UnaryOp op,
                    float arg0 = 0.0f, float arg1 = 0.0f) {
  MATSCI_CHECK(a.defined(), name << ": undefined operand");
  const std::int64_t n = a.numel();
  const float* pa = a.data();
  const backend::KernelTable& kt = backend::kernels();
  FloatStorage out = FloatStorage::uninitialized(static_cast<std::size_t>(n));
  parallel::parallel_for(
      0, n, kElemGrain, [&](std::int64_t bb, std::int64_t e) {
        kt.unary_map(op, pa, out.data(), bb, e, arg0, arg1);
      });

  auto ia = a.impl();
  // Keep output values for the backward pass — only when a tape will
  // actually be recorded (inference skips the copy entirely).
  FloatStorage saved;
  if (grad_mode_enabled() && ia->needs_grad()) saved = out;
  return make_op_result(
      a.shape(), std::move(out), name, {ia},
      [ia, n, op, arg0, arg1, saved = std::move(saved)](TensorImpl& o) {
        if (!ia->needs_grad()) return;
        const backend::KernelTable& kt2 = backend::kernels();
        const float* go = o.grad.data();
        const float* pa2 = ia->data.data();
        FloatStorage ga =
            FloatStorage::uninitialized(static_cast<std::size_t>(n));
        parallel::parallel_for(
            0, n, kElemGrain, [&](std::int64_t bb, std::int64_t e) {
              kt2.unary_grad(op, pa2, saved.data(), go, ga.data(), bb, e,
                             arg0, arg1);
            });
        ia->accumulate_grad(std::move(ga));
      });
}

/// Generic differentiable unary elementwise op for the long tail of
/// activations without a table entry (log/selu/gelu/softplus). df
/// receives (x, y).
template <typename F, typename DF>
Tensor unary_op(const Tensor& a, const char* name, F f, DF df) {
  MATSCI_CHECK(a.defined(), name << ": undefined operand");
  const std::int64_t n = a.numel();
  const float* pa = a.data();
  FloatStorage out = FloatStorage::uninitialized(static_cast<std::size_t>(n));
  parallel::parallel_for(0, n, kElemGrain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) out[i] = f(pa[i]);
  });

  auto ia = a.impl();
  FloatStorage saved;
  if (grad_mode_enabled() && ia->needs_grad()) saved = out;
  return make_op_result(
      a.shape(), std::move(out), name, {ia},
      [ia, n, df, saved = std::move(saved)](TensorImpl& o) {
        if (!ia->needs_grad()) return;
        const float* go = o.grad.data();
        const float* pa2 = ia->data.data();
        FloatStorage ga =
            FloatStorage::uninitialized(static_cast<std::size_t>(n));
        parallel::parallel_for(
            0, n, kElemGrain, [&](std::int64_t b, std::int64_t e) {
              for (std::int64_t i = b; i < e; ++i)
                ga[i] = go[i] * df(pa2[i], saved[i]);
            });
        ia->accumulate_grad(std::move(ga));
      });
}

constexpr float kSeluLambda = 1.0507009873554805f;
constexpr float kSeluAlpha = 1.6732632423543772f;

float sigmoid_scalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

// --- binary ----------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "add", BinaryOp::kAdd);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "sub", BinaryOp::kSub);
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "mul", BinaryOp::kMul);
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "div", BinaryOp::kDiv);
}

Tensor add_scalar(const Tensor& a, float s) {
  return routed_unary(a, "add_scalar", UnaryOp::kAddScalar, s);
}

Tensor mul_scalar(const Tensor& a, float s) {
  return routed_unary(a, "mul_scalar", UnaryOp::kMulScalar, s);
}

// --- unary -------------------------------------------------------------------

Tensor neg(const Tensor& a) { return mul_scalar(a, -1.0f); }

Tensor abs(const Tensor& a) { return routed_unary(a, "abs", UnaryOp::kAbs); }

Tensor square(const Tensor& a) {
  return routed_unary(a, "square", UnaryOp::kSquare);
}

Tensor sqrt(const Tensor& a) {
  return routed_unary(a, "sqrt", UnaryOp::kSqrt);
}

Tensor rsqrt(const Tensor& a) {
  return routed_unary(a, "rsqrt", UnaryOp::kRsqrt);
}

Tensor exp(const Tensor& a) { return routed_unary(a, "exp", UnaryOp::kExp); }

Tensor log(const Tensor& a) {
  return unary_op(
      a, "log", [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Tensor sigmoid(const Tensor& a) {
  return routed_unary(a, "sigmoid", UnaryOp::kSigmoid);
}

Tensor tanh(const Tensor& a) {
  return routed_unary(a, "tanh", UnaryOp::kTanh);
}

Tensor relu(const Tensor& a) {
  return routed_unary(a, "relu", UnaryOp::kRelu);
}

Tensor silu(const Tensor& a) {
  return routed_unary(a, "silu", UnaryOp::kSilu);
}

Tensor selu(const Tensor& a) {
  return unary_op(
      a, "selu",
      [](float x) {
        return x > 0.0f ? kSeluLambda * x
                        : kSeluLambda * kSeluAlpha * (std::exp(x) - 1.0f);
      },
      [](float x, float y) {
        return x > 0.0f ? kSeluLambda : y + kSeluLambda * kSeluAlpha;
      });
}

Tensor gelu(const Tensor& a) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  return unary_op(
      a, "gelu",
      [](float x) {
        const float inner = kC * (x + 0.044715f * x * x * x);
        return 0.5f * x * (1.0f + std::tanh(inner));
      },
      [](float x, float) {
        const float inner = kC * (x + 0.044715f * x * x * x);
        const float t = std::tanh(inner);
        const float dinner = kC * (1.0f + 3.0f * 0.044715f * x * x);
        return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
      });
}

Tensor softplus(const Tensor& a) {
  return unary_op(
      a, "softplus",
      [](float x) {
        // Numerically stable: log(1+e^x) = max(x,0) + log1p(e^{-|x|}).
        return std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
      },
      [](float x, float) { return sigmoid_scalar(x); });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  MATSCI_CHECK(lo <= hi, "clamp: lo=" << lo << " > hi=" << hi);
  return routed_unary(a, "clamp", UnaryOp::kClamp, lo, hi);
}

// --- reductions --------------------------------------------------------------

Tensor sum(const Tensor& a) {
  MATSCI_CHECK(a.defined(), "sum: undefined operand");
  const std::int64_t n = a.numel();
  const float* pa = a.data();
  const backend::KernelTable& kt = backend::kernels();
  // Deterministic tree reduction: fixed-grain chunk partials combined
  // in a shape that depends only on n, never on the thread count.
  const double acc = parallel::parallel_reduce(
      0, n, kReduceGrain, 0.0,
      [pa, &kt](std::int64_t b, std::int64_t e) {
        return kt.reduce_sum(pa, b, e);
      },
      [](double x, double y) { return x + y; });
  auto ia = a.impl();
  return make_op_result(
      {1}, FloatStorage{static_cast<float>(acc)}, "sum", {ia},
      [ia, n](TensorImpl& o) {
        if (!ia->needs_grad()) return;
        const float g = o.grad[0];
        FloatStorage ga = FloatStorage::full(static_cast<std::size_t>(n), g);
        ia->accumulate_grad(std::move(ga));
      });
}

Tensor mean(const Tensor& a) {
  const std::int64_t n = a.numel();
  MATSCI_CHECK(n > 0, "mean of empty tensor");
  return mul_scalar(sum(a), 1.0f / static_cast<float>(n));
}

Tensor sum_dim(const Tensor& a, std::int64_t dim, bool keepdim) {
  MATSCI_CHECK(a.defined() && a.dim() == 2,
               "sum_dim requires a 2-D tensor, got rank "
                   << (a.defined() ? a.dim() : -1));
  MATSCI_CHECK(dim == 0 || dim == 1, "sum_dim: dim must be 0 or 1");
  const std::int64_t n = a.size(0);
  const std::int64_t d = a.size(1);
  const float* pa = a.data();
  const backend::KernelTable& kt = backend::kernels();

  Shape out_shape;
  FloatStorage out;
  if (dim == 0) {
    out = FloatStorage::zeros(static_cast<std::size_t>(d));
    // Column slices are independent outputs; each column accumulates
    // over rows in ascending order, exactly like the serial loop.
    parallel::parallel_for(
        0, d, rows_grain(n),
        [&](std::int64_t jb, std::int64_t je) {
          for (std::int64_t i = 0; i < n; ++i)
            kt.add_rows(out.data() + jb, pa + i * d + jb, je - jb);
        });
    out_shape = keepdim ? Shape{1, d} : Shape{d};
  } else {
    out = FloatStorage::uninitialized(static_cast<std::size_t>(n));
    parallel::parallel_for(
        0, n, rows_grain(d),
        [&](std::int64_t ib, std::int64_t ie) {
          kt.row_sums(pa, out.data(), ib, ie, d);
        });
    out_shape = keepdim ? Shape{n, 1} : Shape{n};
  }

  auto ia = a.impl();
  return make_op_result(
      std::move(out_shape), std::move(out), "sum_dim", {ia},
      [ia, n, d, dim](TensorImpl& o) {
        if (!ia->needs_grad()) return;
        const float* go = o.grad.data();
        FloatStorage ga =
            FloatStorage::uninitialized(static_cast<std::size_t>(n * d));
        parallel::parallel_for(
            0, n, rows_grain(d),
            [&](std::int64_t ib, std::int64_t ie) {
              for (std::int64_t i = ib; i < ie; ++i)
                for (std::int64_t j = 0; j < d; ++j)
                  ga[i * d + j] = go[dim == 0 ? j : i];
            });
        ia->accumulate_grad(std::move(ga));
      });
}

Tensor mean_dim(const Tensor& a, std::int64_t dim, bool keepdim) {
  const std::int64_t m = dim == 0 ? a.size(0) : a.size(1);
  MATSCI_CHECK(m > 0, "mean_dim over empty dimension");
  return mul_scalar(sum_dim(a, dim, keepdim), 1.0f / static_cast<float>(m));
}

// --- linear algebra ----------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  MATSCI_TRACE_SCOPE("core/matmul");
  MATSCI_CHECK(a.defined() && b.defined() && a.dim() == 2 && b.dim() == 2,
               "matmul requires two 2-D tensors");
  const std::int64_t n = a.size(0), k = a.size(1), m = b.size(1);
  MATSCI_CHECK(b.size(0) == k, "matmul shape mismatch: "
                                   << shape_to_string(a.shape()) << " x "
                                   << shape_to_string(b.shape()));
  const float* pa = a.data();
  const float* pb = b.data();
  const backend::KernelTable& kt = backend::kernels();
  // Row-sliced over i; the kernel fully overwrites its rows, so the
  // output starts uninitialized. Within a backend, results are
  // bit-identical at any thread count (chunk bounds only affect which
  // rows a thread owns, never the per-row arithmetic).
  FloatStorage out =
      FloatStorage::uninitialized(static_cast<std::size_t>(n * m));
  parallel::parallel_for(
      0, n, gemm_grain(2 * k * m), [&](std::int64_t ib, std::int64_t ie) {
        kt.matmul_nn(pa, pb, out.data(), ib, ie, k, m);
      });

  auto ia = a.impl();
  auto ib = b.impl();
  return make_op_result(
      {n, m}, std::move(out), "matmul", {ia, ib},
      [ia, ib, n, k, m](TensorImpl& o) {
        const backend::KernelTable& kt2 = backend::kernels();
        const float* go = o.grad.data();
        if (ia->needs_grad()) {
          // dA = dC * B^T runs on the forward kernel: B^T [m, k] is the
          // B-sized operand, transposed once. Row-sliced over i.
          FloatStorage bt =
              FloatStorage::uninitialized(static_cast<std::size_t>(k * m));
          const float* pb2 = ib->data.data();
          for (std::int64_t kk = 0; kk < k; ++kk)
            for (std::int64_t j = 0; j < m; ++j)
              bt[j * k + kk] = pb2[kk * m + j];
          FloatStorage ga =
              FloatStorage::uninitialized(static_cast<std::size_t>(n * k));
          parallel::parallel_for(
              0, n, gemm_grain(2 * k * m),
              [&](std::int64_t ib2, std::int64_t ie) {
                kt2.matmul_nn(go, bt.data(), ga.data(), ib2, ie, m, k);
              });
          ia->accumulate_grad(std::move(ga));
        }
        if (ib->needs_grad()) {
          // dB = A^T * dC — sliced over kk so each gb row accumulates
          // over i in ascending order regardless of the chunking.
          FloatStorage gb =
              FloatStorage::uninitialized(static_cast<std::size_t>(k * m));
          const float* pa2 = ia->data.data();
          parallel::parallel_for(
              0, k, gemm_grain(2 * n * m),
              [&](std::int64_t kb, std::int64_t ke) {
                kt2.matmul_tn(pa2, go, gb.data(), kb, ke, n, k, m);
              });
          ib->accumulate_grad(std::move(gb));
        }
      });
}

// --- shape ---------------------------------------------------------------

Tensor reshape(const Tensor& a, Shape shape) {
  MATSCI_CHECK(a.defined(), "reshape: undefined operand");
  MATSCI_CHECK(shape_numel(shape) == a.numel(),
               "reshape: numel mismatch " << a.numel() << " -> "
                                          << shape_to_string(shape));
  FloatStorage out =
      FloatStorage::copy_of(a.data(), static_cast<std::size_t>(a.numel()));
  auto ia = a.impl();
  return make_op_result(std::move(shape), std::move(out), "reshape", {ia},
                        [ia](TensorImpl& o) {
                          if (!ia->needs_grad()) return;
                          ia->accumulate_grad(o.grad.data());
                        });
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  MATSCI_CHECK(!parts.empty(), "concat_cols of zero tensors");
  const std::int64_t n = parts[0].size(0);
  std::int64_t total = 0;
  for (const Tensor& p : parts) {
    MATSCI_CHECK(p.dim() == 2 && p.size(0) == n,
                 "concat_cols: inconsistent shapes");
    total += p.size(1);
  }
  FloatStorage out =
      FloatStorage::uninitialized(static_cast<std::size_t>(n * total));
  std::int64_t off = 0;
  for (const Tensor& p : parts) {
    const std::int64_t d = p.size(1);
    const float* pp = p.data();
    parallel::parallel_for(
        0, n, rows_grain(d),
        [&](std::int64_t ib, std::int64_t ie) {
          for (std::int64_t i = ib; i < ie; ++i)
            std::copy(pp + i * d, pp + (i + 1) * d,
                      out.data() + i * total + off);
        });
    off += d;
  }
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  std::vector<std::int64_t> widths;
  inputs.reserve(parts.size());
  for (const Tensor& p : parts) {
    inputs.push_back(p.impl());
    widths.push_back(p.size(1));
  }
  auto inputs_copy = inputs;
  return make_op_result(
      {n, total}, std::move(out), "concat_cols", std::move(inputs),
      [inputs = std::move(inputs_copy), widths, n, total](TensorImpl& o) {
        const float* go = o.grad.data();
        std::int64_t off2 = 0;
        for (std::size_t pi = 0; pi < inputs.size(); ++pi) {
          const std::int64_t d = widths[pi];
          if (inputs[pi]->needs_grad()) {
            FloatStorage g =
                FloatStorage::uninitialized(static_cast<std::size_t>(n * d));
            parallel::parallel_for(
                0, n, rows_grain(d),
                [&](std::int64_t ib, std::int64_t ie) {
                  for (std::int64_t i = ib; i < ie; ++i)
                    std::copy(go + i * total + off2,
                              go + i * total + off2 + d, g.data() + i * d);
                });
            inputs[pi]->accumulate_grad(std::move(g));
          }
          off2 += d;
        }
      });
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  MATSCI_CHECK(!parts.empty(), "concat_rows of zero tensors");
  const std::int64_t d = parts[0].size(1);
  std::int64_t total = 0;
  for (const Tensor& p : parts) {
    MATSCI_CHECK(p.dim() == 2 && p.size(1) == d,
                 "concat_rows: inconsistent shapes");
    total += p.size(0);
  }
  FloatStorage out =
      FloatStorage::uninitialized(static_cast<std::size_t>(total * d));
  std::int64_t woff = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data(), p.data() + p.numel(), out.data() + woff);
    woff += p.numel();
  }
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  std::vector<std::int64_t> heights;
  for (const Tensor& p : parts) {
    inputs.push_back(p.impl());
    heights.push_back(p.size(0));
  }
  auto inputs_copy = inputs;
  return make_op_result(
      {total, d}, std::move(out), "concat_rows", std::move(inputs),
      [inputs = std::move(inputs_copy), heights, d](TensorImpl& o) {
        const float* go = o.grad.data();
        std::int64_t off = 0;
        for (std::size_t pi = 0; pi < inputs.size(); ++pi) {
          const std::int64_t h = heights[pi];
          if (inputs[pi]->needs_grad()) {
            inputs[pi]->accumulate_grad(go + off * d);
          }
          off += h;
        }
      });
}

Tensor slice_rows(const Tensor& a, std::int64_t start, std::int64_t len) {
  MATSCI_CHECK(a.defined() && a.dim() == 2, "slice_rows requires 2-D");
  const std::int64_t n = a.size(0), d = a.size(1);
  MATSCI_CHECK(start >= 0 && len >= 0 && start + len <= n,
               "slice_rows [" << start << ", " << start + len
                              << ") out of range for height " << n);
  const float* pa = a.data();
  FloatStorage out =
      FloatStorage::copy_of(pa + start * d, static_cast<std::size_t>(len * d));
  auto ia = a.impl();
  return make_op_result(
      {len, d}, std::move(out), "slice_rows", {ia},
      [ia, n, d, start, len](TensorImpl& o) {
        if (!ia->needs_grad()) return;
        const float* go = o.grad.data();
        FloatStorage ga = FloatStorage::zeros(static_cast<std::size_t>(n * d));
        std::copy(go, go + len * d, ga.data() + start * d);
        ia->accumulate_grad(std::move(ga));
      });
}

// --- regularization ------------------------------------------------------

Tensor dropout(const Tensor& a, float p, bool training, RngEngine& rng) {
  MATSCI_CHECK(p >= 0.0f && p < 1.0f, "dropout probability p=" << p);
  if (!training || p == 0.0f) {
    // Identity that still participates in the graph.
    return add_scalar(a, 0.0f);
  }
  const std::int64_t n = a.numel();
  const float scale = 1.0f / (1.0f - p);
  // Mask draws stay serial: the RNG stream is sequential by contract.
  FloatStorage mask = FloatStorage::uninitialized(static_cast<std::size_t>(n));
  for (float& m : mask) m = rng.bernoulli(p) ? 0.0f : scale;
  const float* pa = a.data();
  FloatStorage out = FloatStorage::uninitialized(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) out[i] = pa[i] * mask[i];
  auto ia = a.impl();
  return make_op_result(
      a.shape(), std::move(out), "dropout", {ia},
      [ia, n, mask = std::move(mask)](TensorImpl& o) {
        if (!ia->needs_grad()) return;
        const float* go = o.grad.data();
        FloatStorage ga =
            FloatStorage::uninitialized(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) ga[i] = go[i] * mask[i];
        ia->accumulate_grad(std::move(ga));
      });
}

// --- losses ----------------------------------------------------------------

Tensor cross_entropy(const Tensor& logits,
                     const std::vector<std::int64_t>& labels) {
  MATSCI_CHECK(logits.defined() && logits.dim() == 2,
               "cross_entropy requires 2-D logits");
  const std::int64_t n = logits.size(0), c = logits.size(1);
  MATSCI_CHECK(static_cast<std::int64_t>(labels.size()) == n,
               "cross_entropy: " << labels.size() << " labels for " << n
                                 << " rows");
  // Labels are validated up front so the row loop can stay check-free.
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::int64_t y = labels[i];
    MATSCI_CHECK(y >= 0 && y < c,
                 "label " << y << " out of range [0, " << c << ")");
  }
  // One scalar loop on every backend tier: max shift, std::exp, a
  // double normalizer per row and a float inverse. The probabilities
  // are kept for the backward.
  const float* pl = logits.data();
  FloatStorage probs =
      FloatStorage::uninitialized(static_cast<std::size_t>(n * c));
  double loss = parallel::parallel_reduce(
      0, n, rows_grain(4 * c), 0.0,
      [&](std::int64_t ib, std::int64_t ie) {
        double part = 0.0;
        for (std::int64_t i = ib; i < ie; ++i) {
          const float* row = pl + i * c;
          float* prow = probs.data() + i * c;
          const float mx = *std::max_element(row, row + c);
          double z = 0.0;
          for (std::int64_t j = 0; j < c; ++j) {
            prow[j] = std::exp(row[j] - mx);
            z += prow[j];
          }
          const double logz = std::log(z) + mx;
          part += logz - row[labels[static_cast<std::size_t>(i)]];
          const float inv = static_cast<float>(1.0 / z);
          for (std::int64_t j = 0; j < c; ++j) prow[j] *= inv;
        }
        return part;
      },
      [](double x, double y) { return x + y; });
  loss /= static_cast<double>(n);

  auto il = logits.impl();
  return make_op_result(
      {1}, FloatStorage{static_cast<float>(loss)}, "cross_entropy", {il},
      [il, n, c, labels, probs = std::move(probs)](TensorImpl& o) {
        if (!il->needs_grad()) return;
        const float g = o.grad[0] / static_cast<float>(n);
        FloatStorage ga =
            FloatStorage::uninitialized(static_cast<std::size_t>(n * c));
        parallel::parallel_for(
            0, n, rows_grain(c),
            [&](std::int64_t ib, std::int64_t ie) {
              for (std::int64_t i = ib; i < ie; ++i) {
                const std::int64_t y = labels[static_cast<std::size_t>(i)];
                for (std::int64_t j = 0; j < c; ++j)
                  ga[i * c + j] =
                      g * (probs[i * c + j] - (j == y ? 1.0f : 0.0f));
              }
            });
        il->accumulate_grad(std::move(ga));
      });
}

Tensor bce_with_logits(const Tensor& logits, const Tensor& targets) {
  MATSCI_CHECK(logits.defined() && targets.defined(),
               "bce_with_logits: undefined operand");
  MATSCI_CHECK(logits.numel() == targets.numel(),
               "bce_with_logits numel mismatch: " << logits.numel() << " vs "
                                                  << targets.numel());
  const std::int64_t n = logits.numel();
  const float* pz = logits.data();
  const float* pt = targets.data();
  double loss = parallel::parallel_reduce(
      0, n, kReduceGrain, 0.0,
      [&](std::int64_t ib, std::int64_t ie) {
        double part = 0.0;
        for (std::int64_t i = ib; i < ie; ++i) {
          const float zi = pz[i];
          // max(z,0) - z*t + log(1+exp(-|z|)) — numerically stable form.
          part += std::max(zi, 0.0f) - zi * pt[i] +
                  std::log1p(std::exp(-std::fabs(zi)));
        }
        return part;
      },
      [](double x, double y) { return x + y; });
  loss /= static_cast<double>(n);
  auto il = logits.impl();
  auto it = targets.impl();
  return make_op_result(
      {1}, FloatStorage{static_cast<float>(loss)}, "bce_with_logits",
      {il, it}, [il, it, n](TensorImpl& o) {
        const float g = o.grad[0] / static_cast<float>(n);
        const float* pz2 = il->data.data();
        const float* pt2 = it->data.data();
        if (il->needs_grad()) {
          // d/dz = sigmoid(z) - t
          FloatStorage ga =
              FloatStorage::uninitialized(static_cast<std::size_t>(n));
          parallel::parallel_for(
              0, n, kElemGrain, [&](std::int64_t ib, std::int64_t ie) {
                for (std::int64_t i = ib; i < ie; ++i)
                  ga[i] = g * (1.0f / (1.0f + std::exp(-pz2[i])) - pt2[i]);
              });
          il->accumulate_grad(std::move(ga));
        }
        if (it->needs_grad()) {
          // d/dt = -z
          FloatStorage gt =
              FloatStorage::uninitialized(static_cast<std::size_t>(n));
          parallel::parallel_for(
              0, n, kElemGrain, [&](std::int64_t ib, std::int64_t ie) {
                for (std::int64_t i = ib; i < ie; ++i) gt[i] = -g * pz2[i];
              });
          it->accumulate_grad(std::move(gt));
        }
      });
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  MATSCI_CHECK(pred.numel() == target.numel(),
               "mse_loss numel mismatch: " << pred.numel() << " vs "
                                           << target.numel());
  Tensor diff = sub(pred, reshape(target, pred.shape()));
  return mean(square(diff));
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  MATSCI_CHECK(a.defined() && a.dim() == 2, "argmax_rows requires 2-D");
  const std::int64_t n = a.size(0), c = a.size(1);
  const float* pa = a.data();
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = pa + i * c;
    out[static_cast<std::size_t>(i)] =
        std::max_element(row, row + c) - row;
  }
  return out;
}

}  // namespace matsci::core
