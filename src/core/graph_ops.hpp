#pragma once

#include <cstdint>
#include <vector>

#include "core/tensor.hpp"

/// Sparse gather/scatter kernels for message passing. These are the
/// C++ analogue of DGL's edge-wise primitives: gather node rows onto
/// edges, run dense MLPs on edge tensors, then segment-reduce back to
/// nodes. All ops are differentiable.
namespace matsci::core {

/// out[r, :] = x[index[r], :]  (x is [N, D], index has M entries < N).
Tensor gather_rows(const Tensor& x, const std::vector<std::int64_t>& index);

/// Scatter-accumulate: out[index[r], :] += x[r, :] into a fresh
/// [num_rows, D] zero tensor (x is [M, D], index has M entries
/// < num_rows). The transpose of gather_rows — its backward is a
/// gather — and the deterministic scatter-add primitive underneath
/// segment_sum: rows mapping to the same output accumulate in
/// ascending row order regardless of thread count.
Tensor scatter_add_rows(const Tensor& x,
                        const std::vector<std::int64_t>& index,
                        std::int64_t num_rows);

/// concat_cols({h[dst], h[src], d2}) · w + b without forming the
/// concat: an EGNN edge MLP's first layer, run on node rows. h is
/// [N, D], d2 is [E, 1], w is [2D+1, M] with row blocks W_i = w[0, D),
/// W_j = w[D, 2D) and w_d = w[2D], b holds M values, and dst/src hold E
/// node ids. P_i = h·W_i and P_j = h·W_j are N-row GEMMs; then
///   out[e] = ((P_i[dst[e]] + P_j[src[e]]) + d2[e]·w_d) + b,
/// one IEEE mul or add per step in that order. Row e depends only on its
/// two endpoint rows, and every output and gradient is bit-identical at
/// any thread count. The concat form sums the 2D+1 products in one
/// chain, so the two agree to reassociation tolerance. Differentiable in
/// h, d2, w and b; terms for inputs that need no gradient are skipped.
Tensor edge_concat_linear(const Tensor& h, const Tensor& d2, const Tensor& w,
                          const Tensor& b,
                          const std::vector<std::int64_t>& dst,
                          const std::vector<std::int64_t>& src);

/// out[s, :] = sum over rows r with segment[r] == s of x[r, :].
/// `segment` need not be sorted. num_segments > max(segment).
Tensor segment_sum(const Tensor& x, const std::vector<std::int64_t>& segment,
                   std::int64_t num_segments);

/// Mean-reduced variant; empty segments yield zero rows.
Tensor segment_mean(const Tensor& x, const std::vector<std::int64_t>& segment,
                    std::int64_t num_segments);

/// Per-segment row counts as a float column tensor [S, 1] (no autograd).
Tensor segment_counts(const std::vector<std::int64_t>& segment,
                      std::int64_t num_segments);

/// Row-wise squared L2 norm of a 2-D tensor: out is [N, 1].
Tensor row_sq_norm(const Tensor& x);

/// Softmax over the rows of each segment: for a column of edge scores
/// [E, 1], out[r] = exp(x[r]) / Σ_{s: seg[s]==seg[r]} exp(x[s]), with a
/// per-segment max shift for stability. The attention-normalization
/// primitive over incoming edges.
Tensor segment_softmax(const Tensor& x, const std::vector<std::int64_t>& segment,
                       std::int64_t num_segments);

/// Gaussian radial-basis expansion: d [E, 1] -> [E, K] with
/// out[e, k] = exp(-gamma (d[e] - centers[k])²). Centers are constants;
/// gradients flow through d (SchNet's continuous-filter input).
Tensor gaussian_rbf(const Tensor& d, const std::vector<float>& centers,
                    float gamma);

/// Evenly spaced RBF centers on [lo, hi].
std::vector<float> linspace_centers(float lo, float hi, std::int64_t count);

}  // namespace matsci::core
