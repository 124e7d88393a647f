#include "core/graph_ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/autograd.hpp"
#include "core/backend/backend.hpp"
#include "core/macros.hpp"
#include "core/memory/storage.hpp"
#include "core/ops.hpp"
#include "core/parallel/parallel_for.hpp"
#include "obs/trace.hpp"

namespace matsci::core {

namespace {

using memory::FloatStorage;
using parallel::gemm_grain;
using parallel::rows_grain;

void check_segments(const std::vector<std::int64_t>& segment,
                    std::int64_t num_rows, std::int64_t num_segments,
                    const char* op) {
  MATSCI_CHECK(static_cast<std::int64_t>(segment.size()) == num_rows,
               op << ": segment ids (" << segment.size()
                  << ") must match rows (" << num_rows << ")");
  for (const std::int64_t s : segment) {
    MATSCI_CHECK(s >= 0 && s < num_segments,
                 op << ": segment id " << s << " out of range [0, "
                    << num_segments << ")");
  }
}

/// Parallelizing a scatter means different threads would race on the
/// same destination row, and atomics would make the addition order —
/// and therefore the float rounding — nondeterministic. Instead we
/// invert the index once (a stable counting sort: bucket b holds the
/// source rows scattering into destination b, in ascending order) and
/// parallelize over destination buckets, which are disjoint. Each
/// destination element accumulates its sources in ascending row order
/// — exactly the order the serial loop uses — so the result is
/// bit-identical to serial for any thread count. (The row addition
/// itself runs through the backend add_rows kernel: pointwise IEEE
/// adds, bit-identical across backends too.)
struct RowBucketPlan {
  std::vector<std::int64_t> order;    ///< source rows grouped by destination
  std::vector<std::int64_t> offsets;  ///< bucket b spans order[offsets[b]..offsets[b+1])
};

RowBucketPlan bucket_rows(const std::vector<std::int64_t>& index,
                          std::int64_t num_buckets) {
  RowBucketPlan plan;
  plan.offsets.assign(static_cast<std::size_t>(num_buckets) + 1, 0);
  for (const std::int64_t b : index) {
    ++plan.offsets[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t b = 1; b < plan.offsets.size(); ++b) {
    plan.offsets[b] += plan.offsets[b - 1];
  }
  plan.order.resize(index.size());
  std::vector<std::int64_t> cursor(plan.offsets.begin(),
                                   plan.offsets.end() - 1);
  for (std::size_t r = 0; r < index.size(); ++r) {
    plan.order[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(index[r])]++)] =
        static_cast<std::int64_t>(r);
  }
  return plan;
}

/// dst[index[r], :] += src[r, :] for all rows, deterministically.
/// Serial below kScatterParallelCutoff scalars of work (the bucket
/// plan would cost more than it saves); both paths produce identical
/// bits (same per-element accumulation order).
constexpr std::int64_t kScatterParallelCutoff = 1 << 15;

void scatter_add_kernel(const float* src, std::int64_t num_src,
                        std::int64_t d,
                        const std::vector<std::int64_t>& index,
                        std::int64_t num_dst, float* dst) {
  const backend::KernelTable& kt = backend::kernels();
  if (num_src * d < kScatterParallelCutoff || num_dst > num_src) {
    for (std::int64_t r = 0; r < num_src; ++r) {
      kt.add_rows(dst + index[static_cast<std::size_t>(r)] * d, src + r * d,
                  d);
    }
    return;
  }
  const RowBucketPlan plan = bucket_rows(index, num_dst);
  const std::int64_t avg_rows =
      std::max<std::int64_t>(1, num_src / std::max<std::int64_t>(1, num_dst));
  parallel::parallel_for(
      0, num_dst, rows_grain(avg_rows * d),
      [&](std::int64_t bb, std::int64_t be) {
        for (std::int64_t b = bb; b < be; ++b) {
          float* out = dst + b * d;
          for (std::int64_t k = plan.offsets[static_cast<std::size_t>(b)];
               k < plan.offsets[static_cast<std::size_t>(b) + 1]; ++k) {
            kt.add_rows(out,
                        src + plan.order[static_cast<std::size_t>(k)] * d, d);
          }
        }
      });
}

}  // namespace

Tensor gather_rows(const Tensor& x, const std::vector<std::int64_t>& index) {
  MATSCI_TRACE_SCOPE("core/gather_rows");
  MATSCI_CHECK(x.defined() && x.dim() == 2, "gather_rows requires 2-D input");
  const std::int64_t n = x.size(0), d = x.size(1);
  const std::int64_t m = static_cast<std::int64_t>(index.size());
  const float* px = x.data();
  for (const std::int64_t src : index) {
    MATSCI_CHECK(src >= 0 && src < n,
                 "gather_rows: index " << src << " out of range [0, " << n << ")");
  }
  const backend::KernelTable& kt = backend::kernels();
  FloatStorage out =
      FloatStorage::uninitialized(static_cast<std::size_t>(m * d));
  parallel::parallel_for(
      0, m, rows_grain(d), [&](std::int64_t rb, std::int64_t re) {
        kt.gather_rows(px, index.data(), out.data(), rb, re, d);
      });
  auto ix = x.impl();
  return make_op_result(
      {m, d}, std::move(out), "gather_rows", {ix},
      [ix, index, n, d, m](TensorImpl& o) {
        if (!ix->needs_grad()) return;
        FloatStorage gx = FloatStorage::zeros(static_cast<std::size_t>(n * d));
        scatter_add_kernel(o.grad.data(), m, d, index, n, gx.data());
        ix->accumulate_grad(std::move(gx));
      });
}

Tensor scatter_add_rows(const Tensor& x,
                        const std::vector<std::int64_t>& index,
                        std::int64_t num_rows) {
  MATSCI_TRACE_SCOPE("core/scatter_add_rows");
  MATSCI_CHECK(x.defined() && x.dim() == 2,
               "scatter_add_rows requires 2-D input");
  MATSCI_CHECK(num_rows >= 0, "scatter_add_rows: negative num_rows");
  const std::int64_t m = x.size(0), d = x.size(1);
  MATSCI_CHECK(static_cast<std::int64_t>(index.size()) == m,
               "scatter_add_rows: " << index.size() << " indices for " << m
                                    << " rows");
  for (const std::int64_t dst : index) {
    MATSCI_CHECK(dst >= 0 && dst < num_rows,
                 "scatter_add_rows: index " << dst << " out of range [0, "
                                            << num_rows << ")");
  }
  // Scatter targets keep the zero-fill: rows with no incoming source
  // must read as zero.
  FloatStorage out =
      FloatStorage::zeros(static_cast<std::size_t>(num_rows * d));
  scatter_add_kernel(x.data(), m, d, index, num_rows, out.data());
  auto ix = x.impl();
  return make_op_result(
      {num_rows, d}, std::move(out), "scatter_add_rows", {ix},
      [ix, index, d, m](TensorImpl& o) {
        if (!ix->needs_grad()) return;
        const float* go = o.grad.data();
        const backend::KernelTable& kt = backend::kernels();
        FloatStorage gx =
            FloatStorage::uninitialized(static_cast<std::size_t>(m * d));
        parallel::parallel_for(
            0, m, rows_grain(d), [&](std::int64_t rb, std::int64_t re) {
              kt.gather_rows(go, index.data(), gx.data(), rb, re, d);
            });
        ix->accumulate_grad(std::move(gx));
      });
}

Tensor edge_concat_linear(const Tensor& h, const Tensor& d2, const Tensor& w,
                          const Tensor& b,
                          const std::vector<std::int64_t>& dst,
                          const std::vector<std::int64_t>& src) {
  MATSCI_TRACE_SCOPE("core/edge_concat_linear");
  MATSCI_CHECK(h.defined() && h.dim() == 2 && d2.defined() && w.defined() &&
                   w.dim() == 2 && b.defined(),
               "edge_concat_linear: undefined or non-2-D operand");
  const std::int64_t n = h.size(0), d = h.size(1), m = w.size(1);
  const std::int64_t e = static_cast<std::int64_t>(dst.size());
  MATSCI_CHECK(w.size(0) == 2 * d + 1 && b.numel() == m,
               "edge_concat_linear: weight " << shape_to_string(w.shape())
                                             << " and bias "
                                             << shape_to_string(b.shape())
                                             << " do not fit width " << d);
  MATSCI_CHECK(d2.dim() == 2 && d2.size(0) == e && d2.size(1) == 1,
               "edge_concat_linear: d2 " << shape_to_string(d2.shape())
                                         << " for " << e << " edges");
  check_segments(dst, e, n, "edge_concat_linear");
  check_segments(src, e, n, "edge_concat_linear");

  // P_i and P_j on the node rows, against row blocks of w read in place.
  const backend::KernelTable& kt = backend::kernels();
  const float* ph = h.data();
  const float* pw = w.data();
  FloatStorage p =
      FloatStorage::uninitialized(static_cast<std::size_t>(2 * n * m));
  parallel::parallel_for(
      0, n, gemm_grain(4 * d * m), [&](std::int64_t ib, std::int64_t ie) {
        kt.matmul_nn(ph, pw, p.data(), ib, ie, d, m);
        kt.matmul_nn(ph, pw + d * m, p.data() + n * m, ib, ie, d, m);
      });
  const float* pd2 = d2.data();
  const float* wd = pw + 2 * d * m;
  const float* pb = b.data();
  FloatStorage out =
      FloatStorage::uninitialized(static_cast<std::size_t>(e * m));
  parallel::parallel_for(
      0, e, rows_grain(m), [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t r = rb; r < re; ++r) {
          const float* pi = p.data() + dst[static_cast<std::size_t>(r)] * m;
          const float* pj =
              p.data() + (n + src[static_cast<std::size_t>(r)]) * m;
          const float dr = pd2[r];
          float* o = out.data() + r * m;
          for (std::int64_t j = 0; j < m; ++j)
            o[j] = ((pi[j] + pj[j]) + dr * wd[j]) + pb[j];
        }
      });

  auto ih = h.impl();
  auto id2 = d2.impl();
  auto iw = w.impl();
  auto ibias = b.impl();
  // Build no closure (and copy no edge list) when no tape is recorded.
  if (!grad_mode_enabled() || !(ih->needs_grad() || id2->needs_grad() ||
                                iw->needs_grad() || ibias->needs_grad())) {
    return Tensor::from_storage(std::move(out), {e, m});
  }
  return make_op_result(
      {e, m}, std::move(out), "edge_concat_linear", {ih, id2, iw, ibias},
      [ih, id2, iw, ibias, dst, src, n, d, m, e](TensorImpl& o) {
        const backend::KernelTable& kt2 = backend::kernels();
        const float* go = o.grad.data();
        const float* ph2 = ih->data.data();
        const float* pw2 = iw->data.data();
        // dP_i and dP_j: each node sums its edges' rows in ascending order.
        FloatStorage dp;
        if (ih->needs_grad() || iw->needs_grad()) {
          dp = FloatStorage::zeros(static_cast<std::size_t>(2 * n * m));
          scatter_add_kernel(go, e, m, dst, n, dp.data());
          scatter_add_kernel(go, e, m, src, n, dp.data() + n * m);
        }
        if (iw->needs_grad()) {
          // Rows [0, 2D): hᵀ·dP_i over W_i's rows, hᵀ·dP_j over W_j's.
          FloatStorage gw = FloatStorage::uninitialized(
              static_cast<std::size_t>((2 * d + 1) * m));
          parallel::parallel_for(
              0, 2 * d, gemm_grain(2 * n * m),
              [&](std::int64_t kb, std::int64_t ke) {
                if (kb < d) {
                  kt2.matmul_tn(ph2, dp.data(), gw.data(), kb, std::min(ke, d),
                                n, d, m);
                }
                if (ke > d) {
                  kt2.matmul_tn(ph2, dp.data() + n * m, gw.data() + d * m,
                                std::max(kb, d) - d, ke - d, n, d, m);
                }
              });
          // Row 2D: Σ_e d2[e]·dOut[e], ascending e.
          kt2.matmul_tn(id2->data.data(), go, gw.data() + 2 * d * m, 0, 1, e,
                        1, m);
          iw->accumulate_grad(std::move(gw));
        }
        if (ibias->needs_grad()) {
          // As a Linear bias: whole edge rows added in ascending order.
          FloatStorage gb = FloatStorage::zeros(static_cast<std::size_t>(m));
          for (std::int64_t r = 0; r < e; ++r)
            kt2.add_rows(gb.data(), go + r * m, m);
          ibias->accumulate_grad(std::move(gb));
        }
        if (id2->needs_grad()) {
          // dd2[e] = Σ_j dOut[e, j]·w_d[j]: dOut times the [M, 1] column
          // w_d on the GEMM kernel, ascending j per edge.
          FloatStorage gd =
              FloatStorage::uninitialized(static_cast<std::size_t>(e));
          parallel::parallel_for(
              0, e, gemm_grain(2 * m), [&](std::int64_t rb, std::int64_t re) {
                kt2.matmul_nn(go, pw2 + 2 * d * m, gd.data(), rb, re, m, 1);
              });
          id2->accumulate_grad(std::move(gd));
        }
        if (ih->needs_grad()) {
          // dh = dP_i·W_iᵀ + dP_j·W_jᵀ on the forward kernel, with both
          // [M, D] blocks transposed once.
          FloatStorage wt =
              FloatStorage::uninitialized(static_cast<std::size_t>(2 * m * d));
          for (std::int64_t kk = 0; kk < 2 * d; ++kk) {
            const std::int64_t blk = kk / d, c = kk % d;
            for (std::int64_t j = 0; j < m; ++j)
              wt[static_cast<std::size_t>(blk * m * d + j * d + c)] =
                  pw2[kk * m + j];
          }
          FloatStorage gh =
              FloatStorage::uninitialized(static_cast<std::size_t>(n * d));
          FloatStorage gh_j =
              FloatStorage::uninitialized(static_cast<std::size_t>(n * d));
          parallel::parallel_for(
              0, n, gemm_grain(4 * m * d),
              [&](std::int64_t ib, std::int64_t ie) {
                kt2.matmul_nn(dp.data(), wt.data(), gh.data(), ib, ie, m, d);
                kt2.matmul_nn(dp.data() + n * m, wt.data() + m * d, gh_j.data(),
                              ib, ie, m, d);
                kt2.add_rows(gh.data() + ib * d, gh_j.data() + ib * d,
                             (ie - ib) * d);
              });
          ih->accumulate_grad(std::move(gh));
        }
      });
}

Tensor segment_sum(const Tensor& x, const std::vector<std::int64_t>& segment,
                   std::int64_t num_segments) {
  MATSCI_TRACE_SCOPE("core/segment_sum");
  MATSCI_CHECK(x.defined() && x.dim() == 2, "segment_sum requires 2-D input");
  const std::int64_t n = x.size(0), d = x.size(1);
  check_segments(segment, n, num_segments, "segment_sum");
  const float* px = x.data();
  FloatStorage out =
      FloatStorage::zeros(static_cast<std::size_t>(num_segments * d));
  scatter_add_kernel(px, n, d, segment, num_segments, out.data());
  auto ix = x.impl();
  return make_op_result(
      {num_segments, d}, std::move(out), "segment_sum", {ix},
      [ix, segment, n, d](TensorImpl& o) {
        if (!ix->needs_grad()) return;
        const float* go = o.grad.data();
        const backend::KernelTable& kt = backend::kernels();
        FloatStorage gx =
            FloatStorage::uninitialized(static_cast<std::size_t>(n * d));
        parallel::parallel_for(
            0, n, rows_grain(d), [&](std::int64_t rb, std::int64_t re) {
              kt.gather_rows(go, segment.data(), gx.data(), rb, re, d);
            });
        ix->accumulate_grad(std::move(gx));
      });
}

Tensor segment_counts(const std::vector<std::int64_t>& segment,
                      std::int64_t num_segments) {
  FloatStorage counts =
      FloatStorage::zeros(static_cast<std::size_t>(num_segments));
  for (const std::int64_t s : segment) {
    MATSCI_CHECK(s >= 0 && s < num_segments,
                 "segment_counts: id " << s << " out of range");
    counts[static_cast<std::size_t>(s)] += 1.0f;
  }
  return Tensor::from_storage(std::move(counts), {num_segments, 1});
}

Tensor segment_mean(const Tensor& x, const std::vector<std::int64_t>& segment,
                    std::int64_t num_segments) {
  Tensor sums = segment_sum(x, segment, num_segments);
  Tensor counts = segment_counts(segment, num_segments);
  // Guard empty segments: dividing by max(count, 1) leaves their zero rows.
  float* pc = counts.data();
  for (std::int64_t s = 0; s < num_segments; ++s) {
    if (pc[s] == 0.0f) pc[s] = 1.0f;
  }
  return div(sums, counts);
}

Tensor row_sq_norm(const Tensor& x) {
  return sum_dim(square(x), /*dim=*/1, /*keepdim=*/true);
}

Tensor segment_softmax(const Tensor& x,
                       const std::vector<std::int64_t>& segment,
                       std::int64_t num_segments) {
  MATSCI_CHECK(x.defined() && x.dim() == 2 && x.size(1) == 1,
               "segment_softmax expects an [E, 1] score column");
  const std::int64_t n = x.size(0);
  check_segments(segment, n, num_segments, "segment_softmax");
  const float* px = x.data();

  // Per-segment max shift (serial: index-driven running max), then the
  // shifted exponentials through the backend kernel, then the
  // order-dependent per-segment double sum — kept serial in ascending
  // row order so the normalization is bit-stable at any thread count.
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  std::vector<float> seg_max(static_cast<std::size_t>(num_segments), kNegInf);
  for (std::int64_t r = 0; r < n; ++r) {
    float& m = seg_max[static_cast<std::size_t>(segment[static_cast<std::size_t>(r)])];
    m = std::max(m, px[r]);
  }
  const backend::KernelTable& kt = backend::kernels();
  FloatStorage out = FloatStorage::uninitialized(static_cast<std::size_t>(n));
  parallel::parallel_for(
      0, n, rows_grain(4), [&](std::int64_t rb, std::int64_t re) {
        kt.seg_shift_exp(px, segment.data(), seg_max.data(), out.data(), rb,
                         re);
      });
  std::vector<double> seg_sum(static_cast<std::size_t>(num_segments), 0.0);
  for (std::int64_t r = 0; r < n; ++r) {
    seg_sum[static_cast<std::size_t>(segment[static_cast<std::size_t>(r)])] +=
        out[static_cast<std::size_t>(r)];
  }
  for (std::int64_t r = 0; r < n; ++r) {
    out[static_cast<std::size_t>(r)] /= static_cast<float>(
        seg_sum[static_cast<std::size_t>(segment[static_cast<std::size_t>(r)])]);
  }

  auto ix = x.impl();
  FloatStorage probs;
  if (grad_mode_enabled() && ix->needs_grad()) probs = out;
  return make_op_result(
      {n, 1}, std::move(out), "segment_softmax", {ix},
      [ix, segment, n, num_segments, probs = std::move(probs)](TensorImpl& o) {
        if (!ix->needs_grad()) return;
        const float* go = o.grad.data();
        // d/dx softmax within each segment: p_r (g_r − Σ_s p_s g_s).
        // The per-segment dot stays serial (order-dependent double sum);
        // the Jacobian application runs through the backend kernel.
        std::vector<double> dot(static_cast<std::size_t>(num_segments), 0.0);
        for (std::int64_t r = 0; r < n; ++r) {
          dot[static_cast<std::size_t>(segment[static_cast<std::size_t>(r)])] +=
              static_cast<double>(go[r]) * probs[static_cast<std::size_t>(r)];
        }
        const backend::KernelTable& kt = backend::kernels();
        FloatStorage gx =
            FloatStorage::uninitialized(static_cast<std::size_t>(n));
        parallel::parallel_for(
            0, n, rows_grain(4), [&](std::int64_t rb, std::int64_t re) {
              kt.seg_softmax_grad(probs.data(), go, segment.data(), dot.data(),
                                  gx.data(), rb, re);
            });
        ix->accumulate_grad(std::move(gx));
      });
}

Tensor gaussian_rbf(const Tensor& d, const std::vector<float>& centers,
                    float gamma) {
  MATSCI_CHECK(d.defined() && d.dim() == 2 && d.size(1) == 1,
               "gaussian_rbf expects an [E, 1] distance column");
  MATSCI_CHECK(!centers.empty() && gamma > 0.0f,
               "gaussian_rbf needs centers and positive gamma");
  const std::int64_t n = d.size(0);
  const std::int64_t k = static_cast<std::int64_t>(centers.size());
  const float* pd = d.data();
  const backend::KernelTable& kt = backend::kernels();
  FloatStorage out =
      FloatStorage::uninitialized(static_cast<std::size_t>(n * k));
  parallel::parallel_for(
      0, n, rows_grain(4 * k), [&](std::int64_t rb, std::int64_t re) {
        kt.gaussian_rbf_rows(pd, centers.data(), k, gamma, rb, re, out.data());
      });
  auto id = d.impl();
  FloatStorage saved;
  if (grad_mode_enabled() && id->needs_grad()) saved = out;
  return make_op_result(
      {n, k}, std::move(out), "gaussian_rbf", {id},
      [id, centers, gamma, n, k, saved = std::move(saved)](TensorImpl& o) {
        if (!id->needs_grad()) return;
        const float* go = o.grad.data();
        const float* pd2 = id->data.data();
        FloatStorage gd =
            FloatStorage::uninitialized(static_cast<std::size_t>(n));
        parallel::parallel_for(
            0, n, rows_grain(4 * k), [&](std::int64_t rb, std::int64_t re) {
              for (std::int64_t r = rb; r < re; ++r) {
                double acc = 0.0;
                for (std::int64_t c = 0; c < k; ++c) {
                  const float diff =
                      pd2[r] - centers[static_cast<std::size_t>(c)];
                  acc += static_cast<double>(go[r * k + c]) *
                         (-2.0 * gamma * diff) *
                         saved[static_cast<std::size_t>(r * k + c)];
                }
                gd[static_cast<std::size_t>(r)] = static_cast<float>(acc);
              }
            });
        id->accumulate_grad(std::move(gd));
      });
}

std::vector<float> linspace_centers(float lo, float hi, std::int64_t count) {
  MATSCI_CHECK(count >= 2 && hi > lo, "linspace_centers: bad range");
  std::vector<float> centers(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    centers[static_cast<std::size_t>(i)] =
        lo + (hi - lo) * static_cast<float>(i) / static_cast<float>(count - 1);
  }
  return centers;
}

}  // namespace matsci::core
