#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace matsci::core::backend {

/// Instruction-set tiers the kernel layer can dispatch to. kScalar is
/// the portable reference: plain C++ loops, always compiled, and the
/// numerical baseline every SIMD backend is tolerance-checked against.
/// kAvx2/kAvx512 are compiled only when the toolchain supports the
/// flags (x86-64) and selected only when cpuid reports support.
enum class Backend : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr int kNumBackends = 3;

/// Binary elementwise ops with a vectorized table entry.
enum class BinaryOp : int { kAdd, kSub, kMul, kDiv };

/// Unary elementwise ops with a vectorized table entry. arg0/arg1 carry
/// op parameters (the scalar for kAddScalar/kMulScalar, lo/hi for
/// kClamp); unused otherwise.
enum class UnaryOp : int {
  kAddScalar,
  kMulScalar,
  kAbs,
  kSquare,
  kSqrt,
  kRsqrt,
  kRelu,
  kClamp,
  kExp,
  kSigmoid,
  kSilu,
  kTanh,
};

/// How a binary op's second operand maps onto the first (shared with
/// core/ops.cpp broadcast classification). For kRow/kCol the flat index
/// range is interpreted against a row-major [rows, d] layout.
enum class Bcast : int { kSame, kScalar, kRow, kCol };

/// Function-pointer table of hot kernels, one instance per backend.
/// Every function operates on a sub-range of the problem so the
/// deterministic parallel runtime can hand chunks to the pool; range
/// semantics per entry are documented inline.
///
/// Determinism contract (DESIGN.md §11): within one backend, a kernel's
/// output for a given chunk depends only on the chunk bounds and
/// inputs — never on thread count or pointer alignment — so results
/// stay bit-identical at any thread count. Across backends, pointwise
/// IEEE ops (add/sub/mul/div/min/max/sqrt and the row-copy/row-add
/// kernels) are bit-identical to scalar by construction; kernels that
/// reassociate accumulation (matmul, reductions) or use polynomial
/// transcendentals (exp/sigmoid/tanh/silu) agree with the scalar
/// backend to tolerance only.
///
/// An entry earns its SIMD tiers only when a workload hands it enough
/// elements per call for the vector body to matter; smaller kernels
/// (the losses, for one) stay one scalar loop in the op itself.
struct KernelTable {
  const char* name;

  // --- dense linear algebra ------------------------------------------------
  /// c rows [i0, i1) of C = A[n,k] * B[k,m]. Fully overwrites those rows
  /// (output may be uninitialized). Row i of C depends only on row i of
  /// A. Also serves dA = G * B^T, called on G and the transposed B.
  void (*matmul_nn)(const float* a, const float* b, float* c, std::int64_t i0,
                    std::int64_t i1, std::int64_t k, std::int64_t m);
  /// gb rows [k0, k1) of dB = A[n,k]^T * G[n,m], accumulating over i in
  /// ascending order. Fully overwrites those rows.
  void (*matmul_tn)(const float* a, const float* g, float* gb, std::int64_t k0,
                    std::int64_t k1, std::int64_t n, std::int64_t k,
                    std::int64_t m);

  // --- elementwise ---------------------------------------------------------
  /// out[i] = op(a[i], b[bcast(i)]) for flat i in [begin, end); d is the
  /// row width for kRow/kCol.
  void (*binary_ew)(BinaryOp op, Bcast kind, const float* a, const float* b,
                    float* out, std::int64_t begin, std::int64_t end,
                    std::int64_t d);
  /// ga[i] = go[i] * d(op)/da at (a[i], b[bcast(i)]).
  void (*binary_grad_a)(BinaryOp op, Bcast kind, const float* go,
                        const float* a, const float* b, float* ga,
                        std::int64_t begin, std::int64_t end, std::int64_t d);
  /// gb[i] = go[i] * d(op)/db at (a[i], b[bcast(i)]), unreduced: for the
  /// broadcast kinds ops.cpp sums these terms into b's shape.
  void (*binary_grad_b)(BinaryOp op, Bcast kind, const float* go,
                        const float* a, const float* b, float* gb,
                        std::int64_t begin, std::int64_t end, std::int64_t d);
  /// y[i] = op(x[i]) for i in [begin, end).
  void (*unary_map)(UnaryOp op, const float* x, float* y, std::int64_t begin,
                    std::int64_t end, float arg0, float arg1);
  /// ga[i] = go[i] * dop/dx at x[i] (y[i] is the saved forward output).
  void (*unary_grad)(UnaryOp op, const float* x, const float* y,
                     const float* go, float* ga, std::int64_t begin,
                     std::int64_t end, float arg0, float arg1);

  // --- reductions ----------------------------------------------------------
  /// Sum of x[begin, end) accumulated in double (per-chunk partial for
  /// the deterministic tree reduction).
  double (*reduce_sum)(const float* x, std::int64_t begin, std::int64_t end);
  /// out[r] = (float)(sum of row r of x[., d] in double), rows [r0, r1).
  void (*row_sums)(const float* x, float* out, std::int64_t r0,
                   std::int64_t r1, std::int64_t d);

  // --- rows / message passing ---------------------------------------------
  /// dst[0, n) += src[0, n) (the scatter/segment inner accumulation and
  /// gradient accumulate; bit-identical across backends).
  void (*add_rows)(float* dst, const float* src, std::int64_t n);
  /// out rows [r0, r1) = src rows idx[r] (row gather; d floats per row).
  void (*gather_rows)(const float* src, const std::int64_t* idx, float* out,
                      std::int64_t r0, std::int64_t r1, std::int64_t d);
  /// out[r, c] = exp(-gamma * (d[r] - centers[c])^2) for rows [r0, r1).
  void (*gaussian_rbf_rows)(const float* d, const float* centers,
                            std::int64_t k, float gamma, std::int64_t r0,
                            std::int64_t r1, float* out);

  // --- geometry (double precision, radius-graph hot path) ------------------
  /// out[j] = |p_j - p_i|^2 for j in [j0, j1), free boundary.
  void (*sq_dists)(const double* xs, const double* ys, const double* zs,
                   std::int64_t j0, std::int64_t j1, double xi, double yi,
                   double zi, double* out);
  /// Same under periodic minimal-image convention; lat/inv are row-major
  /// 3x3 lattice and inverse-lattice matrices.
  void (*sq_dists_pbc)(const double* xs, const double* ys, const double* zs,
                       std::int64_t j0, std::int64_t j1, double xi, double yi,
                       double zi, const double* lat, const double* inv,
                       double* out);

  // --- segment softmax -----------------------------------------------------
  /// out[r] = exp(x[r] - seg_max[seg[r]]) for r in [begin, end) (the
  /// shifted-exponential phase of segment softmax; the order-dependent
  /// per-segment sum stays with the caller).
  void (*seg_shift_exp)(const float* x, const std::int64_t* seg,
                        const float* seg_max, float* out, std::int64_t begin,
                        std::int64_t end);
  /// gx[r] = probs[r] * (go[r] - (float)dot[seg[r]]) for r in
  /// [begin, end) — the within-segment softmax Jacobian application,
  /// with `dot` the caller's per-segment double sum of go * probs.
  void (*seg_softmax_grad)(const float* probs, const float* go,
                           const std::int64_t* seg, const double* dot,
                           float* gx, std::int64_t begin, std::int64_t end);
};

/// The active backend's kernel table (atomic pointer load; safe to call
/// from pool workers). First call resolves MATSCI_KERNEL_BACKEND.
const KernelTable& kernels();

/// Currently active backend.
Backend active_backend();

/// True when this binary contains code for `b` (compile-time support).
bool backend_compiled(Backend b);

/// True when `b` is compiled in AND the running CPU supports it.
bool backend_supported(Backend b);

/// The widest supported backend (what "auto" resolves to).
Backend best_supported();

/// Switch the active backend (tests, benchmarks, forced-fallback CI).
/// Fails loudly on a backend that is not compiled in or not supported
/// by the CPU. Not intended to race in-flight kernels: callers switch
/// between steps, not during them.
void set_backend(Backend b);

/// Parse "scalar" | "avx2" | "avx512" (nullopt on anything else;
/// "auto" is handled by the dispatcher, not here).
std::optional<Backend> parse_backend(std::string_view name);

const char* backend_name(Backend b);

}  // namespace matsci::core::backend
