#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/memory/storage.hpp"
#include "core/random.hpp"

namespace matsci::core {

using Shape = std::vector<std::int64_t>;

struct GradFn;

/// Reference-counted tensor payload. Users interact through `Tensor`;
/// optimizers and autograd touch the impl directly (data / grad buffers).
///
/// Both buffers live in pooled, 64-byte-aligned Storage (see
/// core/memory): a steady-state loop of fixed-shape steps recycles
/// buffers through the pool instead of touching malloc.
struct TensorImpl {
  Shape shape;
  memory::FloatStorage data;
  bool requires_grad = false;
  /// Gradient buffer; empty until materialized by the autograd engine
  /// (or `ensure_grad`). When non-empty, always `data.size()` long.
  memory::FloatStorage grad;
  /// Backward node that produced this tensor; null for leaves.
  std::shared_ptr<GradFn> grad_fn;

  std::int64_t numel() const { return static_cast<std::int64_t>(data.size()); }
  bool needs_grad() const { return requires_grad || grad_fn != nullptr; }
  /// Materialize a zero gradient buffer if absent.
  void ensure_grad();
  /// grad += g. `g` must have numel() entries. The first write copies
  /// g + 0.0f into a fresh buffer: the bits of 0 + g, with no zero-fill.
  void accumulate_grad(const float* g);
  /// grad += g for a full-size scratch buffer. The first write adopts
  /// `g` after g[i] += 0.0f in place (−0 becomes +0, as in 0 + g), so it
  /// is bit-identical to the pointer overload without a copy.
  void accumulate_grad(memory::FloatStorage&& g);
};

/// Dense, row-major, fp32 tensor with reverse-mode autodiff.
///
/// Copying a Tensor is cheap (shared payload); use `clone()` for a deep
/// copy. Rank is arbitrary but the op library is 2-D centric ([N, D]
/// matrices plus [1] scalars), which covers GNN workloads.
class Tensor {
 public:
  Tensor() = default;  ///< Undefined tensor; `defined()` is false.
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // --- factories ---------------------------------------------------------
  /// UNINITIALIZED contents — callers must fully overwrite before any
  /// read (every kernel producing into empty() does).
  static Tensor empty(Shape shape);
  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor scalar(float value);  ///< shape [1]
  static Tensor from_vector(std::vector<float> values, Shape shape);
  /// Wrap an already-pooled buffer without copying (the op hot path).
  static Tensor from_storage(memory::FloatStorage values, Shape shape);
  static Tensor randn(Shape shape, RngEngine& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  static Tensor rand_uniform(Shape shape, RngEngine& rng, float lo = 0.0f,
                             float hi = 1.0f);

  // --- structure ---------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  std::int64_t dim() const;
  std::int64_t size(std::int64_t d) const;
  std::int64_t numel() const;
  std::int64_t rows() const { return size(0); }  ///< 2-D convenience
  std::int64_t cols() const { return size(1); }  ///< 2-D convenience

  // --- element access ----------------------------------------------------
  float* data();
  const float* data() const;
  /// Views into the payload. Deleted on rvalues: a span outliving its
  /// (temporary) handle dangles unless something else owns the payload,
  /// so callers must bind the tensor to a name first.
  std::span<float> span() &;
  std::span<const float> span() const&;
  std::span<float> span() && = delete;
  std::span<const float> span() const&& = delete;
  float item() const;                       ///< numel() == 1
  float at(std::int64_t i) const;           ///< flat index
  float at(std::int64_t i, std::int64_t j) const;  ///< 2-D index
  void set(std::int64_t i, float v);
  void set(std::int64_t i, std::int64_t j, float v);

  // --- autograd ----------------------------------------------------------
  Tensor& set_requires_grad(bool value);
  bool requires_grad() const;
  bool has_grad() const;
  /// Snapshot of the gradient as a fresh tensor (throws if absent).
  Tensor grad() const;
  std::span<float> grad_span() &;  ///< direct view (materializes zeros)
  std::span<float> grad_span() && = delete;
  void zero_grad();
  /// Reverse-mode backprop from this scalar tensor (numel() must be 1).
  /// Const on the handle: mutates gradient buffers in the shared payload.
  void backward() const;
  /// Same data, detached from the graph (no grad_fn, requires_grad=false).
  Tensor detach() const;
  /// Deep copy of the data (leaf tensor).
  Tensor clone() const;
  /// Overwrite this tensor's values from another of identical numel.
  void copy_(const Tensor& src);

  std::shared_ptr<TensorImpl> impl() const { return impl_; }
  std::string to_string(std::int64_t max_items = 16) const;

 private:
  std::shared_ptr<TensorImpl> impl_;
};

std::int64_t shape_numel(const Shape& shape);
std::string shape_to_string(const Shape& shape);
bool same_shape(const Shape& a, const Shape& b);

/// RAII guard disabling gradient tracking on this thread (inference mode).
///
/// Thread-safety contract: the grad-mode flag is `thread_local`, so a
/// guard only ever affects the thread that constructed it. Concurrent
/// inference workers each installing their own NoGradGuard cannot
/// re-enable (or disable) taping in a sibling thread, and a training
/// thread's tape keeps recording regardless of how many serving threads
/// run grad-free next to it. New threads start with grad mode ENABLED —
/// a worker pool that intends to run forward-only must install its own
/// guard per thread (see serve::InferenceSession, which guards every
/// predict call instead of relying on ambient state).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// RAII guard forcing gradient mode to a chosen state — used to re-enable
/// the tape inside an outer NoGradGuard (e.g. force prediction during
/// evaluation needs ∂E/∂x even though evaluation runs grad-free).
class GradModeGuard {
 public:
  explicit GradModeGuard(bool enabled);
  ~GradModeGuard();
  GradModeGuard(const GradModeGuard&) = delete;
  GradModeGuard& operator=(const GradModeGuard&) = delete;

 private:
  bool previous_;
};

/// True when ops should record autograd metadata on this thread.
/// Per-thread state (see NoGradGuard); defaults to true on every thread.
bool grad_mode_enabled();

}  // namespace matsci::core
