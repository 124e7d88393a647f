#include "core/tensor.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "core/autograd.hpp"
#include "core/backend/backend.hpp"
#include "core/macros.hpp"

namespace matsci::core {

namespace {
// Per-thread, not global: concurrent inference sessions toggle this via
// NoGradGuard without racing each other or a training thread. Every new
// thread starts in grad mode; forward-only workers must install their own
// guard (the serve subsystem does this inside InferenceSession::predict).
thread_local bool g_grad_mode = true;
}  // namespace

bool grad_mode_enabled() { return g_grad_mode; }

NoGradGuard::NoGradGuard() : previous_(g_grad_mode) { g_grad_mode = false; }
NoGradGuard::~NoGradGuard() { g_grad_mode = previous_; }

GradModeGuard::GradModeGuard(bool enabled) : previous_(g_grad_mode) {
  g_grad_mode = enabled;
}
GradModeGuard::~GradModeGuard() { g_grad_mode = previous_; }

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const std::int64_t d : shape) {
    MATSCI_CHECK(d >= 0, "negative dimension in shape " << shape_to_string(shape));
    n *= d;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

bool same_shape(const Shape& a, const Shape& b) { return a == b; }

void TensorImpl::ensure_grad() {
  if (grad.empty()) {
    grad.assign(data.size(), 0.0f);
  }
}

void TensorImpl::accumulate_grad(const float* g) {
  if (grad.empty()) {
    grad = memory::FloatStorage::uninitialized(data.size());
    for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = g[i] + 0.0f;
    return;
  }
  backend::kernels().add_rows(grad.data(), g,
                              static_cast<std::int64_t>(data.size()));
}

void TensorImpl::accumulate_grad(memory::FloatStorage&& g) {
  MATSCI_CHECK(g.size() == data.size(),
               "accumulate_grad: " << g.size() << " values for "
                                   << data.size());
  if (!grad.empty()) {
    accumulate_grad(g.data());
    return;
  }
  for (float& v : g) v += 0.0f;
  grad = std::move(g);
}

Tensor Tensor::empty(Shape shape) {
  auto impl = std::make_shared<TensorImpl>();
  const std::int64_t n = shape_numel(shape);
  impl->shape = std::move(shape);
  impl->data =
      memory::FloatStorage::uninitialized(static_cast<std::size_t>(n));
  return Tensor(std::move(impl));
}

Tensor Tensor::zeros(Shape shape) { return full(std::move(shape), 0.0f); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0f); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t = empty(std::move(shape));
  std::fill(t.impl_->data.begin(), t.impl_->data.end(), value);
  return t;
}

Tensor Tensor::scalar(float value) { return full({1}, value); }

Tensor Tensor::from_vector(std::vector<float> values, Shape shape) {
  const std::int64_t n = shape_numel(shape);
  MATSCI_CHECK(static_cast<std::int64_t>(values.size()) == n,
               "from_vector: " << values.size() << " values for shape "
                               << shape_to_string(shape));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = memory::FloatStorage::from_vector(values);
  return Tensor(std::move(impl));
}

Tensor Tensor::from_storage(memory::FloatStorage values, Shape shape) {
  const std::int64_t n = shape_numel(shape);
  MATSCI_CHECK(static_cast<std::int64_t>(values.size()) == n,
               "from_storage: " << values.size() << " values for shape "
                                << shape_to_string(shape));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(values);
  return Tensor(std::move(impl));
}

Tensor Tensor::randn(Shape shape, RngEngine& rng, float mean, float stddev) {
  Tensor t = empty(std::move(shape));
  for (float& v : t.impl_->data) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, RngEngine& rng, float lo, float hi) {
  Tensor t = empty(std::move(shape));
  for (float& v : t.impl_->data) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

const Shape& Tensor::shape() const {
  MATSCI_CHECK(defined(), "shape() on undefined tensor");
  return impl_->shape;
}

std::int64_t Tensor::dim() const {
  return static_cast<std::int64_t>(shape().size());
}

std::int64_t Tensor::size(std::int64_t d) const {
  const Shape& s = shape();
  MATSCI_CHECK(d >= 0 && d < static_cast<std::int64_t>(s.size()),
               "size(" << d << ") on shape " << shape_to_string(s));
  return s[static_cast<std::size_t>(d)];
}

std::int64_t Tensor::numel() const {
  MATSCI_CHECK(defined(), "numel() on undefined tensor");
  return impl_->numel();
}

float* Tensor::data() {
  MATSCI_CHECK(defined(), "data() on undefined tensor");
  return impl_->data.data();
}

const float* Tensor::data() const {
  MATSCI_CHECK(defined(), "data() on undefined tensor");
  return impl_->data.data();
}

std::span<float> Tensor::span() & {
  return {data(), static_cast<std::size_t>(numel())};
}

std::span<const float> Tensor::span() const& {
  return {data(), static_cast<std::size_t>(numel())};
}

float Tensor::item() const {
  MATSCI_CHECK(numel() == 1, "item() on tensor with numel=" << numel());
  return impl_->data[0];
}

float Tensor::at(std::int64_t i) const {
  MATSCI_CHECK(i >= 0 && i < numel(), "flat index " << i << " out of range");
  return impl_->data[static_cast<std::size_t>(i)];
}

float Tensor::at(std::int64_t i, std::int64_t j) const {
  MATSCI_CHECK(dim() == 2, "at(i,j) on tensor of rank " << dim());
  MATSCI_CHECK(i >= 0 && i < size(0) && j >= 0 && j < size(1),
               "index (" << i << ", " << j << ") out of range for "
                         << shape_to_string(shape()));
  return impl_->data[static_cast<std::size_t>(i * size(1) + j)];
}

void Tensor::set(std::int64_t i, float v) {
  MATSCI_CHECK(i >= 0 && i < numel(), "flat index " << i << " out of range");
  impl_->data[static_cast<std::size_t>(i)] = v;
}

void Tensor::set(std::int64_t i, std::int64_t j, float v) {
  MATSCI_CHECK(dim() == 2, "set(i,j) on tensor of rank " << dim());
  MATSCI_CHECK(i >= 0 && i < size(0) && j >= 0 && j < size(1),
               "index (" << i << ", " << j << ") out of range for "
                         << shape_to_string(shape()));
  impl_->data[static_cast<std::size_t>(i * size(1) + j)] = v;
}

Tensor& Tensor::set_requires_grad(bool value) {
  MATSCI_CHECK(defined(), "set_requires_grad on undefined tensor");
  MATSCI_CHECK(!value || impl_->grad_fn == nullptr,
               "requires_grad can only be set on leaf tensors");
  impl_->requires_grad = value;
  return *this;
}

bool Tensor::requires_grad() const {
  return defined() && impl_->requires_grad;
}

bool Tensor::has_grad() const { return defined() && !impl_->grad.empty(); }

Tensor Tensor::grad() const {
  MATSCI_CHECK(has_grad(), "grad() requested but no gradient is materialized");
  return Tensor::from_storage(impl_->grad, impl_->shape);
}

std::span<float> Tensor::grad_span() & {
  MATSCI_CHECK(defined(), "grad_span() on undefined tensor");
  impl_->ensure_grad();
  return {impl_->grad.data(), impl_->grad.size()};
}

void Tensor::zero_grad() {
  if (defined() && !impl_->grad.empty()) {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

void Tensor::backward() const { run_backward(*this); }

Tensor Tensor::detach() const {
  MATSCI_CHECK(defined(), "detach() on undefined tensor");
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;  // value copy keeps detach() safe under later in-place edits
  return Tensor(std::move(impl));
}

Tensor Tensor::clone() const {
  Tensor t = detach();
  t.impl_->requires_grad = impl_->requires_grad;
  return t;
}

void Tensor::copy_(const Tensor& src) {
  MATSCI_CHECK(defined() && src.defined(), "copy_ on undefined tensor");
  MATSCI_CHECK(numel() == src.numel(),
               "copy_ numel mismatch: " << numel() << " vs " << src.numel());
  std::memcpy(impl_->data.data(), src.impl_->data.data(),
              impl_->data.size() * sizeof(float));
}

std::string Tensor::to_string(std::int64_t max_items) const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream os;
  os << "Tensor" << shape_to_string(impl_->shape) << " {";
  const std::int64_t n = std::min<std::int64_t>(numel(), max_items);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << impl_->data[static_cast<std::size_t>(i)];
  }
  if (numel() > n) os << ", ...";
  os << "}";
  return os.str();
}

}  // namespace matsci::core
