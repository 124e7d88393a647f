#include "nn/mlp.hpp"

#include "core/macros.hpp"
#include "core/ops.hpp"

namespace matsci::nn {

MLP::MLP(const std::vector<std::int64_t>& dims, Act act, core::RngEngine& rng,
         bool activate_last)
    : act_(act), activate_last_(activate_last) {
  MATSCI_CHECK(dims.size() >= 2, "MLP needs at least {in, out} dims");
  in_features_ = dims.front();
  out_features_ = dims.back();
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    auto layer = std::make_shared<Linear>(dims[i], dims[i + 1], rng);
    layers_.push_back(
        register_module("layer" + std::to_string(i), std::move(layer)));
  }
}

core::Tensor MLP::forward(const core::Tensor& x) const {
  return forward_from_first(layers_.front()->forward(x));
}

core::Tensor MLP::forward_from_first(const core::Tensor& pre) const {
  core::Tensor h = pre;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) h = layers_[i]->forward(h);
    if (i + 1 < layers_.size() || activate_last_) {
      h = apply_activation(act_, h);
    }
  }
  return h;
}

ResidualMLPBlock::ResidualMLPBlock(std::int64_t dim, Act act, float dropout_p,
                                   core::RngEngine& rng)
    : dim_(dim), act_(act) {
  linear_ = register_module("linear", std::make_shared<Linear>(dim, dim, rng));
  norm_ = register_module("norm", std::make_shared<RMSNorm>(dim));
  dropout_ = register_module("dropout",
                             std::make_shared<Dropout>(dropout_p, rng));
}

core::Tensor ResidualMLPBlock::forward(const core::Tensor& x) const {
  core::Tensor h = linear_->forward(x);
  h = apply_activation(act_, h);
  h = norm_->forward(h);
  h = dropout_->forward(h);
  return core::add(x, h);
}

}  // namespace matsci::nn
