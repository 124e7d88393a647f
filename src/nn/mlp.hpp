#pragma once

#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"

namespace matsci::nn {

/// Plain multilayer perceptron: Linear -> act -> ... -> Linear, with the
/// activation applied between layers (and optionally after the last).
class MLP : public Module {
 public:
  /// `dims` holds layer widths, e.g. {in, hidden, out}; needs >= 2 entries.
  MLP(const std::vector<std::int64_t>& dims, Act act, core::RngEngine& rng,
      bool activate_last = false);

  core::Tensor forward(const core::Tensor& x) const;
  /// forward() from layer 0's pre-activation on: for callers that
  /// compute the first affine map themselves with a fused op
  /// (core::edge_concat_linear) on layer(0)'s weight and bias.
  core::Tensor forward_from_first(const core::Tensor& pre) const;

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  const Linear& layer(std::size_t i) const { return *layers_.at(i); }

 private:
  std::vector<std::shared_ptr<Linear>> layers_;
  Act act_;
  bool activate_last_;
  std::int64_t in_features_;
  std::int64_t out_features_;
};

/// The paper's output-head building block (Appendix A):
///   y = x + Dropout(Norm(act(Linear(x))))
/// with SELU activation and RMSNorm by default. Width-preserving.
class ResidualMLPBlock : public Module {
 public:
  ResidualMLPBlock(std::int64_t dim, Act act, float dropout_p,
                   core::RngEngine& rng);

  core::Tensor forward(const core::Tensor& x) const;
  std::int64_t dim() const { return dim_; }

 private:
  std::int64_t dim_;
  std::shared_ptr<Linear> linear_;
  Act act_;
  std::shared_ptr<RMSNorm> norm_;
  std::shared_ptr<Dropout> dropout_;
};

}  // namespace matsci::nn
