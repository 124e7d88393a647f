#include "tasks/regression.hpp"

#include <cmath>

#include "core/macros.hpp"
#include "core/ops.hpp"

namespace matsci::tasks {

ScalarRegressionTask::ScalarRegressionTask(
    std::shared_ptr<models::Encoder> encoder, std::string target_key,
    models::OutputHeadConfig head_cfg, core::RngEngine& rng,
    data::TargetStats stats)
    : target_key_(std::move(target_key)), stats_(stats) {
  MATSCI_CHECK(encoder != nullptr, "regression task needs an encoder");
  MATSCI_CHECK(stats.stddev > 0.0f, "target stddev must be positive");
  head_cfg.out_dim = 1;
  encoder_ = register_module("encoder", std::move(encoder));
  head_ = register_module(
      "head", std::make_shared<models::OutputHead>(encoder_->embedding_dim(),
                                                   head_cfg, rng));
}

TaskOutput ScalarRegressionTask::step(const data::Batch& batch) const {
  auto it = batch.scalar_targets.find(target_key_);
  MATSCI_CHECK(it != batch.scalar_targets.end(),
               "batch has no scalar target '" << target_key_ << "'");
  const core::Tensor& target_raw = it->second;

  core::Tensor emb = encoder_->encode(batch);
  core::Tensor pred = head_->forward(emb);  // [G, 1], normalized units

  // Normalize the target instead of denormalizing the prediction so the
  // loss scale is O(1) regardless of the physical unit.
  core::Tensor target_norm = core::mul_scalar(
      core::add_scalar(target_raw, -stats_.mean), 1.0f / stats_.stddev);

  TaskOutput out;
  out.loss = core::mse_loss(pred, target_norm);

  // MAE in physical units.
  const std::int64_t g = pred.size(0);
  double mae = 0.0;
  for (std::int64_t i = 0; i < g; ++i) {
    const double denorm = static_cast<double>(pred.at(i, 0)) * stats_.stddev +
                          stats_.mean;
    mae += std::fabs(denorm - target_raw.at(i, 0));
  }
  out.metrics["mae"] = mae / static_cast<double>(g);
  out.metrics["loss"] = out.loss.item();
  out.count = g;
  return out;
}

core::Tensor ScalarRegressionTask::predict(const data::Batch& batch) const {
  core::NoGradGuard no_grad;
  core::Tensor pred = head_->forward(encoder_->encode(batch));
  return core::add_scalar(core::mul_scalar(pred, stats_.stddev), stats_.mean);
}

std::vector<Prediction> ScalarRegressionTask::predict_batch(
    const data::Batch& batch, const std::string& target_key) const {
  MATSCI_CHECK(target_key == target_key_,
               "regression task serves '" << target_key_ << "', not '"
                                          << target_key << "'");
  core::NoGradGuard no_grad;
  core::Tensor norm = head_->forward(encoder_->encode(batch));
  std::vector<Prediction> out(static_cast<std::size_t>(norm.size(0)));
  for (std::int64_t i = 0; i < norm.size(0); ++i) {
    Prediction& p = out[static_cast<std::size_t>(i)];
    p.scores = {norm.at(i, 0)};
    p.value = norm.at(i, 0) * stats_.stddev + stats_.mean;
  }
  return out;
}

}  // namespace matsci::tasks
