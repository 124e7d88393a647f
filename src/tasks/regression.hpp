#pragma once

#include "data/transforms.hpp"
#include "models/output_head.hpp"
#include "tasks/task.hpp"

namespace matsci::tasks {

/// Single-target scalar regression (e.g. Materials Project band gap,
/// Fig. 5), trained with MSE. The target is z-normalized with `stats`
/// before the loss; the reported "mae" metric is denormalized back to
/// physical units so it is comparable to the paper's eV numbers.
class ScalarRegressionTask : public Task {
 public:
  ScalarRegressionTask(std::shared_ptr<models::Encoder> encoder,
                       std::string target_key,
                       models::OutputHeadConfig head_cfg,
                       core::RngEngine& rng,
                       data::TargetStats stats = {});

  TaskOutput step(const data::Batch& batch) const override;
  std::shared_ptr<models::Encoder> encoder() const override {
    return encoder_;
  }

  /// Denormalized predictions for a batch (inference helper).
  core::Tensor predict(const data::Batch& batch) const;

  /// Serving hook: `target_key` must be this task's target; `value` is
  /// the denormalized prediction, `scores` the normalized head output.
  std::vector<Prediction> predict_batch(
      const data::Batch& batch, const std::string& target_key) const override;

  const std::string& target_key() const { return target_key_; }
  const data::TargetStats& stats() const { return stats_; }

 private:
  std::shared_ptr<models::Encoder> encoder_;
  std::string target_key_;
  std::shared_ptr<models::OutputHead> head_;
  data::TargetStats stats_;
};

}  // namespace matsci::tasks
