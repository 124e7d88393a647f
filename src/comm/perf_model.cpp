#include "comm/perf_model.hpp"

#include "core/macros.hpp"

namespace matsci::comm {

PerfModel::PerfModel(ClusterConfig cfg) : cfg_(cfg) {
  MATSCI_CHECK(cfg.ranks_per_node >= 1, "ranks_per_node must be >= 1");
  MATSCI_CHECK(cfg.intra_node_bandwidth > 0 && cfg.inter_node_bandwidth > 0,
               "bandwidths must be positive");
}

double PerfModel::allreduce_seconds(std::int64_t ranks,
                                    std::int64_t bytes) const {
  MATSCI_CHECK(ranks >= 1 && bytes >= 0, "bad allreduce arguments");
  if (ranks == 1) return 0.0;
  const bool crosses_nodes = ranks > cfg_.ranks_per_node;
  const double alpha =
      crosses_nodes ? cfg_.inter_node_latency : cfg_.intra_node_latency;
  const double beta = 1.0 / (crosses_nodes ? cfg_.inter_node_bandwidth
                                           : cfg_.intra_node_bandwidth);
  // Ring allreduce: 2(N−1) steps, each moving bytes/N per link.
  const double n = static_cast<double>(ranks);
  const double per_step = alpha + (static_cast<double>(bytes) / n) * beta;
  return 2.0 * (n - 1.0) * per_step;
}

double PerfModel::step_seconds(std::int64_t ranks,
                               double compute_seconds_per_rank,
                               std::int64_t gradient_bytes) const {
  MATSCI_CHECK(compute_seconds_per_rank > 0.0, "compute time must be positive");
  return compute_seconds_per_rank + allreduce_seconds(ranks, gradient_bytes);
}

double PerfModel::throughput(std::int64_t ranks, std::int64_t batch_per_rank,
                             double compute_seconds_per_rank,
                             std::int64_t gradient_bytes) const {
  MATSCI_CHECK(batch_per_rank >= 1, "batch_per_rank must be >= 1");
  const double step =
      step_seconds(ranks, compute_seconds_per_rank, gradient_bytes);
  return static_cast<double>(ranks * batch_per_rank) / step;
}

double PerfModel::epoch_seconds(std::int64_t ranks,
                                std::int64_t batch_per_rank,
                                double compute_seconds_per_rank,
                                std::int64_t gradient_bytes,
                                std::int64_t dataset_size) const {
  MATSCI_CHECK(dataset_size >= 1, "dataset_size must be >= 1");
  return static_cast<double>(dataset_size) /
         throughput(ranks, batch_per_rank, compute_seconds_per_rank,
                    gradient_bytes);
}

double PerfModel::scaling_efficiency(std::int64_t ranks,
                                     std::int64_t batch_per_rank,
                                     double compute_seconds_per_rank,
                                     std::int64_t gradient_bytes) const {
  const double ideal =
      static_cast<double>(ranks) *
      throughput(1, batch_per_rank, compute_seconds_per_rank, 0);
  return throughput(ranks, batch_per_rank, compute_seconds_per_rank,
                    gradient_bytes) /
         ideal;
}

}  // namespace matsci::comm
