#pragma once

#include <cstdint>

namespace matsci::comm {

/// Analytic α-β (latency/bandwidth) model of the Endeavour-class cluster
/// the paper ran on: dual-socket Sapphire Rapids nodes (16 DDP ranks per
/// node, NUMA-pinned) linked by Mellanox HDR200. Used to extrapolate the
/// Fig. 2 throughput curve beyond what one laptop-class box can host
/// (see DESIGN.md §2, substitution 2): measured single-rank compute time
/// composes with modeled ring-allreduce time.
struct ClusterConfig {
  std::int64_t ranks_per_node = 16;
  /// Effective point-to-point bandwidth, bytes/s.
  double intra_node_bandwidth = 40.0e9;  ///< UPI/shared-memory transport
  double inter_node_bandwidth = 25.0e9;  ///< HDR200 ≈ 200 Gb/s
  /// Per-message latency, seconds.
  double intra_node_latency = 1.0e-6;
  double inter_node_latency = 2.5e-6;
};

class PerfModel {
 public:
  explicit PerfModel(ClusterConfig cfg = {});

  /// Ring-allreduce time for `bytes` across `ranks` (2(N−1) messages of
  /// bytes/N each; link parameters picked by whether the ring crosses
  /// node boundaries).
  double allreduce_seconds(std::int64_t ranks, std::int64_t bytes) const;

  /// One synchronous DDP step: max-rank compute + gradient allreduce.
  double step_seconds(std::int64_t ranks, double compute_seconds_per_rank,
                      std::int64_t gradient_bytes) const;

  /// Aggregate training throughput, samples/s.
  double throughput(std::int64_t ranks, std::int64_t batch_per_rank,
                    double compute_seconds_per_rank,
                    std::int64_t gradient_bytes) const;

  /// Wall-clock for one epoch of `dataset_size` samples.
  double epoch_seconds(std::int64_t ranks, std::int64_t batch_per_rank,
                       double compute_seconds_per_rank,
                       std::int64_t gradient_bytes,
                       std::int64_t dataset_size) const;

  /// Parallel efficiency vs the single-rank ideal (1.0 = perfectly linear).
  double scaling_efficiency(std::int64_t ranks, std::int64_t batch_per_rank,
                            double compute_seconds_per_rank,
                            std::int64_t gradient_bytes) const;

  const ClusterConfig& config() const { return cfg_; }

 private:
  ClusterConfig cfg_;
};

}  // namespace matsci::comm
