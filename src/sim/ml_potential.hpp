#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/frontend/frontend.hpp"
#include "sim/force_backend.hpp"
#include "tasks/energy_force.hpp"

namespace matsci::sim {

struct ServedPotentialOptions {
  /// Registry names of the ensemble members (all deployed on the same
  /// ServeFrontend). Order is the combination order, so results are
  /// deterministic in the member list.
  std::vector<std::string> members;
  /// Serving target key; EnergyForceTask packs the total energy in
  /// Prediction.value and the 3·n force components in scores.
  std::string target = tasks::EnergyForceTask::kForcesTarget;
  serve::Priority priority = serve::Priority::kStandard;
  /// MD frames must bypass the response cache: sym::canonical quantizes
  /// coordinates on a 1e-4 Å grid, so consecutive perturbed frames
  /// collide onto one cache key and dynamics would be fed stale forces
  /// (regression-tested in test_serve_frontend).
  bool use_cache = false;
  /// Resubmit budget per request when admission sheds (unbounded queues
  /// never shed; this is a safety valve for capacity-bounded deploys).
  std::int64_t max_retries = 1000;
};

/// ForceBackend over a ServeFrontend: one request per (configuration,
/// ensemble member), all submitted before any gather so the serve tier
/// coalesces a trajectory wave into micro-batches. Member predictions
/// are combined in fixed member order — mean energy/forces drive the
/// dynamics (committee potential), the per-atom force spread feeds the
/// uncertainty gate.
class ServedForceBackend : public ForceBackend {
 public:
  ServedForceBackend(serve::frontend::ServeFrontend& frontend,
                     ServedPotentialOptions opts);

  std::vector<ForceEval> evaluate(
      const std::vector<const materials::Structure*>& wave,
      const MidWaveHook& mid = {}) override;

  /// Requests resubmitted after an admission shed.
  std::int64_t resubmits() const { return resubmits_; }
  /// Trace id of the most recent wave (0 before the first wave). Every
  /// member request of that wave carried it, so it links the "sim/wave"
  /// span to the serve-stage spans in /tracez — the end-to-end
  /// continuity check in bench/fig4_mdscale.
  std::uint64_t last_wave_trace_id() const { return last_wave_trace_id_; }
  const ServedPotentialOptions& options() const { return opts_; }

 private:
  serve::frontend::ServeFrontend* frontend_;
  ServedPotentialOptions opts_;
  std::int64_t resubmits_ = 0;
  std::uint64_t last_wave_trace_id_ = 0;
};

/// The served ML potential as a drop-in materials::ForceProvider: an
/// MDSimulator pointed at one of these runs its dynamics through the
/// inference stack one configuration at a time (the sequential baseline
/// of bench/fig4_mdscale; TrajectoryScheduler + ServedForceBackend is
/// the batched path). Keeps the last ForceEval so callers can inspect
/// ensemble uncertainty alongside the ForceProvider contract.
class MLPotential : public materials::ForceProvider {
 public:
  MLPotential(serve::frontend::ServeFrontend& frontend,
              ServedPotentialOptions opts);
  explicit MLPotential(std::shared_ptr<ForceBackend> backend);

  double energy_and_forces(const materials::Structure& s,
                           std::vector<core::Vec3>& forces) override;

  const ForceEval& last_eval() const { return last_; }

 private:
  std::shared_ptr<ForceBackend> backend_;
  ForceEval last_;
};

}  // namespace matsci::sim
