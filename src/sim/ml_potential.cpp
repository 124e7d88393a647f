#include "sim/ml_potential.hpp"

#include <chrono>
#include <cmath>
#include <thread>

#include "core/macros.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"

namespace matsci::sim {

namespace {

obs::Histogram& batch_occupancy_histogram() {
  return obs::MetricsRegistry::global().histogram(
      "sim.batch_occupancy",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
}

}  // namespace

ServedForceBackend::ServedForceBackend(serve::frontend::ServeFrontend& frontend,
                                       ServedPotentialOptions opts)
    : frontend_(&frontend), opts_(std::move(opts)) {
  MATSCI_CHECK(!opts_.members.empty(),
               "served force backend needs at least one ensemble member");
}

std::vector<ForceEval> ServedForceBackend::evaluate(
    const std::vector<const materials::Structure*>& wave,
    const MidWaveHook& mid) {
  const std::size_t num_traj = wave.size();
  const std::size_t num_members = opts_.members.size();
  std::vector<std::future<serve::PredictResult>> futures(num_traj *
                                                         num_members);
  std::vector<std::uint64_t> versions(num_traj * num_members, 0);

  serve::frontend::FrontendRequestOptions ropts;
  ropts.priority = opts_.priority;
  ropts.use_cache = opts_.use_cache;
  // One trace per wave: every member request is minted as a child of
  // the wave context, so the whole (trajectories × members) fan-out
  // shares one trace id from here through the serve forward spans.
  const obs::TraceContext wave_ctx = obs::TraceContext::mint();
  ropts.parent = wave_ctx;
  last_wave_trace_id_ = wave_ctx.trace_id();
  const std::uint64_t wave_start_ns = obs::Tracer::now_ns();

  // Submit everything before gathering anything: the serve schedulers
  // see the whole wave at once and coalesce it into micro-batches.
  for (std::size_t t = 0; t < num_traj; ++t) {
    const data::StructureSample sample = wave[t]->to_sample();
    for (std::size_t m = 0; m < num_members; ++m) {
      const std::size_t slot = t * num_members + m;
      for (std::int64_t attempt = 0;; ++attempt) {
        serve::frontend::SubmitOutcome outcome =
            frontend_->submit(opts_.members[m], sample, opts_.target, ropts);
        MATSCI_CHECK(outcome.status !=
                         serve::frontend::SubmitStatus::kNoSuchModel,
                     "ensemble member '" << opts_.members[m]
                                         << "' is not deployed");
        if (outcome.ok()) {
          futures[slot] = std::move(outcome.future);
          versions[slot] = outcome.version;
          break;
        }
        MATSCI_CHECK(attempt < opts_.max_retries,
                     "force request shed " << opts_.max_retries
                                           << " times in a row");
        ++resubmits_;
        const double backoff_us =
            std::min(outcome.retry_after_us, 1000.0);
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(std::max(backoff_us, 1.0))));
      }
    }
  }

  if (mid) mid();

  obs::Histogram& occupancy = batch_occupancy_histogram();
  obs::MetricsRegistry::global().counter("sim.requests").add(
      static_cast<std::int64_t>(num_traj * num_members));

  std::vector<ForceEval> out(num_traj);
  std::vector<serve::PredictResult> member_results(num_members);
  for (std::size_t t = 0; t < num_traj; ++t) {
    const std::size_t n =
        static_cast<std::size_t>(wave[t]->num_atoms());
    ForceEval& ev = out[t];
    ev.forces.assign(n, core::Vec3{});
    double batch_sum = 0.0;
    for (std::size_t m = 0; m < num_members; ++m) {
      const std::size_t slot = t * num_members + m;
      member_results[m] = futures[slot].get();
      const tasks::Prediction& p = member_results[m].prediction;
      MATSCI_CHECK(p.scores.size() == 3 * n,
                   "forces target returned " << p.scores.size()
                                             << " components for " << n
                                             << " atoms");
      ev.energy += static_cast<double>(p.value);
      for (std::size_t i = 0; i < n; ++i) {
        ev.forces[i] += core::Vec3{
            static_cast<double>(p.scores[3 * i + 0]),
            static_cast<double>(p.scores[3 * i + 1]),
            static_cast<double>(p.scores[3 * i + 2])};
      }
      ev.version = std::max(ev.version, versions[slot]);
      batch_sum += static_cast<double>(member_results[m].batch_size);
      occupancy.observe(static_cast<double>(member_results[m].batch_size));
    }
    const double inv_k = 1.0 / static_cast<double>(num_members);
    ev.energy *= inv_k;
    for (core::Vec3& f : ev.forces) f = f * inv_k;
    ev.mean_batch_size = batch_sum * inv_k;

    // Committee disagreement: per-atom standard deviation of the member
    // force vectors around the ensemble mean.
    double std_sum = 0.0;
    double std_max = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double var = 0.0;
      for (std::size_t m = 0; m < num_members; ++m) {
        const tasks::Prediction& p = member_results[m].prediction;
        const core::Vec3 fm{static_cast<double>(p.scores[3 * i + 0]),
                            static_cast<double>(p.scores[3 * i + 1]),
                            static_cast<double>(p.scores[3 * i + 2])};
        var += core::sq_norm(fm - ev.forces[i]);
      }
      const double std_i = std::sqrt(var * inv_k);
      std_sum += std_i;
      std_max = std::max(std_max, std_i);
    }
    ev.mean_force_std = n > 0 ? std_sum / static_cast<double>(n) : 0.0;
    ev.max_force_std = std_max;
  }
  obs::record_span("sim/wave", wave_start_ns,
                   obs::Tracer::now_ns() - wave_start_ns, wave_ctx);
  return out;
}

MLPotential::MLPotential(serve::frontend::ServeFrontend& frontend,
                         ServedPotentialOptions opts)
    : backend_(std::make_shared<ServedForceBackend>(frontend,
                                                    std::move(opts))) {}

MLPotential::MLPotential(std::shared_ptr<ForceBackend> backend)
    : backend_(std::move(backend)) {
  MATSCI_CHECK(backend_ != nullptr, "MLPotential needs a backend");
}

double MLPotential::energy_and_forces(const materials::Structure& s,
                                      std::vector<core::Vec3>& forces) {
  const std::vector<const materials::Structure*> wave{&s};
  std::vector<ForceEval> evals = backend_->evaluate(wave);
  last_ = std::move(evals[0]);
  forces = last_.forces;
  return last_.energy;
}

}  // namespace matsci::sim
