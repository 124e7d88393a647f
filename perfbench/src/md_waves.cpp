// Workload md_waves: 16 LiPS trajectories advanced in lockstep waves
// (sim::TrajectoryScheduler::step_wave, wave_size=0) with forces from a
// 2-member EnergyForceTask committee served through ServeFrontend with
// the response cache bypassed. Closed loop: each wave waits for the
// previous one.
//
// The timed window is a sequence of identical episodes (fresh
// trajectories from the same seeds, kEpisodeSteps steps each), so every
// episode must end in a bit-identical state, and the state after
// kPrefixSteps waves must equal a one-trajectory-at-a-time (wave_size=1)
// reference. The traced run wraps the ServedForceBackend in a timing
// ForceBackend decorator, which splits each wave into force evaluation
// and integration.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/parallel/thread_pool.hpp"
#include "materials/lips.hpp"
#include "models/egnn.hpp"
#include "serve/frontend/frontend.hpp"
#include "sim/sim.hpp"
#include "tasks/energy_force.hpp"

namespace perfbench {
namespace {

using namespace matsci;

constexpr std::int64_t kPoolThreads = 4;  // 2 pinned dispatch jobs + 2
constexpr std::int64_t kMembers = 2;
constexpr std::int64_t kNumTraj = 16;
constexpr std::int64_t kEpisodeSteps = 50;
constexpr std::int64_t kPrefixSteps = 4;
constexpr std::int64_t kForcesReps = 16;
constexpr double kCutoff = 4.5;

/// Committee member: the fig4_mdscale potential (EGNN hidden 16, 2
/// layers; head hidden 16, 2 blocks).
std::shared_ptr<tasks::EnergyForceTask> make_member(std::uint64_t seed) {
  core::RngEngine rng(seed);
  models::EGNNConfig ecfg;
  ecfg.hidden_dim = 16;
  ecfg.pos_hidden = 8;
  ecfg.num_layers = 2;
  models::OutputHeadConfig hcfg;
  hcfg.hidden_dim = 16;
  hcfg.num_blocks = 2;
  hcfg.dropout = 0.0f;
  return std::make_shared<tasks::EnergyForceTask>(
      std::make_shared<models::EGNN>(ecfg, rng), "energy", hcfg, rng,
      data::TargetStats{0.0f, 1.0f});
}

serve::SchedulerOptions member_scheduler() {
  serve::SchedulerOptions opts;
  opts.max_batch_size = kNumTraj;
  opts.max_wait_us = 1500;
  opts.num_workers = 1;
  return opts;
}

/// ForceBackend decorator: wall time of every evaluate() call plus the
/// micro-batch occupancy the committee requests were served at.
class TimingForceBackend : public sim::ForceBackend {
 public:
  explicit TimingForceBackend(std::shared_ptr<sim::ForceBackend> inner)
      : inner_(std::move(inner)) {}

  std::vector<sim::ForceEval> evaluate(
      const std::vector<const materials::Structure*>& wave,
      const MidWaveHook& mid) override {
    const Clock::time_point t0 = Clock::now();
    std::vector<sim::ForceEval> out = inner_->evaluate(wave, mid);
    evaluate_ms += ms_between(t0, Clock::now());
    for (const sim::ForceEval& ev : out) {
      batch_sizes.push_back(ev.mean_batch_size);
    }
    return out;
  }

  double evaluate_ms = 0.0;  ///< accumulated; the caller resets per wave
  std::vector<double> batch_sizes;

 private:
  std::shared_ptr<sim::ForceBackend> inner_;
};

std::uint64_t state_checksum(
    const std::vector<std::shared_ptr<materials::MDSimulator>>& trajs) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& t : trajs) {
    for (const core::Vec3& f : t->structure().frac) h = fnv1a(&f, sizeof f, h);
    const double e[2] = {t->potential_energy(), t->kinetic_energy()};
    h = fnv1a(e, sizeof e, h);
  }
  return h;
}

struct Episode {
  std::vector<double> wave_ms, evaluate_ms;
  double wall_s = 0.0;
  std::int64_t frames = 0;
  std::uint64_t prefix_checksum = 0;
  std::uint64_t final_checksum = 0;
};

/// Fresh trajectories from `seed`, advanced by step_wave() until done
/// (or for `max_waves` waves when > 0).
Episode run_episode(const std::shared_ptr<sim::ForceBackend>& backend,
                    TimingForceBackend* timing, std::uint64_t seed,
                    std::int64_t wave_size, std::int64_t max_waves = 0) {
  Episode ep;
  const Clock::time_point start = Clock::now();
  materials::MDOptions md;
  md.timestep = 0.25;
  md.temperature = 50.0;
  md.steps = kEpisodeSteps;
  md.snapshot_every = kEpisodeSteps;
  md.thermostat_every = 0;
  std::vector<std::shared_ptr<materials::MDSimulator>> trajs;
  for (std::int64_t t = 0; t < kNumTraj; ++t) {
    trajs.push_back(std::make_shared<materials::MDSimulator>(
        materials::LiPSDataset::initial_structure(), md,
        seed * 1000 + static_cast<std::uint64_t>(t)));
  }
  sim::TrajectoryScheduler scheduler(trajs, backend, {wave_size});
  for (std::int64_t w = 0; max_waves <= 0 || w < max_waves; ++w) {
    if (timing != nullptr) timing->evaluate_ms = 0.0;
    const Clock::time_point t0 = Clock::now();
    if (!scheduler.step_wave()) break;
    ep.wave_ms.push_back(ms_between(t0, Clock::now()));
    if (timing != nullptr) ep.evaluate_ms.push_back(timing->evaluate_ms);
    if (w + 1 == kPrefixSteps) ep.prefix_checksum = state_checksum(trajs);
  }
  ep.wall_s = seconds_since(start);
  ep.frames = scheduler.frames_advanced();
  ep.final_checksum = state_checksum(trajs);
  return ep;
}

}  // namespace

Result run_md_waves(const Args& args) {
  core::parallel::set_num_threads(kPoolThreads);
  Result res;
  note("md_waves: %lld trajectories x %lld steps per episode, %lld-member "
       "committee, pool %lld threads, seed %llu",
       static_cast<long long>(kNumTraj), static_cast<long long>(kEpisodeSteps),
       static_cast<long long>(kMembers), static_cast<long long>(kPoolThreads),
       static_cast<unsigned long long>(args.seed));

  std::vector<Episode> episodes;
  Episode warm, reference;
  std::int64_t resubmits = 0;
  std::vector<double> batch_sizes;
  std::vector<std::shared_ptr<tasks::EnergyForceTask>> members;
  double setup_s = 0.0;
  {
    // Set-up: the committee models, a frontend with both deployed, and
    // one warm-up episode (pools and arenas reach steady state).
    // Repeated for a stable median; the last one is kept.
    std::unique_ptr<serve::frontend::ServeFrontend> frontend;
    std::shared_ptr<sim::ServedForceBackend> served;
    std::shared_ptr<TimingForceBackend> timing;
    std::shared_ptr<sim::ForceBackend> backend;
    setup_s = median_setup_seconds(kSetupReps, [&] {
      timing.reset();
      backend.reset();
      served.reset();
      frontend = std::make_unique<serve::frontend::ServeFrontend>();
      members.clear();
      sim::ServedPotentialOptions popts;
      for (std::int64_t m = 0; m < kMembers; ++m) {
        const std::string name = "pot/" + std::to_string(m);
        members.push_back(make_member(31 + static_cast<std::uint64_t>(m)));
        serve::InferenceSessionOptions sopts;
        sopts.collate.radius.cutoff = kCutoff;
        frontend->deploy(
            name, 1,
            std::make_shared<serve::InferenceSession>(members.back(), sopts),
            member_scheduler());
        popts.members.push_back(name);
      }
      served = std::make_shared<sim::ServedForceBackend>(*frontend, popts);
      backend = served;
      if (args.trace) {
        timing = std::make_shared<TimingForceBackend>(served);
        backend = timing;
      }
      warm = run_episode(backend, timing.get(), args.seed, 0);
    });

    const std::int64_t resubmits0 = served->resubmits();
    if (timing) timing->batch_sizes.clear();
    const Clock::time_point t0 = Clock::now();
    while (seconds_since(t0) < args.seconds) {
      episodes.push_back(run_episode(backend, timing.get(), args.seed, 0));
    }
    resubmits = served->resubmits() - resubmits0;
    if (timing) batch_sizes = timing->batch_sizes;

    // wave_size=1 reference over the prefix, through the same committee.
    reference = run_episode(served, nullptr, args.seed, 1, kPrefixSteps);
  }

  bool same_final = true, full = true;
  for (const Episode& ep : episodes) {
    same_final = same_final && ep.final_checksum == warm.final_checksum;
    full = full && ep.frames == kNumTraj * kEpisodeSteps;
  }
  res.check(full, "every episode advanced " +
                      std::to_string(kNumTraj * kEpisodeSteps) + " frames");
  res.check(same_final, "final state checksum identical across " +
                            std::to_string(episodes.size() + 1) +
                            " same-seed episodes");
  res.check(warm.prefix_checksum == reference.final_checksum,
            "state after " + std::to_string(kPrefixSteps) +
                " lockstep waves equals the wave_size=1 reference");

  std::vector<double> wave_ms, evaluate_ms, episode_rate;
  double wall = 0.0;
  for (const Episode& ep : episodes) {
    wave_ms.insert(wave_ms.end(), ep.wave_ms.begin(), ep.wave_ms.end());
    evaluate_ms.insert(evaluate_ms.end(), ep.evaluate_ms.begin(),
                       ep.evaluate_ms.end());
    wall += ep.wall_s;
    res.attempted += ep.frames;
    episode_rate.push_back(static_cast<double>(ep.frames) / ep.wall_s);
  }
  res.failed = resubmits;
  const double frames_per_s =
      median_of_windows("md_frames_per_s (episodes)", episode_rate);
  note("timed: %zu episodes, %lld frames in %.3f s (%.3f frames/s overall)",
       episodes.size(), static_cast<long long>(res.attempted), wall,
       static_cast<double>(res.attempted) / wall);
  note_quantiles("md_wave", wave_ms, 0.9, "ms");
  note("failure share: %lld resubmits of %lld frames",
       static_cast<long long>(res.failed),
       static_cast<long long>(res.attempted));

  const double wave_p90 = windowed_quantile("md_wave_p90_ms", wave_ms, 0.9);

  res.e2e("setup_s", setup_s, "s");
  res.e2e("throughput_per_s", frames_per_s, "1/s");
  res.e2e("latency_p50_ms", windowed_quantile("md_wave_p50_ms", wave_ms, 0.5),
          "ms");
  if (!args.trace) return res;

  res.layer("latency_tail_ms", wave_p90, "ms");
  res.layer("memory.peak_rss_mb", peak_rss_mb(), "MB");

  std::vector<double> integrate_ms;
  for (std::size_t i = 0; i < wave_ms.size(); ++i) {
    integrate_ms.push_back(wave_ms[i] - evaluate_ms[i]);
  }
  res.layer("sim.wave_mean_ms", mean(wave_ms), "ms");
  res.layer("sim.evaluate_ms", mean(evaluate_ms), "ms");
  res.layer("materials.integrate_ms", mean(integrate_ms), "ms");
  res.layer("sim.batch_size_mean", mean(batch_sizes), "count");
  res.layer("sim.resubmits", static_cast<double>(resubmits), "count");

  // One member's forces on a collated wave, called directly on one
  // thread (as its dispatch job runs it).
  core::parallel::set_num_threads(1);
  std::vector<data::StructureSample> wave;
  for (std::int64_t t = 0; t < kNumTraj; ++t) {
    wave.push_back(materials::LiPSDataset::initial_structure().to_sample());
  }
  data::CollateOptions copts;
  copts.radius.cutoff = kCutoff;
  const data::Batch batch = data::collate(wave, copts);
  std::vector<double> forces_ms;
  for (std::int64_t r = 0; r < kForcesReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    (void)members[0]->predict_batch(batch,
                                    tasks::EnergyForceTask::kForcesTarget);
    forces_ms.push_back(ms_between(t0, Clock::now()));
  }
  res.layer("tasks.forces_ms_per_batch", quantile(forces_ms, 0.5), "ms");
  return res;
}

}  // namespace perfbench
