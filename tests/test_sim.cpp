// Tests for the src/sim subsystem: ML-potential MD through the serving
// stack, lockstep wave scheduling, the uncertainty gate + label buffer,
// and the active-learning fine-tune/hot-swap cycle. Label `sim` so the
// suite runs under TSan/ASan in the CI matrix (scripts/ci_matrix.sh).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/macros.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/vec3.hpp"
#include "materials/lips.hpp"
#include "materials/property_oracle.hpp"
#include "models/egnn.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "serve/frontend/frontend.hpp"
#include "sim/sim.hpp"
#include "tasks/energy_force.hpp"

namespace matsci::sim {
namespace {

using serve::frontend::ServeFrontend;

constexpr double kCollateCutoff = 4.5;

/// Dispatch jobs are long-running pool tasks (one slot each while a
/// model is deployed), so tests that deploy several models need enough
/// pool slots for every scheduler's workers or requests would starve.
void ensure_pool(std::int64_t threads) {
  if (core::parallel::num_threads() < threads) {
    core::parallel::set_num_threads(threads);
  }
}

models::EGNNConfig tiny_encoder_config() {
  models::EGNNConfig cfg;
  cfg.hidden_dim = 16;
  cfg.pos_hidden = 8;
  cfg.num_layers = 2;
  return cfg;
}

std::shared_ptr<tasks::EnergyForceTask> make_potential_task(
    std::uint64_t seed) {
  core::RngEngine rng(seed);
  auto encoder = std::make_shared<models::EGNN>(tiny_encoder_config(), rng);
  models::OutputHeadConfig hcfg;
  hcfg.hidden_dim = 16;
  hcfg.num_blocks = 2;
  hcfg.dropout = 0.0f;
  return std::make_shared<tasks::EnergyForceTask>(
      encoder, "energy", hcfg, rng, data::TargetStats{0.0f, 1.0f});
}

std::shared_ptr<serve::InferenceSession> make_session(
    const std::shared_ptr<tasks::Task>& task) {
  serve::InferenceSessionOptions opts;
  opts.collate.radius.cutoff = kCollateCutoff;
  return std::make_shared<serve::InferenceSession>(task, opts);
}

serve::SchedulerOptions wave_scheduler_options() {
  serve::SchedulerOptions opts;
  opts.max_batch_size = 16;
  opts.max_wait_us = 500;
  // One long-running dispatch job per member keeps small pools (down to
  // one thread per deployed model) free of dispatcher starvation.
  opts.num_workers = 1;
  return opts;
}

/// Deploy `seeds.size()` untrained ensemble members and return their
/// registry names. Untrained weights are fine for dynamics tests: the
/// autograd forces are exact gradients of the predicted energy
/// regardless of training.
std::vector<std::string> deploy_ensemble(
    ServeFrontend& fe, const std::vector<std::uint64_t>& seeds) {
  std::vector<std::string> names;
  for (std::size_t m = 0; m < seeds.size(); ++m) {
    const std::string name = "pot/" + std::to_string(m);
    fe.deploy(name, 1, make_session(make_potential_task(seeds[m])),
              wave_scheduler_options());
    names.push_back(name);
  }
  return names;
}

ServedPotentialOptions backend_options(std::vector<std::string> members) {
  ServedPotentialOptions opts;
  opts.members = std::move(members);
  return opts;
}

materials::MDOptions short_md_options(std::int64_t steps) {
  materials::MDOptions opts;
  opts.timestep = 0.25;
  opts.temperature = 50.0;
  opts.steps = steps;
  opts.snapshot_every = steps;
  opts.thermostat_every = 0;
  return opts;
}

TEST(LocalBackend, MatchesDirectProviderEvaluation) {
  auto provider = std::make_shared<materials::LJForceProvider>(6.0);
  LocalForceBackend backend(
      std::make_shared<materials::LJForceProvider>(6.0));
  const materials::Structure s = materials::LiPSDataset::initial_structure();

  std::vector<core::Vec3> direct;
  const double energy = provider->energy_and_forces(s, direct);
  const auto evals = backend.evaluate({&s});
  ASSERT_EQ(evals.size(), 1u);
  EXPECT_EQ(evals[0].energy, energy);
  ASSERT_EQ(evals[0].forces.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(evals[0].forces[i].x, direct[i].x);
  }
  EXPECT_EQ(evals[0].max_force_std, 0.0);
}

TEST(MLPotential, ServedForcesMatchTaskPredictForces) {
  // The served "forces" target must hand back exactly what the task's
  // autograd path computes — value packs the total energy, scores the
  // per-atom force components.
  ServeFrontend fe;
  auto task = make_potential_task(31);
  fe.deploy("pot/0", 1, make_session(task), wave_scheduler_options());
  MLPotential pot(fe, backend_options({"pot/0"}));

  const materials::Structure s = materials::LiPSDataset::initial_structure();
  std::vector<core::Vec3> forces;
  const double energy = pot.energy_and_forces(s, forces);

  // Reference through the raw session (same collate, same weights).
  auto session = make_session(task);
  const auto preds =
      session->predict({s.to_sample()}, tasks::EnergyForceTask::kForcesTarget);
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(energy, static_cast<double>(preds[0].value));
  ASSERT_EQ(preds[0].scores.size(), forces.size() * 3);
  for (std::size_t i = 0; i < forces.size(); ++i) {
    EXPECT_EQ(forces[i].x, static_cast<double>(preds[0].scores[3 * i]));
    EXPECT_EQ(forces[i].y, static_cast<double>(preds[0].scores[3 * i + 1]));
    EXPECT_EQ(forces[i].z, static_cast<double>(preds[0].scores[3 * i + 2]));
  }
  // Single member: zero committee disagreement.
  EXPECT_EQ(pot.last_eval().max_force_std, 0.0);
}

TEST(MLPotential, ForceIsNegativeGradientOfServedEnergy) {
  // Finite-difference check through the full ensemble path. The model
  // is fp32, so the central difference carries rounding noise of order
  // eps(E)/h — tolerances are scaled accordingly.
  ensure_pool(4);
  ServeFrontend fe;
  MLPotential pot(fe, backend_options(deploy_ensemble(fe, {31, 32})));

  materials::Structure s = materials::LiPSDataset::initial_structure();
  std::vector<core::Vec3> forces;
  pot.energy_and_forces(s, forces);

  const double h = 1e-3;
  const double cell = 6.2;
  for (const std::int64_t atom : {0, 7}) {
    materials::Structure sp = s;
    sp.frac[static_cast<std::size_t>(atom)].x += h / cell;
    materials::Structure sm = s;
    sm.frac[static_cast<std::size_t>(atom)].x -= h / cell;
    std::vector<core::Vec3> tmp;
    const double ep = pot.energy_and_forces(sp, tmp);
    const double em = pot.energy_and_forces(sm, tmp);
    const double numeric = -(ep - em) / (2.0 * h);
    const double predicted = forces[static_cast<std::size_t>(atom)].x;
    EXPECT_NEAR(predicted, numeric,
                5e-3 + 0.05 * std::fabs(predicted))
        << "atom " << atom;
  }
}

TEST(MLPotential, NveEnergyDriftBounded) {
  // NVE dynamics on the served potential: predicted forces are exact
  // gradients of the predicted energy, so total energy must be
  // approximately conserved even for an untrained model.
  ensure_pool(4);
  ServeFrontend fe;
  auto pot = std::make_shared<MLPotential>(
      fe, backend_options(deploy_ensemble(fe, {31, 32})));

  materials::MDOptions opts = short_md_options(40);
  opts.snapshot_every = 10;
  materials::MDSimulator sim(materials::LiPSDataset::initial_structure(),
                             opts, 7, pot);
  const auto traj = sim.run();
  ASSERT_EQ(traj.size(), 4u);
  const double e0 =
      traj.front().potential_energy + traj.front().kinetic_energy;
  const double e1 = traj.back().potential_energy + traj.back().kinetic_energy;
  EXPECT_NEAR(e1, e0, 0.15 * std::max(1.0, std::fabs(e0)));
}

TEST(UncertaintyGate, CountsAndThreshold) {
  UncertaintyGateOptions opts;
  opts.force_std_threshold = 0.1;
  UncertaintyGate gate(opts);

  ForceEval calm;
  calm.max_force_std = 0.05;
  ForceEval uncertain;
  uncertain.max_force_std = 0.5;

  EXPECT_FALSE(gate.should_label(calm));
  EXPECT_TRUE(gate.should_label(uncertain));
  EXPECT_FALSE(gate.should_label(calm));
  EXPECT_EQ(gate.seen(), 3);
  EXPECT_EQ(gate.gated(), 1);
  EXPECT_NEAR(gate.gate_rate(), 1.0 / 3.0, 1e-12);
}

TEST(LabelBuffer, FifoEvictionAtCapacity) {
  LabelBufferOptions opts;
  opts.capacity = 3;
  LabelBuffer buf(opts);
  for (std::int64_t i = 0; i < 5; ++i) {
    data::StructureSample s;
    s.species = {i};
    s.positions = {{0.0, 0.0, 0.0}};
    buf.add(s);
  }
  EXPECT_EQ(buf.size(), 3);
  EXPECT_EQ(buf.total_added(), 5);
  // Ring after 5 adds at capacity 3: slots hold {3, 4, 2}.
  std::vector<std::int64_t> kept;
  for (std::int64_t i = 0; i < buf.size(); ++i) {
    kept.push_back(buf.get(i).species[0]);
  }
  EXPECT_EQ(kept, (std::vector<std::int64_t>{3, 4, 2}));
}

/// Run `num_traj` LiPS trajectories through a fresh frontend + ensemble
/// and return each trajectory's final (potential energy, positions).
struct ScheduledRunResult {
  std::vector<double> final_energies;
  std::vector<std::vector<core::Vec3>> final_frac;
  std::int64_t frames = 0;
};

ScheduledRunResult run_scheduled(std::int64_t num_traj, std::int64_t steps,
                                 std::int64_t wave_size,
                                 const std::vector<std::uint64_t>& seeds) {
  ServeFrontend fe;
  auto backend = std::make_shared<ServedForceBackend>(
      fe, backend_options(deploy_ensemble(fe, seeds)));

  std::vector<std::shared_ptr<materials::MDSimulator>> trajs;
  for (std::int64_t t = 0; t < num_traj; ++t) {
    trajs.push_back(std::make_shared<materials::MDSimulator>(
        materials::LiPSDataset::initial_structure(), short_md_options(steps),
        100 + static_cast<std::uint64_t>(t)));
  }
  TrajectorySchedulerOptions sopts;
  sopts.wave_size = wave_size;
  TrajectoryScheduler scheduler(trajs, backend, sopts);
  ScheduledRunResult out;
  out.frames = scheduler.run();
  for (const auto& t : trajs) {
    out.final_energies.push_back(t->potential_energy());
    out.final_frac.push_back(t->structure().frac);
  }
  return out;
}

void expect_same_result(const ScheduledRunResult& got,
                        const ScheduledRunResult& ref,
                        const std::string& label) {
  EXPECT_EQ(got.frames, ref.frames) << label;
  ASSERT_EQ(got.final_energies.size(), ref.final_energies.size());
  for (std::size_t t = 0; t < ref.final_energies.size(); ++t) {
    EXPECT_EQ(got.final_energies[t], ref.final_energies[t])
        << label << " traj=" << t;
    const auto& fa = got.final_frac[t];
    const auto& fb = ref.final_frac[t];
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].x, fb[i].x);
      EXPECT_EQ(fa[i].y, fb[i].y);
      EXPECT_EQ(fa[i].z, fb[i].z);
    }
  }
}

TEST(TrajectoryScheduler, DeterministicAcrossWaveSizesAndThreadCounts) {
  // The scale contract: N trajectories advanced in lockstep waves give
  // bit-identical dynamics no matter how the waves are chunked or how
  // many pool threads serve them (per-graph compute is independent and
  // kernels are thread-count bit-exact). A deployed model pins one pool
  // slot for its dispatcher, so the thread-count sweep — which goes all
  // the way down to a single pool thread — runs a one-member committee;
  // the wave-size sweep runs the two-member committee.
  ensure_pool(4);
  const std::int64_t num_traj = 4;
  const std::int64_t steps = 5;
  const std::int64_t default_threads = core::parallel::num_threads();
  const std::vector<std::uint64_t> one_member{31};
  const std::vector<std::uint64_t> two_members{31, 32};

  const ScheduledRunResult ref1 =
      run_scheduled(num_traj, steps, 2, one_member);
  EXPECT_EQ(ref1.frames, num_traj * steps);
  for (const std::int64_t threads : {1, 2, 8}) {
    core::parallel::set_num_threads(threads);
    const ScheduledRunResult got =
        run_scheduled(num_traj, steps, 2, one_member);
    core::parallel::set_num_threads(default_threads);
    expect_same_result(got, ref1, "threads=" + std::to_string(threads));
  }

  const ScheduledRunResult ref2 =
      run_scheduled(num_traj, steps, 2, two_members);
  EXPECT_EQ(ref2.frames, num_traj * steps);
  for (const std::int64_t wave : {1, 4, 0}) {
    const ScheduledRunResult got =
        run_scheduled(num_traj, steps, wave, two_members);
    expect_same_result(got, ref2, "wave=" + std::to_string(wave));
  }
}

TEST(TrajectoryScheduler, LocalBackendDeterministicAtOneTwoEightThreads) {
  // Same lockstep contract on the in-process LJ backend, where the pool
  // holds no dispatcher jobs at all and a single thread is the true
  // serial baseline.
  const std::int64_t default_threads = core::parallel::num_threads();
  auto run_local = [](std::int64_t wave_size) {
    auto backend = std::make_shared<LocalForceBackend>(
        std::make_shared<materials::LJForceProvider>(6.0));
    std::vector<std::shared_ptr<materials::MDSimulator>> trajs;
    for (std::int64_t t = 0; t < 4; ++t) {
      trajs.push_back(std::make_shared<materials::MDSimulator>(
          materials::LiPSDataset::initial_structure(), short_md_options(5),
          100 + static_cast<std::uint64_t>(t)));
    }
    TrajectorySchedulerOptions sopts;
    sopts.wave_size = wave_size;
    TrajectoryScheduler scheduler(trajs, backend, sopts);
    ScheduledRunResult out;
    out.frames = scheduler.run();
    for (const auto& t : trajs) {
      out.final_energies.push_back(t->potential_energy());
      out.final_frac.push_back(t->structure().frac);
    }
    return out;
  };

  const ScheduledRunResult ref = run_local(2);
  for (const std::int64_t threads : {1, 2, 8}) {
    for (const std::int64_t wave : {1, 2, 0}) {
      core::parallel::set_num_threads(threads);
      const ScheduledRunResult got = run_local(wave);
      core::parallel::set_num_threads(default_threads);
      expect_same_result(got, ref,
                         "local threads=" + std::to_string(threads) +
                             " wave=" + std::to_string(wave));
    }
  }
}

TEST(TrajectoryScheduler, WaveModeBitExactVsSequentialMDRuns) {
  // Batched wave scheduling must not change the physics: each
  // trajectory integrated alone through MDSimulator::run() + MLPotential
  // matches its waved counterpart bit-for-bit.
  const std::int64_t num_traj = 3;
  const std::int64_t steps = 4;

  ensure_pool(4);
  ServeFrontend fe;
  const auto members = deploy_ensemble(fe, {31, 32});

  std::vector<double> sequential_energies;
  for (std::int64_t t = 0; t < num_traj; ++t) {
    auto pot =
        std::make_shared<MLPotential>(fe, backend_options(members));
    materials::MDSimulator sim(materials::LiPSDataset::initial_structure(),
                               short_md_options(steps),
                               100 + static_cast<std::uint64_t>(t), pot);
    sim.run();
    sequential_energies.push_back(sim.potential_energy());
  }

  auto backend =
      std::make_shared<ServedForceBackend>(fe, backend_options(members));
  std::vector<std::shared_ptr<materials::MDSimulator>> trajs;
  for (std::int64_t t = 0; t < num_traj; ++t) {
    trajs.push_back(std::make_shared<materials::MDSimulator>(
        materials::LiPSDataset::initial_structure(), short_md_options(steps),
        100 + static_cast<std::uint64_t>(t)));
  }
  TrajectoryScheduler scheduler(trajs, backend, {});
  scheduler.run();
  for (std::int64_t t = 0; t < num_traj; ++t) {
    EXPECT_EQ(trajs[static_cast<std::size_t>(t)]->potential_energy(),
              sequential_energies[static_cast<std::size_t>(t)])
        << "traj " << t;
  }
}

TEST(ActiveLearning, FinetunesAndHotSwapsMidWaveWithZeroLoss) {
  ensure_pool(4);
  obs::Counter& swaps =
      obs::MetricsRegistry::global().counter("serve.registry.swaps");
  const std::int64_t initial_swaps = swaps.value();
  ServeFrontend fe;
  std::vector<EnsembleMemberSpec> members;
  const std::vector<std::uint64_t> seeds{31, 32};
  for (std::size_t m = 0; m < seeds.size(); ++m) {
    EnsembleMemberSpec spec;
    spec.name = "pot/" + std::to_string(m);
    spec.task = make_potential_task(seeds[m]);
    const std::uint64_t seed = seeds[m];
    spec.make_serving_task = [seed]() { return make_potential_task(seed); };
    // Deploy an independent snapshot so the training copy can be
    // fine-tuned while the deployed instance serves.
    auto serving = make_potential_task(seed);
    nn::load_into_module(*serving, nn::state_dict(*spec.task));
    fe.deploy(spec.name, 1, make_session(serving), wave_scheduler_options());
    members.push_back(std::move(spec));
  }

  materials::PropertyOracle oracle(5);
  ActiveLearningOptions alo;
  alo.gate.force_std_threshold = 0.0;  // untrained members disagree: gate all
  alo.min_labels = 4;
  alo.max_finetunes = 1;
  alo.finetune_epochs = 1;
  alo.batch_size = 4;
  alo.collate.radius.cutoff = kCollateCutoff;
  alo.scheduler = wave_scheduler_options();
  ActiveLearningLoop loop(fe, members, oracle, alo);

  auto backend = std::make_shared<ServedForceBackend>(
      fe, backend_options({"pot/0", "pot/1"}));
  const std::int64_t num_traj = 4;
  const std::int64_t steps = 4;
  std::vector<std::shared_ptr<materials::MDSimulator>> trajs;
  for (std::int64_t t = 0; t < num_traj; ++t) {
    trajs.push_back(std::make_shared<materials::MDSimulator>(
        materials::LiPSDataset::initial_structure(), short_md_options(steps),
        200 + static_cast<std::uint64_t>(t)));
  }
  TrajectorySchedulerOptions sopts;
  sopts.wave_size = 2;
  TrajectoryScheduler scheduler(trajs, backend, sopts);

  std::uint64_t max_version_seen = 0;
  scheduler.set_frame_hook([&](std::int64_t traj, std::int64_t step,
                               const materials::Structure& s,
                               const ForceEval& ev) {
    max_version_seen = std::max(max_version_seen, ev.version);
    loop.observe_frame(traj, step, s, ev);
  });
  scheduler.set_mid_wave_hook(loop.mid_wave_hook());

  const std::int64_t frames = scheduler.run();

  // Zero loss: every step of every trajectory completed.
  EXPECT_EQ(frames, num_traj * steps);
  for (const auto& t : trajs) EXPECT_TRUE(t->done());

  // Exactly one fine-tune cycle ran, redeploying both members as v2
  // while the dynamics kept flowing.
  EXPECT_EQ(loop.finetunes(), 1);
  EXPECT_GE(loop.labels(), alo.min_labels);
  EXPECT_EQ(fe.registry().active_version("pot/0"), 2u);
  EXPECT_EQ(fe.registry().active_version("pot/1"), 2u);
  EXPECT_GE(swaps.value() - initial_swaps, 2);
  // Frames evaluated after the swap carry the new version.
  EXPECT_EQ(max_version_seen, 2u);
}

TEST(ActiveLearning, FinetuneReducesErrorOnGatedFrames) {
  // The loop's purpose: after fine-tuning on oracle labels, the
  // ensemble's energy error on the gated frames must drop.
  ensure_pool(4);
  ServeFrontend fe;
  std::vector<EnsembleMemberSpec> members;
  for (std::size_t m = 0; m < 2; ++m) {
    const std::uint64_t seed = 41 + m;
    EnsembleMemberSpec spec;
    spec.name = "pot/" + std::to_string(m);
    spec.task = make_potential_task(seed);
    spec.make_serving_task = [seed]() { return make_potential_task(seed); };
    auto serving = make_potential_task(seed);
    nn::load_into_module(*serving, nn::state_dict(*spec.task));
    fe.deploy(spec.name, 1, make_session(serving), wave_scheduler_options());
    members.push_back(std::move(spec));
  }
  materials::PropertyOracle oracle(5);
  ActiveLearningOptions alo;
  alo.gate.force_std_threshold = 0.0;
  alo.min_labels = 6;
  alo.max_finetunes = 1;
  alo.finetune_epochs = 8;
  alo.batch_size = 4;
  alo.learning_rate = 3e-3;
  alo.collate.radius.cutoff = kCollateCutoff;
  alo.scheduler = wave_scheduler_options();
  ActiveLearningLoop loop(fe, members, oracle, alo);

  auto backend = std::make_shared<ServedForceBackend>(
      fe, backend_options({"pot/0", "pot/1"}));
  std::vector<std::shared_ptr<materials::MDSimulator>> trajs;
  for (std::int64_t t = 0; t < 2; ++t) {
    trajs.push_back(std::make_shared<materials::MDSimulator>(
        materials::LiPSDataset::initial_structure(), short_md_options(6),
        300 + static_cast<std::uint64_t>(t)));
  }
  TrajectoryScheduler scheduler(trajs, backend, {});

  // Pre-finetune energy error of the served ensemble on gated frames.
  std::vector<data::StructureSample> gated;
  double err_before = 0.0;
  std::int64_t n_before = 0;
  scheduler.set_frame_hook([&](std::int64_t traj, std::int64_t step,
                               const materials::Structure& s,
                               const ForceEval& ev) {
    if (loop.finetunes() == 0) {
      std::vector<core::Vec3> tmp;
      const double truth = oracle.energy_and_forces(s, tmp);
      err_before += std::fabs(ev.energy - truth);
      ++n_before;
    }
    loop.observe_frame(traj, step, s, ev);
  });
  scheduler.set_mid_wave_hook(loop.mid_wave_hook());
  scheduler.run();
  ASSERT_EQ(loop.finetunes(), 1);
  ASSERT_GT(n_before, 0);
  err_before /= static_cast<double>(n_before);

  // Post-finetune error of the redeployed ensemble on the buffered
  // (gated, labeled) frames.
  MLPotential pot(fe, backend_options({"pot/0", "pot/1"}));
  double err_after = 0.0;
  std::int64_t n_after = 0;
  for (std::int64_t i = 0; i < loop.buffer().size(); ++i) {
    const data::StructureSample sample = loop.buffer().get(i);
    materials::Structure s;
    s.lattice = *sample.lattice;
    s.species = sample.species;
    const core::Mat3 inv = core::inverse3(s.lattice);
    for (const core::Vec3& p : sample.positions) {
      s.frac.push_back(core::vecmat(p, inv));
    }
    std::vector<core::Vec3> f;
    const double pred = pot.energy_and_forces(s, f);
    const double truth =
        static_cast<double>(sample.scalar_targets.at("energy")) *
        static_cast<double>(s.num_atoms());
    err_after += std::fabs(pred - truth);
    ++n_after;
  }
  ASSERT_GT(n_after, 0);
  err_after /= static_cast<double>(n_after);
  EXPECT_LT(err_after, err_before);
}

}  // namespace
}  // namespace matsci::sim
