// MD at scale — ML-potential dynamics through the serving stack.
//
// The paper positions the toolkit's pipelines as the substrate for
// foundation-model workflows on materials; the canonical downstream
// consumer is molecular dynamics driven by a learned potential, where
// inference throughput — not training — is the bottleneck. This bench
// measures the two contracts of src/sim (DESIGN.md §13):
//
//   md_scale         N concurrent LiPS trajectories advanced in
//                    lockstep waves (TrajectoryScheduler +
//                    ServedForceBackend) vs one-at-a-time submission of
//                    the same trajectories through the same deployed
//                    ensemble. Waves let the serve tier coalesce the
//                    per-step force evaluations into micro-batches, so
//                    the pool parallelizes across the whole wave
//                    instead of idling behind single 12-atom graphs.
//                    Acceptance: >= 3x frames/s over one-at-a-time.
//
//   active_learning  The uncertainty-gated loop: committee-disagreement
//                    frames are labeled by the LJ oracle, every member
//                    is fine-tuned on the buffered labels, and the new
//                    versions are hot-swapped into the registry from
//                    inside a wave's in-flight window. Acceptance: the
//                    ensemble's force MAE on the gated frames drops
//                    after the cycle, with zero in-flight request loss.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "core/parallel/thread_pool.hpp"
#include "materials/lips.hpp"
#include "materials/property_oracle.hpp"
#include "nn/serialize.hpp"
#include "serve/frontend/frontend.hpp"
#include "sim/sim.hpp"
#include "tasks/energy_force.hpp"

namespace {

using namespace matsci;
using serve::frontend::ServeFrontend;

constexpr double kCollateCutoff = 4.5;
constexpr std::int64_t kNumTraj = 16;
constexpr std::int64_t kSteps = 10;

std::shared_ptr<tasks::EnergyForceTask> make_potential_task(
    std::uint64_t seed) {
  core::RngEngine rng(seed);
  auto encoder =
      std::make_shared<models::EGNN>(bench::bench_encoder_config(16, 2), rng);
  return std::make_shared<tasks::EnergyForceTask>(
      encoder, "energy", bench::bench_head_config(16, 2), rng,
      data::TargetStats{0.0f, 1.0f});
}

std::shared_ptr<serve::InferenceSession> make_session(
    const std::shared_ptr<tasks::Task>& task) {
  serve::InferenceSessionOptions opts;
  opts.collate.radius.cutoff = kCollateCutoff;
  return std::make_shared<serve::InferenceSession>(task, opts);
}

serve::SchedulerOptions wave_scheduler_options() {
  serve::SchedulerOptions opts;
  // Batch size matches the trajectory-wave width: a full wave flushes
  // the micro-batch immediately, while one-at-a-time submission leaves
  // every request waiting out the coalescing window (pop_batch flushes
  // early only when the batch is full) — the batching economics the
  // md_scale record quantifies.
  opts.max_batch_size = kNumTraj;
  opts.max_wait_us = 1500;
  opts.num_workers = 1;
  return opts;
}

materials::MDOptions bench_md_options(std::int64_t steps) {
  materials::MDOptions opts;
  opts.timestep = 0.25;
  opts.temperature = 50.0;
  opts.steps = steps;
  opts.snapshot_every = steps;
  opts.thermostat_every = 0;
  return opts;
}

std::vector<std::shared_ptr<materials::MDSimulator>> make_trajectories(
    std::int64_t n, std::int64_t steps, std::uint64_t seed0) {
  std::vector<std::shared_ptr<materials::MDSimulator>> trajs;
  for (std::int64_t t = 0; t < n; ++t) {
    trajs.push_back(std::make_shared<materials::MDSimulator>(
        materials::LiPSDataset::initial_structure(), bench_md_options(steps),
        seed0 + static_cast<std::uint64_t>(t)));
  }
  return trajs;
}

struct ScaleResult {
  double frames_per_s = 0.0;
  double mean_batch_occupancy = 0.0;
  std::int64_t frames = 0;
  /// 1 when the last MD wave's trace id appears both in the "sim/wave"
  /// span and in at least one "serve/stage/forward" span — the
  /// sim-tier half of the telemetry plane's end-to-end continuity
  /// acceptance (vacuously 1 with obs off).
  std::int64_t trace_continuity_ok = 1;
};

/// Run the full trajectory set once at the given wave size (1 =
/// one-at-a-time baseline, 0 = whole live set per wave).
ScaleResult run_at_wave_size(ServeFrontend& fe,
                             const std::vector<std::string>& members,
                             std::int64_t wave_size) {
  sim::ServedPotentialOptions popts;
  popts.members = members;
  auto backend = std::make_shared<sim::ServedForceBackend>(fe, popts);
  auto trajs = make_trajectories(kNumTraj, kSteps, 500);
  sim::TrajectorySchedulerOptions sopts;
  sopts.wave_size = wave_size;
  sim::TrajectoryScheduler scheduler(trajs, backend, sopts);

  ScaleResult out;
  double occupancy_sum = 0.0;
  std::int64_t occupancy_n = 0;
  scheduler.set_frame_hook([&](std::int64_t, std::int64_t,
                               const materials::Structure&,
                               const sim::ForceEval& ev) {
    occupancy_sum += ev.mean_batch_size;
    ++occupancy_n;
  });
  const obs::StopWatch watch;
  out.frames = scheduler.run();
  const double elapsed_s = watch.elapsed_us() / 1e6;
  out.frames_per_s = static_cast<double>(out.frames) / elapsed_s;
  out.mean_batch_occupancy =
      occupancy_n == 0 ? 0.0 : occupancy_sum / static_cast<double>(occupancy_n);

  // Sim-tier trace continuity: every wave mints one TraceContext whose
  // member force requests are its children, so the last wave's trace id
  // (fresh enough to survive ring wrap) must show up both in the wave
  // span and in the serve tier's forward-stage spans.
  const std::uint64_t wave_trace = backend->last_wave_trace_id();
  if (wave_trace != 0) {
    bool wave_span = false, forward_span = false;
    for (const obs::TraceEvent& e : obs::Tracer::global().collect()) {
      if (e.trace_id != wave_trace || e.name == nullptr) continue;
      const std::string_view name(e.name);
      wave_span = wave_span || name == "sim/wave";
      forward_span = forward_span || name == "serve/stage/forward";
    }
    out.trace_continuity_ok = wave_span && forward_span ? 1 : 0;
  }
  return out;
}

void run_md_scale(obs::BenchReporter& reporter) {
  std::printf("\n--- md_scale: %lld trajectories x %lld steps, "
              "2-member committee ---\n",
              static_cast<long long>(kNumTraj),
              static_cast<long long>(kSteps));

  ServeFrontend fe;
  std::vector<std::string> members;
  for (std::uint64_t m = 0; m < 2; ++m) {
    const std::string name = "pot/" + std::to_string(m);
    fe.deploy(name, 1, make_session(make_potential_task(31 + m)),
              wave_scheduler_options());
    members.push_back(name);
  }

  // Min-of-repeats on both modes to shed scheduler noise; one warmup
  // pass populates pools and code paths.
  (void)run_at_wave_size(fe, members, 0);
  ScaleResult seq;
  ScaleResult wave;
  seq.frames_per_s = 0.0;
  for (int r = 0; r < 2; ++r) {
    const ScaleResult s = run_at_wave_size(fe, members, 1);
    if (s.frames_per_s > seq.frames_per_s) seq = s;
    const ScaleResult w = run_at_wave_size(fe, members, 0);
    if (w.frames_per_s > wave.frames_per_s) wave = w;
  }

  const double speedup = wave.frames_per_s / seq.frames_per_s;
  std::printf("%-14s %12s %12s\n", "mode", "frames/s", "occupancy");
  std::printf("%-14s %12.1f %12.2f\n", "one-at-a-time", seq.frames_per_s,
              seq.mean_batch_occupancy);
  std::printf("%-14s %12.1f %12.2f\n", "wave", wave.frames_per_s,
              wave.mean_batch_occupancy);
  std::printf("speedup: %.2fx  (acceptance: >= 3x)\n", speedup);
  std::printf("wave trace continuity (sim/wave -> serve/stage/forward): %s\n",
              wave.trace_continuity_ok != 0 ? "ok" : "BROKEN");

  reporter.add(obs::JsonRecord()
                   .set("record", "md_scale")
                   .set("mode", "sequential")
                   .set("trajectories", kNumTraj)
                   .set("steps", kSteps)
                   .set("frames_per_s", seq.frames_per_s)
                   .set("mean_batch_occupancy", seq.mean_batch_occupancy)
                   .set("speedup_vs_sequential", 1.0));
  reporter.add(obs::JsonRecord()
                   .set("record", "md_scale")
                   .set("mode", "wave")
                   .set("trajectories", kNumTraj)
                   .set("steps", kSteps)
                   .set("frames_per_s", wave.frames_per_s)
                   .set("mean_batch_occupancy", wave.mean_batch_occupancy)
                   .set("speedup_vs_sequential", speedup)
                   .set("wave_trace_continuity_ok",
                        wave.trace_continuity_ok));
}

void run_active_learning(obs::BenchReporter& reporter) {
  constexpr std::int64_t kAlTraj = 4;
  constexpr std::int64_t kAlSteps = 10;
  std::printf("\n--- active_learning: %lld trajectories x %lld steps, "
              "gate -> label -> fine-tune -> hot-swap ---\n",
              static_cast<long long>(kAlTraj),
              static_cast<long long>(kAlSteps));

  // Hot-swaps are counted in the obs registry; this run's are the
  // counter's rise across it.
  const obs::Counter& swap_counter =
      obs::MetricsRegistry::global().counter("serve.registry.swaps");
  const std::int64_t initial_swaps = swap_counter.value();
  ServeFrontend fe;
  std::vector<sim::EnsembleMemberSpec> members;
  for (std::uint64_t m = 0; m < 2; ++m) {
    sim::EnsembleMemberSpec spec;
    spec.name = "pot/" + std::to_string(m);
    const std::uint64_t seed = 41 + m;
    spec.task = make_potential_task(seed);
    spec.make_serving_task = [seed]() { return make_potential_task(seed); };
    auto serving = make_potential_task(seed);
    nn::load_into_module(*serving, nn::state_dict(*spec.task));
    fe.deploy(spec.name, 1, make_session(serving), wave_scheduler_options());
    members.push_back(std::move(spec));
  }

  materials::PropertyOracle oracle(5);
  sim::ActiveLearningOptions alo;
  alo.gate.force_std_threshold = 0.01;
  alo.min_labels = 12;
  alo.max_finetunes = 1;
  alo.finetune_epochs = 12;
  alo.batch_size = 4;
  alo.learning_rate = 3e-3;
  alo.collate.radius.cutoff = kCollateCutoff;
  alo.scheduler = wave_scheduler_options();
  sim::ActiveLearningLoop loop(fe, members, oracle, alo);

  sim::ServedPotentialOptions popts;
  popts.members = {"pot/0", "pot/1"};
  auto backend = std::make_shared<sim::ServedForceBackend>(fe, popts);
  auto trajs = make_trajectories(kAlTraj, kAlSteps, 700);
  sim::TrajectorySchedulerOptions sopts;
  sopts.wave_size = 2;
  sim::TrajectoryScheduler scheduler(trajs, backend, sopts);

  // Gated frames observed before the fine-tune, with their oracle truth:
  // the pre/post force-MAE comparison runs over exactly this set.
  struct GatedFrame {
    materials::Structure structure;
    std::vector<core::Vec3> truth_forces;
  };
  std::vector<GatedFrame> gated;
  double mae_pre_sum = 0.0;
  std::int64_t mae_pre_n = 0;
  scheduler.set_frame_hook([&](std::int64_t traj, std::int64_t step,
                               const materials::Structure& s,
                               const sim::ForceEval& ev) {
    const bool pre_finetune = loop.finetunes() == 0;
    const std::int64_t labels_before = loop.labels();
    loop.observe_frame(traj, step, s, ev);
    if (pre_finetune && loop.labels() > labels_before) {
      GatedFrame frame;
      frame.structure = s;
      oracle.energy_and_forces(s, frame.truth_forces, alo.label_cutoff);
      for (std::size_t i = 0; i < frame.truth_forces.size(); ++i) {
        mae_pre_sum += std::fabs(ev.forces[i].x - frame.truth_forces[i].x) +
                       std::fabs(ev.forces[i].y - frame.truth_forces[i].y) +
                       std::fabs(ev.forces[i].z - frame.truth_forces[i].z);
        mae_pre_n += 3;
      }
      gated.push_back(std::move(frame));
    }
  });
  scheduler.set_mid_wave_hook(loop.mid_wave_hook());

  const std::int64_t frames = scheduler.run();
  const bool zero_loss = frames == kAlTraj * kAlSteps;
  const double mae_pre =
      mae_pre_n == 0 ? 0.0 : mae_pre_sum / static_cast<double>(mae_pre_n);

  // Post-swap ensemble (now serving the fine-tuned versions) on the
  // same gated frames.
  sim::MLPotential pot(fe, popts);
  double mae_post_sum = 0.0;
  std::int64_t mae_post_n = 0;
  for (const GatedFrame& frame : gated) {
    std::vector<core::Vec3> pred;
    pot.energy_and_forces(frame.structure, pred);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      mae_post_sum += std::fabs(pred[i].x - frame.truth_forces[i].x) +
                      std::fabs(pred[i].y - frame.truth_forces[i].y) +
                      std::fabs(pred[i].z - frame.truth_forces[i].z);
      mae_post_n += 3;
    }
  }
  const double mae_post =
      mae_post_n == 0 ? 0.0 : mae_post_sum / static_cast<double>(mae_post_n);
  const std::int64_t swaps = swap_counter.value() - initial_swaps;

  std::printf("frames advanced:      %lld / %lld  (zero loss: %s)\n",
              static_cast<long long>(frames),
              static_cast<long long>(kAlTraj * kAlSteps),
              zero_loss ? "yes" : "NO");
  std::printf("gated frame fraction: %.3f  (%lld labels, %lld fine-tunes)\n",
              loop.gate().gate_rate(), static_cast<long long>(loop.labels()),
              static_cast<long long>(loop.finetunes()));
  std::printf("registry versions:    pot/0 v%llu, pot/1 v%llu  (%lld swaps)\n",
              static_cast<unsigned long long>(
                  fe.registry().active_version("pot/0")),
              static_cast<unsigned long long>(
                  fe.registry().active_version("pot/1")),
              static_cast<long long>(swaps));
  std::printf("force MAE on gated frames: %.4f -> %.4f eV/A  "
              "(acceptance: post < pre)\n",
              mae_pre, mae_post);

  reporter.add(obs::JsonRecord()
                   .set("record", "active_learning")
                   .set("trajectories", kAlTraj)
                   .set("steps", kAlSteps)
                   .set("frames", frames)
                   .set("zero_loss", zero_loss)
                   .set("gated_frame_fraction", loop.gate().gate_rate())
                   .set("labels", loop.labels())
                   .set("finetunes", loop.finetunes())
                   .set("swaps", swaps)
                   .set("force_mae_pre", mae_pre)
                   .set("force_mae_post", mae_post));
}

}  // namespace

int main() {
  bench::print_header(
      "MD at scale — ML-potential dynamics through the serving stack\n"
      "(lockstep trajectory waves vs one-at-a-time; uncertainty-gated\n"
      "active learning with mid-wave hot-swap)");

  // Each deployed ensemble member pins one pool slot for its
  // long-running dispatch job; leave headroom for compute even on
  // single-core machines.
  if (core::parallel::num_threads() < 4) core::parallel::set_num_threads(4);

  obs::BenchReporter reporter = bench::make_reporter("fig4_mdscale");
  run_md_scale(reporter);
  run_active_learning(reporter);
  return 0;
}
