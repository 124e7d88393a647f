// Open-loop overload bench for the serving frontend. In a closed loop
// clients wait for each answer before sending the next request, so
// offered load can never exceed service capacity and queueing collapse
// is structurally invisible. This harness is open-loop: a generator
// thread submits on a fixed arrival
// schedule regardless of completions, driving the frontend at
// multiples of measured capacity (default 1x, 2x, 10x) and reporting
// what overload actually does: p50/p99 of served requests, shed rate
// (admission + queue-full + deadline drops), cache hit rate, and the
// maximum observed queue depth (bounded by construction — that is the
// point).
//
// At the highest multiplier the run also hot-swaps the model to
// version 2 mid-load and verifies zero in-flight requests are lost and
// every served answer stays bit-exact vs a single-structure forward.
//
// The run doubles as the telemetry-plane acceptance harness: an
// embedded TelemetryServer is started before the schedulers, the main
// thread scrapes /metrics repeatedly DURING each overload window
// (every scrape must stay validator-clean with bounded latency while
// registry shards mutate under load), and after the gather a
// cache-cold probe request's trace id must appear in spans for every
// stage from admission through forward (end-to-end continuity).
//
// Usage: bench_serve_openloop [duration_s] [multiplier...]
//   defaults: 2.0 s per configuration at 1x, 2x, 10x capacity.
//
// raw-threads-ok: the open-loop generator must tick on a wall-clock
// schedule independent of the pool; running it on the shared pool
// would let the serve dispatch jobs it feeds starve it into a
// closed loop.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel/thread_pool.hpp"
#include "materials/materials_project.hpp"
#include "models/egnn.hpp"
#include "obs/obs.hpp"
#include "serve/serve.hpp"
#include "tasks/regression.hpp"

namespace {

using namespace matsci;
using Clock = std::chrono::steady_clock;

constexpr const char* kModel = "band_gap_model";
constexpr const char* kTarget = "band_gap";
constexpr std::int64_t kWorkers = 2;
constexpr std::int64_t kQueueCapacity = 256;

std::shared_ptr<tasks::ScalarRegressionTask> make_bench_task() {
  core::RngEngine rng(7);
  auto encoder = std::make_shared<models::EGNN>(bench::bench_encoder_config(), rng);
  return std::make_shared<tasks::ScalarRegressionTask>(
      encoder, kTarget, bench::bench_head_config(), rng,
      data::TargetStats{2.0f, 1.5f});
}

std::shared_ptr<serve::InferenceSession> make_session(
    const std::shared_ptr<tasks::ScalarRegressionTask>& task) {
  serve::InferenceSessionOptions sopts;
  sopts.collate.radius.cutoff = 4.5;
  return std::make_shared<serve::InferenceSession>(task, sopts);
}

serve::SchedulerOptions scheduler_options() {
  serve::SchedulerOptions opts;
  opts.max_batch_size = 32;
  opts.max_wait_us = 2000;
  opts.num_workers = kWorkers;
  opts.queue_capacity = kQueueCapacity;
  return opts;
}

/// Sustained capacity estimate (structures/s): time saturated
/// full-batch forwards and scale by the worker count.
double measure_capacity(const serve::InferenceSession& session,
                        const std::vector<data::StructureSample>& pool) {
  std::vector<data::StructureSample> batch(pool.begin(), pool.begin() + 32);
  session.predict(batch, kTarget);  // warm-up (first-touch allocations)
  const auto t0 = Clock::now();
  constexpr int kReps = 6;
  for (int r = 0; r < kReps; ++r) session.predict(batch, kTarget);
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(kReps * batch.size()) / s *
         static_cast<double>(kWorkers);
}

struct OpenLoopResult {
  double multiplier = 0.0;
  double offered_rps = 0.0;
  std::int64_t offered = 0;
  std::int64_t served = 0;
  std::int64_t cache_hits = 0;
  std::int64_t shed_admission = 0;
  std::int64_t shed_dispatch = 0;  ///< queue-side deadline drops
  std::int64_t lost = 0;           ///< non-shed failures — must stay 0
  std::int64_t mismatches = 0;     ///< bit-exactness violations — must stay 0
  std::int64_t max_queue_depth = 0;
  std::int64_t hot_swaps = 0;
  double p50_us = 0.0, p99_us = 0.0;
  double achieved_rps = 0.0;
  /// /metrics scrapes issued mid-overload from the main thread.
  std::int64_t scrapes = 0;
  std::int64_t scrapes_valid = 0;  ///< validator-clean scrapes
  double scrape_mean_us = 0.0;
  double scrape_max_us = 0.0;
  /// 1 when the last served request's trace id shows up in spans for
  /// admission, queue wait, and forward (vacuously 1 with obs off).
  std::int64_t trace_continuity_ok = 1;

  double shed_rate() const {
    return offered == 0
               ? 0.0
               : static_cast<double>(shed_admission + shed_dispatch) /
                     static_cast<double>(offered);
  }
  double cache_hit_rate() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(offered);
  }
};

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

OpenLoopResult run_open_loop(
    const std::shared_ptr<tasks::ScalarRegressionTask>& task,
    const std::vector<data::StructureSample>& pool,
    const data::StructureSample& probe, const std::vector<float>& reference,
    double capacity_rps, double multiplier, double duration_s, bool hot_swap,
    obs::http::TelemetryServer* telemetry) {
  serve::frontend::FrontendOptions fopts;
  fopts.cache.capacity = 1024;
  serve::frontend::ServeFrontend frontend(fopts);
  frontend.deploy(kModel, 1, make_session(task), scheduler_options());

  OpenLoopResult r;
  r.multiplier = multiplier;
  r.offered_rps = capacity_rps * multiplier;
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / r.offered_rps));

  struct Tracked {
    std::size_t pool_index;
    std::future<serve::PredictResult> future;
  };
  std::vector<Tracked> inflight;
  inflight.reserve(static_cast<std::size_t>(r.offered_rps * duration_s) + 16);

  // raw-threads-ok (see file header): the generator must not run on the
  // pool that serves the requests it emits.
  std::thread generator([&] {
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    const auto start = Clock::now();
    auto next = start;
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(duration_s));
    while (Clock::now() < end) {
      std::this_thread::sleep_until(next);
      next += interval;
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      // Zipf-ish mix: 70% of arrivals hit 8 hot structures (cacheable),
      // the rest spread over the whole pool.
      const bool hot = (lcg >> 33) % 10 < 7;
      const std::size_t idx =
          hot ? (lcg >> 40) % 8 : (lcg >> 40) % pool.size();
      serve::frontend::FrontendRequestOptions ropts;
      const std::uint64_t cls = (lcg >> 20) % 10;
      ropts.priority = cls == 0 ? serve::Priority::kInteractive
                       : cls < 7 ? serve::Priority::kStandard
                                 : serve::Priority::kBatch;
      ropts.deadline_us = 500'000;  // 500 ms dispatch SLO
      serve::frontend::SubmitOutcome outcome =
          frontend.submit(kModel, pool[idx], kTarget, ropts);
      ++r.offered;
      r.max_queue_depth = std::max(
          r.max_queue_depth,
          frontend.registry().resolve(kModel)->scheduler().queue_depth());
      if (outcome.status == serve::frontend::SubmitStatus::kCacheHit) {
        ++r.cache_hits;
        inflight.push_back({idx, std::move(outcome.future)});
      } else if (outcome.status ==
                 serve::frontend::SubmitStatus::kAccepted) {
        inflight.push_back({idx, std::move(outcome.future)});
      } else {
        ++r.shed_admission;
      }
    }
  });

  // Main thread rides the window as the scrape client: /metrics is
  // pulled several times per configuration WHILE the generator drives
  // overload and the registry shards mutate — every scrape must come
  // back validator-clean with bounded latency. The hot-swap (highest
  // multiplier only) still fires at half-time: v2 starts taking new
  // traffic while v1 drains its queue; nothing in flight may be lost
  // and answers stay bit-exact.
  {
    const auto window_start = Clock::now();
    const auto window_end =
        window_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(duration_s));
    const auto half_time =
        window_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(duration_s / 2));
    const auto scrape_interval =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(duration_s / 8));
    auto next_scrape = window_start + scrape_interval;
    bool swapped = false;
    double scrape_total_us = 0.0;
    while (Clock::now() < window_end) {
      auto wake = window_end;
      if (telemetry != nullptr) wake = std::min(wake, next_scrape);
      if (hot_swap && !swapped) wake = std::min(wake, half_time);
      std::this_thread::sleep_until(wake);
      if (hot_swap && !swapped && Clock::now() >= half_time) {
        frontend.deploy(kModel, 2, make_session(task),
                        scheduler_options());
        swapped = true;
        ++r.hot_swaps;
      }
      if (telemetry != nullptr && Clock::now() >= next_scrape) {
        const obs::StopWatch watch;
        const obs::http::HttpResponse resp =
            obs::http::http_get("127.0.0.1", telemetry->port(), "/metrics");
        const double us = watch.elapsed_us();
        ++r.scrapes;
        scrape_total_us += us;
        r.scrape_max_us = std::max(r.scrape_max_us, us);
        std::string error;
        if (resp.status == 200 &&
            obs::validate_prometheus_text(resp.body, &error)) {
          ++r.scrapes_valid;
        } else {
          std::fprintf(stderr,
                       "scrape failed at %gx: status=%d %s\n", multiplier,
                       resp.status,
                       resp.status == 200 ? error.c_str()
                                          : resp.body.c_str());
        }
        next_scrape += scrape_interval;
      }
    }
    if (r.scrapes > 0) {
      r.scrape_mean_us = scrape_total_us / static_cast<double>(r.scrapes);
    }
  }
  generator.join();

  std::vector<double> latencies;
  latencies.reserve(inflight.size());
  for (Tracked& t : inflight) {
    try {
      serve::PredictResult res = t.future.get();
      ++r.served;
      if (res.batch_size > 0) latencies.push_back(res.latency_us);
      if (res.prediction.value != reference[t.pool_index]) ++r.mismatches;
    } catch (const serve::ShedError&) {
      ++r.shed_dispatch;  // deadline expired while queued
    } catch (...) {
      ++r.lost;
    }
  }
  r.p50_us = percentile(latencies, 0.50);
  r.p99_us = percentile(latencies, 0.99);
  r.achieved_rps = static_cast<double>(r.served) / duration_s;

  // End-to-end continuity: submit one cache-cold probe after the
  // gather and require spans for every stage — admission (submitting
  // thread), queue wait and forward (pool dispatch jobs) — under its
  // trace id. Probing after the window keeps the check immune to ring
  // wrap: under overload the warm response cache serves hundreds of
  // thousands of hits whose cache-stage spans overwrite every earlier
  // span, so no mid-window request's full span set survives. Vacuous
  // with obs off (compiled_in() is false, no ids are minted).
  if (obs::http::TelemetryServer::compiled_in()) {
    r.trace_continuity_ok = 0;
    serve::frontend::FrontendRequestOptions popts;
    popts.deadline_us = 500'000;
    serve::frontend::SubmitOutcome probe_out =
        frontend.submit(kModel, probe, kTarget, popts);
    if (probe_out.status == serve::frontend::SubmitStatus::kAccepted &&
        probe_out.trace.valid()) {
      (void)probe_out.future.get();
      const std::uint64_t probe_trace = probe_out.trace.trace_id();
      bool admission = false, queue_wait = false, forward = false;
      for (const obs::TraceEvent& e : obs::Tracer::global().collect()) {
        if (e.trace_id != probe_trace || e.name == nullptr) continue;
        const std::string_view name(e.name);
        admission = admission || name == "serve/stage/admission";
        queue_wait = queue_wait || name == "serve/stage/queue_wait";
        forward = forward || name == "serve/stage/forward";
      }
      r.trace_continuity_ok = admission && queue_wait && forward ? 1 : 0;
    }
  }
  return r;
}

/// Mean of one stage histogram over this run only (after minus before:
/// the registry is process-global and accumulates across multipliers).
double stage_mean_us(const obs::MetricsRegistry::Snapshot& before,
                     const obs::MetricsRegistry::Snapshot& after,
                     const std::string& name) {
  const auto it = after.histograms.find(name);
  if (it == after.histograms.end()) return 0.0;
  double sum = it->second.sum;
  std::int64_t count = it->second.count;
  const auto bit = before.histograms.find(name);
  if (bit != before.histograms.end()) {
    sum -= bit->second.sum;
    count -= bit->second.count;
  }
  return count <= 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace

int main(int argc, char** argv) {
  const double duration_s = argc > 1 ? std::atof(argv[1]) : 2.0;
  std::vector<double> multipliers;
  for (int i = 2; i < argc; ++i) multipliers.push_back(std::atof(argv[i]));
  if (multipliers.empty()) multipliers = {1.0, 2.0, 10.0};
  if (duration_s <= 0.0) {
    std::fprintf(stderr,
                 "usage: bench_serve_openloop [duration_s > 0] "
                 "[multiplier...]\n");
    return 2;
  }

  // The telemetry dispatcher and every scheduler dispatch job pin one
  // pool slot each for their lifetime, and both deployed versions'
  // dispatch jobs coexist during the hot-swap drain (1 + 2*kWorkers);
  // leave headroom for compute even on single-core machines.
  if (core::parallel::num_threads() < 6) core::parallel::set_num_threads(6);

  obs::BenchReporter reporter = bench::make_reporter("serve_openloop");

  // Telemetry plane up BEFORE any scheduler deploys (the dispatcher
  // needs a pool slot — see http_server.hpp). Ephemeral port; the main
  // thread scrapes it mid-overload inside run_open_loop.
  obs::http::TelemetryServer telemetry;
  const bool telemetry_up = telemetry.start();
  if (obs::http::TelemetryServer::compiled_in() && !telemetry_up) {
    std::fprintf(stderr, "FAIL: telemetry server did not start: %s\n",
                 telemetry.last_error().c_str());
    return 1;
  }
  if (telemetry_up) {
    std::printf("telemetry server on 127.0.0.1:%d\n", telemetry.port());
  }

  auto task = make_bench_task();
  auto session = make_session(task);
  materials::MaterialsProjectDataset dataset(64, 17);
  std::vector<data::StructureSample> pool;
  for (std::int64_t i = 0; i < dataset.size(); ++i) {
    pool.push_back(dataset.get(i));
  }
  // Cache-cold structure for the post-window trace-continuity probe
  // (never submitted by the generator, so it always misses the
  // response cache and rides the full pipeline).
  materials::MaterialsProjectDataset probe_dataset(1, 9001);
  const data::StructureSample probe = probe_dataset.get(0);
  // Bit-exactness references: one single-structure forward each.
  std::vector<float> reference;
  reference.reserve(pool.size());
  for (const auto& s : pool) {
    reference.push_back(session->predict({s}, kTarget)[0].value);
  }

  const double capacity_rps = measure_capacity(*session, pool);
  std::printf("open-loop serving bench: capacity ~%.0f structs/s "
              "(%lld workers, queue capacity %lld), %.1f s per "
              "configuration\n\n",
              capacity_rps, static_cast<long long>(kWorkers),
              static_cast<long long>(kQueueCapacity), duration_s);
  std::printf("%6s %12s %10s %10s %10s %10s %10s %9s %9s\n", "mult",
              "offered/s", "served/s", "p50_ms", "p99_ms", "shed_rate",
              "cache_hit", "max_depth", "lost");

  int failures = 0;
  for (std::size_t i = 0; i < multipliers.size(); ++i) {
    const double mult = multipliers[i];
    // Hot-swap at the highest (overload) multiplier.
    const bool hot_swap = i + 1 == multipliers.size() && mult > 1.0;
    const obs::MetricsRegistry::Snapshot before =
        obs::MetricsRegistry::global().snapshot();
    const OpenLoopResult r =
        run_open_loop(task, pool, probe, reference, capacity_rps, mult,
                      duration_s, hot_swap,
                      telemetry_up ? &telemetry : nullptr);
    const obs::MetricsRegistry::Snapshot after =
        obs::MetricsRegistry::global().snapshot();
    std::printf("%6.1f %12.0f %10.0f %10.2f %10.2f %10.3f %10.3f %9lld "
                "%9lld\n",
                r.multiplier, r.offered_rps, r.achieved_rps,
                r.p50_us / 1000.0, r.p99_us / 1000.0, r.shed_rate(),
                r.cache_hit_rate(),
                static_cast<long long>(r.max_queue_depth),
                static_cast<long long>(r.lost));
    if (r.lost != 0 || r.mismatches != 0) {
      std::fprintf(stderr,
                   "FAIL at %gx: lost=%lld mismatches=%lld (must be 0)\n",
                   mult, static_cast<long long>(r.lost),
                   static_cast<long long>(r.mismatches));
      ++failures;
    }
    if (r.max_queue_depth > kQueueCapacity) {
      std::fprintf(stderr, "FAIL at %gx: queue depth %lld exceeded bound\n",
                   mult, static_cast<long long>(r.max_queue_depth));
      ++failures;
    }
    if (telemetry_up) {
      std::printf("       telemetry: %lld/%lld scrapes validator-clean, "
                  "mean %.0f us, max %.0f us, trace continuity %s\n",
                  static_cast<long long>(r.scrapes_valid),
                  static_cast<long long>(r.scrapes), r.scrape_mean_us,
                  r.scrape_max_us,
                  r.trace_continuity_ok != 0 ? "ok" : "BROKEN");
      if (r.scrapes == 0 || r.scrapes_valid != r.scrapes) {
        std::fprintf(stderr,
                     "FAIL at %gx: %lld/%lld mid-overload scrapes "
                     "validator-clean (all must be)\n",
                     mult, static_cast<long long>(r.scrapes_valid),
                     static_cast<long long>(r.scrapes));
        ++failures;
      }
      if (r.trace_continuity_ok == 0) {
        std::fprintf(stderr,
                     "FAIL at %gx: last served request's trace id missing "
                     "from admission/queue_wait/forward spans\n",
                     mult);
        ++failures;
      }
    }
    reporter.add(obs::JsonRecord()
                     .set("closed_loop", false)
                     .set("multiplier", r.multiplier)
                     .set("duration_s", duration_s)
                     .set("capacity_structs_per_s", capacity_rps)
                     .set("offered_rps", r.offered_rps)
                     .set("achieved_rps", r.achieved_rps)
                     .set("offered", r.offered)
                     .set("served", r.served)
                     .set("p50_us", r.p50_us)
                     .set("p99_us", r.p99_us)
                     .set("shed_rate", r.shed_rate())
                     .set("shed_admission", r.shed_admission)
                     .set("shed_dispatch", r.shed_dispatch)
                     .set("cache_hit_rate", r.cache_hit_rate())
                     .set("max_queue_depth", r.max_queue_depth)
                     .set("queue_capacity", kQueueCapacity)
                     .set("hot_swaps", r.hot_swaps)
                     .set("lost", r.lost)
                     .set("mismatches", r.mismatches)
                     .set("scrapes", r.scrapes)
                     .set("scrapes_valid", r.scrapes_valid)
                     .set("scrape_mean_us", r.scrape_mean_us)
                     .set("scrape_max_us", r.scrape_max_us)
                     .set("trace_continuity_ok", r.trace_continuity_ok)
                     .set("stage_queue_wait_mean_us",
                          stage_mean_us(before, after,
                                        "serve.stage.queue_wait_us"))
                     .set("stage_batch_assembly_mean_us",
                          stage_mean_us(before, after,
                                        "serve.stage.batch_assembly_us"))
                     .set("stage_forward_mean_us",
                          stage_mean_us(before, after,
                                        "serve.stage.forward_us"))
                     .set("stage_cache_mean_us",
                          stage_mean_us(before, after,
                                        "serve.stage.cache_us"))
                     .set("stage_shed_mean_us",
                          stage_mean_us(before, after,
                                        "serve.stage.shed_us")));
  }

  std::printf("\nshed traffic is the overload-survival signal: bounded "
              "queue + admission control turn excess offered load into "
              "fast rejections with retry-after instead of unbounded "
              "queue growth.\n");
  telemetry.stop();
  reporter.finish();
  return failures == 0 ? 0 : 1;
}
