// Workload serve_openloop: independent users in open loop against
// serve::frontend::ServeFrontend::submit.
//
// One generator thread submits on a seeded Poisson schedule at two fixed
// absolute rates (kLoRps, then kHiRps) — never scaled by capacity
// measured at run time, so a faster commit is offered the same load.
// ~70% of requests are cache-cold: a walk without repeats over a pool of
// kColdPool Materials-Project structures (4x the 1024-entry response
// cache), half of them 2x2x2 supercells, so atom counts vary; the other
// ~30% repeat a hot set of kHotSet structures. Scheduler and frontend
// options are those of bench/bench_serve_openloop (max batch 32, 2 ms
// coalescing window, 2 workers, queue bounded at 256).
//
// Latency runs from each request's *due* time to the moment its future
// resolves (the scheduler's public on_result hook fires right before
// that; cache hits resolve inside submit). Sheds, ShedError and any
// other exception count as failures and as misses of every latency
// limit (+inf in the percentiles).
//
// raw-threads-ok: the open-loop generator must tick on wall-clock time,
// independent of the pool whose dispatch jobs it feeds.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/random.hpp"
#include "materials/materials_project.hpp"
#include "models/egnn.hpp"
#include "serve/frontend/frontend.hpp"
#include "tasks/regression.hpp"

namespace perfbench {
namespace {

using namespace matsci;
using serve::frontend::SubmitStatus;

// Offered load (requests/s). This configuration starts shedding at
// ~16000 req/s on a 4-core x86-64 host (AVX-512 kernels). Closer to that
// knee the p99 of a 20 s run moved by more than 15% from run to run on
// a shared host, so lo and hi sit at 1/16 and 1/4 of it.
constexpr double kLoRps = 1000.0;
constexpr double kHiRps = 4000.0;
constexpr std::int64_t kPoolThreads = 4;  // 2 pinned dispatch jobs + 2
constexpr std::int64_t kWorkers = 2;
constexpr std::int64_t kMaxBatch = 32;
constexpr std::int64_t kMaxWaitUs = 2000;
constexpr std::int64_t kQueueCapacity = 256;
constexpr std::int64_t kCacheCapacity = 1024;
constexpr std::int64_t kColdPool = 4096;
constexpr std::int64_t kHotSet = 16;
constexpr double kColdShare = 0.7;
constexpr std::int64_t kDeadlineUs = 500'000;
constexpr double kSloMs = 50.0;  ///< latency limit behind the goodput
constexpr std::int64_t kReplayBatches = 64;
constexpr const char* kModel = "band_gap_model";
constexpr const char* kTarget = "band_gap";

enum Segment : std::uint8_t { kWarm, kLo, kHi };

/// One scheduled request, fixed in set-up from the seed.
struct Planned {
  double due_s;  ///< offset from the schedule start
  Segment segment;
  bool hot;
  std::uint32_t index;  ///< into the hot set or the cold pool
  serve::Priority priority;
};

/// What the generator and the completion hook observed for one request.
struct Observed {
  Clock::time_point due, submit_start, submit_end, done;
  SubmitStatus status = SubmitStatus::kNoSuchModel;
  std::future<serve::PredictResult> future;
  std::uint64_t trace_id = 0;
  bool ok = false;  ///< future resolved with a value
  serve::PredictResult result;
};

struct Inputs {
  std::vector<data::StructureSample> cold, hot;
  std::vector<tasks::Prediction> cold_ref, hot_ref;
  std::vector<Planned> plan;
  std::shared_ptr<tasks::ScalarRegressionTask> task;
  std::shared_ptr<serve::InferenceSession> session;
};

models::EGNNConfig encoder_config() {  // bench_encoder_config()
  models::EGNNConfig cfg;
  cfg.hidden_dim = 32;
  cfg.pos_hidden = 16;
  cfg.num_layers = 3;
  return cfg;
}
models::OutputHeadConfig head_config() {  // bench_head_config()
  models::OutputHeadConfig cfg;
  cfg.hidden_dim = 32;
  cfg.num_blocks = 2;
  cfg.dropout = 0.0f;
  return cfg;
}

Inputs make_inputs(std::uint64_t seed, double warm_s, double lo_s,
                   double hi_s) {
  Inputs in;
  core::RngEngine rng(seed * 0x9E3779B97F4A7C15ull + 17);
  materials::MaterialsProjectDataset cold_ds(kColdPool, seed * 31 + 5);
  in.cold.reserve(kColdPool);
  for (std::int64_t i = 0; i < kColdPool; ++i) {
    materials::Structure s = cold_ds.structure_at(i);
    if (rng.bernoulli(0.5)) s = s.supercell(2, 2, 2);
    in.cold.push_back(s.to_sample());
  }
  materials::MaterialsProjectDataset hot_ds(kHotSet, seed * 31 + 6);
  for (std::int64_t i = 0; i < kHotSet; ++i) {
    in.hot.push_back(hot_ds.structure_at(i).to_sample());
  }

  std::vector<std::int64_t> walk(kColdPool);
  for (std::int64_t i = 0; i < kColdPool; ++i) walk[i] = i;
  rng.shuffle(walk);
  std::size_t next_cold = 0;
  double t = 0.0;
  const double ends[] = {warm_s, warm_s + lo_s, warm_s + lo_s + hi_s};
  for (int seg = kWarm; seg <= kHi; ++seg) {
    const double rate = seg == kHi ? kHiRps : kLoRps;
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= ends[seg]) {
        t = ends[seg];
        break;
      }
      Planned p{};
      p.due_s = t;
      p.segment = static_cast<Segment>(seg);
      p.hot = !rng.bernoulli(kColdShare);
      p.index = static_cast<std::uint32_t>(
          p.hot ? rng.next_int(kHotSet) : walk[next_cold++ % walk.size()]);
      const std::int64_t cls = rng.next_int(10);
      p.priority = cls == 0  ? serve::Priority::kInteractive
                   : cls < 7 ? serve::Priority::kStandard
                             : serve::Priority::kBatch;
      in.plan.push_back(p);
    }
  }

  core::RngEngine model_rng(7);
  in.task = std::make_shared<tasks::ScalarRegressionTask>(
      std::make_shared<models::EGNN>(encoder_config(), model_rng), kTarget,
      head_config(), model_rng, data::TargetStats{2.0f, 1.5f});
  serve::InferenceSessionOptions sopts;
  sopts.collate.radius.cutoff = 4.5;
  in.session = std::make_shared<serve::InferenceSession>(in.task, sopts);

  // Single-structure InferenceSession::predict references, one pool
  // task per thread (kernels run inline inside pool tasks).
  in.cold_ref.resize(in.cold.size());
  in.hot_ref.resize(in.hot.size());
  std::vector<core::parallel::TaskHandle> jobs;
  for (std::int64_t j = 0; j < kPoolThreads; ++j) {
    jobs.push_back(core::parallel::ThreadPool::global().submit([&in, j] {
      const std::size_t n = in.cold.size() + in.hot.size();
      for (std::size_t k = static_cast<std::size_t>(j); k < n;
           k += kPoolThreads) {
        const bool hot = k >= in.cold.size();
        const std::size_t i = hot ? k - in.cold.size() : k;
        (hot ? in.hot_ref : in.cold_ref)[i] =
            in.session->predict({(hot ? in.hot : in.cold)[i]}, kTarget)[0];
      }
    }));
  }
  for (core::parallel::TaskHandle& h : jobs) h.run_now_or_wait();
  return in;
}

const data::StructureSample& sample_of(const Inputs& in, const Planned& p) {
  return p.hot ? in.hot[p.index] : in.cold[p.index];
}

bool bit_equal(const tasks::Prediction& a, const tasks::Prediction& b) {
  return std::memcmp(&a.value, &b.value, sizeof a.value) == 0 &&
         a.label == b.label && a.scores.size() == b.scores.size() &&
         (a.scores.empty() ||
          std::memcmp(a.scores.data(), b.scores.data(),
                      a.scores.size() * sizeof(float)) == 0);
}

}  // namespace

Result run_serve_openloop(const Args& args) {
  core::parallel::set_num_threads(kPoolThreads);
  Result res;
  const double warm_s = std::max(0.5, 0.1 * args.seconds);
  const double lo_s = 0.4 * args.seconds;
  const double hi_s = 0.6 * args.seconds;
  note("serve_openloop: lo %.1f req/s for %.2f s, hi %.1f req/s for %.2f s "
       "(after %.2f s warm-up), pool %lld threads, %lld workers, seed %llu",
       kLoRps, lo_s, kHiRps, hi_s, warm_s,
       static_cast<long long>(kPoolThreads), static_cast<long long>(kWorkers),
       static_cast<unsigned long long>(args.seed));

  Inputs in;
  const double setup_s = median_setup_seconds(kSetupReps, [&] {
    in = make_inputs(args.seed, warm_s, lo_s, hi_s);
  });

  std::vector<Observed> obs(in.plan.size());
  std::mutex done_mu;
  std::unordered_map<std::uint64_t, Clock::time_point> done_at;
  done_at.reserve(in.plan.size() * 2);
  std::int64_t max_depth = 0;
  {
    serve::frontend::FrontendOptions fopts;
    fopts.cache.capacity = kCacheCapacity;
    serve::frontend::ServeFrontend frontend(fopts);
    serve::SchedulerOptions sched;
    sched.max_batch_size = kMaxBatch;
    sched.max_wait_us = kMaxWaitUs;
    sched.num_workers = kWorkers;
    sched.queue_capacity = kQueueCapacity;
    sched.on_result = [&](const serve::PredictRequest& r,
                          const serve::PredictResult&) {
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(done_mu);
      done_at.emplace(r.trace.trace_id(), now);
    };
    frontend.deploy(kModel, 1, in.session, sched);

    // raw-threads-ok (see file header).
    std::thread generator([&] {
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < in.plan.size(); ++i) {
        const Planned& p = in.plan[i];
        Observed& o = obs[i];
        o.due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(p.due_s));
        std::this_thread::sleep_until(o.due);
        serve::frontend::FrontendRequestOptions ropts;
        ropts.priority = p.priority;
        ropts.deadline_us = kDeadlineUs;
        o.submit_start = Clock::now();
        serve::frontend::SubmitOutcome out =
            frontend.submit(kModel, sample_of(in, p), kTarget, ropts);
        o.submit_end = Clock::now();
        o.status = out.status;
        o.trace_id = out.trace.trace_id();
        o.future = std::move(out.future);
        max_depth = std::max(
            max_depth,
            frontend.registry().resolve(kModel)->scheduler().queue_depth());
      }
    });
    generator.join();

    for (Observed& o : obs) {
      if (!o.future.valid()) continue;
      try {
        o.result = o.future.get();
        o.ok = true;
      } catch (const std::exception&) {
        o.ok = false;  // ShedError (deadline expired while queued) or worse
      }
    }
  }  // frontend drained and torn down

  // Resolution instants: cache hits resolve inside submit; queued
  // requests at their on_result hook.
  bool all_traced = true;
  for (Observed& o : obs) {
    if (!o.ok) continue;
    if (o.status == SubmitStatus::kCacheHit) {
      o.done = o.submit_end;
      continue;
    }
    const auto it = done_at.find(o.trace_id);
    all_traced = all_traced && o.trace_id != 0 && it != done_at.end();
    o.done = it != done_at.end() ? it->second : o.submit_end;
  }
  res.check(all_traced,
            "every queued request matched to its completion by trace id");

  // Output correctness: every served answer bit-equal to its
  // single-structure reference from set-up.
  {
    std::size_t served = 0, mismatches = 0;
    for (std::size_t i = 0; i < obs.size(); ++i) {
      if (!obs[i].ok) continue;
      ++served;
      const Planned& p = in.plan[i];
      const tasks::Prediction& ref =
          p.hot ? in.hot_ref[p.index] : in.cold_ref[p.index];
      if (!bit_equal(ref, obs[i].result.prediction)) ++mismatches;
    }
    res.check(mismatches == 0,
              std::to_string(served - mismatches) + "/" +
                  std::to_string(served) +
                  " served answers bit-equal to single-structure references");
  }

  // End-to-end figures over the timed segments.
  std::vector<double> lat[3];
  std::int64_t sheds = 0, broken = 0, cache_hits = 0, hi_on_time = 0;
  std::vector<double> hi_busy_s;  // worker busy time per hi request
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const Planned& p = in.plan[i];
    const Observed& o = obs[i];
    const bool failed = !o.ok;
    lat[p.segment].push_back(failed ? INFINITY : ms_between(o.due, o.done));
    if (p.segment == kWarm) continue;
    ++res.attempted;
    if (failed) ++res.failed;
    if (o.status == SubmitStatus::kShedQueueFull ||
        o.status == SubmitStatus::kShedDeadline) {
      ++sheds;
    } else if (failed) {
      ++broken;
    }
    if (o.status == SubmitStatus::kCacheHit) ++cache_hits;
    if (p.segment == kHi) {
      hi_on_time += lat[kHi].back() <= kSloMs ? 1 : 0;
      hi_busy_s.push_back(o.ok && o.result.batch_size > 0
                              ? o.result.service_us * 1e-6 /
                                    static_cast<double>(o.result.batch_size)
                              : 0.0);
    }
  }
  // Goodput at rate hi: answers within kSloMs of their due time per
  // second. Capacity at the hi mix (requests per second of worker busy
  // time, times the worker count) is a per-layer figure: it tracks how
  // busy the host is as much as the code.
  std::vector<double> window_capacity;
  for (std::size_t j = 0; j < kWindows; ++j) {
    const std::size_t n = hi_busy_s.size();
    double busy = 0.0;
    for (std::size_t i = j * n / kWindows; i < (j + 1) * n / kWindows; ++i) {
      busy += hi_busy_s[i];
    }
    window_capacity.push_back(
        static_cast<double>((j + 1) * n / kWindows - j * n / kWindows) *
        kWorkers / busy);
  }
  note("offered: lo %zu requests (%.2f/s), hi %zu requests (%.2f/s)",
       lat[kLo].size(), static_cast<double>(lat[kLo].size()) / lo_s,
       lat[kHi].size(), static_cast<double>(lat[kHi].size()) / hi_s);
  note_quantiles("serve_lo latency", lat[kLo], 0.99, "ms");
  note_quantiles("serve_hi latency", lat[kHi], 0.99, "ms");
  const double capacity =
      median_of_windows("serve_capacity_per_s", window_capacity);
  const double goodput = static_cast<double>(hi_on_time) / hi_s;
  note("serve_hi_goodput_per_s %.3f 1/s (%lld of %zu answered within %.0f "
       "ms)",
       goodput, static_cast<long long>(hi_on_time), lat[kHi].size(), kSloMs);
  const double lo_p50 = windowed_quantile("serve_lo_p50_ms", lat[kLo], 0.5);
  const double hi_p90 = windowed_quantile("serve_hi_p90_ms", lat[kHi], 0.9);
  windowed_quantile("serve_lo_p99_ms", lat[kLo], 0.99);
  windowed_quantile("serve_hi_p50_ms", lat[kHi], 0.5);
  windowed_quantile("serve_hi_p99_ms", lat[kHi], 0.99);
  note("failure share: %lld of %lld requests (%lld shed at admission, %lld "
       "broken futures); cache hits %lld; max queue depth %lld",
       static_cast<long long>(res.failed),
       static_cast<long long>(res.attempted), static_cast<long long>(sheds),
       static_cast<long long>(broken), static_cast<long long>(cache_hits),
       static_cast<long long>(max_depth));

  res.e2e("setup_s", setup_s, "s");
  res.e2e("throughput_per_s", goodput, "1/s");
  res.e2e("latency_p50_ms", lo_p50, "ms");
  if (!args.trace) return res;

  res.layer("latency_tail_ms", hi_p90, "ms");
  res.layer("memory.peak_rss_mb", peak_rss_mb(), "MB");
  res.layer("serve.capacity_per_s", capacity, "1/s");

  // Per-layer split over the timed segments.
  std::vector<double> submit_us, late_ms, queue_ms, service_ms, due_lat_ms;
  double batches = 0.0, queued = 0.0;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> compositions;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const Observed& o = obs[i];
    if (in.plan[i].segment == kWarm) continue;
    submit_us.push_back(
        std::chrono::duration<double, std::micro>(o.submit_end -
                                                  o.submit_start)
            .count());
    late_ms.push_back(ms_between(o.due, o.submit_start));
    if (!o.ok || o.result.batch_size == 0) continue;
    queue_ms.push_back((o.result.latency_us - o.result.service_us) / 1000.0);
    service_ms.push_back(o.result.service_us / 1000.0);
    due_lat_ms.push_back(ms_between(o.due, o.done));
    queued += 1.0;
    batches += 1.0 / static_cast<double>(o.result.batch_size);
    // Members of one micro-batch share the exact service_us value.
    std::uint64_t key;
    std::memcpy(&key, &o.result.service_us, sizeof key);
    compositions[key].push_back(i);
  }
  res.layer("frontend.submit_us_p50", quantile(submit_us, 0.5), "us");
  res.layer("frontend.submit_us_p99", quantile(submit_us, 0.99), "us");
  const double attempted = static_cast<double>(res.attempted);
  res.layer("frontend.cache_hit_ratio",
            static_cast<double>(cache_hits) / attempted, "ratio");
  res.layer("serve.queue_wait_ms", mean(queue_ms), "ms");
  res.layer("serve.service_ms", mean(service_ms), "ms");
  res.layer("serve.batch_size_mean", queued / batches, "count");
  res.layer("serve.shed_ratio", static_cast<double>(sheds) / attempted,
            "ratio");
  res.layer("serve.generator_late_ms", mean(late_ms), "ms");
  res.layer("serve.latency_mean_ms", mean(due_lat_ms), "ms");

  // Replay observed micro-batch compositions through data::collate and
  // InferenceSession::predict_batch on one thread (as a dispatch job
  // runs them), splitting service time into collate and forward.
  core::parallel::set_num_threads(1);
  double collate_us = 0.0, forward_us = 0.0, structs = 0.0;
  std::int64_t replayed = 0;
  for (const auto& [key, members] : compositions) {
    if (replayed++ >= kReplayBatches) break;
    std::vector<data::StructureSample> samples;
    for (std::size_t i : members) samples.push_back(sample_of(in, in.plan[i]));
    const Clock::time_point t0 = Clock::now();
    const data::Batch batch =
        data::collate(samples, in.session->collate_options());
    const Clock::time_point t1 = Clock::now();
    (void)in.session->predict_batch(batch, kTarget);
    const Clock::time_point t2 = Clock::now();
    collate_us += ms_between(t0, t1) * 1000.0;
    forward_us += ms_between(t1, t2) * 1000.0;
    structs += static_cast<double>(samples.size());
  }
  res.layer("data.collate_us_per_struct", collate_us / structs, "us");
  res.layer("models.forward_us_per_struct", forward_us / structs, "us");
  return res;
}

}  // namespace perfbench
