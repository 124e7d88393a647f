// Tests for the production serving frontend (src/serve/frontend):
// canonicalized-structure cache keys, the LRU response cache, the
// admission-control state machine, the versioned model registry with
// atomic hot-swap, and the full frontend submit path under overload.
// Label `serve` so the suite runs under TSan/ASan in the CI matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/macros.hpp"
#include "materials/materials_project.hpp"
#include "models/egnn.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"
#include "sym/canonical.hpp"
#include "sym/symop.hpp"
#include "tasks/regression.hpp"

namespace matsci::serve::frontend {
namespace {

using core::RngEngine;

models::EGNNConfig tiny_encoder_config() {
  models::EGNNConfig cfg;
  cfg.hidden_dim = 16;
  cfg.pos_hidden = 8;
  cfg.num_layers = 2;
  return cfg;
}

models::OutputHeadConfig tiny_head_config() {
  models::OutputHeadConfig cfg;
  cfg.hidden_dim = 16;
  cfg.num_blocks = 2;
  cfg.dropout = 0.0f;
  return cfg;
}

std::shared_ptr<tasks::ScalarRegressionTask> make_task(std::uint64_t seed) {
  RngEngine rng(seed);
  auto encoder = std::make_shared<models::EGNN>(tiny_encoder_config(), rng);
  return std::make_shared<tasks::ScalarRegressionTask>(
      encoder, "band_gap", tiny_head_config(), rng,
      data::TargetStats{2.0f, 1.5f});
}

std::shared_ptr<InferenceSession> make_session(
    const std::shared_ptr<tasks::Task>& task) {
  InferenceSessionOptions opts;
  opts.collate.radius.cutoff = 4.5;
  return std::make_shared<InferenceSession>(task, opts);
}

std::vector<data::StructureSample> sample_pool(std::int64_t n,
                                               std::uint64_t seed) {
  materials::MaterialsProjectDataset ds(n, seed);
  std::vector<data::StructureSample> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) pool.push_back(ds.get(i));
  return pool;
}

/// Inference-only task with a configurable forward-pass delay — makes
/// overload deterministic to provoke in tests without a real model.
class SlowEchoTask : public tasks::Task {
 public:
  explicit SlowEchoTask(std::chrono::milliseconds delay) : delay_(delay) {}

  tasks::TaskOutput step(const data::Batch&) const override {
    throw matsci::Error("SlowEchoTask is inference-only");
  }
  std::shared_ptr<models::Encoder> encoder() const override {
    return nullptr;
  }
  std::vector<tasks::Prediction> predict_batch(
      const data::Batch& batch, const std::string& target) const override {
    MATSCI_CHECK(target == "echo", "unknown target " << target);
    std::this_thread::sleep_for(delay_);
    std::vector<tasks::Prediction> out(
        static_cast<std::size_t>(batch.num_graphs()));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].value = static_cast<float>(i);
    }
    return out;
  }

 private:
  std::chrono::milliseconds delay_;
};

/// Counter deltas in the global obs registry since construction: the
/// serving components count only there, so a test snapshots the
/// counters before it drives traffic and reads the difference after.
class CounterDeltas {
 public:
  CounterDeltas()
      : base_(obs::MetricsRegistry::global().snapshot().counters) {}
  std::int64_t operator()(const std::string& name) const {
    const auto it = base_.find(name);
    const std::int64_t base = it == base_.end() ? 0 : it->second;
    return obs::MetricsRegistry::global().counter(name).value() - base;
  }

 private:
  std::map<std::string, std::int64_t> base_;
};

SchedulerOptions slow_scheduler_options(std::int64_t queue_capacity) {
  SchedulerOptions opts;
  opts.max_batch_size = 1;  // one forward per request: slowest drain
  opts.max_wait_us = 0;
  opts.num_workers = 1;
  opts.queue_capacity = queue_capacity;
  return opts;
}

// --- Canonical structure hash -----------------------------------------------

data::StructureSample simple_sample() {
  data::StructureSample s;
  s.species = {8, 1, 1};
  s.positions = {{0.00013, 0.0, 0.0}, {0.75731, 0.58631, 0.0},
                 {-0.75731, 0.58631, 0.0}};
  return s;
}

TEST(CanonicalHash, PermutationAndTranslationInvariant) {
  const data::StructureSample a = simple_sample();

  data::StructureSample permuted;
  permuted.species = {1, 8, 1};
  permuted.positions = {a.positions[1], a.positions[0], a.positions[2]};

  data::StructureSample translated = a;
  for (core::Vec3& p : translated.positions) p += core::Vec3{3.1, -2.7, 9.4};

  const std::uint64_t h = sym::canonical_structure_hash(a);
  EXPECT_EQ(sym::canonical_structure_hash(permuted), h);
  EXPECT_EQ(sym::canonical_structure_hash(translated), h);
}

TEST(CanonicalHash, QuantizationFoldsSubGridJitterOnly) {
  const data::StructureSample a = simple_sample();

  // Jitter far below the 1e-4 Å grid: same key.
  data::StructureSample jittered = a;
  jittered.positions[1].x += 1e-6;
  EXPECT_EQ(sym::canonical_structure_hash(jittered),
            sym::canonical_structure_hash(a));

  // Displacement beyond the grid: different key.
  data::StructureSample moved = a;
  moved.positions[1].x += 5e-3;
  EXPECT_NE(sym::canonical_structure_hash(moved),
            sym::canonical_structure_hash(a));
}

TEST(CanonicalHash, SensitiveToSpeciesLatticeAndDataset) {
  const data::StructureSample a = simple_sample();
  const std::uint64_t h = sym::canonical_structure_hash(a);

  data::StructureSample other_species = a;
  other_species.species[0] = 16;
  EXPECT_NE(sym::canonical_structure_hash(other_species), h);

  data::StructureSample with_lattice = a;
  with_lattice.lattice = core::identity3();
  EXPECT_NE(sym::canonical_structure_hash(with_lattice), h);

  data::StructureSample other_dataset = a;
  other_dataset.dataset_id = 3;
  EXPECT_NE(sym::canonical_structure_hash(other_dataset), h);

  // Rigid rotation is not folded: a served answer belongs to the exact
  // coordinates it was computed for.
  const core::Mat3 rot = sym::rotation({0.267, 0.535, 0.802}, 0.83);
  data::StructureSample rotated = a;
  for (core::Vec3& p : rotated.positions) p = matvec(rot, p);
  EXPECT_NE(sym::canonical_structure_hash(rotated), h);
}

// --- ResponseCache ----------------------------------------------------------

tasks::Prediction prediction_of(float v) {
  tasks::Prediction p;
  p.value = v;
  return p;
}

TEST(ResponseCache, LruEvictionKeepsRecentlyTouchedEntries) {
  ResponseCacheOptions opts;
  opts.capacity = 2;
  ResponseCache cache(opts);
  const CounterDeltas counted;

  cache.insert("a", prediction_of(1.0f));
  cache.insert("b", prediction_of(2.0f));
  ASSERT_TRUE(cache.lookup("a").has_value());  // refreshes "a"
  cache.insert("c", prediction_of(3.0f));      // evicts LRU = "b"

  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());

  EXPECT_EQ(counted("serve.cache.evict"), 1);
  EXPECT_EQ(counted("serve.cache.hit"), 3);
  EXPECT_EQ(counted("serve.cache.miss"), 1);
  EXPECT_EQ(obs::MetricsRegistry::global().gauge("serve.cache.size").value(),
            2.0);
}

TEST(ResponseCache, KeyFoldsStructureTargetAndVersion) {
  ResponseCache cache;
  const auto pool = sample_pool(2, 21);
  const std::string k = cache.make_key(pool[0], "band_gap", 1);
  EXPECT_EQ(cache.make_key(pool[0], "band_gap", 1), k);
  EXPECT_NE(cache.make_key(pool[1], "band_gap", 1), k);
  EXPECT_NE(cache.make_key(pool[0], "efermi", 1), k);
  // A hot-swap bumps the version, so stale answers stop matching.
  EXPECT_NE(cache.make_key(pool[0], "band_gap", 2), k);
}

TEST(ResponseCache, ZeroCapacityDisablesCaching) {
  ResponseCacheOptions opts;
  opts.capacity = 0;
  ResponseCache cache(opts);
  cache.insert("a", prediction_of(1.0f));
  EXPECT_FALSE(cache.lookup("a").has_value());
}

// --- AdmissionController ----------------------------------------------------

TEST(AdmissionController, ShedsLeastUrgentClassesFirst) {
  AdmissionOptions opts;
  opts.initial_service_us = 1000.0;
  AdmissionController ctl(opts, /*queue_capacity=*/10, /*num_workers=*/1);

  // depth 6: batch share floor(0.6*10)=6 is exhausted, standard
  // (floor 8) and interactive (10) still admit.
  EXPECT_TRUE(ctl.decide(Priority::kInteractive, 6, 0).admitted());
  EXPECT_TRUE(ctl.decide(Priority::kStandard, 6, 0).admitted());
  const AdmissionDecision bulk = ctl.decide(Priority::kBatch, 6, 0);
  EXPECT_EQ(bulk.outcome, AdmissionOutcome::kQueueFull);
  EXPECT_GE(bulk.retry_after_us, opts.min_retry_after_us);

  // depth 8: standard sheds too; interactive holds until the hard cap.
  EXPECT_EQ(ctl.decide(Priority::kStandard, 8, 0).outcome,
            AdmissionOutcome::kQueueFull);
  EXPECT_TRUE(ctl.decide(Priority::kInteractive, 9, 0).admitted());
  EXPECT_EQ(ctl.decide(Priority::kInteractive, 10, 0).outcome,
            AdmissionOutcome::kQueueFull);
}

TEST(AdmissionController, ShedsInfeasibleDeadlinesUpFront) {
  AdmissionOptions opts;
  opts.initial_service_us = 1000.0;
  AdmissionController ctl(opts, /*queue_capacity=*/100, /*num_workers=*/1);

  // Predicted wait at depth 5 is ~5000 µs: a 1 ms budget is dead on
  // arrival, a 10 ms budget is feasible.
  const AdmissionDecision dead = ctl.decide(Priority::kInteractive, 5, 1000);
  EXPECT_EQ(dead.outcome, AdmissionOutcome::kDeadlineInfeasible);
  EXPECT_GE(dead.retry_after_us, opts.min_retry_after_us);
  EXPECT_TRUE(ctl.decide(Priority::kInteractive, 5, 10'000).admitted());
}

TEST(AdmissionController, ServiceEstimateTracksObservations) {
  AdmissionOptions opts;
  opts.initial_service_us = 1000.0;
  opts.ewma_alpha = 0.5;
  AdmissionController ctl(opts, 10, 2);
  // First observation seeds the EWMA outright.
  ctl.observe_service(4000.0);
  EXPECT_NEAR(ctl.service_estimate_us(), 4000.0, 1e-9);
  ctl.observe_service(2000.0);
  EXPECT_NEAR(ctl.service_estimate_us(), 3000.0, 1e-9);
  // Wait scales with depth and divides across workers.
  EXPECT_NEAR(ctl.estimated_wait_us(4), 4 * 3000.0 / 2, 1e-9);
}

// --- ModelRegistry ----------------------------------------------------------

TEST(ModelRegistry, DeployResolveRetire) {
  ModelRegistry registry;
  EXPECT_EQ(registry.resolve("m"), nullptr);
  EXPECT_EQ(registry.active_version("m"), 0u);

  auto task = make_task(31);
  registry.deploy("m", 1, make_session(task), {});
  auto entry = registry.resolve("m");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version(), 1u);
  EXPECT_EQ(registry.active_version("m"), 1u);
  EXPECT_EQ(registry.models(), std::vector<std::string>{"m"});

  registry.retire("m");
  EXPECT_EQ(registry.resolve("m"), nullptr);
}

TEST(ModelRegistry, RejectsNonMonotonicVersions) {
  ModelRegistry registry;
  auto task = make_task(32);
  registry.deploy("m", 3, make_session(task), {});
  EXPECT_THROW(registry.deploy("m", 3, make_session(task), {}),
               matsci::Error);
  EXPECT_THROW(registry.deploy("m", 2, make_session(task), {}),
               matsci::Error);
  EXPECT_EQ(registry.active_version("m"), 3u);
}

TEST(ModelRegistry, HotSwapDrainsDisplacedVersion) {
  ModelRegistry registry;
  auto task = make_task(33);
  const auto pool = sample_pool(4, 34);
  const CounterDeltas counted;

  SchedulerOptions opts;
  opts.max_batch_size = 8;
  opts.max_wait_us = 5'000'000;  // long window: the drain must cut it
  opts.num_workers = 1;
  auto v1 = registry.deploy("m", 1, make_session(task), opts);

  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 6; ++i) {
    PushResult r = v1->scheduler().try_submit(
        pool[static_cast<std::size_t>(i) % pool.size()], "band_gap");
    ASSERT_EQ(r.status, PushStatus::kAccepted);
    futures.push_back(std::move(r.future));
  }
  // deploy(v2) publishes v2, then blocks until v1 has served everything
  // it accepted.
  registry.deploy("m", 2, make_session(task), opts);
  EXPECT_EQ(registry.active_version("m"), 2u);
  EXPECT_EQ(counted("serve.registry.swaps"), 1);
  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
  // The displaced scheduler no longer accepts work.
  EXPECT_EQ(v1->scheduler().try_submit(pool[0], "band_gap").status,
            PushStatus::kShutdown);
}

// --- ServeFrontend ----------------------------------------------------------

TEST(ServeFrontend, UnknownModelIsAnExplicitStatus) {
  ServeFrontend frontend;
  const auto pool = sample_pool(1, 41);
  SubmitOutcome out = frontend.submit("nope", pool[0], "band_gap");
  EXPECT_EQ(out.status, SubmitStatus::kNoSuchModel);
  EXPECT_FALSE(out.ok());
}

TEST(ServeFrontend, CacheHitIsBitExactAndSkipsTheQueue) {
  ServeFrontend frontend;
  auto task = make_task(42);
  frontend.deploy("m", 1, make_session(task), {});
  const auto pool = sample_pool(2, 43);
  const CounterDeltas counted;

  SubmitOutcome first = frontend.submit("m", pool[0], "band_gap");
  ASSERT_EQ(first.status, SubmitStatus::kAccepted);
  const float served = first.future.get().prediction.value;

  // Same structure again: answered from the cache, bit-exact, no batch.
  SubmitOutcome second = frontend.submit("m", pool[0], "band_gap");
  ASSERT_EQ(second.status, SubmitStatus::kCacheHit);
  PredictResult cached = second.future.get();
  EXPECT_EQ(cached.prediction.value, served);
  EXPECT_EQ(cached.batch_size, 0);

  // A translated copy canonicalizes to the same key.
  data::StructureSample translated = pool[0];
  for (core::Vec3& p : translated.positions) p += core::Vec3{1.5, 0.5, -2.0};
  SubmitOutcome third = frontend.submit("m", translated, "band_gap");
  EXPECT_EQ(third.status, SubmitStatus::kCacheHit);

  // A different structure misses.
  SubmitOutcome fourth = frontend.submit("m", pool[1], "band_gap");
  EXPECT_EQ(fourth.status, SubmitStatus::kAccepted);
  fourth.future.get();

  EXPECT_EQ(counted("serve.cache.hit"), 2);
  EXPECT_EQ(counted("serve.frontend.admitted"), 2);
}

TEST(ServeFrontend, BypassingTheCacheStillServes) {
  ServeFrontend frontend;
  auto task = make_task(44);
  frontend.deploy("m", 1, make_session(task), {});
  const auto pool = sample_pool(1, 45);
  const CounterDeltas counted;

  FrontendRequestOptions ropts;
  ropts.use_cache = false;
  SubmitOutcome a = frontend.submit("m", pool[0], "band_gap", ropts);
  SubmitOutcome b = frontend.submit("m", pool[0], "band_gap", ropts);
  ASSERT_EQ(a.status, SubmitStatus::kAccepted);
  ASSERT_EQ(b.status, SubmitStatus::kAccepted);
  EXPECT_EQ(a.future.get().prediction.value, b.future.get().prediction.value);
  EXPECT_EQ(counted("serve.cache.hit"), 0);
}

TEST(ServeFrontend, OverloadShedsWithRetryAfterInsteadOfQueueing) {
  ServeFrontend frontend;
  auto slow = std::make_shared<SlowEchoTask>(std::chrono::milliseconds(20));
  frontend.deploy("m", 1, make_session(slow),
                  slow_scheduler_options(/*queue_capacity=*/4));
  const auto pool = sample_pool(2, 46);
  const CounterDeltas counted;

  // Burst far beyond capacity: submits are microseconds apart while
  // each forward takes 20 ms, so the bounded queue must shed.
  std::vector<std::future<PredictResult>> accepted;
  std::int64_t shed = 0;
  double max_retry_after = 0.0;
  FrontendRequestOptions ropts;
  ropts.use_cache = false;
  for (int i = 0; i < 40; ++i) {
    SubmitOutcome out = frontend.submit(
        "m", pool[static_cast<std::size_t>(i) % pool.size()], "echo", ropts);
    if (out.ok()) {
      accepted.push_back(std::move(out.future));
    } else {
      EXPECT_TRUE(out.shed());
      EXPECT_GE(out.retry_after_us, 1.0);
      max_retry_after = std::max(max_retry_after, out.retry_after_us);
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_GT(max_retry_after, 0.0);
  for (auto& f : accepted) {
    EXPECT_NO_THROW(f.get());  // everything admitted is served
  }
  EXPECT_EQ(counted("serve.frontend.shed_full"), shed);
  frontend.retire("m");
}

TEST(ServeFrontend, InteractiveClassOutlivesBatchUnderPressure) {
  ServeFrontend frontend;
  auto slow = std::make_shared<SlowEchoTask>(std::chrono::milliseconds(30));
  frontend.deploy("m", 1, make_session(slow),
                  slow_scheduler_options(/*queue_capacity=*/4));
  const auto pool = sample_pool(1, 47);

  // Fill until the batch class sheds (its share is floor(0.6*4)=2).
  FrontendRequestOptions bulk;
  bulk.priority = Priority::kBatch;
  bulk.use_cache = false;
  std::vector<std::future<PredictResult>> futures;
  SubmitOutcome out;
  int guard = 0;
  do {
    out = frontend.submit("m", pool[0], "echo", bulk);
    if (out.ok()) futures.push_back(std::move(out.future));
    ASSERT_LT(++guard, 64);
  } while (out.status != SubmitStatus::kShedQueueFull);

  // Batch traffic is saturated — interactive still gets in.
  FrontendRequestOptions urgent;
  urgent.priority = Priority::kInteractive;
  urgent.use_cache = false;
  SubmitOutcome vip = frontend.submit("m", pool[0], "echo", urgent);
  EXPECT_EQ(vip.status, SubmitStatus::kAccepted);
  futures.push_back(std::move(vip.future));

  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
  frontend.retire("m");
}

TEST(ServeFrontend, InfeasibleDeadlineShedsUpFront) {
  ServeFrontend frontend;
  auto slow = std::make_shared<SlowEchoTask>(std::chrono::milliseconds(30));
  // Large queue: depth shedding stays out of the way.
  frontend.deploy("m", 1, make_session(slow),
                  slow_scheduler_options(/*queue_capacity=*/64));
  const auto pool = sample_pool(1, 48);
  const CounterDeltas counted;

  FrontendRequestOptions ropts;
  ropts.use_cache = false;
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 6; ++i) {
    SubmitOutcome out = frontend.submit("m", pool[0], "echo", ropts);
    ASSERT_EQ(out.status, SubmitStatus::kAccepted);
    futures.push_back(std::move(out.future));
  }
  // With several 30 ms forwards queued, a 1 µs budget is infeasible.
  FrontendRequestOptions tight = ropts;
  tight.deadline_us = 1;
  SubmitOutcome dead = frontend.submit("m", pool[0], "echo", tight);
  EXPECT_EQ(dead.status, SubmitStatus::kShedDeadline);
  EXPECT_GT(dead.retry_after_us, 0.0);
  EXPECT_EQ(counted("serve.frontend.shed_deadline"), 1);
  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
  frontend.retire("m");
}

TEST(ServeFrontend, HotSwapUnderLoadLosesNoInFlightRequests) {
  ServeFrontend frontend;
  auto task = make_task(51);
  const auto pool = sample_pool(6, 52);
  const CounterDeltas counted;

  // Bit-exactness references from direct single-structure forwards.
  auto reference_session = make_session(task);
  std::vector<float> reference;
  for (const auto& s : pool) {
    reference.push_back(
        reference_session->predict({s}, "band_gap")[0].value);
  }

  SchedulerOptions opts;
  opts.max_batch_size = 8;
  opts.max_wait_us = 500;
  opts.num_workers = 2;
  frontend.deploy("m", 1, make_session(task), opts);
  // Built before any forward runs: the session constructor switches the
  // shared task to eval mode, a write that must not race v1's forwards.
  const std::shared_ptr<InferenceSession> v2 = make_session(task);

  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::atomic<int> lost{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> not_admitted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      FrontendRequestOptions ropts;
      ropts.use_cache = false;  // force every request through a forward
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t idx =
            static_cast<std::size_t>(c * kPerClient + i) % pool.size();
        SubmitOutcome out =
            frontend.submit("m", pool[idx], "band_gap", ropts);
        if (!out.ok()) {
          ++not_admitted;  // unbounded queue: must never happen
          continue;
        }
        try {
          PredictResult r = out.future.get();
          if (r.prediction.value != reference[idx]) ++mismatches;
        } catch (...) {
          ++lost;
        }
      }
    });
  }
  // Swap to v2 (same weights) while the clients are mid-flight: v1
  // drains, v2 takes over, and nobody loses a request or sees a
  // different answer.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  frontend.deploy("m", 2, v2, opts);
  for (auto& t : clients) t.join();

  EXPECT_EQ(lost.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(not_admitted.load(), 0);
  EXPECT_EQ(frontend.registry().active_version("m"), 2u);
  EXPECT_EQ(counted("serve.registry.swaps"), 1);
  EXPECT_EQ(counted("serve.frontend.admitted"), kClients * kPerClient);
}

TEST(ServeFrontend, ExportsServeSeriesThroughObsRegistry) {
  ServeFrontend frontend;
  auto task = make_task(53);
  frontend.deploy("m", 1, make_session(task), {});
  const auto pool = sample_pool(1, 54);
  frontend.submit("m", pool[0], "band_gap").future.get();
  frontend.submit("m", pool[0], "band_gap").future.get();  // cache hit

  const obs::MetricsRegistry::Snapshot snap =
      obs::MetricsRegistry::global().snapshot();
  for (const char* counter :
       {"serve.frontend.admitted", "serve.frontend.shed_full",
        "serve.frontend.shed_deadline", "serve.cache.hit",
        "serve.cache.miss", "serve.cache.evict", "serve.registry.deploys",
        "serve.registry.swaps", "serve.requests", "serve.deadline_drops"}) {
    EXPECT_TRUE(snap.counters.count(counter) == 1)
        << "missing counter " << counter;
  }
  for (const char* gauge :
       {"serve.cache.size", "serve.queue_depth"}) {
    EXPECT_TRUE(snap.gauges.count(gauge) == 1) << "missing gauge " << gauge;
  }
  EXPECT_TRUE(snap.histograms.count("serve.frontend.retry_after_us") == 1);
  EXPECT_GE(snap.counters.at("serve.frontend.admitted"), 1);
  EXPECT_GE(snap.counters.at("serve.cache.hit"), 1);
}

TEST(ServeFrontend, MdFramesMustBypassTheCache) {
  // Regression for the ML-potential MD path (src/sim): canonical
  // hashing quantizes coordinates on a 1e-4 Å grid, so two frames of a
  // continuously-evolving trajectory that differ by less than ~grid/2
  // collide onto one cache key — a cached-energy reply would feed the
  // integrator stale forces. Sim traffic therefore submits with
  // use_cache = false; this test pins both the collision and the
  // bypass.
  ServeFrontend fe;
  fe.deploy("pot", 1, make_session(make_task(21)));
  const CounterDeltas counted;

  data::StructureSample frame = sample_pool(1, 77)[0];
  data::StructureSample next_frame = frame;
  next_frame.positions[0].x += 2e-5;  // one MD step's worth of motion

  // The two frames are physically different but hash identically.
  EXPECT_EQ(sym::canonical_structure_hash(frame),
            sym::canonical_structure_hash(next_frame));

  auto first = fe.submit("pot", frame, "band_gap");
  ASSERT_EQ(first.status, SubmitStatus::kAccepted);
  first.future.get();

  // A cached client would be handed frame-1's answer for frame-2.
  auto stale = fe.submit("pot", next_frame, "band_gap");
  EXPECT_EQ(stale.status, SubmitStatus::kCacheHit);

  // The sim backend's bypass: always recomputed, never a cache hit.
  FrontendRequestOptions bypass;
  bypass.use_cache = false;
  auto fresh = fe.submit("pot", next_frame, "band_gap", bypass);
  EXPECT_EQ(fresh.status, SubmitStatus::kAccepted);
  fresh.future.get();
  EXPECT_EQ(counted("serve.cache.hit"), 1);
}

}  // namespace
}  // namespace matsci::serve::frontend
