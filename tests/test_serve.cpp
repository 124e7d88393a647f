// Tests for the inference-serving subsystem: micro-batching flush
// policy, batched-vs-single bit-exactness, concurrent correctness,
// shutdown drain, checkpoint loading, and per-request head selection.
// These live in their own binary (ctest label `serve`) so they can run
// under TSan via -DMATSCI_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/macros.hpp"
#include "materials/materials_project.hpp"
#include "models/egnn.hpp"
#include "obs/metrics.hpp"
#include "optim/adam.hpp"
#include "serve/serve.hpp"
#include "tasks/multitask.hpp"
#include "tasks/regression.hpp"
#include "train/checkpoint.hpp"

namespace matsci::serve {
namespace {

using core::RngEngine;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

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
  cfg.dropout = 0.2f;  // non-zero on purpose: eval mode must silence it
  return cfg;
}

/// Band-gap regression task on the simulated Materials Project profile.
std::shared_ptr<tasks::ScalarRegressionTask> make_task(std::uint64_t seed) {
  RngEngine rng(seed);
  auto encoder =
      std::make_shared<models::EGNN>(tiny_encoder_config(), rng);
  return std::make_shared<tasks::ScalarRegressionTask>(
      encoder, "band_gap", tiny_head_config(), rng,
      data::TargetStats{2.0f, 1.5f});
}

InferenceSessionOptions session_options() {
  InferenceSessionOptions opts;
  opts.collate.radius.cutoff = 4.5;
  return opts;
}

std::vector<data::StructureSample> sample_pool(std::int64_t n,
                                               std::uint64_t seed) {
  materials::MaterialsProjectDataset ds(n, seed);
  std::vector<data::StructureSample> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) pool.push_back(ds.get(i));
  return pool;
}

// --- RequestQueue flush policy ----------------------------------------------

PredictRequest make_request(const data::StructureSample& s,
                            const std::string& target) {
  PredictRequest r;
  r.structure = s;
  r.target = target;
  return r;
}

/// The serving counters in the global registry: the scheduler's
/// requests and batches and the queue's deadline drops. Tests take one
/// before driving traffic and subtract it once the queue is drained.
struct RegistryCounts {
  std::int64_t requests =
      obs::MetricsRegistry::global().counter("serve.requests").value();
  std::int64_t batches =
      obs::MetricsRegistry::global().counter("serve.batches").value();
  std::int64_t deadline_drops =
      obs::MetricsRegistry::global().counter("serve.deadline_drops").value();

  RegistryCounts operator-(const RegistryCounts& o) const {
    RegistryCounts d = *this;
    d.requests -= o.requests;
    d.batches -= o.batches;
    d.deadline_drops -= o.deadline_drops;
    return d;
  }
};

/// Enqueue a request the queue is expected to accept.
std::future<PredictResult> push_accepted(RequestQueue& queue,
                                         PredictRequest request) {
  PushResult r = queue.try_push(std::move(request));
  EXPECT_EQ(r.status, PushStatus::kAccepted);
  return std::move(r.future);
}

TEST(RequestQueue, FlushesImmediatelyAtMaxBatchSize) {
  const auto pool = sample_pool(4, 11);
  RequestQueue queue;
  std::vector<std::future<PredictResult>> futures;
  for (const auto& s : pool) {
    futures.push_back(push_accepted(queue, make_request(s, "band_gap")));
  }
  const auto t0 = std::chrono::steady_clock::now();
  // A full batch must not wait out the 1-second deadline.
  auto batch = queue.pop_batch(4, 1'000'000);
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(ms, 200.0);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueue, FlushesOnDeadlineWithPartialBatch) {
  const auto pool = sample_pool(2, 12);
  RequestQueue queue;
  push_accepted(queue, make_request(pool[0], "band_gap"));
  push_accepted(queue, make_request(pool[1], "band_gap"));
  auto batch = queue.pop_batch(8, /*max_wait_us=*/20'000);
  EXPECT_EQ(batch.size(), 2u);  // deadline flush, not a hang
}

TEST(RequestQueue, BatchesAreSingleTarget) {
  const auto pool = sample_pool(4, 13);
  RequestQueue queue;
  push_accepted(queue, make_request(pool[0], "band_gap"));
  push_accepted(queue, make_request(pool[1], "efermi"));
  push_accepted(queue, make_request(pool[2], "band_gap"));
  push_accepted(queue, make_request(pool[3], "efermi"));

  auto first = queue.pop_batch(8, 10'000);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].request.target, "band_gap");
  EXPECT_EQ(first[1].request.target, "band_gap");

  auto second = queue.pop_batch(8, 10'000);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].request.target, "efermi");
  EXPECT_EQ(second[1].request.target, "efermi");
}

TEST(RequestQueue, FullQueueRejectsAtCapacity) {
  const auto pool = sample_pool(3, 15);
  RequestQueue queue(/*capacity=*/2);
  EXPECT_EQ(queue.capacity(), 2u);
  auto f1 = push_accepted(queue, make_request(pool[0], "band_gap"));
  auto f2 = push_accepted(queue, make_request(pool[1], "band_gap"));

  // Third request: reported as kQueueFull, never queued.
  PushResult r = queue.try_push(make_request(pool[2], "band_gap"));
  EXPECT_EQ(r.status, PushStatus::kQueueFull);
  EXPECT_FALSE(r.future.valid());
  EXPECT_EQ(queue.size(), 2u);

  // Popping frees capacity for new arrivals.
  auto batch = queue.pop_batch(8, 0);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(queue.try_push(make_request(pool[2], "band_gap")).status,
            PushStatus::kAccepted);
}

TEST(RequestQueue, ZeroMaxWaitFlushesImmediately) {
  const auto pool = sample_pool(2, 16);
  RequestQueue queue;
  push_accepted(queue, make_request(pool[0], "band_gap"));
  push_accepted(queue, make_request(pool[1], "band_gap"));
  const auto t0 = std::chrono::steady_clock::now();
  // max_wait_us = 0: no coalescing window — take what matches right now.
  auto batch = queue.pop_batch(8, 0);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_LT(ms, 150.0);
}

TEST(RequestQueue, ShutdownDrainsQueuedButUnbatchedRequests) {
  const auto pool = sample_pool(5, 17);
  RequestQueue queue;
  for (int i = 0; i < 3; ++i) {
    push_accepted(queue,
                  make_request(pool[static_cast<std::size_t>(i)], "band_gap"));
  }
  push_accepted(queue, make_request(pool[3], "efermi"));
  push_accepted(queue, make_request(pool[4], "efermi"));
  queue.shutdown();

  // Everything accepted before shutdown keeps flowing out, one
  // homogeneous batch per pop, then the drained-empty exit signal.
  auto first = queue.pop_batch(8, 1'000'000);
  EXPECT_EQ(first.size(), 3u);
  auto second = queue.pop_batch(8, 1'000'000);
  EXPECT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].request.target, "efermi");
  EXPECT_TRUE(queue.pop_batch(8, 1'000'000).empty());
}

TEST(RequestQueue, InteractiveAnchorPreemptsOlderBatchTraffic) {
  const auto pool = sample_pool(3, 18);
  RequestQueue queue;
  PredictRequest bulk = make_request(pool[0], "efermi");
  bulk.priority = Priority::kBatch;
  push_accepted(queue, std::move(bulk));
  PredictRequest urgent = make_request(pool[1], "band_gap");
  urgent.priority = Priority::kInteractive;
  push_accepted(queue, std::move(urgent));

  // The anchor is the most urgent queued request, not the oldest: the
  // interactive band_gap request dispatches ahead of the earlier bulk
  // efermi request.
  auto first = queue.pop_batch(8, 0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].request.target, "band_gap");
  auto second = queue.pop_batch(8, 0);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].request.target, "efermi");
}

TEST(RequestQueue, ExpiredRequestsAreShedOnPop) {
  const auto pool = sample_pool(2, 19);
  RequestQueue queue;
  PredictRequest stale = make_request(pool[0], "band_gap");
  stale.deadline = std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1);  // already expired
  auto stale_future = push_accepted(queue, std::move(stale));
  auto fresh_future =
      push_accepted(queue, make_request(pool[1], "band_gap"));

  const RegistryCounts before;
  auto batch = queue.pop_batch(8, 0);
  ASSERT_EQ(batch.size(), 1u);  // only the fresh request dispatches
  EXPECT_EQ((RegistryCounts() - before).deadline_drops, 1);
  EXPECT_THROW(stale_future.get(), ShedError);
  batch[0].promise.set_value({});
  EXPECT_NO_THROW(fresh_future.get());
}

TEST(RequestQueue, ExpiredRequestIsShedInsteadOfJoiningFormingBatch) {
  const auto pool = sample_pool(2, 20);
  RequestQueue queue;
  auto anchor_future =
      push_accepted(queue, make_request(pool[0], "band_gap"));
  const RegistryCounts before;
  std::vector<PendingRequest> batch;
  std::thread popper(
      [&] { batch = queue.pop_batch(8, /*max_wait_us=*/200'000); });
  // The anchor leaves the queue under the lock the popper holds until
  // it waits out its window, so an empty queue means it is waiting.
  while (queue.size() != 0) std::this_thread::yield();
  PredictRequest late = make_request(pool[1], "band_gap");
  late.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);  // already expired
  auto late_future = push_accepted(queue, std::move(late));
  popper.join();

  for (PendingRequest& p : batch) p.promise.set_value({});
  EXPECT_EQ(batch.size(), 1u);  // only the anchor dispatches
  EXPECT_EQ((RegistryCounts() - before).deadline_drops, 1);
  EXPECT_THROW(late_future.get(), ShedError);
  EXPECT_NO_THROW(anchor_future.get());
}

TEST(RequestQueue, PushAfterShutdownReportsShutdown) {
  const auto pool = sample_pool(1, 14);
  RequestQueue queue;
  queue.shutdown();
  EXPECT_TRUE(queue.is_shutdown());
  PushResult r = queue.try_push(make_request(pool[0], "band_gap"));
  EXPECT_EQ(r.status, PushStatus::kShutdown);
  EXPECT_FALSE(r.future.valid());
  EXPECT_TRUE(queue.pop_batch(4, 1000).empty());
}

// --- InferenceSession -------------------------------------------------------

TEST(InferenceSession, SingleEqualsBatchedBitExact) {
  auto session =
      std::make_shared<InferenceSession>(make_task(31), session_options());
  const auto pool = sample_pool(6, 32);

  // One forward over the whole pool...
  const auto batched = session->predict(pool, "band_gap");
  ASSERT_EQ(batched.size(), pool.size());
  // ...must agree bit-for-bit with six single-structure forwards:
  // per-graph compute in the batched-CSR path is independent, so the
  // float summation order per graph is identical.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto single = session->predict({pool[i]}, "band_gap");
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].value, batched[i].value) << "structure " << i;
    ASSERT_EQ(single[0].scores.size(), batched[i].scores.size());
    for (std::size_t j = 0; j < single[0].scores.size(); ++j) {
      EXPECT_EQ(single[0].scores[j], batched[i].scores[j]);
    }
  }
}

TEST(InferenceSession, RepeatCallsAreDeterministic) {
  // Dropout (p=0.2 in the head) must be inert in eval mode — identical
  // outputs across calls, no RNG advance.
  auto session =
      std::make_shared<InferenceSession>(make_task(33), session_options());
  const auto pool = sample_pool(3, 34);
  const auto a = session->predict(pool, "band_gap");
  const auto b = session->predict(pool, "band_gap");
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(InferenceSession, LeavesNoTapeAndRejectsUnknownTarget) {
  auto task = make_task(35);
  InferenceSession session(task, session_options());
  const auto pool = sample_pool(2, 36);
  const auto preds = session.predict(pool, "band_gap");
  ASSERT_EQ(preds.size(), 2u);
  for (const core::Tensor& p : task->parameters()) {
    EXPECT_EQ(p.impl()->grad_fn, nullptr);
  }
  EXPECT_THROW(session.predict(pool, "no_such_target"), matsci::Error);
}

TEST(InferenceSession, LoadsTrainingCheckpointWeights) {
  auto trained = make_task(41);
  optim::Adam opt = optim::make_adamw(trained->parameters(), 1e-3);
  const std::string path = temp_path("matsci_serve_ckpt.msck");
  train::save_training_checkpoint(path, *trained, opt, /*epoch=*/3);

  // Fresh task with a different seed: predictions differ until the
  // checkpoint is loaded, then match the trained task bit-exactly.
  auto fresh_task = make_task(99);
  InferenceSession trained_session(trained, session_options());
  InferenceSession fresh_session(fresh_task, session_options());
  const auto pool = sample_pool(3, 42);

  const auto want = trained_session.predict(pool, "band_gap");
  const auto before = fresh_session.predict(pool, "band_gap");
  EXPECT_NE(want[0].value, before[0].value);

  const nn::LoadReport report = fresh_session.load_checkpoint(path);
  EXPECT_GT(report.loaded, 0);
  EXPECT_EQ(report.missing, 0);
  const auto after = fresh_session.predict(pool, "band_gap");
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(after[i].value, want[i].value) << "structure " << i;
  }
  std::remove(path.c_str());
}

// --- BatchScheduler ---------------------------------------------------------

/// Enqueue a structure the scheduler is expected to accept.
std::future<PredictResult> submit_accepted(BatchScheduler& scheduler,
                                           const data::StructureSample& s,
                                           const std::string& target) {
  PushResult r = scheduler.try_submit(s, target);
  EXPECT_EQ(r.status, PushStatus::kAccepted);
  return std::move(r.future);
}


TEST(BatchScheduler, ConcurrentClientsAllReceiveExactResults) {
  auto session =
      std::make_shared<InferenceSession>(make_task(51), session_options());
  const auto pool = sample_pool(8, 52);

  // Reference answers from direct single-structure forwards.
  std::vector<float> reference;
  for (const auto& s : pool) {
    reference.push_back(session->predict({s}, "band_gap")[0].value);
  }

  const RegistryCounts before;
  SchedulerOptions opts;
  opts.max_batch_size = 16;
  opts.max_wait_us = 500;
  opts.num_workers = 4;
  BatchScheduler scheduler(session, opts);

  constexpr int kClients = 6;
  constexpr int kPerClient = 40;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t idx =
            static_cast<std::size_t>(c * kPerClient + i) % pool.size();
        try {
          PredictResult r =
              submit_accepted(scheduler, pool[idx], "band_gap").get();
          if (r.prediction.value != reference[idx]) ++mismatches;
          if (r.batch_size < 1) ++failures;
        } catch (...) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  scheduler.shutdown();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  const RegistryCounts served = RegistryCounts() - before;
  EXPECT_EQ(served.requests, kClients * kPerClient);
  EXPECT_GT(served.batches, 0);
  // Micro-batching engaged: fewer batches than requests.
  EXPECT_LT(served.batches, static_cast<std::int64_t>(kClients * kPerClient));
}

TEST(BatchScheduler, ShutdownDrainsInFlightWithoutDeadlock) {
  auto session =
      std::make_shared<InferenceSession>(make_task(61), session_options());
  const auto pool = sample_pool(4, 62);

  SchedulerOptions opts;
  opts.max_batch_size = 8;
  // A long flush window: shutdown must cut it short, not wait it out.
  opts.max_wait_us = 5'000'000;
  opts.num_workers = 2;

  std::vector<std::future<PredictResult>> futures;
  {
    BatchScheduler scheduler(session, opts);
    for (int i = 0; i < 12; ++i) {
      futures.push_back(submit_accepted(
          scheduler, pool[static_cast<std::size_t>(i) % pool.size()],
          "band_gap"));
    }
    scheduler.shutdown();  // destructor would do the same
  }
  // Every queued request was served, none dropped.
  for (auto& f : futures) {
    EXPECT_NO_THROW({
      PredictResult r = f.get();
      EXPECT_GE(r.batch_size, 1);
    });
  }
}

TEST(BatchScheduler, BoundedQueueShedsBurstsInsteadOfGrowing) {
  auto session =
      std::make_shared<InferenceSession>(make_task(63), session_options());
  const auto pool = sample_pool(4, 64);

  const RegistryCounts before;
  SchedulerOptions opts;
  opts.max_batch_size = 1;  // one forward per request: slowest drain
  opts.max_wait_us = 0;
  opts.num_workers = 1;
  opts.queue_capacity = 2;
  BatchScheduler scheduler(session, opts);

  // A burst far beyond queue capacity: submission is microseconds per
  // request while each forward is milliseconds, so the bounded queue
  // must reject part of the burst instead of growing without bound.
  std::vector<std::future<PredictResult>> accepted;
  std::int64_t shed = 0;
  for (int i = 0; i < 64; ++i) {
    PushResult r = scheduler.try_submit(
        pool[static_cast<std::size_t>(i) % pool.size()], "band_gap");
    if (r.status == PushStatus::kAccepted) {
      accepted.push_back(std::move(r.future));
    } else {
      EXPECT_EQ(r.status, PushStatus::kQueueFull);
      ++shed;
    }
    EXPECT_LE(scheduler.queue_depth(), opts.queue_capacity);
  }
  EXPECT_GT(shed, 0);
  // Every accepted request is served; shed ones never got a future.
  for (auto& f : accepted) {
    EXPECT_NO_THROW(f.get());
  }
  scheduler.shutdown();
  const RegistryCounts served = RegistryCounts() - before;
  EXPECT_EQ(served.requests, static_cast<std::int64_t>(accepted.size()));
  EXPECT_EQ(served.batches, served.requests);  // max_batch_size = 1
}

TEST(BatchScheduler, TrySubmitReportsShutdown) {
  auto session =
      std::make_shared<InferenceSession>(make_task(65), session_options());
  const auto pool = sample_pool(1, 66);
  BatchScheduler scheduler(session, {});
  scheduler.shutdown();
  PushResult r = scheduler.try_submit(pool[0], "band_gap");
  EXPECT_EQ(r.status, PushStatus::kShutdown);
  EXPECT_FALSE(r.future.valid());
}

TEST(BatchScheduler, DeadlineDropsCountOncePerShedRequest) {
  // Several dispatch jobs pop from one queue; each deadline drop must
  // reach serve.deadline_drops exactly once, not once per job.
  auto session =
      std::make_shared<InferenceSession>(make_task(67), session_options());
  const auto pool = sample_pool(4, 68);
  const RegistryCounts before;

  SchedulerOptions opts;
  opts.max_batch_size = 4;
  opts.max_wait_us = 200;
  opts.num_workers = 2;
  BatchScheduler scheduler(session, opts);
  SubmitOptions tight;
  tight.deadline_us = 1;
  std::vector<std::future<PredictResult>> expiring;
  for (int round = 0; round < 20; ++round) {
    // Ten requests that expire almost at once, then four without a
    // deadline. A job must pop after the ten to serve the four, so
    // waiting for the four puts the drops before shutdown's drain,
    // which sheds nothing.
    std::vector<std::future<PredictResult>> plain;
    for (int i = 0; i < 14; ++i) {
      PushResult r = scheduler.try_submit(
          pool[static_cast<std::size_t>(i) % pool.size()], "band_gap",
          i < 10 ? tight : SubmitOptions{});
      ASSERT_EQ(r.status, PushStatus::kAccepted);
      (i < 10 ? expiring : plain).push_back(std::move(r.future));
    }
    for (auto& f : plain) {
      EXPECT_NO_THROW(f.get());
    }
  }
  scheduler.shutdown();

  std::int64_t shed = 0;
  for (auto& f : expiring) {
    try {
      f.get();
    } catch (const ShedError&) {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_EQ((RegistryCounts() - before).deadline_drops, shed);
}

TEST(BatchScheduler, UnknownTargetPropagatesThroughFuture) {
  auto session =
      std::make_shared<InferenceSession>(make_task(71), session_options());
  const auto pool = sample_pool(1, 72);
  SchedulerOptions opts;
  opts.max_batch_size = 4;
  opts.max_wait_us = 200;
  opts.num_workers = 1;
  BatchScheduler scheduler(session, opts);
  auto bad = submit_accepted(scheduler, pool[0], "no_such_target");
  EXPECT_THROW(bad.get(), matsci::Error);
  // The worker survives a poisoned batch and keeps serving.
  auto good = submit_accepted(scheduler, pool[0], "band_gap");
  EXPECT_NO_THROW(good.get());
  scheduler.shutdown();
}

// --- Multi-task head selection ----------------------------------------------

TEST(BatchScheduler, RoutesMixedTargetsToTheRightHeads) {
  RngEngine rng(81);
  auto encoder =
      std::make_shared<models::EGNN>(tiny_encoder_config(), rng);
  auto task = std::make_shared<tasks::MultiTaskModule>(
      encoder, tiny_head_config(), /*seed=*/82);
  task->add_regression(0, "band_gap", {2.0f, 1.5f}, "mp/band_gap");
  task->add_binary_classification(0, "stability", "mp/stability");

  auto session =
      std::make_shared<InferenceSession>(task, session_options());
  const auto pool = sample_pool(6, 83);

  std::vector<float> gap_ref;
  std::vector<std::int64_t> stab_ref;
  for (const auto& s : pool) {
    gap_ref.push_back(session->predict({s}, "mp/band_gap")[0].value);
    stab_ref.push_back(session->predict({s}, "mp/stability")[0].label);
  }

  SchedulerOptions opts;
  opts.max_batch_size = 4;
  opts.max_wait_us = 500;
  opts.num_workers = 2;
  BatchScheduler scheduler(session, opts);

  // Interleave the two targets so micro-batches must split by key.
  std::vector<std::future<PredictResult>> gap_futures, stab_futures;
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      gap_futures.push_back(
          submit_accepted(scheduler, pool[i], "mp/band_gap"));
      stab_futures.push_back(
          submit_accepted(scheduler, pool[i], "mp/stability"));
    }
  }
  for (std::size_t k = 0; k < gap_futures.size(); ++k) {
    const std::size_t i = k % pool.size();
    EXPECT_EQ(gap_futures[k].get().prediction.value, gap_ref[i]);
    EXPECT_EQ(stab_futures[k].get().prediction.label, stab_ref[i]);
  }
  scheduler.shutdown();
}

}  // namespace
}  // namespace matsci::serve
