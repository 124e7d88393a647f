#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/parallel/thread_pool.hpp"
#include "serve/queue.hpp"
#include "serve/session.hpp"

namespace matsci::serve {

struct SchedulerOptions {
  /// Flush a micro-batch once it holds this many requests...
  std::int64_t max_batch_size = 32;
  /// ...or once its anchor request has waited this long (or its SLO
  /// deadline is up), whichever first.
  std::int64_t max_wait_us = 2000;
  /// Concurrent batch jobs on the shared pool;
  /// 0 = core::parallel::ThreadPool::global().size() (which honors
  /// MATSCI_NUM_THREADS).
  std::int64_t num_workers = 0;
  /// Bound on queued-but-undispatched requests: beyond it try_submit()
  /// reports kQueueFull, so overload turns into shed traffic instead of
  /// unbounded queue growth.
  /// 0 = unbounded (the seed behavior).
  std::int64_t queue_capacity = 0;
  /// Invoked on the dispatch job once per request right before its
  /// future resolves — the frontend populates its response cache and
  /// its service-time estimate here. Keep it cheap; exceptions are
  /// swallowed (a broken observer must not break serving).
  std::function<void(const PredictRequest&, const PredictResult&)> on_result;
};

/// Per-request scheduling knobs for try_submit.
struct SubmitOptions {
  Priority priority = Priority::kStandard;
  /// Dispatch-deadline budget from submit time, microseconds; a request
  /// still queued when it expires is shed with ShedError. 0 = none.
  std::int64_t deadline_us = 0;
  /// Opaque annotation passed through to on_result (cache key).
  std::string cache_key;
  /// Request-tracing context (minted by the frontend at admission);
  /// copied into the queued PredictRequest so queue-wait, batch, and
  /// forward spans all carry the request's trace id.
  obs::TraceContext trace;
};

/// The serving engine: batch jobs on the process-wide
/// core::parallel::ThreadPool that drain the RequestQueue in
/// micro-batches, run them through a shared InferenceSession, and fan
/// each result back out to the client's future. Clients block only on
/// their own future; batch jobs never block on clients.
///
/// The scheduler owns no threads of its own — it submits `num_workers`
/// long-running dispatch jobs to the shared pool, occupying that many
/// pool slots while live. Kernels inside a batch job's forward pass hit
/// the pool's nesting guard and run inline, so concurrency comes from
/// batch-level parallelism and total threading never exceeds the pool
/// size (no N×N oversubscription against parallel kernels).
///
/// Lifecycle: dispatch jobs start in the constructor; shutdown() (or
/// the destructor) stops intake, drains every queued request, and
/// reclaims the jobs — a dispatch job that never got a pool slot is run
/// inline by the shutting-down thread, so shutdown cannot deadlock on a
/// busy pool and no request that got a future is ever dropped. If a
/// forward pass throws, every request in that micro-batch receives the
/// exception through its future and the job keeps serving.
class BatchScheduler {
 public:
  explicit BatchScheduler(std::shared_ptr<InferenceSession> session,
                          SchedulerOptions opts = {});
  ~BatchScheduler();
  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueue one structure for prediction of `target` with per-request
  /// priority/deadline; overload and shutdown come back as statuses
  /// (the frontend sheds on kQueueFull and re-resolves the registry on
  /// kShutdown).
  PushResult try_submit(data::StructureSample structure, std::string target,
                        SubmitOptions sopts = {});

  /// Stop accepting requests, serve everything still queued, reclaim
  /// the dispatch jobs from the pool. Idempotent.
  void shutdown();

  /// Queued-but-undispatched requests right now (admission input).
  std::int64_t queue_depth() const {
    return static_cast<std::int64_t>(queue_.size());
  }
  std::int64_t num_workers() const {
    return static_cast<std::int64_t>(dispatchers_.size());
  }
  const SchedulerOptions& options() const { return opts_; }

 private:
  void dispatch_loop();
  void serve_batch(std::vector<PendingRequest>& batch);

  std::shared_ptr<InferenceSession> session_;
  SchedulerOptions opts_;
  RequestQueue queue_;
  std::vector<core::parallel::TaskHandle> dispatchers_;
  std::mutex shutdown_mu_;
};

}  // namespace matsci::serve
