#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "core/macros.hpp"
#include "data/sample.hpp"
#include "obs/context.hpp"
#include "tasks/task.hpp"

namespace matsci::serve {

/// Scheduling class of a request. Lower value = more urgent: the
/// dispatch anchor is always chosen from the most urgent queued class,
/// and admission control sheds the less urgent classes first under
/// overload (see frontend/admission.hpp).
enum class Priority : std::uint8_t {
  kInteractive = 0,  ///< latency-sensitive online traffic
  kStandard = 1,     ///< default
  kBatch = 2,        ///< bulk / best-effort traffic, first to shed
};
inline constexpr std::size_t kNumPriorities = 3;

/// Thrown through a request's future (or from push) when the serving
/// stack sheds the request instead of serving it: queue at capacity at
/// submit time, or dispatch deadline exceeded while queued. Derives
/// from matsci::Error so generic catch sites keep working; catch it
/// specifically to implement client-side backoff.
class ShedError : public matsci::Error {
 public:
  using matsci::Error::Error;
};

/// One client prediction request: a single structure plus the target
/// (head) it wants evaluated, e.g. "band_gap".
struct PredictRequest {
  data::StructureSample structure;
  std::string target;
  Priority priority = Priority::kStandard;
  /// Absolute dispatch deadline: a request still queued (never handed
  /// to a batch) at this instant is shed with ShedError. max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Opaque annotation carried through to completion callbacks — the
  /// frontend stores its response-cache key here. Empty = uncached.
  std::string cache_key;
  /// Request-tracing context minted at frontend admission and carried
  /// through every serving stage (DESIGN.md §10).
  obs::TraceContext trace;
};

/// What the client's future resolves to.
struct PredictResult {
  tasks::Prediction prediction;
  std::int64_t batch_size = 0;  ///< micro-batch the request was served in
  double latency_us = 0.0;      ///< enqueue -> fulfillment
  double service_us = 0.0;      ///< forward-pass time of the batch alone
};

/// A queued request plus its fulfillment channel and arrival time.
struct PendingRequest {
  PredictRequest request;
  std::promise<PredictResult> promise;
  std::chrono::steady_clock::time_point enqueued;
};

/// Outcome of a non-throwing enqueue attempt.
enum class PushStatus : std::uint8_t {
  kAccepted,   ///< queued; `future` is valid
  kQueueFull,  ///< bounded queue at capacity — shed and retry later
  kShutdown,   ///< queue no longer accepts work
};

struct PushResult {
  PushStatus status = PushStatus::kShutdown;
  std::future<PredictResult> future;  ///< valid iff status == kAccepted
};

/// Thread-safe micro-batching queue. Producers push requests and get
/// futures; consumer workers pop *coalesced* micro-batches.
///
/// Flush policy (pop_batch): the *anchor* — the oldest request of the
/// most urgent queued priority class — fixes the batch key (target,
/// dataset_id; collate requires a homogeneous batch) and the flush
/// deadline: min(anchor.enqueued + max_wait_us, anchor.deadline), so a
/// request with a tight SLO flushes its batch early instead of waiting
/// out the coalescing window. The batch leaves as soon as it holds
/// `max_batch_size` matching requests or the flush deadline passes,
/// whichever comes first. Requests with a different key are left queued
/// for another pop; matching requests of any priority ride along.
///
/// Overload behavior: with a nonzero `capacity`, try_push reports
/// kQueueFull instead of growing without bound (push throws ShedError),
/// and pop_batch sheds requests whose dispatch deadline expired while
/// queued — their futures break with ShedError and deadline_drops()
/// counts them.
///
/// Shutdown semantics: push() throws after shutdown(); pop_batch keeps
/// returning queued work until the queue is drained (every accepted
/// request is served, never dropped) and only then returns an empty
/// batch, which is the worker's exit signal.
class RequestQueue {
 public:
  /// `capacity` bounds the number of queued-but-undispatched requests;
  /// 0 = unbounded (the seed behavior).
  explicit RequestQueue(std::size_t capacity = 0);

  /// Enqueue one request; the returned future resolves when a worker
  /// serves the micro-batch containing it (or breaks with an exception
  /// if the forward pass throws, or with ShedError if the request's
  /// deadline expires while queued). Throws matsci::Error after
  /// shutdown and ShedError when the bounded queue is full.
  std::future<PredictResult> push(PredictRequest request);

  /// Non-throwing enqueue: reports full/shutdown through the status
  /// instead (the admission-control entry point).
  PushResult try_push(PredictRequest request);

  /// Block for the next micro-batch (see class comment for the flush
  /// policy). Empty result == shut down and drained.
  std::vector<PendingRequest> pop_batch(std::int64_t max_batch_size,
                                        std::int64_t max_wait_us);

  /// Stop accepting new requests and wake every waiting worker.
  void shutdown();

  bool is_shutdown() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Requests shed because their deadline expired while queued.
  std::int64_t deadline_drops() const;
  /// try_push/push attempts rejected because the queue was full.
  std::int64_t rejected_full() const;

 private:
  /// Fail the promise of every queued request whose deadline has
  /// passed and remove it. Caller holds the lock.
  void drop_expired_locked(std::chrono::steady_clock::time_point now);

  /// Move every queued request matching `key` into `batch`, up to
  /// `max_batch_size` total. Caller holds the lock.
  void extract_matching_locked(const std::pair<std::string, std::int64_t>& key,
                               std::int64_t max_batch_size,
                               std::vector<PendingRequest>& batch);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> pending_;
  bool shutdown_ = false;
  std::int64_t deadline_drops_ = 0;
  std::int64_t rejected_full_ = 0;
};

}  // namespace matsci::serve
