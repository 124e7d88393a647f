#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/frontend/admission.hpp"
#include "serve/frontend/cache.hpp"
#include "serve/frontend/registry.hpp"

namespace matsci::serve::frontend {

/// Outcome classes of ServeFrontend::submit. Accepted and cache-hit
/// outcomes carry a future; shed outcomes carry a retry-after hint.
enum class SubmitStatus : std::uint8_t {
  kAccepted,      ///< queued on the active version's scheduler
  kCacheHit,      ///< answered from the response cache (future is ready)
  kShedQueueFull, ///< admission rejected: class over its queue share
  kShedDeadline,  ///< admission rejected: SLO infeasible at current depth
  kNoSuchModel,   ///< model name not deployed
};

struct SubmitOutcome {
  SubmitStatus status = SubmitStatus::kNoSuchModel;
  /// Valid for kAccepted and kCacheHit.
  std::future<PredictResult> future;
  /// Backoff hint (µs) for the shed statuses — the graceful
  /// "retry-after" handed to clients instead of a bare rejection.
  double retry_after_us = 0.0;
  /// Version that handled (or rejected) the request; 0 for
  /// kNoSuchModel.
  std::uint64_t version = 0;
  /// The request's trace context, minted at admission — set on EVERY
  /// outcome, including sheds, so a rejected client can quote the
  /// trace id when it retries or files a report.
  obs::TraceContext trace;

  bool ok() const {
    return status == SubmitStatus::kAccepted ||
           status == SubmitStatus::kCacheHit;
  }
  bool shed() const {
    return status == SubmitStatus::kShedQueueFull ||
           status == SubmitStatus::kShedDeadline;
  }
};

/// Per-request options at the frontend boundary.
struct FrontendRequestOptions {
  Priority priority = Priority::kStandard;
  /// End-to-end dispatch budget (µs): admission sheds up front when the
  /// predicted queue wait already exceeds it, and the queue sheds it if
  /// it is still undispatched when it expires. 0 = no deadline.
  std::int64_t deadline_us = 0;
  /// Set false to bypass the response cache for this request (always
  /// recompute; the fresh answer still populates the cache).
  bool use_cache = true;
  /// Optional parent trace context: when valid, the request's context
  /// is minted as its child (same trace id) instead of starting a new
  /// trace — how a sim wave's trace spans its member requests.
  obs::TraceContext parent;
};

/// Monotonic counters for one frontend (also mirrored into the obs
/// registry as serve.frontend.*).
struct FrontendStats {
  std::int64_t admitted = 0;
  std::int64_t cache_hits = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_deadline = 0;
  std::int64_t no_such_model = 0;
  std::int64_t total() const {
    return admitted + cache_hits + shed_queue_full + shed_deadline +
           no_such_model;
  }
  double shed_rate() const {
    const std::int64_t t = total();
    return t == 0 ? 0.0
                  : static_cast<double>(shed_queue_full + shed_deadline) / t;
  }
};

struct FrontendOptions {
  ResponseCacheOptions cache;
  AdmissionOptions admission;
};

/// The production serving frontend (DESIGN.md §8): one object facing
/// the clients of every deployed model. A submit walks
///   cache lookup -> admission decision -> bounded scheduler queue
/// and each stage turns overload into an explicit, bounded outcome
/// instead of queueing collapse: cache hits skip the queue entirely,
/// admission sheds the least urgent classes first with a retry-after
/// hint, and the queue itself is capacity-bounded with deadline drops.
/// Hot-swaps go through deploy(): the registry publishes the new
/// version atomically and drains the old one; a submit racing the swap
/// re-resolves and lands on the new version, so no request that got a
/// future is ever lost.
class ServeFrontend {
 public:
  explicit ServeFrontend(FrontendOptions opts = {});
  ~ServeFrontend();
  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  /// Deploy `version` of `name` (atomic hot-swap when a version is
  /// already live — see ModelRegistry::deploy). The scheduler's
  /// on_result hook is chained to populate the response cache and the
  /// model's admission service-time estimate; the admission controller
  /// persists across versions so its EWMA survives the swap.
  std::shared_ptr<ServingModel> deploy(const std::string& name,
                                       std::uint64_t version,
                                       std::shared_ptr<InferenceSession> session,
                                       SchedulerOptions opts = {});

  /// Submit one structure for prediction of `target` on model `name`.
  /// Never throws for overload — shed outcomes come back as statuses
  /// with a retry-after hint. The returned future (for ok() outcomes)
  /// can still break with ShedError if the request's deadline expires
  /// while queued, or with the forward pass's exception.
  SubmitOutcome submit(const std::string& name,
                       data::StructureSample structure, std::string target,
                       const FrontendRequestOptions& ropts = {});

  /// Retire a model: remove from the registry and drain.
  void retire(const std::string& name) { registry_.retire(name); }

  ModelRegistry& registry() { return registry_; }
  ResponseCache& cache() { return *cache_; }
  /// The admission controller guarding `name` (nullptr when never
  /// deployed).
  std::shared_ptr<AdmissionController> admission(
      const std::string& name) const;

  FrontendStats stats() const;

 private:
  FrontendOptions opts_;
  ModelRegistry registry_;
  std::shared_ptr<ResponseCache> cache_;
  mutable std::mutex admission_mu_;
  std::map<std::string, std::shared_ptr<AdmissionController>> admission_;

  std::atomic<std::int64_t> admitted_{0};
  std::atomic<std::int64_t> cache_hits_{0};
  std::atomic<std::int64_t> shed_queue_full_{0};
  std::atomic<std::int64_t> shed_deadline_{0};
  std::atomic<std::int64_t> no_such_model_{0};
};

}  // namespace matsci::serve::frontend
