#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/scheduler.hpp"
#include "serve/session.hpp"

namespace matsci::serve::frontend {

/// One deployed (model name, version): a loaded InferenceSession plus
/// the BatchScheduler serving it. Constructed by ModelRegistry::deploy;
/// immutable apart from the scheduler's own lifecycle.
class ServingModel {
 public:
  ServingModel(std::string name, std::uint64_t version,
               std::shared_ptr<InferenceSession> session,
               SchedulerOptions opts)
      : name_(std::move(name)),
        version_(version),
        session_(std::move(session)),
        scheduler_(session_, std::move(opts)) {}

  const std::string& name() const { return name_; }
  std::uint64_t version() const { return version_; }
  const std::shared_ptr<InferenceSession>& session() const {
    return session_;
  }
  BatchScheduler& scheduler() { return scheduler_; }
  const BatchScheduler& scheduler() const { return scheduler_; }

 private:
  std::string name_;
  std::uint64_t version_;
  std::shared_ptr<InferenceSession> session_;
  BatchScheduler scheduler_;
};

/// Versioned model registry with atomic hot-swap.
///
/// deploy(name, v2) publishes v2 as the active version for `name` under
/// the registry lock — every resolve() after the swap routes to v2 —
/// then drains v1 *outside* the lock: v1's scheduler stops intake and
/// serves everything already queued before the entry is released, so a
/// hot-swap under load loses zero in-flight requests. Clients that
/// resolved v1 just before the swap and race its intake close observe
/// PushStatus::kShutdown from try_submit and re-resolve (the frontend
/// does this loop); requests v1 already accepted are always served.
///
/// Versions must be strictly increasing per model name — rollback is a
/// deploy of a higher version carrying the old weights. Deploys and
/// completed hot-swaps are counted in the obs registry as
/// serve.registry.{deploys,swaps}.
class ModelRegistry {
 public:
  ~ModelRegistry() { retire_all(); }

  /// Deploy `version` of `name` and make it the active target for new
  /// requests. Returns the new entry. Blocks until the previous
  /// version (if any) has fully drained — by which point v2 has
  /// already been serving new traffic on the pool's dispatch jobs.
  std::shared_ptr<ServingModel> deploy(
      const std::string& name, std::uint64_t version,
      std::shared_ptr<InferenceSession> session, SchedulerOptions opts = {});

  /// The active entry for `name`, or nullptr when not deployed.
  std::shared_ptr<ServingModel> resolve(const std::string& name) const;

  /// Remove `name` from the registry and drain its scheduler. No-op
  /// when absent.
  void retire(const std::string& name);

  /// Retire every model (drains each in turn).
  void retire_all();

  /// Active version of `name`; 0 when not deployed.
  std::uint64_t active_version(const std::string& name) const;

  std::vector<std::string> models() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<ServingModel>> active_;
};

}  // namespace matsci::serve::frontend
