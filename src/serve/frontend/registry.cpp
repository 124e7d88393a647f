#include "serve/frontend/registry.hpp"

#include <utility>

#include "core/macros.hpp"
#include "obs/metrics.hpp"

namespace matsci::serve::frontend {

namespace {

struct RegistryMetrics {
  obs::Counter& swaps;
  obs::Counter& deploys;

  static RegistryMetrics& get() {
    static RegistryMetrics* m = new RegistryMetrics{
        obs::MetricsRegistry::global().counter("serve.registry.swaps"),
        obs::MetricsRegistry::global().counter("serve.registry.deploys"),
    };
    return *m;
  }
};

}  // namespace

std::shared_ptr<ServingModel> ModelRegistry::deploy(
    const std::string& name, std::uint64_t version,
    std::shared_ptr<InferenceSession> session, SchedulerOptions opts) {
  MATSCI_CHECK(!name.empty(), "ModelRegistry::deploy: empty model name");
  MATSCI_CHECK(version > 0, "ModelRegistry::deploy: version must be > 0");
  // Construct (and start) the new scheduler before taking the lock —
  // the swap itself is a pointer exchange.
  auto entry = std::make_shared<ServingModel>(name, version,
                                              std::move(session),
                                              std::move(opts));
  std::shared_ptr<ServingModel> previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(name);
    if (it != active_.end()) {
      MATSCI_CHECK(version > it->second->version(),
                   "ModelRegistry::deploy: version "
                       << version << " of '" << name
                       << "' must exceed the active version "
                       << it->second->version());
      previous = it->second;
      it->second = entry;
    } else {
      active_.emplace(name, entry);
    }
  }
  RegistryMetrics::get().deploys.add(1);
  if (previous) {
    // Drain the displaced version outside the lock: intake closes, every
    // request it already accepted is served, dispatch jobs are
    // reclaimed. New traffic is meanwhile flowing to `entry`.
    previous->scheduler().shutdown();
    RegistryMetrics::get().swaps.add(1);
  }
  return entry;
}

std::shared_ptr<ServingModel> ModelRegistry::resolve(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(name);
  return it == active_.end() ? nullptr : it->second;
}

void ModelRegistry::retire(const std::string& name) {
  std::shared_ptr<ServingModel> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(name);
    if (it == active_.end()) return;
    entry = std::move(it->second);
    active_.erase(it);
  }
  entry->scheduler().shutdown();  // drain outside the lock
}

void ModelRegistry::retire_all() {
  std::vector<std::shared_ptr<ServingModel>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, entry] : active_) entries.push_back(std::move(entry));
    active_.clear();
  }
  for (auto& entry : entries) entry->scheduler().shutdown();
}

std::uint64_t ModelRegistry::active_version(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(name);
  return it == active_.end() ? 0 : it->second->version();
}

std::vector<std::string> ModelRegistry::models() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(active_.size());
  for (const auto& [name, entry] : active_) out.push_back(name);
  return out;
}

}  // namespace matsci::serve::frontend
