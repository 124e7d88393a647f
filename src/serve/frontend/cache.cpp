#include "serve/frontend/cache.hpp"

#include <cstdio>

#include "obs/metrics.hpp"
#include "sym/canonical.hpp"

namespace matsci::serve::frontend {

namespace {

struct CacheMetrics {
  obs::Counter& hit;
  obs::Counter& miss;
  obs::Counter& evict;
  obs::Gauge& size;

  static CacheMetrics& get() {
    static CacheMetrics* m = new CacheMetrics{
        obs::MetricsRegistry::global().counter("serve.cache.hit"),
        obs::MetricsRegistry::global().counter("serve.cache.miss"),
        obs::MetricsRegistry::global().counter("serve.cache.evict"),
        obs::MetricsRegistry::global().gauge("serve.cache.size"),
    };
    return *m;
  }
};

}  // namespace

ResponseCache::ResponseCache(ResponseCacheOptions opts)
    : opts_(std::move(opts)) {}

std::string ResponseCache::make_key(const data::StructureSample& structure,
                                    const std::string& target,
                                    std::uint64_t version) const {
  std::uint64_t h = sym::canonical_structure_hash(structure);
  h = sym::fnv1a64(target, h);
  h = sym::fnv1a64(&version, sizeof(version), h);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

std::optional<tasks::Prediction> ResponseCache::lookup(
    const std::string& key) {
  CacheMetrics& metrics = CacheMetrics::get();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    metrics.miss.add(1);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  metrics.hit.add(1);
  return it->second->second;
}

void ResponseCache::insert(const std::string& key,
                           const tasks::Prediction& prediction) {
  if (opts_.capacity == 0 || key.empty()) return;
  CacheMetrics& metrics = CacheMetrics::get();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = prediction;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, prediction);
  index_[key] = lru_.begin();
  while (index_.size() > opts_.capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    metrics.evict.add(1);
  }
  metrics.size.set(static_cast<double>(index_.size()));
}

void ResponseCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  CacheMetrics::get().size.set(0.0);
}

}  // namespace matsci::serve::frontend
