#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "data/sample.hpp"
#include "tasks/task.hpp"

namespace matsci::serve::frontend {

struct ResponseCacheOptions {
  /// Maximum cached entries; least-recently-used entries are evicted
  /// beyond it. 0 disables caching (every lookup misses, inserts are
  /// dropped).
  std::size_t capacity = 4096;
};

/// Thread-safe LRU cache from canonicalized-structure keys to served
/// predictions. Keys fold the structure's canonical hash with the
/// target head and the model version (see make_key), so a hot-swap
/// never serves stale answers: old-version entries stop being looked
/// up and age out through the LRU. Hits, misses and evictions are
/// counted only in the obs registry as serve.cache.{hit,miss,evict},
/// and the entry count is the serve.cache.size gauge.
class ResponseCache {
 public:
  explicit ResponseCache(ResponseCacheOptions opts = {});

  /// Cache key for predicting `target` on `structure` under model
  /// `version`: hex of the canonical structure hash (permutation- and
  /// translation-folded, coordinates on a 1e-4 Å grid, so a hit is
  /// bit-exact up to that key resolution) chained with the target
  /// bytes and the version. 64-bit, so collisions are
  /// possible-in-principle (~1e-10 at a million live entries) — the
  /// cache trades that for never storing full structures.
  std::string make_key(const data::StructureSample& structure,
                       const std::string& target,
                       std::uint64_t version) const;

  /// Returns the cached prediction and refreshes recency, or nullopt.
  std::optional<tasks::Prediction> lookup(const std::string& key);

  /// Insert (or refresh) an entry, evicting the LRU tail beyond
  /// capacity. No-op when the cache is disabled or `key` is empty.
  void insert(const std::string& key, const tasks::Prediction& prediction);

  void clear();
  const ResponseCacheOptions& options() const { return opts_; }

 private:
  using LruList = std::list<std::pair<std::string, tasks::Prediction>>;

  ResponseCacheOptions opts_;
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recent
  std::unordered_map<std::string, LruList::iterator> index_;
};

}  // namespace matsci::serve::frontend
