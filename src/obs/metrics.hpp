#pragma once

// Process-wide metrics: counters, gauges, fixed-bucket histograms, and
// step-keyed series, owned by a named registry and rendered by the
// exporters in obs/export.hpp. Write paths are built for hot-path use:
// counters and histograms stripe their state across kShards
// cache-line-padded shards indexed by a per-thread slot, so concurrent
// emission is a relaxed atomic RMW with no locks and (for up to kShards
// concurrent writers) no cache-line ping-pong; readers merge the shards
// on demand. Merged totals are exact once the writing threads have been
// joined or otherwise synchronized with the reader — the `obs`-labeled
// tests assert bit-stable counts under pool workers and serve clients
// hammering one registry.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace matsci::obs {

/// Shard count for striped metric state. More concurrent writers than
/// shards simply share slots — still correct (every slot is atomic),
/// just with occasional cache-line sharing.
inline constexpr std::size_t kShards = 16;

namespace detail {

/// Stable per-thread shard slot in [0, kShards).
std::size_t thread_shard();

/// Relaxed fetch-add / fetch-min / fetch-max on atomic<double> via CAS
/// (floating-point fetch_add is C++20 but not universally lowered).
void atomic_add(std::atomic<double>& a, double v);
void atomic_min(std::atomic<double>& a, double v);
void atomic_max(std::atomic<double>& a, double v);

struct alignas(64) PaddedI64 {
  std::atomic<std::int64_t> v{0};
};

}  // namespace detail

/// Monotonic counter. add() is a relaxed fetch_add on the caller's
/// shard; value() sums all shards.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    shards_[detail::thread_shard()].v.fetch_add(delta,
                                                std::memory_order_relaxed);
  }
  std::int64_t value() const;
  void reset();

 private:
  std::array<detail::PaddedI64, kShards> shards_;
};

/// Last-write-wins scalar (queue depth, learning rate, ...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) { detail::atomic_add(v_, delta); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Merged view of a Histogram at one point in time.
struct HistogramSnapshot {
  /// Ascending bucket upper bounds; counts has one extra overflow
  /// bucket for values above the last bound.
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when empty
  double max = 0.0;  ///< 0 when empty
  /// Most recent observation that carried a trace id (OpenMetrics-style
  /// exemplar): 0 when no traced observation has landed. Last-write-wins
  /// across shards; id and value are sampled independently (relaxed), so
  /// under concurrent traced writes they may belong to different
  /// observations — good enough for the "jump from this p99 to one
  /// culprit trace" workflow exemplars exist for.
  std::uint64_t exemplar_trace_id = 0;
  double exemplar_value = 0.0;

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Bucket-interpolated quantile, q in [0, 1]: rank q*count is located
  /// in the cumulative bucket counts and linearly interpolated inside
  /// its bucket, narrowed to the observed [min, max]. Exact for the
  /// extremes; elsewhere accurate to the bucket resolution.
  double percentile(double q) const;
};

/// Fixed-bucket histogram with sharded lock-free observation. Bucket
/// boundaries are fixed at construction so observe() is a binary search
/// plus relaxed RMWs on the caller's shard; there is no per-sample
/// storage, so memory and merge cost are independent of the observation
/// count. snapshot() derives the count from the bucket totals, so a
/// scrape racing observe() always sees cumulative buckets that end at
/// the count.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing. Values
  /// <= bounds[i] land in bucket i; values > bounds.back() land in the
  /// overflow bucket.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Record one observation. A non-zero `exemplar_trace_id` additionally
  /// publishes (id, v) as the histogram's exemplar (two extra relaxed
  /// stores; passing 0 — the default — costs nothing).
  void observe(double v, std::uint64_t exemplar_trace_id = 0);
  HistogramSnapshot snapshot() const;
  void reset();

  const std::vector<double>& bounds() const { return bounds_; }

  /// 1-2-5 progression from 1 us to 1e7 us — the default for every
  /// latency-shaped metric in the toolkit.
  static std::vector<double> default_latency_bounds_us();

 private:
  struct alignas(64) ShardStats {
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  std::vector<double> bounds_;
  std::size_t num_buckets_ = 0;  ///< bounds_.size() + 1 (overflow)
  /// kShards * num_buckets_ bucket counts, shard-major.
  std::unique_ptr<std::atomic<std::int64_t>[]> bucket_counts_;
  std::array<ShardStats, kShards> stats_;
  /// Last-write-wins exemplar (see HistogramSnapshot): written only by
  /// observes that carry a trace id, read by snapshot().
  std::atomic<std::uint64_t> exemplar_trace_id_{0};
  std::atomic<double> exemplar_value_{0.0};
};

/// Step-keyed sample sequence — the obs-side mirror of a training
/// curve. Appends under a mutex (per-epoch/per-step cadence, not a hot
/// path); exporters serialize the full series.
class Series {
 public:
  void record(std::int64_t step, double value);
  std::vector<std::pair<std::int64_t, double>> points() const;
  std::size_t size() const;
  /// Value of the most recent record (0 when empty) — what the
  /// Prometheus exporter reports for a series.
  double last_value() const;
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::int64_t, double>> points_;
};

/// Process-wide name -> metric table. Lookup takes a mutex, so callers
/// on hot paths resolve once and keep the reference (references are
/// stable for the registry's lifetime; the global() instance is never
/// destroyed). Dotted lowercase names ("serve.stage.queue_wait_us") are
/// the convention; exporters sanitize as needed.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket bounds; later calls return the
  /// existing histogram regardless of `bounds`. Empty bounds select
  /// Histogram::default_latency_bounds_us().
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});
  Series& series(const std::string& name);

  struct Snapshot {
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
    std::map<std::string, std::vector<std::pair<std::int64_t, double>>>
        series;
  };
  Snapshot snapshot() const;

  /// Zero every metric's value, keeping registrations (and therefore
  /// cached references) valid. Only meaningful while writers are
  /// quiescent; intended for tests and bench harness boundaries.
  void reset_values();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

/// Steady-clock stopwatch for feeding duration histograms.
class StopWatch {
 public:
  StopWatch() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace matsci::obs
