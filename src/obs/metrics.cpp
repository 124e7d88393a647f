#include "obs/metrics.hpp"

#include <algorithm>

#include "core/macros.hpp"

namespace matsci::obs {

namespace detail {

std::size_t thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

// --- Counter -----------------------------------------------------------------

std::int64_t Counter::value() const {
  std::int64_t total = 0;
  for (const detail::PaddedI64& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (detail::PaddedI64& s : shards_) {
    s.v.store(0, std::memory_order_relaxed);
  }
}

// --- HistogramSnapshot -------------------------------------------------------

double HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);  // in (0, count]
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double in_bucket = static_cast<double>(counts[b]);
    if (in_bucket <= 0.0) continue;
    if (cumulative + in_bucket >= rank) {
      // Interpolate over the part of the bucket the samples can occupy:
      // when they all share one bucket, [min, max] is narrower than its
      // bounds, and interpolating across the bounds would push every
      // upper quantile onto max.
      const double lower = std::max(b == 0 ? 0.0 : bounds[b - 1], min);
      const double upper = std::min(b < bounds.size() ? bounds[b] : max, max);
      const double frac = std::clamp((rank - cumulative) / in_bucket, 0.0, 1.0);
      const double est = lower + frac * (upper - lower);
      return std::clamp(est, min, max);  // guards a snapshot racing observe()
    }
    cumulative += in_bucket;
  }
  return max;  // q == 1 with rounding slack
}

// --- Histogram ---------------------------------------------------------------

std::vector<double> Histogram::default_latency_bounds_us() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1.0e6; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  bounds.push_back(1.0e7);
  return bounds;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  MATSCI_CHECK(!bounds_.empty(), "Histogram needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    MATSCI_CHECK(bounds_[i] > bounds_[i - 1],
                 "Histogram bounds must be strictly increasing (bound "
                     << i << ": " << bounds_[i] << " <= " << bounds_[i - 1]
                     << ")");
  }
  num_buckets_ = bounds_.size() + 1;
  bucket_counts_ = std::make_unique<std::atomic<std::int64_t>[]>(
      kShards * num_buckets_);
  for (std::size_t i = 0; i < kShards * num_buckets_; ++i) {
    bucket_counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double v, std::uint64_t exemplar_trace_id) {
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  const std::size_t shard = detail::thread_shard();
  bucket_counts_[shard * num_buckets_ + bucket].fetch_add(
      1, std::memory_order_relaxed);
  ShardStats& s = stats_[shard];
  detail::atomic_add(s.sum, v);
  detail::atomic_min(s.min, v);
  detail::atomic_max(s.max, v);
  if (exemplar_trace_id != 0) {
    // Two independent relaxed stores: concurrent traced writers may
    // interleave id and value from different observations, which the
    // exemplar contract tolerates (HistogramSnapshot doc).
    exemplar_value_.store(v, std::memory_order_relaxed);
    exemplar_trace_id_.store(exemplar_trace_id, std::memory_order_relaxed);
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(num_buckets_, 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    for (std::size_t b = 0; b < num_buckets_; ++b) {
      snap.counts[b] += bucket_counts_[shard * num_buckets_ + b].load(
          std::memory_order_relaxed);
    }
    const ShardStats& s = stats_[shard];
    snap.sum += s.sum.load(std::memory_order_relaxed);
    min = std::min(min, s.min.load(std::memory_order_relaxed));
    max = std::max(max, s.max.load(std::memory_order_relaxed));
  }
  // The count is the bucket total, never a separately loaded counter: a
  // scrape racing observe() must not see finite buckets sum past the
  // count (Prometheus requires le="+Inf" == _count >= every bucket).
  for (const std::int64_t c : snap.counts) snap.count += c;
  if (snap.count > 0) {
    snap.min = min;
    snap.max = max;
  }
  snap.exemplar_trace_id =
      exemplar_trace_id_.load(std::memory_order_relaxed);
  snap.exemplar_value = exemplar_value_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::reset() {
  for (std::size_t i = 0; i < kShards * num_buckets_; ++i) {
    bucket_counts_[i].store(0, std::memory_order_relaxed);
  }
  for (ShardStats& s : stats_) {
    s.sum.store(0.0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s.max.store(-std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
  }
  exemplar_trace_id_.store(0, std::memory_order_relaxed);
  exemplar_value_.store(0.0, std::memory_order_relaxed);
}

// --- Series ------------------------------------------------------------------

void Series::record(std::int64_t step, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.emplace_back(step, value);
}

std::vector<std::pair<std::int64_t, double>> Series::points() const {
  std::lock_guard<std::mutex> lock(mu_);
  return points_;
}

std::size_t Series::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return points_.size();
}

double Series::last_value() const {
  std::lock_guard<std::mutex> lock(mu_);
  return points_.empty() ? 0.0 : points_.back().second;
}

void Series::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
}

// --- MetricsRegistry ---------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: pool workers and serve dispatch jobs may emit
  // metrics during static destruction; a never-destroyed registry makes
  // that safe regardless of destruction order.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = Histogram::default_latency_bounds_us();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

Series& MetricsRegistry::series(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = series_[name];
  if (!slot) slot = std::make_unique<Series>();
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->snapshot();
  }
  for (const auto& [name, s] : series_) snap.series[name] = s->points();
  return snap;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, s] : series_) s->reset();
}

}  // namespace matsci::obs
