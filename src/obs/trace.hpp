#pragma once

// Scoped tracing: MATSCI_TRACE_SCOPE("phase") records one complete-event
// span — steady-clock start, duration, thread id — into a per-thread
// ring buffer owned by the process-wide Tracer. Recording is disabled by
// default: a disarmed scope costs one relaxed atomic load and nothing
// else; an armed one costs two clock reads plus an uncontended
// per-thread mutex (contended only while an exporter drains the ring).
// Enable with Tracer::global().set_enabled(true) or MATSCI_TRACE=1 in
// the environment. Rings are bounded (kRingCapacity events per thread):
// when a ring wraps, the oldest spans are overwritten and counted in
// dropped().

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace matsci::obs {

/// One completed span. `name` must point at storage that outlives the
/// tracer — string literals in practice, which is what the macro
/// produces.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  ///< steady clock, since its (process) epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< dense tracer-assigned thread id, from 1
  /// Request-tracing ids (obs/context.hpp); 0 on spans recorded without
  /// a TraceContext (MATSCI_TRACE_SCOPE and the 3-arg record()).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

class Tracer {
 public:
  /// Events retained per thread before the ring wraps.
  static constexpr std::size_t kRingCapacity = 1 << 14;

  static Tracer& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Append one completed span to the calling thread's ring.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns);

  /// Same, carrying request-tracing ids (see obs/context.hpp —
  /// record_span() is the usual entry point).
  void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
              std::uint64_t trace_id, std::uint64_t span_id,
              std::uint64_t parent_span_id);

  /// Merge every thread's ring, sorted by start time. Spans being
  /// recorded concurrently may or may not be included; the merge is
  /// complete once writers are quiescent.
  std::vector<TraceEvent> collect() const;

  /// Spans lost to ring wrap-around since the last clear().
  std::int64_t dropped() const;

  /// Per-thread wrap-around losses: (tracer tid, spans dropped) for
  /// every ring that has overflowed since the last clear(). Overflow
  /// used to be silent in exports; the Chrome exporter now embeds the
  /// total in trace metadata and BenchReporter surfaces it as the
  /// `obs.trace.dropped_events` gauge.
  std::vector<std::pair<std::uint32_t, std::int64_t>> dropped_by_thread()
      const;

  /// Empty every ring (registrations and thread ids persist).
  void clear();

  /// Monotonic nanoseconds (steady clock).
  static std::uint64_t now_ns();

 private:
  struct Ring {
    std::mutex mu;
    std::vector<TraceEvent> slots;
    std::size_t head = 0;       ///< next write position
    std::uint64_t total = 0;    ///< lifetime writes (>= retained count)
    std::uint32_t tid = 0;
  };

  Tracer();
  Ring& ring_for_this_thread();

  std::atomic<bool> enabled_{false};
  mutable std::mutex registry_mu_;
  /// Rings are created on a thread's first record() and never freed, so
  /// a cached thread-local pointer can't dangle (bounded by the number
  /// of distinct recording threads).
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<std::uint32_t> next_tid_{1};
};

/// RAII span: arms at construction if the tracer is enabled, records at
/// destruction. Use through MATSCI_TRACE_SCOPE.
class TraceScope {
 public:
  explicit TraceScope(const char* name) {
    if (Tracer::global().enabled()) {
      name_ = name;
      start_ns_ = Tracer::now_ns();
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) {
      const std::uint64_t end_ns = Tracer::now_ns();
      Tracer::global().record(name_, start_ns_, end_ns - start_ns_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace matsci::obs

#define MATSCI_OBS_CONCAT_IMPL(a, b) a##b
#define MATSCI_OBS_CONCAT(a, b) MATSCI_OBS_CONCAT_IMPL(a, b)

/// Trace the enclosing scope as a span named `name` (string literal).
#define MATSCI_TRACE_SCOPE(name)                                      \
  ::matsci::obs::TraceScope MATSCI_OBS_CONCAT(matsci_trace_scope_,    \
                                              __COUNTER__) {          \
    name                                                              \
  }
