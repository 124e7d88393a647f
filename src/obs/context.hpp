#pragma once

// End-to-end request tracing (DESIGN.md §10): a TraceContext is the
// 64-bit identity a request carries from ServeFrontend admission
// through the RequestQueue, the BatchScheduler's micro-batch, the
// InferenceSession forward, and — for MD — the sim wave that submitted
// it. Three ids:
//   trace_id         — one per logical request tree (wave, request),
//                      shared by every span the request touches
//   span_id          — one per context, identifies this hop
//   parent_span_id   — the span that minted this context (0 = root)
// Contexts are minted from a process-wide counter hashed through a
// splitmix64 finalizer, so ids are unique, non-zero, and cheap (one
// relaxed fetch_add, no locks, no clock reads).

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace matsci::obs {

struct TraceContext {
  std::uint64_t trace = 0;   ///< request-tree id, shared across hops
  std::uint64_t span = 0;    ///< this hop's id
  std::uint64_t parent = 0;  ///< span that minted this context (0 = root)

  /// Fresh root context: new trace id, new span id, no parent.
  static TraceContext mint();
  /// Child hop: same trace, fresh span, parent = this context's span.
  TraceContext child() const;

  bool valid() const { return trace != 0; }
  std::uint64_t trace_id() const { return trace; }
  std::uint64_t span_id() const { return span; }
  std::uint64_t parent_span_id() const { return parent; }
};

/// Record a completed span carrying `ctx`'s ids (no-op when the tracer
/// is disabled, like MATSCI_TRACE_SCOPE). `start_ns` must come from
/// Tracer::now_ns() / the steady clock epoch.
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, const TraceContext& ctx);
/// Same, with an explicit parent link (e.g. a member request's forward
/// span pointing at the batch span instead of its own submit parent).
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, const TraceContext& ctx,
                 std::uint64_t parent_span_id);

/// Fixed-width lowercase hex rendering of a trace/span id — the wire
/// form used by /tracez, exemplars, and flight-recorder bundles.
std::string trace_id_hex(std::uint64_t id);

/// Process-wide set of requests that were admitted but whose futures
/// have not resolved yet. The frontend inserts at accept, the scheduler
/// erases at fulfillment (and the queue erases at deadline drop), and
/// FlightRecorder::dump embeds a snapshot so a crash bundle names the
/// client requests that were in flight at abort time. Mutex-guarded
/// (admission is not a per-sample hot path) and bounded: beyond
/// kMaxTracked entries inserts are dropped — the bundle is a
/// best-effort post-mortem aid, not an accounting ledger.
class InflightSet {
 public:
  static constexpr std::size_t kMaxTracked = 4096;

  static InflightSet& global();

  void insert(const TraceContext& ctx);
  void erase(const TraceContext& ctx);
  std::vector<TraceContext> snapshot() const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceContext> entries_;
};

}  // namespace matsci::obs
