#include "obs/context.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace matsci::obs {

std::string trace_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

InflightSet& InflightSet::global() {
  // Leaked on purpose, same rationale as MetricsRegistry::global():
  // dispatch jobs may erase entries during static destruction.
  static InflightSet* set = new InflightSet();
  return *set;
}

namespace {

/// Unique non-zero 64-bit id: a relaxed counter pushed through the
/// splitmix64 finalizer so consecutive mints land far apart (ids double
/// as exemplar keys and hex strings, where visible structure misleads).
std::uint64_t next_id() {
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t x = counter.fetch_add(1, std::memory_order_relaxed) +
                    0x9e3779b97f4a7c15ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x != 0 ? x : 1;
}

}  // namespace

TraceContext TraceContext::mint() {
  TraceContext ctx;
  ctx.trace = next_id();
  ctx.span = next_id();
  ctx.parent = 0;
  return ctx;
}

TraceContext TraceContext::child() const {
  TraceContext ctx;
  ctx.trace = trace;
  ctx.span = next_id();
  ctx.parent = span;
  return ctx;
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, const TraceContext& ctx) {
  record_span(name, start_ns, dur_ns, ctx, ctx.parent);
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, const TraceContext& ctx,
                 std::uint64_t parent_span_id) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  tracer.record(name, start_ns, dur_ns, ctx.trace, ctx.span, parent_span_id);
}

void InflightSet::insert(const TraceContext& ctx) {
  if (!ctx.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() >= kMaxTracked) return;  // best-effort bound
  entries_.push_back(ctx);
}

void InflightSet::erase(const TraceContext& ctx) {
  if (!ctx.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const TraceContext& e) {
                           return e.span == ctx.span && e.trace == ctx.trace;
                         });
  if (it != entries_.end()) {
    *it = entries_.back();
    entries_.pop_back();
  }
}

std::vector<TraceContext> InflightSet::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

std::size_t InflightSet::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace matsci::obs
