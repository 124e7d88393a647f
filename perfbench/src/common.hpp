#pragma once

// Shared plumbing of the repository benchmark: command-line arguments,
// the result record printed as the last stdout line, order statistics,
// and wall-clock helpers. Every workload lives in its own .cpp and
// drives the library only through public entry points; all timing is
// taken from outside, around those calls.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed window
  bool trace = false;     ///< true: per-layer run, false: end-to-end run
};

/// What one run reports. Every run measures the end-to-end metrics; a
/// traced run also fills the per-layer metrics, and the last stdout line
/// carries the set the mode asks for (the other set is printed as a
/// "# ..." line, so a traced run shows its own end-to-end figures and
/// the tracing overhead can be read off).
struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Correctness checks that did not hold; any entry fails the run.
  std::vector<std::string> check_failures;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Record one output-correctness check; prints it either way.
  void check(bool ok, const std::string& what);
  bool correct() const { return check_failures.empty(); }
};

Result run_pretrain_ddp(const Args& args);
Result run_serve_openloop(const Args& args);
Result run_md_waves(const Args& args);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Number of consecutive slices a timed window is cut into.
inline constexpr std::size_t kWindows = 5;

/// Split `v` (in time order) into kWindows equal consecutive slices,
/// take the q-quantile of each, and return their median: one burst of
/// interference from other tenants of the host moves one slice, not the
/// reported figure. Every end-to-end timing is reported this way; the
/// per-slice values are printed as a "# ..." line under `name`.
double windowed_quantile(const char* name, const std::vector<double>& v,
                         double q);

/// Median of per-window values, printing them under `name`.
double median_of_windows(const char* name,
                         const std::vector<double>& per_window);

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Peak resident set size of this process so far (MiB).
double peak_rss_mb();


/// Human-readable line on stdout ("# <text>"); tools read only the last
/// line, so these carry the full, named breakdown.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Print a timing's median/tail with its sample count and how many
/// samples lie beyond the tail quantile.
void note_quantiles(const char* name, const std::vector<double>& v,
                    double tail_q, const char* unit);

/// Run `setup` `reps` times and return the median wall time (seconds).
/// The workload keeps whatever the last repetition built.
template <typename F>
double median_setup_seconds(int reps, F&& setup) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  return quantile(times, 0.5);
}

/// Number of set-up repetitions behind setup_s.
inline constexpr int kSetupReps = 3;

/// FNV-1a over raw bytes, for bit-exact state checksums.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
