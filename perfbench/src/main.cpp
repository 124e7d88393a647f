// Repository benchmark binary: one command runs one workload.
//
//   perfbench --workload <pretrain_ddp|serve_openloop|md_waves>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Inputs are generated from --seed; the timed window lasts about
// --seconds. With --trace 0 the run reports the end-to-end metrics,
// with --trace 1 the per-layer metrics (README.md lists both sets and
// which end-to-end metric each layer metric should move). Human-readable
// "# ..." lines come first; the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any output-correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  note("check %-4s %s", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) check_failures.push_back(what);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median_of_windows(const char* name,
                         const std::vector<double>& per_window) {
  std::string line;
  for (double x : per_window) {
    line += ' ';
    line += std::to_string(x);
  }
  const double median = quantile(per_window, 0.5);
  note("%-22s per window:%s -> median %f", name, line.c_str(), median);
  return median;
}

double windowed_quantile(const char* name, const std::vector<double>& v,
                         double q) {
  std::vector<double> per_window;
  const std::size_t n = v.size();
  for (std::size_t j = 0; j < kWindows; ++j) {
    const auto first =
        v.begin() + static_cast<std::ptrdiff_t>(j * n / kWindows);
    const auto last =
        v.begin() + static_cast<std::ptrdiff_t>((j + 1) * n / kWindows);
    if (first != last) per_window.push_back(quantile({first, last}, q));
  }
  return median_of_windows(name, per_window);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void note(const char* fmt, ...) {
  std::fputs("# ", stdout);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stdout, fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void note_quantiles(const char* name, const std::vector<double>& v,
                    double tail_q, const char* unit) {
  const auto beyond = static_cast<long long>(
      std::floor(static_cast<double>(v.size()) * (1.0 - tail_q)));
  note("%-22s p50 %.4f %s, p%.0f %.4f %s (n=%zu, %lld beyond the tail)",
       name, quantile(v, 0.5), unit, tail_q * 100.0, quantile(v, tail_q),
       unit, v.size(), beyond);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pretrain_ddp|serve_openloop|md_waves> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0) usage("--seconds must be > 0");

  perfbench::Result result;
  try {
    if (args.workload == "pretrain_ddp") {
      result = perfbench::run_pretrain_ddp(args);
    } else if (args.workload == "serve_openloop") {
      result = perfbench::run_serve_openloop(args);
    } else if (args.workload == "md_waves") {
      result = perfbench::run_md_waves(args);
    } else {
      usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s threw: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  using Metrics = std::vector<perfbench::Result::Metric>;
  const auto metrics_json = [](const Metrics& ms) {
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
             ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return out + "}";
  };
  if (args.trace) {
    perfbench::note("end-to-end under tracing: %s",
                    metrics_json(result.end_to_end).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct() ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              metrics_json(args.trace ? result.per_layer : result.end_to_end)
                  .c_str());
  return result.correct() ? 0 : 1;
}
