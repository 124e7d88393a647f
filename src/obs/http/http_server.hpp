#pragma once

// Embedded telemetry plane (DESIGN.md §10): a minimal HTTP/1.1 server
// bound to loopback that exposes the live obs state of this process —
//
//   /metrics  Prometheus text exposition of MetricsRegistry::global()
//             (validator-clean, with histogram exemplars)
//   /healthz  liveness: 200 {"healthy":true,...} or 503, fed by an
//             application-registered health source (HealthMonitor +
//             anomaly state in the trainer; queue state in serve)
//   /statusz  JSON snapshot: uptime, the full registry, and every
//             registered application section (frontend admission/cache
//             stats, queue depths, sim wave occupancy, ...)
//   /tracez   the most recent spans drained from the per-thread trace
//             rings, with trace/span/parent ids in hex
//   /         plain-text index of the endpoints above
//
// Pool-friendly by construction: the dispatcher is ONE task submitted
// to core::parallel::ThreadPool::global() (no raw threads — the
// no-raw-threads lint applies to this directory), it multiplexes the
// listen socket against a wake pipe with poll(2), and connections are
// handled serially inline (scrape cadence is seconds; serving a scrape
// is microseconds). stop() reclaims the task with run_now_or_wait(),
// so shutdown cannot deadlock even when the pool is saturated: a
// dispatcher that never got a slot runs inline, sees the stop flag,
// and exits immediately.
//
// Pool-slot caveat: the dispatcher occupies one pool slot while
// running. BatchScheduler with default options occupies pool.size()
// slots with dispatch jobs, so START THE TELEMETRY SERVER BEFORE
// deploying schedulers (or give the schedulers explicit num_workers <
// pool size); otherwise the server's task may queue behind the
// scheduler jobs until shutdown. Tests and benches in this repo start
// the server first.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace matsci::obs::http {

/// What /healthz reports. `healthy == false` turns the response into
/// HTTP 503 so a Kubernetes-style prober fails over without parsing
/// the body.
struct HealthState {
  bool healthy = true;
  std::string detail = "ok";
  std::int64_t anomalies = 0;  ///< anomaly count from the health monitor
};

struct TelemetryServerOptions {
  /// Bind address. Loopback by default: this is an in-process scrape
  /// plane, not a public listener.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Most recent spans returned by /tracez (newest kept).
  std::int64_t tracez_limit = 512;
  /// Deadline for reading a whole request, from accept; a client that
  /// has not sent its full request head by then is counted in
  /// obs.http.errors and closed. Also the socket send timeout.
  std::int64_t io_timeout_ms = 2000;
};

class TelemetryServer {
 public:
  explicit TelemetryServer(TelemetryServerOptions opts = {});
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Bind, listen, and submit the dispatcher to the shared pool.
  /// Returns false when the socket setup fails (see last_error());
  /// throwing here would turn a missing telemetry port into an outage.
  bool start();

  /// Stop the dispatcher and close the socket. Idempotent; safe to
  /// call from any thread. Blocks until the dispatcher has exited.
  void stop();

  bool running() const;
  /// Actual bound port (after start() with port 0), -1 when not
  /// running.
  int port() const;
  const std::string& last_error() const;

  /// Install the /healthz source. Call before start() or accept that a
  /// scrape races the swap (guarded by a mutex either way).
  void set_health_source(std::function<HealthState()> source);

  /// Register a named /statusz section; `render` returns one JSON
  /// value (object/array/scalar) emitted under "sections".<name>.
  /// A throwing renderer degrades to null instead of failing the
  /// scrape.
  void add_statusz_section(const std::string& name,
                           std::function<std::string()> render);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Minimal blocking HTTP/1.1 GET against a local telemetry server —
/// the test/bench scrape client. status == 0 means transport failure
/// (body carries the reason); otherwise the parsed status code with
/// the response body.
struct HttpResponse {
  int status = 0;
  std::string body;
};
HttpResponse http_get(const std::string& host, int port,
                      const std::string& path,
                      std::int64_t timeout_ms = 5000);

}  // namespace matsci::obs::http
