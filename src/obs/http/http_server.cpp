#include "obs/http/http_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "core/parallel/thread_pool.hpp"
#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace matsci::obs::http {

namespace {

/// Telemetry about the telemetry: scrape latency is the /metrics
/// handler's render+write time — the "bounded scrape under overload"
/// signal the openloop bench asserts on.
struct HttpMetrics {
  Counter& requests;
  Counter& errors;
  Histogram& scrape_us;

  static HttpMetrics& get() {
    static HttpMetrics* m = new HttpMetrics{
        MetricsRegistry::global().counter("obs.http.requests"),
        MetricsRegistry::global().counter("obs.http.errors"),
        MetricsRegistry::global().histogram("obs.http.scrape_us"),
    };
    return *m;
  }
};

void set_io_timeouts(int fd, std::int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

bool write_response(int fd, int status, const std::string& content_type,
                    const std::string& body) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     status_text(status) +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  return send_all(fd, head.data(), head.size()) &&
         send_all(fd, body.data(), body.size());
}

}  // namespace

struct TelemetryServer::Impl {
  TelemetryServerOptions opts;
  std::atomic<bool> running{false};
  std::atomic<bool> stop_requested{false};
  std::atomic<int> port{-1};
  std::atomic<std::int64_t> requests{0};
  int listen_fd = -1;
  int wake_fds[2] = {-1, -1};
  std::chrono::steady_clock::time_point started_at;
  core::parallel::TaskHandle task;
  bool task_live = false;

  mutable std::mutex mu;  ///< guards health_source, sections, error
  std::function<HealthState()> health_source;
  std::vector<std::pair<std::string, std::function<std::string()>>> sections;
  std::string error;

  void set_error(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    error = why + " (errno " + std::to_string(errno) + ": " +
            std::strerror(errno) + ")";
  }

  void close_sockets() {
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
    for (int& fd : wake_fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }

  void serve_loop();
  void handle_connection(int fd);
  std::string render_statusz() const;
  std::string render_tracez() const;
  std::string render_healthz(int* status) const;
};

TelemetryServer::TelemetryServer(TelemetryServerOptions opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(opts);
}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start() {
  Impl& im = *impl_;
  if (im.running.load(std::memory_order_acquire)) return true;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(im.opts.port));
  if (::inet_pton(AF_INET, im.opts.host.c_str(), &addr.sin_addr) != 1) {
    im.set_error("bad bind address '" + im.opts.host + "'");
    return false;
  }

  im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listen_fd < 0) {
    im.set_error("socket() failed");
    return false;
  }
  const int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(im.listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(im.listen_fd, 64) != 0) {
    im.set_error("bind/listen on " + im.opts.host + ":" +
                 std::to_string(im.opts.port) + " failed");
    im.close_sockets();
    return false;
  }
  // Non-blocking accept: poll() may report a connection that resets
  // before we get to it; accept must not wedge the dispatcher then.
  ::fcntl(im.listen_fd, F_SETFL, O_NONBLOCK);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&bound),
                &bound_len);
  im.port.store(static_cast<int>(ntohs(bound.sin_port)),
                std::memory_order_release);

  if (::pipe(im.wake_fds) != 0) {
    im.set_error("wake pipe failed");
    im.close_sockets();
    return false;
  }

  im.started_at = std::chrono::steady_clock::now();
  im.stop_requested.store(false, std::memory_order_release);
  im.running.store(true, std::memory_order_release);
  Impl* impl = impl_.get();
  im.task =
      core::parallel::ThreadPool::global().submit([impl] {
        impl->serve_loop();
      });
  im.task_live = true;
  return true;
}

void TelemetryServer::stop() {
  Impl& im = *impl_;
  if (!im.task_live) return;
  im.stop_requested.store(true, std::memory_order_release);
  // Wake the poll(); if the dispatcher never got a pool slot,
  // run_now_or_wait() runs it inline and it exits on the stop flag.
  if (im.wake_fds[1] >= 0) {
    const char x = 'x';
    [[maybe_unused]] ssize_t n = ::write(im.wake_fds[1], &x, 1);
  }
  im.task.run_now_or_wait();
  im.task_live = false;
  im.running.store(false, std::memory_order_release);
  im.port.store(-1, std::memory_order_release);
  im.close_sockets();
}

bool TelemetryServer::running() const {
  return impl_->running.load(std::memory_order_acquire);
}

int TelemetryServer::port() const {
  return impl_->port.load(std::memory_order_acquire);
}

const std::string& TelemetryServer::last_error() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->error;
}

void TelemetryServer::set_health_source(
    std::function<HealthState()> source) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->health_source = std::move(source);
}

void TelemetryServer::add_statusz_section(
    const std::string& name, std::function<std::string()> render) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [existing, fn] : impl_->sections) {
    if (existing == name) {
      fn = std::move(render);
      return;
    }
  }
  impl_->sections.emplace_back(name, std::move(render));
}

std::int64_t TelemetryServer::requests_served() const {
  return impl_->requests.load(std::memory_order_relaxed);
}

void TelemetryServer::Impl::serve_loop() {
  while (!stop_requested.load(std::memory_order_acquire)) {
    pollfd pfds[2];
    pfds[0] = {listen_fd, POLLIN, 0};
    pfds[1] = {wake_fds[0], POLLIN, 0};
    // Finite timeout as a belt-and-braces backstop for a lost wake.
    const int rc = ::poll(pfds, 2, 250);
    if (stop_requested.load(std::memory_order_acquire)) break;
    if (rc <= 0) continue;
    if ((pfds[1].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_fds[0], drain, sizeof drain) ==
             static_cast<ssize_t>(sizeof drain)) {
      }
      continue;
    }
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;  // reset before accept / transient error
    set_io_timeouts(fd, opts.io_timeout_ms);
    handle_connection(fd);
    ::close(fd);
  }
}

std::string TelemetryServer::Impl::render_healthz(int* status) const {
  HealthState state;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (health_source) {
      try {
        state = health_source();
      } catch (...) {
        state.healthy = false;
        state.detail = "health source threw";
      }
    }
  }
  *status = state.healthy ? 200 : 503;
  return JsonRecord()
             .set("record", "healthz")
             .set("healthy", state.healthy)
             .set("detail", state.detail)
             .set("anomalies", state.anomalies)
             .str() +
         "\n";
}

std::string TelemetryServer::Impl::render_statusz() const {
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at)
          .count();
  std::string metrics_json = "[";
  const std::vector<JsonRecord> records =
      snapshot_records(MetricsRegistry::global().snapshot());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) metrics_json += ",";
    metrics_json += records[i].str();
  }
  metrics_json += "]";

  JsonRecord sections_obj;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [name, render] : sections) {
      std::string value = "null";
      try {
        value = render();
      } catch (...) {
        value = "null";
      }
      // A section that renders broken JSON degrades to null rather
      // than corrupting the whole scrape.
      if (!validate_json(value)) value = "null";
      sections_obj.set_raw(name, value);
    }
  }

  return JsonRecord()
             .set("record", "statusz")
             .set("schema", "matsci.statusz.v1")
             .set("uptime_s", uptime_s)
             .set("http_requests",
                  requests.load(std::memory_order_relaxed))
             .set("inflight_requests",
                  static_cast<std::int64_t>(InflightSet::global().size()))
             .set_raw("sections", sections_obj.str())
             .set_raw("metrics", metrics_json)
             .str() +
         "\n";
}

std::string TelemetryServer::Impl::render_tracez() const {
  Tracer& tracer = Tracer::global();
  std::vector<TraceEvent> events = tracer.collect();
  const std::size_t limit =
      opts.tracez_limit > 0 ? static_cast<std::size_t>(opts.tracez_limit)
                            : events.size();
  const std::size_t first =
      events.size() > limit ? events.size() - limit : 0;

  std::string spans = "[";
  for (std::size_t i = first; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (i > first) spans += ",";
    JsonRecord rec;
    rec.set("name", ev.name != nullptr ? ev.name : "?")
        .set("ts_ns", static_cast<std::int64_t>(ev.start_ns))
        .set("dur_ns", static_cast<std::int64_t>(ev.dur_ns))
        .set("tid", static_cast<std::int64_t>(ev.tid));
    if (ev.trace_id != 0) {
      rec.set("trace_id", trace_id_hex(ev.trace_id))
          .set("span_id", trace_id_hex(ev.span_id))
          .set("parent_span_id", trace_id_hex(ev.parent_span_id));
    }
    spans += rec.str();
  }
  spans += "]";

  return JsonRecord()
             .set("record", "tracez")
             .set("enabled", tracer.enabled())
             .set("dropped", tracer.dropped())
             .set("returned",
                  static_cast<std::int64_t>(events.size() - first))
             .set("total_collected",
                  static_cast<std::int64_t>(events.size()))
             .set_raw("spans", spans)
             .str() +
         "\n";
}

void TelemetryServer::Impl::handle_connection(int fd) {
  HttpMetrics& metrics = HttpMetrics::get();
  // io_timeout_ms bounds reading the whole request, not each recv: a
  // client trickling bytes must not hold the one dispatcher (and stop())
  // beyond it.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts.io_timeout_ms);
  std::string request;
  char buf[2048];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    const int rc =
        left.count() > 0 ? ::poll(&pfd, 1, static_cast<int>(left.count())) : 0;
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) {
      metrics.errors.add(1);
      return;  // request deadline expired; the caller closes the socket
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  // Request line: METHOD SP PATH SP VERSION
  const std::size_t m_end = request.find(' ');
  const std::size_t p_end =
      m_end == std::string::npos ? std::string::npos
                                 : request.find(' ', m_end + 1);
  if (p_end == std::string::npos) {
    metrics.errors.add(1);
    return;  // malformed/empty request; peer likely reset
  }
  std::string path = request.substr(m_end + 1, p_end - m_end - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path = path.substr(0, query);

  requests.fetch_add(1, std::memory_order_relaxed);
  metrics.requests.add(1);

  bool ok = true;
  if (path == "/metrics") {
    StopWatch watch;
    const std::string body =
        prometheus_text(MetricsRegistry::global().snapshot());
    ok = write_response(fd, 200,
                        "text/plain; version=0.0.4; charset=utf-8", body);
    metrics.scrape_us.observe(watch.elapsed_us());
  } else if (path == "/healthz") {
    int status = 200;
    const std::string body = render_healthz(&status);
    ok = write_response(fd, status, "application/json", body);
  } else if (path == "/statusz") {
    ok = write_response(fd, 200, "application/json", render_statusz());
  } else if (path == "/tracez") {
    ok = write_response(fd, 200, "application/json", render_tracez());
  } else if (path == "/") {
    ok = write_response(fd, 200, "text/plain; charset=utf-8",
                        "matsci telemetry\n"
                        "  /metrics  Prometheus text exposition\n"
                        "  /healthz  liveness (200/503)\n"
                        "  /statusz  JSON process snapshot\n"
                        "  /tracez   recent spans with trace ids\n");
  } else {
    ok = write_response(fd, 404, "text/plain; charset=utf-8",
                        "404 not found\n");
  }
  if (!ok) metrics.errors.add(1);
}

HttpResponse http_get(const std::string& host, int port,
                      const std::string& path, std::int64_t timeout_ms) {
  HttpResponse resp;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    resp.body = "bad address";
    return resp;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    resp.body = "socket() failed";
    return resp;
  }
  set_io_timeouts(fd, timeout_ms);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    resp.body = "connect failed";
    ::close(fd);
    return resp;
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request.data(), request.size())) {
    resp.body = "send failed";
    ::close(fd);
    return resp;
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.1 <code> ..." then headers until the blank line.
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos) {
    resp.body = "malformed response";
    return resp;
  }
  resp.status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t body_at = raw.find("\r\n\r\n");
  if (body_at != std::string::npos) resp.body = raw.substr(body_at + 4);
  return resp;
}

}  // namespace matsci::obs::http
