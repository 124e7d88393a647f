// Tests for the live telemetry plane (src/obs/http + src/obs/context):
// TraceContext mint/child semantics, the telemetry server's endpoints
// (/metrics validator round-trip with exemplars, /healthz status
// flipping, /statusz and /tracez as strict JSON), concurrent scrapes
// while registry shards mutate, and end-to-end trace-id continuity
// through the serving stack (admission -> queue wait -> batch ->
// forward) including shed outcomes and the flight-recorder in-flight
// section. Label `obs_http`; the CI matrix runs it under TSan and
// ASan.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/macros.hpp"
#include "core/parallel/thread_pool.hpp"
#include "materials/materials_project.hpp"
#include "obs/obs.hpp"
#include "serve/serve.hpp"

namespace matsci::obs {
namespace {

using http::HttpResponse;
using http::TelemetryServer;
using http::TelemetryServerOptions;

/// Inference-only task: echoes the within-batch index, optional delay.
class EchoTask : public tasks::Task {
 public:
  explicit EchoTask(std::chrono::milliseconds delay = {}) : delay_(delay) {}

  tasks::TaskOutput step(const data::Batch&) const override {
    throw matsci::Error("EchoTask is inference-only");
  }
  std::shared_ptr<models::Encoder> encoder() const override {
    return nullptr;
  }
  std::vector<tasks::Prediction> predict_batch(
      const data::Batch& batch, const std::string& target) const override {
    MATSCI_CHECK(target == "echo", "unknown target " << target);
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    std::vector<tasks::Prediction> out(
        static_cast<std::size_t>(batch.num_graphs()));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].value = static_cast<float>(i);
    }
    return out;
  }

 private:
  std::chrono::milliseconds delay_;
};

std::shared_ptr<serve::InferenceSession> echo_session(
    std::chrono::milliseconds delay = {}) {
  serve::InferenceSessionOptions opts;
  opts.collate.radius.cutoff = 4.5;
  return std::make_shared<serve::InferenceSession>(
      std::make_shared<EchoTask>(delay), opts);
}

data::StructureSample one_sample(std::uint64_t seed = 7) {
  materials::MaterialsProjectDataset ds(4, seed);
  return ds.get(0);
}

/// Spans collected since the caller's clear(), filtered by trace id.
std::vector<TraceEvent> spans_of_trace(std::uint64_t trace_id) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : Tracer::global().collect()) {
    if (ev.trace_id == trace_id) out.push_back(ev);
  }
  return out;
}

bool has_span(const std::vector<TraceEvent>& spans, const char* name) {
  for (const TraceEvent& ev : spans) {
    if (std::string(ev.name) == name) return true;
  }
  return false;
}

// --- TraceContext ------------------------------------------------------------

TEST(TraceContext, MintProducesUniqueNonZeroIds) {
  std::set<std::uint64_t> traces;
  std::set<std::uint64_t> spans;
  for (int i = 0; i < 1000; ++i) {
    const TraceContext ctx = TraceContext::mint();
    EXPECT_TRUE(ctx.valid());
    EXPECT_NE(ctx.trace_id(), 0u);
    EXPECT_NE(ctx.span_id(), 0u);
    EXPECT_EQ(ctx.parent_span_id(), 0u);  // root
    traces.insert(ctx.trace_id());
    spans.insert(ctx.span_id());
  }
  EXPECT_EQ(traces.size(), 1000u);
  EXPECT_EQ(spans.size(), 1000u);
}

TEST(TraceContext, ChildKeepsTraceAndLinksParent) {
  const TraceContext root = TraceContext::mint();
  const TraceContext child = root.child();
  const TraceContext grandchild = child.child();
  EXPECT_EQ(child.trace_id(), root.trace_id());
  EXPECT_EQ(grandchild.trace_id(), root.trace_id());
  EXPECT_NE(child.span_id(), root.span_id());
  EXPECT_EQ(child.parent_span_id(), root.span_id());
  EXPECT_EQ(grandchild.parent_span_id(), child.span_id());
}

TEST(TraceContext, HexRenderingIsFixedWidthLowercase) {
  EXPECT_EQ(trace_id_hex(0), "0000000000000000");
  EXPECT_EQ(trace_id_hex(0xABCDEFull), "0000000000abcdef");
  EXPECT_EQ(trace_id_hex(~0ull), "ffffffffffffffff");
}

TEST(TraceContext, RecordSpanCarriesIdsIntoTracer) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const TraceContext ctx = TraceContext::mint();
  record_span("test/span", Tracer::now_ns(), 42, ctx);
  record_span("test/override", Tracer::now_ns(), 7, ctx, 0xBEEF);
  tracer.set_enabled(false);

  const std::vector<TraceEvent> spans = spans_of_trace(ctx.trace_id());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(has_span(spans, "test/span"));
  EXPECT_TRUE(has_span(spans, "test/override"));
  for (const TraceEvent& ev : spans) {
    EXPECT_EQ(ev.trace_id, ctx.trace_id());
    EXPECT_EQ(ev.span_id, ctx.span_id());
    if (std::string(ev.name) == "test/span") {
      EXPECT_EQ(ev.parent_span_id, ctx.parent_span_id());
    } else {
      EXPECT_EQ(ev.parent_span_id, 0xBEEFu);  // explicit override wins
    }
  }
}

TEST(InflightSetTest, InsertEraseSnapshot) {
  InflightSet& set = InflightSet::global();
  const std::size_t before = set.size();
  const TraceContext a = TraceContext::mint();
  const TraceContext b = TraceContext::mint();
  set.insert(a);
  set.insert(b);
  EXPECT_EQ(set.size(), before + 2);
  bool found_a = false;
  for (const TraceContext& ctx : set.snapshot()) {
    if (ctx.trace_id() == a.trace_id()) found_a = true;
  }
  EXPECT_TRUE(found_a);
  set.erase(a);
  set.erase(b);
  EXPECT_EQ(set.size(), before);
  set.erase(a);  // double-erase is a no-op
  EXPECT_EQ(set.size(), before);
}

// --- Histogram exemplars -----------------------------------------------------

TEST(Exemplars, SurviveSnapshotAndPrometheusRoundTrip) {
  Histogram& hist =
      MetricsRegistry::global().histogram("test.exemplar_us");
  hist.reset();
  const TraceContext ctx = TraceContext::mint();
  hist.observe(123.0);                    // untraced: no exemplar
  hist.observe(456.0, ctx.trace_id());    // traced: recorded
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.exemplar_trace_id, ctx.trace_id());
  EXPECT_DOUBLE_EQ(snap.exemplar_value, 456.0);

  const std::string text =
      prometheus_text(MetricsRegistry::global().snapshot());
  std::string error;
  EXPECT_TRUE(validate_prometheus_text(text, &error)) << error;
  EXPECT_NE(text.find("# {trace_id=\"" + trace_id_hex(ctx.trace_id()) +
                      "\"} 456"),
            std::string::npos)
      << "exemplar missing from +Inf bucket line";
}

// --- TelemetryServer lifecycle ----------------------------------------------

TEST(TelemetryServerTest, CompiledOutOrEphemeralPortLifecycle) {
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), -1);
  server.stop();  // idempotent
}

TEST(TelemetryServerTest, IndexAndNotFound) {
  Counter& requests = MetricsRegistry::global().counter("obs.http.requests");
  const std::int64_t requests_before = requests.value();
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const HttpResponse index = http::http_get("127.0.0.1", server.port(), "/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  const HttpResponse missing =
      http::http_get("127.0.0.1", server.port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_GE(requests.value() - requests_before, 2);
  server.stop();
}

TEST(TelemetryServerTest, ClientReportsTransportFailure) {
  // Grab an ephemeral port, then close it: nothing listens there.
  int dead_port = 0;
  {
    TelemetryServer probe;
    ASSERT_TRUE(probe.start()) << probe.last_error();
    dead_port = probe.port();
    probe.stop();
  }
  const HttpResponse resp =
      http::http_get("127.0.0.1", dead_port, "/metrics", 500);
  EXPECT_EQ(resp.status, 0);
  EXPECT_FALSE(resp.body.empty());
}

TEST(TelemetryServerTest, TricklingClientIsClosedAtTheRequestDeadline) {
  TelemetryServerOptions opts;
  opts.io_timeout_ms = 300;
  TelemetryServer server(opts);
  ASSERT_TRUE(server.start()) << server.last_error();
  Counter& errors = MetricsRegistry::global().counter("obs.http.errors");
  const std::int64_t errors_before = errors.value();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);

  // One byte of a request head that never ends, every 100 ms for up to
  // 3 s: each recv alone sees data well inside io_timeout_ms, so only a
  // deadline on the whole request closes the connection.
  const auto start = std::chrono::steady_clock::now();
  bool closed = false;
  while (!closed &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(3)) {
    const char byte = 'x';
    if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) {
      closed = true;
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) > 0) {
      char buf[64];
      closed = ::recv(fd, buf, sizeof buf, 0) <= 0;  // EOF or reset
    }
  }
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  ::close(fd);
  EXPECT_TRUE(closed);
  EXPECT_LT(elapsed_s, 1.5);
  EXPECT_GT(errors.value(), errors_before);
  // The dispatcher is free for the next scrape.
  EXPECT_EQ(http::http_get("127.0.0.1", server.port(), "/healthz").status,
            200);
  server.stop();
}

// --- /metrics ----------------------------------------------------------------

TEST(TelemetryServerTest, MetricsScrapeIsValidatorClean) {
  MetricsRegistry::global().counter("test.http.scrape_counter").add(3);
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const HttpResponse resp =
      http::http_get("127.0.0.1", server.port(), "/metrics");
  server.stop();
  ASSERT_EQ(resp.status, 200);
  std::string error;
  EXPECT_TRUE(validate_prometheus_text(resp.body, &error)) << error;
  EXPECT_NE(resp.body.find("matsci_test_http_scrape_counter"),
            std::string::npos);
}

TEST(TelemetryServerTest, ConcurrentScrapesWhileShardsMutate) {
  // Start the server BEFORE occupying pool slots (header contract).
  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();

  // Mutators on the pool hammer the sharded registry while the test
  // thread scrapes repeatedly; every scrape must stay validator-clean.
  std::atomic<bool> stop{false};
  core::parallel::ThreadPool& pool = core::parallel::ThreadPool::global();
  std::vector<core::parallel::TaskHandle> mutators;
  // Stops and reclaims the mutators on every exit path: a failed ASSERT
  // returns early, and the mutators must not outlive `stop`.
  struct StopMutators {
    std::atomic<bool>& stop;
    std::vector<core::parallel::TaskHandle>& mutators;
    ~StopMutators() {
      stop.store(true, std::memory_order_relaxed);
      for (core::parallel::TaskHandle& m : mutators) m.run_now_or_wait();
    }
  } stop_mutators{stop, mutators};
  for (int i = 0; i < 2; ++i) {
    mutators.push_back(pool.submit([&stop] {
      Counter& c = MetricsRegistry::global().counter("test.http.churn");
      Histogram& h =
          MetricsRegistry::global().histogram("test.http.churn_us");
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c.add(1);
        h.observe(static_cast<double>(n % 1000),
                  TraceContext::mint().trace_id());
        ++n;
      }
    }));
  }

  int valid = 0;
  for (int i = 0; i < 20; ++i) {
    const HttpResponse resp =
        http::http_get("127.0.0.1", server.port(), "/metrics");
    ASSERT_EQ(resp.status, 200);
    std::string error;
    ASSERT_TRUE(validate_prometheus_text(resp.body, &error))
        << "scrape " << i << ": " << error;
    ++valid;
  }
  EXPECT_EQ(valid, 20);
}

// --- /healthz ----------------------------------------------------------------

TEST(TelemetryServerTest, HealthzFlipsTo503) {
  TelemetryServer server;
  std::atomic<bool> healthy{true};
  server.set_health_source([&healthy] {
    http::HealthState state;
    state.healthy = healthy.load();
    state.detail = state.healthy ? "ok" : "anomaly storm";
    state.anomalies = state.healthy ? 0 : 12;
    return state;
  });
  ASSERT_TRUE(server.start()) << server.last_error();

  HttpResponse resp = http::http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(resp.status, 200);
  std::string error;
  EXPECT_TRUE(validate_json(resp.body, &error)) << error;
  EXPECT_NE(resp.body.find("\"healthy\":true"), std::string::npos);

  healthy.store(false);
  resp = http::http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(resp.status, 503);
  EXPECT_TRUE(validate_json(resp.body, &error)) << error;
  EXPECT_NE(resp.body.find("\"anomalies\":12"), std::string::npos);
  server.stop();
}

// --- /statusz ----------------------------------------------------------------

TEST(TelemetryServerTest, StatuszIsStrictJsonWithSections) {
  TelemetryServer server;
  server.add_statusz_section("frontend", [] {
    return JsonRecord().set("admitted", 42).set("shed", 3).str();
  });
  server.add_statusz_section("broken", []() -> std::string {
    throw matsci::Error("renderer exploded");
  });
  server.add_statusz_section("malformed", [] {
    return std::string("{not json");
  });
  ASSERT_TRUE(server.start()) << server.last_error();
  const HttpResponse resp =
      http::http_get("127.0.0.1", server.port(), "/statusz");
  server.stop();
  ASSERT_EQ(resp.status, 200);
  std::string error;
  ASSERT_TRUE(validate_json(resp.body, &error)) << error;
  EXPECT_NE(resp.body.find("\"admitted\":42"), std::string::npos);
  // Throwing/invalid renderers degrade to null, never break the scrape.
  EXPECT_NE(resp.body.find("\"broken\":null"), std::string::npos);
  EXPECT_NE(resp.body.find("\"malformed\":null"), std::string::npos);
}

// --- /tracez -----------------------------------------------------------------

TEST(TelemetryServerTest, TracezShowsHexTraceIds) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const TraceContext ctx = TraceContext::mint();
  record_span("tracez/unit", Tracer::now_ns(), 1000, ctx);
  tracer.set_enabled(false);

  TelemetryServer server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const HttpResponse resp =
      http::http_get("127.0.0.1", server.port(), "/tracez");
  server.stop();
  ASSERT_EQ(resp.status, 200);
  std::string error;
  ASSERT_TRUE(validate_json(resp.body, &error)) << error;
  EXPECT_NE(resp.body.find("tracez/unit"), std::string::npos);
  EXPECT_NE(resp.body.find(trace_id_hex(ctx.trace_id())),
            std::string::npos);
}

// --- End-to-end propagation through the serving stack ------------------------

TEST(TracePropagation, FrontendToForwardSharesOneTraceId) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  serve::frontend::ServeFrontend frontend;
  serve::SchedulerOptions sopts;
  sopts.num_workers = 1;
  frontend.deploy("echo_model", 1, echo_session(), sopts);

  serve::frontend::SubmitOutcome out =
      frontend.submit("echo_model", one_sample(), "echo");
  ASSERT_EQ(out.status, serve::frontend::SubmitStatus::kAccepted);
  ASSERT_TRUE(out.trace.valid());
  out.future.get();
  frontend.retire("echo_model");
  tracer.set_enabled(false);

  const std::vector<TraceEvent> spans = spans_of_trace(out.trace.trace_id());
  EXPECT_TRUE(has_span(spans, "serve/stage/admission"));
  EXPECT_TRUE(has_span(spans, "serve/stage/queue_wait"));
  EXPECT_TRUE(has_span(spans, "serve/stage/forward"));
  EXPECT_TRUE(has_span(spans, "serve/batch"));

  // Batch linkage: the forward span's parent is the batch span, which
  // is a child context within the same trace.
  std::uint64_t batch_span = 0;
  for (const TraceEvent& ev : spans) {
    if (std::string(ev.name) == "serve/batch") batch_span = ev.span_id;
  }
  ASSERT_NE(batch_span, 0u);
  for (const TraceEvent& ev : spans) {
    if (std::string(ev.name) == "serve/stage/forward") {
      EXPECT_EQ(ev.parent_span_id, batch_span);
      EXPECT_EQ(ev.span_id, out.trace.span_id());
    }
  }

  // Fulfilled: the request must have left the in-flight set.
  for (const TraceContext& inflight : InflightSet::global().snapshot()) {
    EXPECT_NE(inflight.trace_id(), out.trace.trace_id());
  }
}

TEST(TracePropagation, CacheHitRecordsCacheStageSpan) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  serve::frontend::ServeFrontend frontend;
  serve::SchedulerOptions sopts;
  sopts.num_workers = 1;
  frontend.deploy("echo_model", 1, echo_session(), sopts);
  const data::StructureSample sample = one_sample();

  serve::frontend::SubmitOutcome first =
      frontend.submit("echo_model", sample, "echo");
  ASSERT_EQ(first.status, serve::frontend::SubmitStatus::kAccepted);
  first.future.get();

  serve::frontend::SubmitOutcome second =
      frontend.submit("echo_model", sample, "echo");
  ASSERT_EQ(second.status, serve::frontend::SubmitStatus::kCacheHit);
  ASSERT_TRUE(second.trace.valid());
  EXPECT_NE(second.trace.trace_id(), first.trace.trace_id());
  frontend.retire("echo_model");
  tracer.set_enabled(false);

  EXPECT_TRUE(has_span(spans_of_trace(second.trace.trace_id()),
                       "serve/stage/cache"));
}

TEST(TracePropagation, ShedOutcomeCarriesTraceAndShedSpan) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  serve::frontend::ServeFrontend frontend;
  serve::SchedulerOptions sopts;
  sopts.num_workers = 1;
  sopts.max_batch_size = 1;
  sopts.max_wait_us = 0;
  sopts.queue_capacity = 1;
  frontend.deploy("echo_model", 1,
                  echo_session(std::chrono::milliseconds(100)), sopts);

  // First request occupies the single worker; keep submitting until one
  // queues behind it and admission sheds on the depth share.
  std::vector<serve::frontend::SubmitOutcome> accepted;
  serve::frontend::SubmitOutcome shed;
  serve::frontend::FrontendRequestOptions ropts;
  ropts.use_cache = false;
  for (int i = 0; i < 200; ++i) {
    serve::frontend::SubmitOutcome out =
        frontend.submit("echo_model", one_sample(i), "echo", ropts);
    if (out.shed()) {
      shed = std::move(out);
      break;
    }
    ASSERT_EQ(out.status, serve::frontend::SubmitStatus::kAccepted);
    accepted.push_back(std::move(out));
  }
  ASSERT_TRUE(shed.shed()) << "overload never triggered a shed";
  EXPECT_TRUE(shed.trace.valid());
  EXPECT_GT(shed.retry_after_us, 0.0);

  for (serve::frontend::SubmitOutcome& out : accepted) out.future.get();
  frontend.retire("echo_model");
  tracer.set_enabled(false);

  EXPECT_TRUE(
      has_span(spans_of_trace(shed.trace.trace_id()), "serve/stage/shed"));
  // Shed requests never enter the in-flight set.
  for (const TraceContext& inflight : InflightSet::global().snapshot()) {
    EXPECT_NE(inflight.trace_id(), shed.trace.trace_id());
  }
}

TEST(TracePropagation, AdmissionDecisionEchoesTraceId) {
  serve::frontend::AdmissionController admission({}, 8, 1);
  const TraceContext ctx = TraceContext::mint();
  const serve::frontend::AdmissionDecision d =
      admission.decide(serve::Priority::kStandard, 0, 0, ctx.trace_id());
  EXPECT_TRUE(d.admitted());
  EXPECT_EQ(d.trace_id, ctx.trace_id());
}

// --- FlightRecorder in-flight section ---------------------------------------

TEST(FlightRecorderInflight, BundleNamesInFlightTraceIds) {
  const TraceContext ctx = TraceContext::mint();
  InflightSet::global().insert(ctx);

  health::FlightRecorder rec(4);
  const std::string path =
      ::testing::TempDir() + "flight_inflight_test.json";
  rec.dump(path, "unit-test");
  InflightSet::global().erase(ctx);

  std::ifstream is(path);
  ASSERT_TRUE(is.is_open());
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string bundle = ss.str();
  std::string error;
  EXPECT_TRUE(validate_json(bundle, &error)) << error;
  EXPECT_NE(bundle.find("\"inflight\""), std::string::npos);
  EXPECT_NE(bundle.find(trace_id_hex(ctx.trace_id())), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace matsci::obs
