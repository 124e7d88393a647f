// Observability subsystem tests (ctest label `obs`). The concurrency
// tests run pool workers and client threads against one registry and
// assert bit-stable merged counts; run them under TSan with
//   cmake -B build-tsan -DMATSCI_SANITIZE=thread && cmake --build build-tsan
//   ctest --test-dir build-tsan -L obs --output-on-failure
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/macros.hpp"
#include "core/parallel/thread_pool.hpp"
#include "obs/obs.hpp"
#include "train/logging.hpp"

namespace {

using namespace matsci;

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// --- Counter / Gauge ---------------------------------------------------------

TEST(ObsCounter, SingleThreadExact) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

// Pool workers and dedicated client threads hammer one registry
// counter and one histogram; after joining, merged counts must equal
// the emission count exactly — the sharded fast path may not lose or
// double-count a single increment.
TEST(ObsCounter, PoolWorkersAndClientsMergeExactly) {
  namespace par = core::parallel;
  const std::int64_t saved = par::num_threads();
  par::set_num_threads(4);

  obs::Counter& counter =
      obs::MetricsRegistry::global().counter("test.hammer.counter");
  obs::Histogram& hist =
      obs::MetricsRegistry::global().histogram("test.hammer.hist");
  counter.reset();
  hist.reset();

  constexpr int kPoolTasks = 8;
  constexpr int kClientThreads = 4;
  constexpr int kPerWorker = 5000;

  std::vector<par::TaskHandle> tasks;
  for (int t = 0; t < kPoolTasks; ++t) {
    tasks.push_back(par::ThreadPool::global().submit([&] {
      for (int i = 0; i < kPerWorker; ++i) {
        counter.add(1);
        hist.observe(static_cast<double>(i % 977));
      }
    }));
  }
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerWorker; ++i) {
        counter.add(1);
        hist.observe(static_cast<double>(i % 977));
      }
    });
  }
  for (par::TaskHandle& t : tasks) t.run_now_or_wait();
  for (std::thread& t : clients) t.join();

  const std::int64_t expected =
      static_cast<std::int64_t>(kPoolTasks + kClientThreads) * kPerWorker;
  EXPECT_EQ(counter.value(), expected);
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, expected);
  std::int64_t bucket_total = 0;
  for (const std::int64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, expected);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 976.0);

  par::set_num_threads(saved);
}

TEST(ObsGauge, SetAddRead) {
  obs::Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// --- Histogram ---------------------------------------------------------------

TEST(ObsHistogram, BucketsSumMinMax) {
  obs::Histogram h({10.0, 100.0, 1000.0});
  for (const double v : {5.0, 10.0, 50.0, 500.0, 5000.0}) h.observe(v);
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 5);
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 2);       // 5, 10 (<= 10)
  EXPECT_EQ(snap.counts[1], 1);       // 50
  EXPECT_EQ(snap.counts[2], 1);       // 500
  EXPECT_EQ(snap.counts[3], 1);       // 5000 overflow
  EXPECT_DOUBLE_EQ(snap.sum, 5565.0);
  EXPECT_DOUBLE_EQ(snap.min, 5.0);
  EXPECT_DOUBLE_EQ(snap.max, 5000.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 1113.0);
}

TEST(ObsHistogram, PercentilesInterpolateWithinBuckets) {
  obs::Histogram h(obs::Histogram::default_latency_bounds_us());
  for (int i = 1; i <= 10; ++i) h.observe(100.0 * i);  // 100..1000
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_NEAR(snap.percentile(0.50), 500.0, 100.0);
  EXPECT_GE(snap.percentile(0.95), 900.0);
  EXPECT_LE(snap.percentile(0.95), 1000.0);
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 1000.0);
  // Quantiles clamp to the observed range.
  EXPECT_GE(snap.percentile(0.0), 100.0);
}

TEST(ObsHistogram, SingleValueAllQuantilesCollapse) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(42.0);
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.99), 42.0);
}

TEST(ObsHistogram, EmptySnapshotIsZero) {
  obs::Histogram h({1.0});
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
}

TEST(ObsHistogram, RejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), Error);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), Error);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), Error);
}

// --- Series / Registry -------------------------------------------------------

TEST(ObsSeries, RecordsInOrder) {
  obs::Series s;
  s.record(0, 1.0);
  s.record(1, 0.5);
  s.record(1, 0.25);
  const auto points = s.points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[2].first, 1);
  EXPECT_DOUBLE_EQ(points[2].second, 0.25);
  EXPECT_DOUBLE_EQ(s.last_value(), 0.25);
}

TEST(ObsRegistry, StableReferencesAndSnapshot) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& a = reg.counter("test.registry.counter");
  obs::Counter& b = reg.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(7);
  reg.gauge("test.registry.gauge").set(2.5);
  reg.series("test.registry.series").record(3, 1.5);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.registry.counter"), 7);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.registry.gauge"), 2.5);
  ASSERT_FALSE(snap.series.at("test.registry.series").empty());
  EXPECT_DOUBLE_EQ(snap.series.at("test.registry.series").back().second, 1.5);
}

// --- Tracer ------------------------------------------------------------------

TEST(ObsTracer, ScopesRecordSpansWithThreadIds) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    MATSCI_TRACE_SCOPE("test/outer");
    MATSCI_TRACE_SCOPE("test/inner");
  }
  std::thread other([] { MATSCI_TRACE_SCOPE("test/other_thread"); });
  other.join();
  tracer.set_enabled(false);

  const std::vector<obs::TraceEvent> events = tracer.collect();
#if defined(MATSCI_OBS_ENABLED)
  ASSERT_EQ(events.size(), 3u);
  std::uint32_t main_tid = 0, other_tid = 0;
  std::uint64_t outer_dur = 0, inner_dur = 1;
  for (const obs::TraceEvent& ev : events) {
    ASSERT_NE(ev.name, nullptr);
    EXPECT_GT(ev.tid, 0u);
    const std::string name(ev.name);
    if (name == "test/other_thread") other_tid = ev.tid;
    if (name == "test/inner") { main_tid = ev.tid; inner_dur = ev.dur_ns; }
    if (name == "test/outer") outer_dur = ev.dur_ns;
  }
  EXPECT_NE(main_tid, 0u);
  EXPECT_NE(other_tid, 0u);
  EXPECT_NE(main_tid, other_tid);
  // The outer scope strictly contains the inner one.
  EXPECT_GE(outer_dur, inner_dur);
#else
  EXPECT_TRUE(events.empty());
#endif
  tracer.clear();
}

TEST(ObsTracer, DisabledScopesRecordNothing) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(false);
  { MATSCI_TRACE_SCOPE("test/disabled"); }
  EXPECT_TRUE(tracer.collect().empty());
}

TEST(ObsTracer, RingWrapsAndCountsDropped) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  const std::size_t n = obs::Tracer::kRingCapacity + 100;
  for (std::size_t i = 0; i < n; ++i) {
    tracer.record("test/wrap", i, 1);
  }
  const std::vector<obs::TraceEvent> events = tracer.collect();
  EXPECT_EQ(events.size(), obs::Tracer::kRingCapacity);
  // Oldest events were overwritten: the retained window is the tail.
  EXPECT_EQ(events.front().start_ns, 100u);
  EXPECT_EQ(tracer.dropped(), 100);
  tracer.clear();
  EXPECT_TRUE(tracer.collect().empty());
}

// --- Exporters ---------------------------------------------------------------

TEST(ObsExport, ChromeTraceRoundTripsThroughValidator) {
  std::vector<obs::TraceEvent> events;
  events.push_back({"phase \"a\"", 1000, 500, 1});
  events.push_back({"phase_b", 1200, 100, 2});
  const std::string json = obs::chrome_trace_json(events);
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace_json(json, &error)) << error;

  // Empty trace is still structurally valid.
  EXPECT_TRUE(obs::validate_chrome_trace_json(obs::chrome_trace_json({})));
}

TEST(ObsExport, ValidatorRejectsStructuralDamage) {
  std::string error;
  EXPECT_FALSE(obs::validate_chrome_trace_json("[]", &error));
  EXPECT_FALSE(obs::validate_chrome_trace_json("{\"traceEvents\":{}}"));
  EXPECT_FALSE(obs::validate_chrome_trace_json(
      "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":1}]}"));
  EXPECT_FALSE(obs::validate_chrome_trace_json(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"pid\":1,"
      "\"tid\":1}]}"));  // X without dur
  // Outright broken JSON.
  EXPECT_FALSE(obs::validate_json("{\"a\":", &error));
  EXPECT_FALSE(obs::validate_json("{\"a\":1} trailing"));
  EXPECT_FALSE(obs::validate_json("{'a':1}"));
  EXPECT_TRUE(obs::validate_json("{\"a\":[1,2.5,-3e2,\"x\",true,null]}"));
}

TEST(ObsExport, PrometheusTextShape) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("test.prom.counter").reset();
  reg.counter("test.prom.counter").add(3);
  reg.gauge("test.prom.gauge").set(1.25);
  obs::Histogram& h = reg.histogram("test.prom.hist", {1.0, 2.0});
  h.reset();
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);

  const std::string text = obs::prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE matsci_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("matsci_test_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("matsci_test_prom_gauge 1.25"), std::string::npos);
  EXPECT_NE(text.find("matsci_test_prom_hist_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("matsci_test_prom_hist_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("matsci_test_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("matsci_test_prom_hist_count 3"), std::string::npos);
}

TEST(ObsExport, ChromeTraceEmbedsDroppedEventsMetadata) {
  std::vector<obs::TraceEvent> events;
  events.push_back({"phase_a", 1000, 500, 1});
  const std::string json = obs::chrome_trace_json(events, /*dropped=*/42);
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace_json(json, &error)) << error;
  EXPECT_NE(json.find("\"droppedEvents\":42"), std::string::npos);
  EXPECT_NE(json.find("\"ringCapacityPerThread\""), std::string::npos);
  // Default (-1) keeps the legacy shape: no metadata object.
  EXPECT_EQ(obs::chrome_trace_json(events).find("droppedEvents"),
            std::string::npos);
}

TEST(ObsTracer, DroppedByThreadReportsOnlyOverflowedRings) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  for (std::size_t i = 0; i < obs::Tracer::kRingCapacity + 7; ++i) {
    tracer.record("test/wrap2", i, 1);
  }
  const auto per_thread = tracer.dropped_by_thread();
  ASSERT_EQ(per_thread.size(), 1u);  // only this thread's ring overflowed
  EXPECT_EQ(per_thread[0].second, 7);
  EXPECT_EQ(tracer.dropped(), 7);
  tracer.clear();
  EXPECT_TRUE(tracer.dropped_by_thread().empty());
}

TEST(ObsExport, PrometheusEscapingRules) {
  EXPECT_EQ(obs::prometheus_escape_label_value("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");
  EXPECT_EQ(obs::prometheus_escape_help("help\\ text\nline2"),
            "help\\\\ text\\nline2");
  // HELP keeps double quotes unescaped (only label values escape them).
  EXPECT_EQ(obs::prometheus_escape_help("say \"hi\""), "say \"hi\"");
}

TEST(ObsExport, PrometheusRoundTripsThroughValidator) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("test.promrt.counter").reset();
  reg.counter("test.promrt.counter").add(2);
  reg.gauge("test.promrt.gauge").set(-0.5);
  obs::Histogram& h = reg.histogram("test.promrt.hist", {1.0, 2.0});
  h.reset();
  h.observe(0.5);
  h.observe(9.0);
  obs::Series& s = reg.series("test.promrt.series");
  s.record(1, 3.5);

  const std::string text = obs::prometheus_text(reg.snapshot());
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error;
}

TEST(ObsExport, PrometheusInfBucketGuaranteedForHandBuiltSnapshots) {
  // A snapshot whose counts lack the overflow slot (counts.size() ==
  // bounds.size()) must still emit le="+Inf" equal to _count.
  obs::MetricsRegistry::Snapshot snap;
  obs::HistogramSnapshot hist;
  hist.bounds = {1.0, 2.0};
  hist.counts = {1, 2};  // no overflow slot
  hist.count = 5;        // 2 observations above every bound
  hist.sum = 12.0;
  snap.histograms["test.hand.hist"] = hist;

  const std::string text = obs::prometheus_text(snap);
  EXPECT_NE(text.find("matsci_test_hand_hist_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error;
}

TEST(ObsExport, PrometheusValidatorRejectsDamage) {
  std::string error;
  // Non-cumulative buckets.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "m_bucket{le=\"1\"} 5\nm_bucket{le=\"+Inf\"} 3\nm_sum 1\nm_count 3\n",
      &error));
  // Missing +Inf bucket.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "m_bucket{le=\"1\"} 1\nm_sum 1\nm_count 3\n", &error));
  // +Inf bucket disagrees with _count.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "m_bucket{le=\"+Inf\"} 2\nm_sum 1\nm_count 3\n", &error));
  // Unquoted label value, bad name, bad value, unterminated labels.
  EXPECT_FALSE(obs::validate_prometheus_text("m{le=1} 2\n", &error));
  EXPECT_FALSE(obs::validate_prometheus_text("2bad 1\n", &error));
  EXPECT_FALSE(obs::validate_prometheus_text("m x\n", &error));
  EXPECT_FALSE(obs::validate_prometheus_text("m{le=\"1\" 2\n", &error));
  // A plain counter named *_count must not require histogram structure.
  EXPECT_TRUE(obs::validate_prometheus_text("requests_count 7\n", &error))
      << error;
  // Escaped label values parse.
  EXPECT_TRUE(obs::validate_prometheus_text(
      "m{l=\"a\\\\b\\\"c\\nd\"} 1\n", &error))
      << error;
}

TEST(ObsExport, JsonRecordRendering) {
  const std::string line = obs::JsonRecord()
                               .set("bench", "demo \"x\"\n")
                               .set("n", static_cast<std::int64_t>(7))
                               .set("t", 1.5)
                               .set("ok", true)
                               .set_raw("arr", "[1,2]")
                               .str();
  EXPECT_EQ(line,
            "{\"bench\":\"demo \\\"x\\\"\\n\",\"n\":7,\"t\":1.5,"
            "\"ok\":true,\"arr\":[1,2]}");
  std::string error;
  EXPECT_TRUE(obs::validate_json(line, &error)) << error;
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(ObsExport, BenchReporterWritesValidArtifacts) {
  obs::BenchReporter reporter("obs_selftest", testing::TempDir());
  // Ensure the registry snapshot contributes at least one line even
  // when this test runs in an isolated process (ctest discovery runs
  // one case per invocation, so no other test has registered metrics).
  obs::MetricsRegistry::global().counter("test.reporter.counter").add(1);
  {
    MATSCI_TRACE_SCOPE("test/reporter_span");
  }
  reporter.add(obs::JsonRecord().set("value", 1.0));
  reporter.add(obs::JsonRecord().set("bench", "custom").set("value", 2.0));
  reporter.finish();
  obs::Tracer::global().set_enabled(false);

  const std::string bench = slurp(reporter.bench_json_path());
  std::istringstream lines(bench);
  std::string line;
  std::size_t n_lines = 0;
  bool saw_meta = false, saw_default_name = false, saw_custom = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++n_lines;
    std::string error;
    EXPECT_TRUE(obs::validate_json(line, &error)) << error << "\n" << line;
    if (line.find("\"record\":\"meta\"") != std::string::npos) saw_meta = true;
    if (line.find("\"bench\":\"obs_selftest\"") != std::string::npos) {
      saw_default_name = true;
    }
    if (line.find("\"bench\":\"custom\"") != std::string::npos) {
      saw_custom = true;
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_default_name);
  EXPECT_TRUE(saw_custom);
  // meta + 2 records + at least one registry-snapshot record.
  EXPECT_GE(n_lines, 4u);

  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace_json(slurp(reporter.trace_json_path()),
                                              &error))
      << error;
#if defined(MATSCI_OBS_ENABLED)
  EXPECT_NE(slurp(reporter.trace_json_path()).find("test/reporter_span"),
            std::string::npos);
#endif
  std::remove(reporter.bench_json_path().c_str());
  std::remove(reporter.trace_json_path().c_str());
}

// --- Integration with train --------------------------------------------------

TEST(ObsMetricsLogger, ForwardsSeriesAndKeepsCsvFormat) {
  obs::MetricsRegistry::global().series("train.test_obs_loss").reset();
  train::MetricsLogger logger;
  logger.log(0, "test_obs_loss", 1.0);
  logger.log(1, "test_obs_loss", 0.5);
  logger.log(1, "test_obs_acc", 0.9);

  const auto points =
      obs::MetricsRegistry::global().series("train.test_obs_loss").points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[1].first, 1);
  EXPECT_DOUBLE_EQ(points[1].second, 0.5);

  const std::string path = testing::TempDir() + "/obs_logger.csv";
  logger.write_csv(path);
  EXPECT_EQ(slurp(path),
            "step,test_obs_acc,test_obs_loss\n0,,1\n1,0.9,0.5\n");
  std::remove(path.c_str());

  // Forwarding off: no new points land.
  train::MetricsLogger quiet;
  quiet.set_obs_prefix("");
  quiet.log(2, "test_obs_loss", 0.25);
  EXPECT_EQ(obs::MetricsRegistry::global()
                .series("train.test_obs_loss")
                .points()
                .size(),
            2u);
}

}  // namespace
