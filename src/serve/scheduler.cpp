#include "serve/scheduler.hpp"

#include <exception>

#include "core/macros.hpp"
#include "data/collate.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace matsci::serve {

namespace {

/// Scheduler telemetry: queue wait is enqueue-to-pop (how long a
/// request sat before a dispatch job picked it up — the micro-batching
/// coalescing cost), distinct from the end-to-end
/// PredictResult::latency_us. Queue depth is sampled after every pop;
/// deadline drops are counted by the queue itself.
struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& batches;
  obs::Histogram& batch_size;
  obs::Gauge& queue_depth;
  /// Per-stage latency attribution (DESIGN.md §10): where a request's
  /// time goes inside the scheduler. Each carries the request's trace
  /// id as a Prometheus exemplar, linking the histogram to /tracez.
  obs::Histogram& stage_queue_wait_us;
  obs::Histogram& stage_batch_assembly_us;
  obs::Histogram& stage_forward_us;

  static ServeMetrics& get() {
    static ServeMetrics* m = new ServeMetrics{
        obs::MetricsRegistry::global().counter("serve.requests"),
        obs::MetricsRegistry::global().counter("serve.batches"),
        obs::MetricsRegistry::global().histogram(
            "serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256}),
        obs::MetricsRegistry::global().gauge("serve.queue_depth"),
        obs::MetricsRegistry::global().histogram("serve.stage.queue_wait_us"),
        obs::MetricsRegistry::global().histogram(
            "serve.stage.batch_assembly_us"),
        obs::MetricsRegistry::global().histogram("serve.stage.forward_us"),
    };
    return *m;
  }
};

/// steady_clock time_point -> the Tracer's span clock (nanoseconds on
/// the same steady epoch), for spans whose start predates this call
/// site (e.g. queue wait starts at enqueue time).
std::uint64_t to_span_ns(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

}  // namespace

BatchScheduler::BatchScheduler(std::shared_ptr<InferenceSession> session,
                               SchedulerOptions opts)
    : session_(std::move(session)),
      opts_(std::move(opts)),
      queue_(opts_.queue_capacity > 0
                 ? static_cast<std::size_t>(opts_.queue_capacity)
                 : 0) {
  MATSCI_CHECK(session_ != nullptr, "BatchScheduler needs a session");
  MATSCI_CHECK(opts_.max_batch_size > 0,
               "max_batch_size=" << opts_.max_batch_size);
  MATSCI_CHECK(opts_.max_wait_us >= 0, "max_wait_us=" << opts_.max_wait_us);
  MATSCI_CHECK(opts_.queue_capacity >= 0,
               "queue_capacity=" << opts_.queue_capacity);
  core::parallel::ThreadPool& pool = core::parallel::ThreadPool::global();
  std::int64_t n = opts_.num_workers;
  if (n <= 0) {
    n = pool.size();  // honors MATSCI_NUM_THREADS
  }
  dispatchers_.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    dispatchers_.push_back(pool.submit([this] { dispatch_loop(); }));
  }
}

BatchScheduler::~BatchScheduler() { shutdown(); }

PushResult BatchScheduler::try_submit(data::StructureSample structure,
                                      std::string target,
                                      SubmitOptions sopts) {
  MATSCI_CHECK(sopts.deadline_us >= 0, "deadline_us=" << sopts.deadline_us);
  PredictRequest request;
  request.structure = std::move(structure);
  request.target = std::move(target);
  request.priority = sopts.priority;
  if (sopts.deadline_us > 0) {
    request.deadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(sopts.deadline_us);
  }
  request.cache_key = std::move(sopts.cache_key);
  request.trace = sopts.trace;
  return queue_.try_push(std::move(request));
}

void BatchScheduler::shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  queue_.shutdown();
  // Reclaim every dispatch job: jobs running on pool workers are
  // awaited, jobs still queued behind a busy pool are executed inline
  // here (they drain whatever is left and exit once the queue is
  // empty), so shutdown never depends on pool availability.
  for (core::parallel::TaskHandle& d : dispatchers_) {
    d.run_now_or_wait();
  }
  dispatchers_.clear();
}

void BatchScheduler::dispatch_loop() {
  ServeMetrics& metrics = ServeMetrics::get();
  for (;;) {
    std::vector<PendingRequest> batch =
        queue_.pop_batch(opts_.max_batch_size, opts_.max_wait_us);
    if (batch.empty()) {
      return;  // shut down and drained
    }
    const auto popped = std::chrono::steady_clock::now();
    for (const PendingRequest& p : batch) {
      const double wait_us =
          std::chrono::duration<double, std::micro>(popped - p.enqueued)
              .count();
      metrics.stage_queue_wait_us.observe(wait_us, p.request.trace.trace_id());
      // Span start is the enqueue instant: queue wait began before this
      // code ran, so the span is back-dated onto the tracer's clock.
      obs::record_span("serve/stage/queue_wait", to_span_ns(p.enqueued),
                       to_span_ns(popped) - to_span_ns(p.enqueued),
                       p.request.trace);
    }
    metrics.queue_depth.set(static_cast<double>(queue_.size()));
    serve_batch(batch);
  }
}

void BatchScheduler::serve_batch(std::vector<PendingRequest>& batch) {
  MATSCI_TRACE_SCOPE("serve/batch");
  ServeMetrics& metrics = ServeMetrics::get();
  metrics.batches.add(1);
  metrics.requests.add(static_cast<std::int64_t>(batch.size()));
  metrics.batch_size.observe(static_cast<double>(batch.size()));

  // The micro-batch gets its own span, a child of the anchor request's
  // context (pop_batch puts the anchor first). Member forward spans
  // parent onto it, so /tracez shows which requests shared a batch.
  const obs::TraceContext batch_ctx = batch.front().request.trace.valid()
                                          ? batch.front().request.trace.child()
                                          : obs::TraceContext{};
  const auto assembly_start = std::chrono::steady_clock::now();
  std::vector<data::StructureSample> samples;
  samples.reserve(batch.size());
  for (const PendingRequest& p : batch) {
    samples.push_back(p.request.structure);
  }
  const auto forward_start = std::chrono::steady_clock::now();
  const double assembly_us = std::chrono::duration<double, std::micro>(
                                 forward_start - assembly_start)
                                 .count();
  metrics.stage_batch_assembly_us.observe(assembly_us,
                                          batch_ctx.trace_id());
  obs::record_span("serve/stage/batch_assembly", to_span_ns(assembly_start),
                   to_span_ns(forward_start) - to_span_ns(assembly_start),
                   batch_ctx);

  std::vector<tasks::Prediction> predictions;
  try {
    MATSCI_TRACE_SCOPE("serve/predict");
    predictions = session_->predict(samples, batch.front().request.target);
    MATSCI_CHECK(predictions.size() == batch.size(),
                 "session returned " << predictions.size()
                                     << " predictions for " << batch.size()
                                     << " requests");
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (PendingRequest& p : batch) {
      p.promise.set_exception(error);
      obs::InflightSet::global().erase(p.request.trace);
    }
    return;
  }

  const auto now = std::chrono::steady_clock::now();
  const double service_us =
      std::chrono::duration<double, std::micro>(now - forward_start).count();
  const std::uint64_t forward_start_ns = to_span_ns(forward_start);
  const std::uint64_t forward_dur_ns = to_span_ns(now) - forward_start_ns;
  obs::record_span("serve/batch", to_span_ns(assembly_start),
                   to_span_ns(now) - to_span_ns(assembly_start), batch_ctx);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PredictResult result;
    result.prediction = std::move(predictions[i]);
    result.batch_size = static_cast<std::int64_t>(batch.size());
    result.latency_us =
        std::chrono::duration<double, std::micro>(now - batch[i].enqueued)
            .count();
    result.service_us = service_us;
    metrics.stage_forward_us.observe(service_us,
                                     batch[i].request.trace.trace_id());
    // The member's forward span parents onto the batch span, not the
    // member's own previous stage — that is the batch linkage.
    obs::record_span("serve/stage/forward", forward_start_ns, forward_dur_ns,
                     batch[i].request.trace, batch_ctx.span_id());
    if (opts_.on_result) {
      try {
        opts_.on_result(batch[i].request, result);
      } catch (...) {
        // Observers must not break serving.
      }
    }
    batch[i].promise.set_value(std::move(result));
    obs::InflightSet::global().erase(batch[i].request.trace);
  }
}

}  // namespace matsci::serve
