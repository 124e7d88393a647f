#include "serve/frontend/frontend.hpp"

#include <utility>

#include "core/macros.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"

namespace matsci::serve::frontend {

namespace {

struct FrontendMetrics {
  obs::Counter& admitted;
  obs::Counter& shed_full;
  obs::Counter& shed_deadline;
  obs::Histogram& retry_after_us;
  obs::Gauge& queue_depth;
  /// Frontend-side stage attribution: time to answer from the cache,
  /// and time spent deciding to shed. Both carry the request's trace id
  /// as an exemplar (see serve.stage.* in scheduler.cpp for the queued
  /// stages).
  obs::Histogram& stage_cache_us;
  obs::Histogram& stage_shed_us;

  static FrontendMetrics& get() {
    static FrontendMetrics* m = new FrontendMetrics{
        obs::MetricsRegistry::global().counter("serve.frontend.admitted"),
        obs::MetricsRegistry::global().counter("serve.frontend.shed_full"),
        obs::MetricsRegistry::global().counter(
            "serve.frontend.shed_deadline"),
        obs::MetricsRegistry::global().histogram(
            "serve.frontend.retry_after_us"),
        obs::MetricsRegistry::global().gauge("serve.frontend.queue_depth"),
        obs::MetricsRegistry::global().histogram("serve.stage.cache_us"),
        obs::MetricsRegistry::global().histogram("serve.stage.shed_us"),
    };
    return *m;
  }
};

}  // namespace

ServeFrontend::ServeFrontend(FrontendOptions opts)
    : opts_(std::move(opts)),
      cache_(std::make_shared<ResponseCache>(opts_.cache)) {}

ServeFrontend::~ServeFrontend() {
  // Drain every model while the cache/admission state is still alive
  // (dispatch jobs run the on_result hooks during the drain).
  registry_.retire_all();
}

std::shared_ptr<ServingModel> ServeFrontend::deploy(
    const std::string& name, std::uint64_t version,
    std::shared_ptr<InferenceSession> session, SchedulerOptions opts) {
  // One admission controller per model *name*: it survives hot-swaps so
  // the service-time EWMA keeps guiding retry-after across versions.
  std::shared_ptr<AdmissionController> admission;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    auto it = admission_.find(name);
    const std::int64_t workers =
        opts.num_workers > 0 ? opts.num_workers
                             : core::parallel::ThreadPool::global().size();
    AdmissionOptions aopts = opts_.admission;
    if (it != admission_.end()) {
      aopts.initial_service_us = it->second->service_estimate_us();
    }
    admission = std::make_shared<AdmissionController>(
        aopts, opts.queue_capacity, workers);
    admission_[name] = admission;
  }

  // Chain the scheduler's completion hook: user hook first, then cache
  // population and the admission EWMA. Captures shared_ptrs so the
  // hook outlives any frontend teardown race during the final drain.
  auto user_hook = std::move(opts.on_result);
  std::shared_ptr<ResponseCache> cache = cache_;
  opts.on_result = [user_hook, cache, admission](
                       const PredictRequest& request,
                       const PredictResult& result) {
    if (user_hook) user_hook(request, result);
    if (!request.cache_key.empty()) {
      cache->insert(request.cache_key, result.prediction);
    }
    if (result.batch_size > 0) {
      admission->observe_service(result.service_us /
                                 static_cast<double>(result.batch_size));
    }
  };
  return registry_.deploy(name, version, std::move(session),
                          std::move(opts));
}

SubmitOutcome ServeFrontend::submit(const std::string& name,
                                    data::StructureSample structure,
                                    std::string target,
                                    const FrontendRequestOptions& ropts) {
  FrontendMetrics& metrics = FrontendMetrics::get();
  SubmitOutcome out;
  // Mint the request's trace context here, at the serving boundary —
  // every stage span downstream (cache/shed/queue_wait/forward) carries
  // this id. A valid parent (e.g. a sim wave) keeps its trace id.
  const obs::TraceContext ctx = ropts.parent.valid()
                                    ? ropts.parent.child()
                                    : obs::TraceContext::mint();
  out.trace = ctx;
  const std::uint64_t t0 = obs::Tracer::now_ns();
  const obs::StopWatch watch;

  // A submit racing a hot-swap can catch the displaced version just as
  // its intake closes (kShutdown) — re-resolve and land on the new
  // version. Bounded only as a corruption guard; two iterations is the
  // practical maximum (the registry publishes the replacement before
  // closing the old intake).
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::shared_ptr<ServingModel> model = registry_.resolve(name);
    if (model == nullptr) {
      no_such_model_.fetch_add(1, std::memory_order_relaxed);
      out.status = SubmitStatus::kNoSuchModel;
      return out;
    }
    out.version = model->version();
    BatchScheduler& scheduler = model->scheduler();

    std::string cache_key;
    const bool cache_enabled =
        ropts.use_cache && cache_->options().capacity > 0;
    if (cache_enabled) {
      cache_key = cache_->make_key(structure, target, model->version());
      if (std::optional<tasks::Prediction> hit = cache_->lookup(cache_key)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        std::promise<PredictResult> ready;
        PredictResult result;
        result.prediction = std::move(*hit);
        result.batch_size = 0;  // 0 = answered from cache, no batch
        ready.set_value(std::move(result));
        out.status = SubmitStatus::kCacheHit;
        out.future = ready.get_future();
        metrics.stage_cache_us.observe(watch.elapsed_us(), ctx.trace_id());
        obs::record_span("serve/stage/cache", t0,
                         obs::Tracer::now_ns() - t0, ctx);
        return out;
      }
    }

    const std::int64_t depth = scheduler.queue_depth();
    metrics.queue_depth.set(static_cast<double>(depth));
    std::shared_ptr<AdmissionController> admission = this->admission(name);
    MATSCI_CHECK(admission != nullptr,
                 "frontend: no admission controller for deployed model '"
                     << name << "'");
    const AdmissionDecision decision = admission->decide(
        ropts.priority, depth, ropts.deadline_us, ctx.trace_id());
    if (!decision.admitted()) {
      out.retry_after_us = decision.retry_after_us;
      metrics.retry_after_us.observe(decision.retry_after_us,
                                     decision.trace_id);
      if (decision.outcome == AdmissionOutcome::kQueueFull) {
        shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
        metrics.shed_full.add(1);
        out.status = SubmitStatus::kShedQueueFull;
      } else {
        shed_deadline_.fetch_add(1, std::memory_order_relaxed);
        metrics.shed_deadline.add(1);
        out.status = SubmitStatus::kShedDeadline;
      }
      metrics.stage_shed_us.observe(watch.elapsed_us(), ctx.trace_id());
      obs::record_span("serve/stage/shed", t0,
                       obs::Tracer::now_ns() - t0, ctx);
      return out;
    }

    SubmitOptions sopts;
    sopts.priority = ropts.priority;
    sopts.deadline_us = ropts.deadline_us;
    sopts.cache_key = cache_key;
    sopts.trace = ctx;
    PushResult push =
        scheduler.try_submit(structure, target, std::move(sopts));
    switch (push.status) {
      case PushStatus::kAccepted:
        admitted_.fetch_add(1, std::memory_order_relaxed);
        metrics.admitted.add(1);
        out.status = SubmitStatus::kAccepted;
        out.future = std::move(push.future);
        // Accepted: the request is now in flight until its promise
        // resolves (scheduler) or its deadline drops it (queue) —
        // either fulfillment path removes it from the set.
        obs::InflightSet::global().insert(ctx);
        obs::record_span("serve/stage/admission", t0,
                         obs::Tracer::now_ns() - t0, ctx);
        return out;
      case PushStatus::kQueueFull: {
        // Raced past admission into a just-filled queue: shed with the
        // same retry-after the controller would hand out at this depth.
        shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
        metrics.shed_full.add(1);
        out.status = SubmitStatus::kShedQueueFull;
        out.retry_after_us = std::max(
            admission->options().min_retry_after_us,
            admission->estimated_wait_us(scheduler.queue_depth()));
        metrics.retry_after_us.observe(out.retry_after_us, ctx.trace_id());
        metrics.stage_shed_us.observe(watch.elapsed_us(), ctx.trace_id());
        obs::record_span("serve/stage/shed", t0,
                         obs::Tracer::now_ns() - t0, ctx);
        return out;
      }
      case PushStatus::kShutdown:
        continue;  // hot-swap race: re-resolve the registry
    }
  }
  MATSCI_CHECK(false, "frontend: submit livelocked on model '"
                          << name << "' (registry churn?)");
  return out;  // unreachable
}

std::shared_ptr<AdmissionController> ServeFrontend::admission(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  auto it = admission_.find(name);
  return it == admission_.end() ? nullptr : it->second;
}

FrontendStats ServeFrontend::stats() const {
  FrontendStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.no_such_model = no_such_model_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace matsci::serve::frontend
