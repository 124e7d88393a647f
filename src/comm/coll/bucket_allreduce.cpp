#include "comm/coll/bucket_allreduce.hpp"

#include <algorithm>

#include "comm/coll/group_state.hpp"
#include "core/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace matsci::comm::coll {

namespace {

/// Bucket capacity in bytes of fp32 payload. 1 MiB mirrors the PyTorch
/// DDP default order of magnitude, scaled to our model sizes.
constexpr std::int64_t kBucketBytes = 1 << 20;

/// Bucket-only series. Posted fp32 bytes are counted where ranks meet
/// (comm.allreduce.bytes, in GroupState::post).
struct BucketMetrics {
  obs::Histogram& reduce_us;
  obs::Series& overlap_fraction;

  static BucketMetrics& get() {
    static BucketMetrics* m = new BucketMetrics{
        obs::MetricsRegistry::global().histogram("comm.bucket.reduce_us"),
        obs::MetricsRegistry::global().series("comm.overlap_fraction"),
    };
    return *m;
  }
};

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

BucketAllreduce::BucketAllreduce(Communicator& comm,
                                 std::vector<core::Tensor> params)
    : comm_(comm), bucketer_(std::move(params), kBucketBytes) {
  state_.resize(bucketer_.num_buckets());
}

BucketAllreduce::~BucketAllreduce() {
  bool in_flight = false;
  for (const BucketState& s : state_) {
    if (s.launched && !s.waited) {
      in_flight = true;
      break;
    }
  }
  if (in_flight) {
    // Exception unwind with posted buffers: withdraw / drain before the
    // bucketer (and its flat buffers) is destroyed.
    comm_.group()->coll_state().abandon(comm_.rank());
  }
}

void BucketAllreduce::begin_step() {
  for (std::size_t i = 0; i < state_.size(); ++i) {
    BucketState& s = state_[i];
    s.pending =
        static_cast<std::int64_t>(bucketer_.bucket(i).param_indices.size());
    s.launched = false;
    s.waited = false;
  }
  step_armed_ = true;
}

core::GradReadyHook BucketAllreduce::hook() {
  return [this](const std::shared_ptr<core::TensorImpl>& leaf) {
    on_grad_ready(leaf);
  };
}

void BucketAllreduce::on_grad_ready(
    const std::shared_ptr<core::TensorImpl>& leaf) {
  if (!step_armed_) return;
  const std::int64_t b = bucketer_.bucket_of(leaf.get());
  if (b < 0) return;  // grad-bearing non-parameter (e.g. force inputs)
  BucketState& s = state_[static_cast<std::size_t>(b)];
  MATSCI_CHECK(s.pending > 0,
               "bucket " << b << " over-notified (param fired twice?)");
  if (--s.pending == 0) {
    launch(static_cast<std::size_t>(b));
  }
}

void BucketAllreduce::launch(std::size_t bucket) {
  MATSCI_TRACE_SCOPE("coll/bucket_launch");
  BucketState& s = state_[bucket];
  const std::span<float> flat = bucketer_.flatten(bucket);
  totals_.bytes += static_cast<std::int64_t>(flat.size() * sizeof(float));
  comm_.allreduce_mean_nb(static_cast<std::int64_t>(bucket), flat);
  s.post_time = std::chrono::steady_clock::now();
  s.launched = true;
}

void BucketAllreduce::finish_step() {
  MATSCI_CHECK(step_armed_, "finish_step without begin_step");
  MATSCI_TRACE_SCOPE("coll/finish_step");
  const auto backward_end = std::chrono::steady_clock::now();

  // Buckets holding params the tape never reached (unused heads,
  // frozen layers): their grads are zeros — they still reduce, keeping
  // every rank's collective schedule identical regardless of which
  // params its local graph happened to touch.
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (!state_[i].launched) launch(i);
  }

  double inflight_us = 0.0;
  double hidden_us = 0.0;
  BucketMetrics& metrics = BucketMetrics::get();
  for (std::size_t i = 0; i < state_.size(); ++i) {
    BucketState& s = state_[i];
    const WaitInfo info =
        comm_.wait_allreduce(static_cast<std::int64_t>(i));
    s.waited = true;
    metrics.reduce_us.observe(info.reduce_us);
    const double total = us_between(s.post_time, info.done_at);
    if (total > 0.0) {
      inflight_us += total;
      const double hidden =
          std::min(us_between(s.post_time, backward_end), total);
      hidden_us += std::max(0.0, hidden);
    }
    bucketer_.unflatten(i);
  }
  const double overlap_fraction =
      inflight_us > 0.0 ? hidden_us / inflight_us : 0.0;

  metrics.overlap_fraction.record(totals_.steps, overlap_fraction);
  ++totals_.steps;
  totals_.overlap_fraction_sum += overlap_fraction;
  step_armed_ = false;
}

}  // namespace matsci::comm::coll
