#include "serve/queue.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace matsci::serve {

namespace {

/// The queue is where a deadline drop happens, so it is the one place
/// that counts it: one add per shed request.
obs::Counter& deadline_drops_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.deadline_drops");
  return c;
}

}  // namespace

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  deadline_drops_counter();  // the series exists before the first drop
}

PushResult RequestQueue::try_push(PredictRequest request) {
  PendingRequest pending;
  pending.request = std::move(request);
  pending.enqueued = std::chrono::steady_clock::now();
  std::future<PredictResult> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return {PushStatus::kShutdown, {}};
    }
    if (capacity_ != 0 && pending_.size() >= capacity_) {
      return {PushStatus::kQueueFull, {}};
    }
    pending_.push_back(std::move(pending));
  }
  cv_.notify_all();
  return {PushStatus::kAccepted, std::move(future)};
}

void RequestQueue::drop_expired_locked(
    std::chrono::steady_clock::time_point now) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->request.deadline <= now) {
      it->promise.set_exception(std::make_exception_ptr(
          ShedError("request shed: dispatch deadline exceeded while queued")));
      // The scheduler's fulfillment path never sees a dropped request,
      // so it must leave the in-flight trace set here.
      obs::InflightSet::global().erase(it->request.trace);
      it = pending_.erase(it);
      deadline_drops_counter().add(1);
    } else {
      ++it;
    }
  }
}

void RequestQueue::extract_matching_locked(
    const std::pair<std::string, std::int64_t>& key,
    std::int64_t max_batch_size, std::vector<PendingRequest>& batch) {
  // A request that expired while the batch was forming is shed, not
  // batched; during drain (shutdown) everything accepted is served.
  if (!shutdown_) drop_expired_locked(std::chrono::steady_clock::now());
  for (auto it = pending_.begin();
       it != pending_.end() &&
       static_cast<std::int64_t>(batch.size()) < max_batch_size;) {
    if (it->request.target == key.first &&
        it->request.structure.dataset_id == key.second) {
      batch.push_back(std::move(*it));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<PendingRequest> RequestQueue::pop_batch(
    std::int64_t max_batch_size, std::int64_t max_wait_us) {
  MATSCI_CHECK(max_batch_size > 0,
               "pop_batch: max_batch_size=" << max_batch_size);
  MATSCI_CHECK(max_wait_us >= 0, "pop_batch: max_wait_us=" << max_wait_us);

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return shutdown_ || !pending_.empty(); });
    // Shed whatever expired while waiting for a dispatcher; during
    // drain (shutdown) everything already accepted is served instead.
    if (!shutdown_) {
      drop_expired_locked(std::chrono::steady_clock::now());
    }
    if (!pending_.empty()) break;
    if (shutdown_) return {};  // shut down and drained
  }

  // The anchor — the oldest request of the most urgent queued class —
  // fixes the batch key and the flush deadline. min(SLO deadline,
  // coalescing window): a tight deadline flushes early.
  auto anchor = pending_.begin();
  for (auto it = std::next(pending_.begin()); it != pending_.end(); ++it) {
    if (it->request.priority < anchor->request.priority) anchor = it;
  }
  const std::pair<std::string, std::int64_t> key = {
      anchor->request.target, anchor->request.structure.dataset_id};
  auto deadline = anchor->enqueued + std::chrono::microseconds(max_wait_us);
  if (anchor->request.deadline < deadline) deadline = anchor->request.deadline;

  std::vector<PendingRequest> batch;
  batch.reserve(static_cast<std::size_t>(max_batch_size));
  // The anchor joins first — FIFO extraction alone could fill the batch
  // with older lower-priority requests of the same key and leave the
  // anchor queued (priority inversion).
  batch.push_back(std::move(*anchor));
  pending_.erase(anchor);
  for (;;) {
    extract_matching_locked(key, max_batch_size, batch);
    if (static_cast<std::int64_t>(batch.size()) >= max_batch_size ||
        shutdown_) {
      break;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // Deadline hit: take whatever matching requests raced in last.
      extract_matching_locked(key, max_batch_size, batch);
      break;
    }
  }
  return batch;
}

void RequestQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

bool RequestQueue::is_shutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

}  // namespace matsci::serve
