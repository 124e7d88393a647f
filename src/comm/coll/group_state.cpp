#include "comm/coll/group_state.hpp"

#include <algorithm>
#include <limits>

#include "comm/communicator.hpp"
#include "core/macros.hpp"
#include "obs/metrics.hpp"

namespace matsci::comm::coll {

namespace {

/// Collective call/byte counters, added once per rank per accepted
/// post — bucket rounds and blocking calls alike. Bytes count each
/// rank's buffer contribution, so the world-total for one logical
/// allreduce is world_size * buffer_bytes, matching how the α-β ring
/// model accounts traffic per rank. A barrier is a zero-byte
/// allreduce call.
struct CollMetrics {
  obs::Counter& allreduce_calls;
  obs::Counter& allreduce_bytes;
  obs::Counter& broadcast_calls;
  obs::Counter& broadcast_bytes;

  static CollMetrics& get() {
    static CollMetrics* m = new CollMetrics{
        obs::MetricsRegistry::global().counter("comm.allreduce.calls"),
        obs::MetricsRegistry::global().counter("comm.allreduce.bytes"),
        obs::MetricsRegistry::global().counter("comm.broadcast.calls"),
        obs::MetricsRegistry::global().counter("comm.broadcast.bytes"),
    };
    return *m;
  }
};

std::string describe(ReduceOp op, std::size_t size, std::int64_t root) {
  static constexpr const char* kNames[] = {"mean", "sum", "max", "copy"};
  return std::string(kNames[static_cast<int>(op)]) + " of " +
         std::to_string(size) + " floats from root " + std::to_string(root);
}

}  // namespace

GroupState::GroupState(std::int64_t world_size) : world_(world_size) {
  MATSCI_CHECK(world_size >= 1, "GroupState world_size must be >= 1");
}

GroupState::~GroupState() {
  std::vector<core::parallel::TaskHandle> pending;
  {
    std::lock_guard<std::mutex> map_lock(map_mu_);
    for (auto& [id, s] : slots_) {
      std::lock_guard<std::mutex> lock(s->mu);
      if (s->task.valid() && !s->done) pending.push_back(s->task);
    }
  }
  for (core::parallel::TaskHandle& t : pending) {
    t.run_now_or_wait();
  }
}

GroupState::Slot& GroupState::slot(std::int64_t id) {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::unique_ptr<Slot>& s = slots_[id];
  if (s == nullptr) {
    s = std::make_unique<Slot>();
    s->bufs.assign(static_cast<std::size_t>(world_), nullptr);
  }
  return *s;
}

void GroupState::reduce(Slot& s) {
  // Inputs are frozen: every rank posted (under s.mu) before the task
  // was submitted, and none touches its buffer until wait() observes
  // done — so the hot loop runs lock-free. The sum and the mean share
  // one fold, so a DDP gradient bucket is bit-identical to a plain
  // double-accumulated mean in rank order.
  const obs::StopWatch watch;
  std::vector<float*> bufs;
  std::size_t size = 0;
  ReduceOp op = ReduceOp::kMean;
  std::int64_t root = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    bufs = s.bufs;
    size = s.size;
    op = s.op;
    root = s.root;
  }
  if (op == ReduceOp::kCopy) {
    const float* src = bufs[static_cast<std::size_t>(root)];
    for (std::int64_t r = 0; r < world_; ++r) {
      if (r != root) std::copy_n(src, size, bufs[static_cast<std::size_t>(r)]);
    }
  } else {
    // Per element in ascending rank order: fold in double, cast once
    // to float, scale in float (by 1/world for the mean).
    const bool is_max = op == ReduceOp::kMax;
    const float scale =
        op == ReduceOp::kMean ? 1.0f / static_cast<float>(world_) : 1.0f;
    for (std::size_t i = 0; i < size; ++i) {
      double acc = is_max ? -std::numeric_limits<double>::infinity() : 0.0;
      for (const float* b : bufs) {
        const auto x = static_cast<double>(b[i]);
        acc = is_max ? std::max(acc, x) : acc + x;
      }
      const float v = static_cast<float>(acc) * scale;
      for (float* b : bufs) b[i] = v;
    }
  }
  // Notify under the lock: once a waiter sees done it may return, the
  // group may be torn down, and the slot (this cv included) destroyed.
  std::lock_guard<std::mutex> lock(s.mu);
  s.reduce_us = watch.elapsed_us();
  s.done_at = std::chrono::steady_clock::now();
  s.done = true;
  s.cv.notify_all();
}

void GroupState::post(std::int64_t slot_id, std::int64_t rank,
                      std::span<float> data, ReduceOp op,
                      std::int64_t root) {
  Slot& s = slot(slot_id);
  std::unique_lock<std::mutex> lock(s.mu);
  // A rank can lap its peers by one full round (it waited, they have
  // not yet): block until the previous round fully drains.
  s.cv.wait(lock, [&] {
    return (s.arrived < world_ && !s.done) || s.poisoned ||
           failed_.load(std::memory_order_acquire);
  });
  if (s.poisoned) throw matsci::Error(s.poison_msg);
  if (failed_.load(std::memory_order_acquire)) {
    throw RankFailedError("collective post on failed group (rank " +
                          std::to_string(rank) + ", slot " +
                          std::to_string(slot_id) + ")");
  }
  if (s.arrived == 0) {
    s.size = data.size();
    s.op = op;
    s.root = root;
  } else if (s.size != data.size() || s.op != op || s.root != root) {
    s.poisoned = true;
    s.poison_msg = "collective mismatch on slot " + std::to_string(slot_id) +
                   ": rank " + std::to_string(rank) + " posted " +
                   describe(op, data.size(), root) + ", peers posted " +
                   describe(s.op, s.size, s.root);
    lock.unlock();
    s.cv.notify_all();
    throw matsci::Error(s.poison_msg);
  }
  CollMetrics& metrics = CollMetrics::get();
  const auto bytes = static_cast<std::int64_t>(data.size() * sizeof(float));
  if (op == ReduceOp::kCopy) {
    metrics.broadcast_calls.add(1);
    metrics.broadcast_bytes.add(bytes);
  } else {
    metrics.allreduce_calls.add(1);
    metrics.allreduce_bytes.add(bytes);
  }
  s.bufs[static_cast<std::size_t>(rank)] = data.data();
  ++s.arrived;
  if (s.arrived == world_ && !failed_.load(std::memory_order_acquire)) {
    s.task = core::parallel::ThreadPool::global().submit(
        [this, &s] { reduce(s); });
  }
}

WaitInfo GroupState::wait(std::int64_t slot_id, std::int64_t rank) {
  Slot& s = slot(slot_id);
  std::unique_lock<std::mutex> lock(s.mu);
  while (!s.done && !s.poisoned) {
    if (s.task.valid()) {
      // Launched: every rank's buffer is in, so the round completes
      // even if a peer has died since. Drive it to completion inline so
      // progress never depends on a free pool worker (TaskHandle
      // reclaim contract) and no reduction outlives this rank's buffer.
      core::parallel::TaskHandle task = s.task;
      lock.unlock();
      task.run_now_or_wait();
      lock.lock();
      continue;
    }
    if (failed_.load(std::memory_order_acquire)) break;
    s.cv.wait(lock);
  }
  if (s.poisoned) throw matsci::Error(s.poison_msg);
  if (!s.done) {
    throw RankFailedError("collective wait on failed group (rank " +
                          std::to_string(rank) + ", slot " +
                          std::to_string(slot_id) + ")");
  }
  WaitInfo info{s.reduce_us, s.done_at};
  if (++s.departed == world_) {
    // Last rank out resets the slot for the next round.
    s.arrived = 0;
    s.departed = 0;
    s.done = false;
    std::fill(s.bufs.begin(), s.bufs.end(), nullptr);
    s.task = core::parallel::TaskHandle();
    lock.unlock();
    s.cv.notify_all();
  }
  return info;
}

void GroupState::notify_failure() {
  failed_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> map_lock(map_mu_);
  for (auto& [id, s] : slots_) {
    {
      std::lock_guard<std::mutex> lock(s->mu);
    }
    s->cv.notify_all();
  }
}

void GroupState::abandon(std::int64_t rank) {
  // Collect launched tasks under the map lock, run them outside it:
  // run_now_or_wait may execute reduce(), which locks slot mutexes.
  std::vector<core::parallel::TaskHandle> pending;
  {
    std::lock_guard<std::mutex> map_lock(map_mu_);
    for (auto& [id, s] : slots_) {
      std::lock_guard<std::mutex> lock(s->mu);
      float*& buf = s->bufs[static_cast<std::size_t>(rank)];
      if (buf == nullptr) continue;
      if (s->task.valid() && !s->done) {
        // Reduction already launched: it reads our buffer, so finish it.
        pending.push_back(s->task);
      } else if (!s->done) {
        // Not launched yet: withdraw so no future arrival can launch a
        // reduce over our (soon freed) buffer. Withdrawal is atomic
        // with posts (slot lock), so arrived can never reach world_
        // without this rank re-posting.
        buf = nullptr;
        --s->arrived;
      }
    }
  }
  for (core::parallel::TaskHandle& t : pending) {
    t.run_now_or_wait();
  }
}

}  // namespace matsci::comm::coll
