#include "comm/coll/group_state.hpp"

#include <algorithm>

#include "comm/communicator.hpp"
#include "core/macros.hpp"
#include "obs/metrics.hpp"

namespace matsci::comm::coll {

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
  // done — so the hot loop runs lock-free. Accumulation is per element
  // in ascending rank order in double precision, then one float cast
  // and a float multiply by 1/world, so identity-compressed DDP is
  // bit-identical to a plain double-accumulated mean in rank order.
  const obs::StopWatch watch;
  std::vector<float*> bufs;
  std::size_t size = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    bufs = s.bufs;
    size = s.size;
    s.scratch.assign(size, 0.0);
  }
  const float inv = 1.0f / static_cast<float>(world_);
  for (std::size_t i = 0; i < size; ++i) {
    double acc = 0.0;
    for (std::int64_t r = 0; r < world_; ++r) {
      acc += static_cast<double>(bufs[static_cast<std::size_t>(r)][i]);
    }
    float v = static_cast<float>(acc);
    v *= inv;
    for (std::int64_t r = 0; r < world_; ++r) {
      bufs[static_cast<std::size_t>(r)][i] = v;
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
                      std::span<float> data) {
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
    throw RankFailedError("allreduce post on failed group (rank " +
                          std::to_string(rank) + ")");
  }
  if (!s.size_set) {
    s.size = data.size();
    s.size_set = true;
  } else if (s.size != data.size()) {
    s.poisoned = true;
    s.poison_msg = "bucket allreduce size mismatch on slot " +
                   std::to_string(slot_id) + ": rank " + std::to_string(rank) +
                   " posted " + std::to_string(data.size()) +
                   " floats, peers posted " + std::to_string(s.size);
    lock.unlock();
    s.cv.notify_all();
    throw matsci::Error(s.poison_msg);
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
  while (!s.done && !s.poisoned &&
         !failed_.load(std::memory_order_acquire)) {
    if (s.arrived == world_ && s.task.valid()) {
      // The reduction is queued but maybe not started: drive it to
      // completion inline so progress never depends on a free pool
      // worker (TaskHandle reclaim contract).
      core::parallel::TaskHandle task = s.task;
      lock.unlock();
      task.run_now_or_wait();
      lock.lock();
      continue;
    }
    s.cv.wait(lock);
  }
  if (s.poisoned) throw matsci::Error(s.poison_msg);
  if (!s.done) {
    throw RankFailedError("allreduce wait on failed group (rank " +
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
