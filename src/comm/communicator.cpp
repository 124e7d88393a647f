#include "comm/communicator.hpp"

#include <algorithm>
#include <thread>

#include "comm/coll/group_state.hpp"
#include "core/macros.hpp"
#include "obs/trace.hpp"

namespace matsci::comm {

namespace {

/// The slot id every blocking collective meets on; bucket rounds use
/// ids 0..B-1, so a blocking call never collides with a posted bucket.
constexpr std::int64_t kBlockingSlot = -1;

std::string join_ranks(const std::vector<std::int64_t>& ranks) {
  std::string out;
  for (std::int64_t r : ranks) {
    if (!out.empty()) out += ",";
    out += std::to_string(r);
  }
  return out;
}

}  // namespace

ProcessGroup::ProcessGroup(std::int64_t world_size)
    : world_size_(world_size),
      failed_(static_cast<std::size_t>(world_size), false),
      coll_(std::make_unique<coll::GroupState>(world_size)) {
  MATSCI_CHECK(world_size >= 1, "world_size must be >= 1");
}

ProcessGroup::~ProcessGroup() = default;

void ProcessGroup::set_fault_hook(FaultHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_hook_ = std::move(hook);
}

void ProcessGroup::mark_failed(std::int64_t rank) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MATSCI_CHECK(rank >= 0 && rank < world_size_,
                 "mark_failed rank " << rank << " out of range");
    const auto idx = static_cast<std::size_t>(rank);
    if (!failed_[idx]) {
      failed_[idx] = true;
      ++failed_count_;
    }
  }
  cv_.notify_all();
  coll_->notify_failure();
}

bool ProcessGroup::has_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_count_ > 0;
}

std::vector<std::int64_t> ProcessGroup::failed_ranks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> out;
  for (std::int64_t r = 0; r < world_size_; ++r) {
    if (failed_[static_cast<std::size_t>(r)]) out.push_back(r);
  }
  return out;
}

void ProcessGroup::throw_failed_locked() const {
  if (failed_count_ == 0) return;
  std::vector<std::int64_t> dead;
  for (std::int64_t r = 0; r < world_size_; ++r) {
    if (failed_[static_cast<std::size_t>(r)]) dead.push_back(r);
  }
  throw RankFailedError("collective on group with failed rank(s) " +
                        join_ranks(dead));
}

ProcessGroup::Rebuilt ProcessGroup::rebuild_survivors(std::int64_t old_rank) {
  std::unique_lock<std::mutex> lock(mu_);
  MATSCI_CHECK(failed_count_ > 0,
               "rebuild_survivors called on a group with no failed ranks");
  MATSCI_CHECK(old_rank >= 0 && old_rank < world_size_ &&
                   !failed_[static_cast<std::size_t>(old_rank)],
               "rebuild_survivors from dead or out-of-range rank "
                   << old_rank);
  rebuild_waiters_.push_back(old_rank);
  cv_.notify_all();
  // The live count can shrink while we wait (cascading failures), so
  // re-evaluate it inside the predicate; whichever waiter first
  // observes a full survivor set builds the group for everyone.
  cv_.wait(lock, [&] {
    return rebuilt_ != nullptr ||
           static_cast<std::int64_t>(rebuild_waiters_.size()) ==
               world_size_ - failed_count_;
  });
  if (rebuilt_ == nullptr) {
    rebuilt_members_ = rebuild_waiters_;
    std::sort(rebuilt_members_.begin(), rebuilt_members_.end());
    rebuilt_ = std::make_shared<ProcessGroup>(
        static_cast<std::int64_t>(rebuilt_members_.size()));
    cv_.notify_all();
  }
  const auto it = std::lower_bound(rebuilt_members_.begin(),
                                   rebuilt_members_.end(), old_rank);
  MATSCI_CHECK(it != rebuilt_members_.end() && *it == old_rank,
               "rank " << old_rank << " missing from rebuilt member set");
  return Rebuilt{rebuilt_,
                 static_cast<std::int64_t>(it - rebuilt_members_.begin())};
}

Communicator::Communicator(std::shared_ptr<ProcessGroup> group,
                           std::int64_t rank)
    : group_(std::move(group)), rank_(rank) {
  MATSCI_CHECK(group_ != nullptr, "null process group");
  MATSCI_CHECK(rank >= 0 && rank < group_->world_size(),
               "rank " << rank << " out of range for world size "
                       << group_->world_size());
}

void Communicator::collective_entry(const char* what) {
  ++collective_calls_;
  ProcessGroup& g = *group_;
  ProcessGroup::FaultHook hook;
  {
    std::lock_guard<std::mutex> lock(g.mu_);
    hook = g.fault_hook_;
  }
  if (hook && hook(rank_, collective_calls_)) {
    g.mark_failed(rank_);
    throw RankKilledError("rank " + std::to_string(rank_) +
                          " killed by fault injection at collective #" +
                          std::to_string(collective_calls_) + " (" + what +
                          ")");
  }
  std::lock_guard<std::mutex> lock(g.mu_);
  g.throw_failed_locked();
}

void Communicator::meet(std::span<float> data, coll::ReduceOp op,
                        std::int64_t root) {
  group_->coll_->post(kBlockingSlot, rank_, data, op, root);
  group_->coll_->wait(kBlockingSlot, rank_);
}

void Communicator::barrier() {
  collective_entry("barrier");
  if (world_size() == 1) return;
  meet({}, coll::ReduceOp::kSum, 0);
}

void Communicator::allreduce_sum(std::span<float> data) {
  collective_entry("allreduce");
  if (world_size() == 1) return;
  MATSCI_TRACE_SCOPE("comm/allreduce");
  meet(data, coll::ReduceOp::kSum, 0);
}

void Communicator::allreduce_max(std::span<float> data) {
  collective_entry("allreduce_max");
  if (world_size() == 1) return;
  MATSCI_TRACE_SCOPE("comm/allreduce");
  meet(data, coll::ReduceOp::kMax, 0);
}

void Communicator::broadcast(std::span<float> data, std::int64_t root) {
  MATSCI_CHECK(root >= 0 && root < world_size(), "broadcast root " << root);
  collective_entry("broadcast");
  if (world_size() == 1) return;
  MATSCI_TRACE_SCOPE("comm/broadcast");
  meet(data, coll::ReduceOp::kCopy, root);
}

double Communicator::allreduce_scalar_sum(double value) {
  if (world_size() == 1) {
    collective_entry("allreduce_scalar_sum");
    return value;
  }
  float v = static_cast<float>(value);
  allreduce_sum(std::span<float>(&v, 1));
  return static_cast<double>(v);
}

double Communicator::allreduce_scalar_max(double value) {
  if (world_size() == 1) {
    collective_entry("allreduce_scalar_max");
    return value;
  }
  float v = static_cast<float>(value);
  allreduce_max(std::span<float>(&v, 1));
  return static_cast<double>(v);
}

void Communicator::allreduce_mean_nb(std::int64_t slot, std::span<float> data) {
  MATSCI_CHECK(slot >= 0, "allreduce_mean_nb slot " << slot);
  collective_entry("allreduce_mean_nb");
  group_->coll_->post(slot, rank_, data, coll::ReduceOp::kMean);
}

coll::WaitInfo Communicator::wait_allreduce(std::int64_t slot) {
  // Completion of an already-entered collective: no fault-hook check
  // here — the buffer is posted, and a kill between post and wait would
  // leave peers averaging a buffer whose owner is unwinding.
  return group_->coll_->wait(slot, rank_);
}

RunRanksReport run_ranks(std::int64_t world_size,
                         const std::function<void(Communicator&)>& rank_fn,
                         const RunRanksOptions& opts) {
  MATSCI_CHECK(world_size >= 1, "world_size must be >= 1");
  auto group = std::make_shared<ProcessGroup>(world_size);
  if (opts.fault_hook) group->set_fault_hook(opts.fault_hook);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(world_size));
  threads.reserve(static_cast<std::size_t>(world_size));
  for (std::int64_t r = 0; r < world_size; ++r) {
    threads.emplace_back([&, r]() {
      try {
        Communicator comm(group, r);
        rank_fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Unblock peers stuck in collectives with this rank: they see
        // RankFailedError instead of deadlocking.
        group->mark_failed(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Classify: injected kills are expected (reported, not thrown);
  // among real escapes prefer the primary error over the secondary
  // RankFailedError fallout it caused on the other ranks.
  RunRanksReport report;
  std::exception_ptr primary;
  std::exception_ptr fallout;
  for (std::int64_t r = 0; r < world_size; ++r) {
    const std::exception_ptr& e = errors[static_cast<std::size_t>(r)];
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const RankKilledError&) {
      report.killed_ranks.push_back(r);
    } catch (const RankFailedError&) {
      if (!fallout) fallout = e;
    } catch (...) {
      if (!primary) primary = e;
    }
  }
  if (primary) std::rethrow_exception(primary);
  if (fallout) std::rethrow_exception(fallout);
  return report;
}

void run_ranks(std::int64_t world_size,
               const std::function<void(Communicator&)>& rank_fn) {
  run_ranks(world_size, rank_fn, RunRanksOptions{});
}

}  // namespace matsci::comm
