#include "core/memory/pool.hpp"

#include <bit>
#include <cstdlib>
#include <new>

#include "core/macros.hpp"

namespace matsci::core::memory {

namespace {

constexpr std::size_t kMinClass = 64;  // one cache line

// Cap on idle cached bytes; beyond it a released buffer is freed at
// once instead of cached.
constexpr std::size_t kMaxCachedBytes = std::size_t{256} << 20;

void* aligned_new(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t{kBufferAlignment});
}

void aligned_delete(void* p, std::size_t bytes) {
  ::operator delete(p, bytes, std::align_val_t{kBufferAlignment});
}

}  // namespace

std::size_t round_up_to_class(std::size_t bytes) {
  if (bytes <= kMinClass) return kMinClass;
  // Next power of two, and the 3/4 midpoint below it: the class ladder
  // is ..., 2^p * 3/4, 2^p, 2^(p+1) * 3/4, 2^(p+1), ...
  const std::size_t pow2 = std::bit_ceil(bytes);
  const std::size_t mid = pow2 / 4 * 3;
  return bytes <= mid ? mid : pow2;
}

std::size_t BufferPool::class_index(std::size_t class_bytes) {
  // class_bytes is either 2^p or 3*2^(p-2); map to 2 slots per octave.
  const unsigned p = std::bit_width(class_bytes) - 1;  // floor(log2)
  const bool is_pow2 = std::has_single_bit(class_bytes);
  // Octaves start at kMinClass (2^6): index 0 -> 64, 1 -> 96, 2 -> 128...
  const std::size_t idx = (static_cast<std::size_t>(p) - 6) * 2 +
                          (is_pow2 ? 0 : 1);
  MATSCI_CHECK(idx < kNumClasses,
               "buffer pool: size class too large (" << class_bytes << " bytes)");
  return idx;
}

BufferPool& BufferPool::global() {
  // Intentionally leaked: see class comment (teardown-order safety).
  static BufferPool* pool = new BufferPool();
  return *pool;
}

BufferPool::BufferPool() : enabled_(true) {
  if (const char* env = std::getenv("MATSCI_TENSOR_POOL")) {
    if (env[0] == '0' && env[1] == '\0') enabled_ = false;
  }
}

BufferPool::Block BufferPool::acquire(std::size_t bytes) {
  const std::size_t cap = round_up_to_class(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.acquires;
  stats_.bytes_outstanding += cap;
  if (enabled_) {
    auto& list = free_lists_[class_index(cap)];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      stats_.bytes_cached -= cap;
      ++stats_.hits;
      return {p, cap};
    }
  }
  ++stats_.fresh_allocs;
  return {aligned_new(cap), cap};
}

void BufferPool::release(void* ptr, std::size_t capacity) {
  if (ptr == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.releases;
  stats_.bytes_outstanding -= capacity;
  if (enabled_ && stats_.bytes_cached + capacity <= kMaxCachedBytes) {
    free_lists_[class_index(capacity)].push_back(ptr);
    stats_.bytes_cached += capacity;
    return;
  }
  ++stats_.direct_frees;
  aligned_delete(ptr, capacity);
}

PoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BufferPool::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.trims;
  // Reconstruct each class's byte size from its index: idx 2k -> 2^(6+k),
  // idx 2k+1 -> 3 * 2^(4+k+1) = 2^(6+k) * 3/2.
  for (std::size_t idx = 0; idx < kNumClasses; ++idx) {
    auto& list = free_lists_[idx];
    const std::size_t pow2 = std::size_t{1} << (6 + idx / 2);
    const std::size_t bytes = (idx % 2 == 0) ? pow2 : pow2 / 2 * 3;
    for (void* p : list) {
      aligned_delete(p, bytes);
      stats_.bytes_cached -= bytes;
    }
    list.clear();
  }
}

}  // namespace matsci::core::memory
