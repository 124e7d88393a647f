#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace matsci::core::memory {

/// Cache-line / AVX-512 friendly alignment every pooled buffer honors.
/// Kernels may assume tensor payloads start on a 64-byte boundary.
inline constexpr std::size_t kBufferAlignment = 64;

/// Counters describing pool behaviour since process start. The
/// `fresh_allocs` counter is the allocation hook the steady-state tests
/// assert on: after warmup, a fixed-shape train/serve step must acquire
/// every tensor buffer from the cache (zero fresh heap allocations from
/// the tensor memory runtime).
struct PoolStats {
  std::uint64_t acquires = 0;      ///< total acquire() calls
  std::uint64_t hits = 0;          ///< served from the free lists
  std::uint64_t fresh_allocs = 0;  ///< served by a new heap allocation
  std::uint64_t releases = 0;      ///< buffers returned to the pool
  std::uint64_t direct_frees = 0;  ///< returned buffers freed (cache full)
  std::uint64_t trims = 0;         ///< trim() calls
  std::uint64_t bytes_cached = 0;  ///< currently idle in the free lists
  std::uint64_t bytes_outstanding = 0;  ///< currently lent to live buffers
};

/// Round a byte count up to its size class (the capacity acquire()
/// actually hands out). Classes are powers of two plus 1.5x midpoints
/// (64, 96, 128, 192, 256, ...), so shape-compatible tensors that
/// differ slightly still share buffers and internal waste stays <= 33%.
std::size_t round_up_to_class(std::size_t bytes);

/// Process-wide cache of 64-byte-aligned heap buffers, keyed by size
/// class. All tensor payloads (data, grad, and op scratch) allocate
/// through here, so a fixed-shape training or serving step reuses the
/// same buffers every iteration instead of hitting malloc. Idle cached
/// bytes are capped at 256 MiB; beyond the cap a released buffer is
/// freed at once.
///
/// Thread safety: acquire/release/stats/trim are safe from any thread
/// (serve workers collate and run forwards concurrently); a single
/// mutex guards the free lists — contention is negligible next to the
/// kernel work done per buffer.
///
/// Lifetime: the singleton is intentionally leaked (never destroyed),
/// so tensors living in static storage can release their buffers during
/// process teardown in any order. Cached blocks stay reachable through
/// the singleton pointer, which keeps LeakSanitizer quiet.
class BufferPool {
 public:
  static BufferPool& global();

  /// A buffer of at least `bytes` capacity, 64-byte aligned. The
  /// returned capacity is the size class actually reserved and must be
  /// passed back to release(). Contents are UNINITIALIZED (possibly a
  /// previous tensor's bits) — callers that need zeros memset
  /// explicitly; kernels that fully overwrite their output skip that
  /// second write entirely.
  struct Block {
    void* ptr = nullptr;
    std::size_t capacity = 0;  ///< size-class bytes actually reserved
  };
  Block acquire(std::size_t bytes);

  /// Return a buffer obtained from acquire(). `capacity` must be the
  /// capacity acquire() reported. Null ptr is a no-op.
  void release(void* ptr, std::size_t capacity);

  PoolStats stats() const;

  /// Free every cached (idle) block. Outstanding buffers are untouched.
  void trim();

  /// False when MATSCI_TENSOR_POOL=0: every acquire is a fresh heap
  /// allocation and every release frees (debugging aid — ASan sees
  /// each buffer's exact lifetime instead of pooled reuse).
  bool enabled() const { return enabled_; }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

 private:
  BufferPool();
  ~BufferPool() = default;

  static constexpr std::size_t kNumClasses = 96;
  static std::size_t class_index(std::size_t class_bytes);

  mutable std::mutex mu_;
  std::array<std::vector<void*>, kNumClasses> free_lists_;
  PoolStats stats_;
  bool enabled_;
};

}  // namespace matsci::core::memory
