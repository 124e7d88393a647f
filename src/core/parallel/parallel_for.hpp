#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/parallel/thread_pool.hpp"

namespace matsci::core::parallel {

/// Number of chunks a [begin, end) range splits into at the given
/// grain. Depends only on the range and the grain — never on the pool
/// size — which is what keeps every parallel kernel bit-exact across
/// thread counts. grain <= 0 means "one chunk".
inline std::int64_t chunk_count(std::int64_t begin, std::int64_t end,
                                std::int64_t grain) {
  if (end <= begin) return 0;
  const std::int64_t n = end - begin;
  const std::int64_t g = grain > 0 ? grain : n;
  return (n + g - 1) / g;
}

/// Row grains of the op library (core/ops.cpp, core/graph_ops.cpp):
/// fixed work targets in scalar operations, so a chunk layout is a
/// function of the shape only.
inline constexpr std::int64_t kRowGrainWork = 1 << 16;     // row-sliced loops
inline constexpr std::int64_t kMatmulGrainWork = 1 << 18;  // GEMM flops

/// Rows per chunk so that each chunk holds ~kRowGrainWork scalar ops.
inline std::int64_t rows_grain(std::int64_t per_row) {
  return std::max<std::int64_t>(
      1, kRowGrainWork / std::max<std::int64_t>(1, per_row));
}

/// GEMM rows per chunk: ~kMatmulGrainWork flops, in whole groups of 4
/// rows (the SIMD kernels' register block), so no chunk boundary splits
/// one.
inline std::int64_t gemm_grain(std::int64_t per_row) {
  const std::int64_t rows = std::max<std::int64_t>(
      1, kMatmulGrainWork / std::max<std::int64_t>(1, per_row));
  return (rows + 3) / 4 * 4;
}

/// Run fn(chunk_begin, chunk_end) over [begin, end) split into
/// fixed-grain chunks. fn must write disjoint outputs per index; with
/// that, results are identical to the serial loop for any thread
/// count. Exceptions from fn propagate (first one wins, remaining
/// chunks are skipped).
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Fn&& fn) {
  const std::int64_t chunks = chunk_count(begin, end, grain);
  if (chunks == 0) return;
  if (chunks == 1) {
    fn(begin, end);
    return;
  }
  const std::int64_t g = grain > 0 ? grain : (end - begin);
  ThreadPool::global().run_chunks(chunks, [&](std::int64_t c) {
    const std::int64_t b = begin + c * g;
    fn(b, std::min(end, b + g));
  });
}

/// Like parallel_for but also hands fn the chunk index:
/// fn(chunk, chunk_begin, chunk_end). For kernels that stage
/// per-chunk partial results (indexed by chunk, merged afterwards in
/// ascending chunk order) instead of writing disjoint outputs.
template <typename Fn>
void parallel_for_chunks(std::int64_t begin, std::int64_t end,
                         std::int64_t grain, Fn&& fn) {
  const std::int64_t chunks = chunk_count(begin, end, grain);
  if (chunks == 0) return;
  const std::int64_t g = grain > 0 ? grain : (end - begin);
  if (chunks == 1) {
    fn(std::int64_t{0}, begin, end);
    return;
  }
  ThreadPool::global().run_chunks(chunks, [&](std::int64_t c) {
    const std::int64_t b = begin + c * g;
    fn(c, b, std::min(end, b + g));
  });
}

/// Deterministic fixed-shape tree reduction. map(chunk_begin,
/// chunk_end) -> T reduces one fixed-grain chunk serially; the chunk
/// results are then combined pairwise level by level — combine(x[0],
/// x[1]), combine(x[2], x[3]), ... with an odd tail carried through —
/// until one value remains. The tree's shape depends only on the
/// chunk count (i.e. on the range and grain), so the result is
/// bit-exact for every thread count. `empty` is returned for an empty
/// range; a single chunk returns map(begin, end) directly.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  T empty, Map&& map, Combine&& combine) {
  const std::int64_t chunks = chunk_count(begin, end, grain);
  if (chunks == 0) return empty;
  if (chunks == 1) return map(begin, end);
  const std::int64_t g = grain > 0 ? grain : (end - begin);
  std::vector<T> parts(static_cast<std::size_t>(chunks), empty);
  ThreadPool::global().run_chunks(chunks, [&](std::int64_t c) {
    const std::int64_t b = begin + c * g;
    parts[static_cast<std::size_t>(c)] = map(b, std::min(end, b + g));
  });
  // Fixed-shape pairwise tree, folded in place on the calling thread.
  std::size_t width = parts.size();
  while (width > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < width; i += 2) {
      parts[out++] = combine(std::move(parts[i]), std::move(parts[i + 1]));
    }
    if (width % 2 == 1) parts[out++] = std::move(parts[width - 1]);
    width = out;
  }
  return std::move(parts[0]);
}

}  // namespace matsci::core::parallel
