#pragma once

// Parameter → bucket assignment for overlapped DDP (DESIGN.md §12).
// Buckets are formed in REVERSE registration order: autograd finishes
// the last-registered layers first (they sit closest to the loss), so
// reverse-order buckets fill early in the backward pass and their
// allreduce overlaps the gradient computation still running for the
// earlier layers — the same heuristic as PyTorch DDP. BucketAllreduce
// caps buckets at a fixed 1 MiB; the cap is an argument here so the
// partition can be tested at small sizes.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/memory/storage.hpp"
#include "core/tensor.hpp"

namespace matsci::comm::coll {

/// One flat bucket: which params it covers (reverse registration
/// order), their offsets into the pooled flat buffer, and the buffer
/// itself — allocated once and reused every step.
struct Bucket {
  std::vector<std::size_t> param_indices;  ///< indices into the param list
  std::vector<std::size_t> offsets;        ///< per-param start in `flat`
  std::int64_t numel = 0;
  core::memory::FloatStorage flat;
};

/// Byte-capped partition of a parameter list into flat buckets.
class GradBucketer {
 public:
  /// `bucket_bytes` caps the fp32 payload per bucket; a single
  /// parameter larger than the cap gets a bucket of its own. Zero-size
  /// parameters are carried along (they occupy no payload but must
  /// still round-trip so unflatten covers every param exactly once).
  GradBucketer(std::vector<core::Tensor> params, std::int64_t bucket_bytes);

  std::size_t num_buckets() const { return buckets_.size(); }
  const Bucket& bucket(std::size_t i) const { return buckets_[i]; }
  std::int64_t total_numel() const { return total_numel_; }
  const std::vector<core::Tensor>& params() const { return params_; }

  /// Bucket index owning this parameter payload, or -1 if the payload
  /// is not a registered parameter (e.g. an input tensor that happens
  /// to require grad for force prediction).
  std::int64_t bucket_of(const core::TensorImpl* impl) const;

  /// Copy every member param's gradient into the bucket's flat buffer
  /// (materializing zero grads for params backward never touched) and
  /// return a span over it.
  std::span<float> flatten(std::size_t i);

  /// Scatter the flat buffer back into the member params' grad buffers.
  void unflatten(std::size_t i);

 private:
  std::vector<core::Tensor> params_;
  std::vector<Bucket> buckets_;
  std::unordered_map<const core::TensorImpl*, std::int64_t> owner_;
  std::int64_t total_numel_ = 0;
};

}  // namespace matsci::comm::coll
