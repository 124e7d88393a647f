#!/usr/bin/env bash
# CI build matrix for configurations tier-1 verify does not cover:
#
#   tsan      -DMATSCI_SANITIZE=thread build running every
#             concurrency-sensitive label (serve, parallel, obs,
#             obs_http, health, ddp, sim) — the health monitor runs inside DDP
#             rank threads, so its registry/ring accesses must be
#             TSan-clean; the ddp label adds the bucketed-collective
#             engine, whose rank threads post buckets while pool
#             workers reduce them, plus the elastic kill/rebuild path;
#             the sim label drives MD waves through the frontend while
#             dispatcher jobs serve from pool threads and the
#             active-learning loop hot-swaps model versions mid-wave;
#             the obs_http label scrapes /metrics from a client socket
#             while pool mutators hammer the sharded registry and the
#             dispatcher serves — exemplar stores, the in-flight set,
#             and the wake-pipe shutdown must all be TSan-clean.
#   asan      -DMATSCI_SANITIZE=address build running the serve,
#             backend, sim, and obs_http labels — the frontend's hot-swap drains retire
#             whole scheduler/session object graphs while clients still
#             hold futures into them, so lifetime bugs (use-after-free
#             on a drained ServingModel, leaked promises) surface here,
#             not under TSan. The backend label runs twice: once pooled
#             and once with MATSCI_TENSOR_POOL=0, so ASan sees each
#             tensor buffer's exact lifetime instead of pooled reuse
#             (a read past a pooled buffer's end lands in cached bytes
#             and would otherwise go unnoticed).
#   scalar    forced-scalar fallback (MATSCI_KERNEL_BACKEND=scalar) on
#             the regular tier-1 build tree — the portable kernel path
#             must keep passing the full suite on machines whose
#             default backend is AVX2/AVX-512, or it rots unnoticed.
#
# Usage: ci_matrix.sh [tsan|asan|scalar|all]   (default: all)
# Build trees land in build-tsan/, build-asan/, and build-scalar/ at the
# repo root.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
stage="${1:-all}"
jobs="${MATSCI_CI_JOBS:-$(nproc)}"

run_tsan() {
  echo "=== ci_matrix: tsan (-DMATSCI_SANITIZE=thread) ==="
  cmake -B "$repo_root/build-tsan" -S "$repo_root" -DMATSCI_SANITIZE=thread
  cmake --build "$repo_root/build-tsan" -j "$jobs"
  ctest --test-dir "$repo_root/build-tsan" \
    -L "serve|parallel|obs|obs_http|health|ddp|sim" \
    --output-on-failure -j "$jobs"
}

run_asan() {
  echo "=== ci_matrix: asan (-DMATSCI_SANITIZE=address) ==="
  cmake -B "$repo_root/build-asan" -S "$repo_root" \
    -DMATSCI_SANITIZE=address
  cmake --build "$repo_root/build-asan" -j "$jobs"
  ctest --test-dir "$repo_root/build-asan" -L "serve|backend|sim|obs_http" \
    --output-on-failure -j "$jobs"
  # Pool off: every tensor buffer gets its own malloc/free so ASan
  # checks exact lifetimes (the pooled run above checks the recycling
  # machinery itself; the steady-state tests skip themselves when the
  # pool is disabled).
  MATSCI_TENSOR_POOL=0 ctest --test-dir "$repo_root/build-asan" \
    -L backend --output-on-failure -j "$jobs"
}

run_scalar() {
  echo "=== ci_matrix: scalar (MATSCI_KERNEL_BACKEND=scalar) ==="
  cmake -B "$repo_root/build-scalar" -S "$repo_root"
  cmake --build "$repo_root/build-scalar" -j "$jobs"
  MATSCI_KERNEL_BACKEND=scalar ctest --test-dir "$repo_root/build-scalar" \
    --output-on-failure -j "$jobs"
}

case "$stage" in
  tsan) run_tsan ;;
  asan) run_asan ;;
  scalar) run_scalar ;;
  all)
    run_tsan
    run_asan
    run_scalar
    ;;
  *)
    echo "ci_matrix: unknown stage '$stage' (tsan|asan|scalar|all)" >&2
    exit 2
    ;;
esac
echo "=== ci_matrix: $stage OK ==="
