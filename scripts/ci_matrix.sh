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
#             backend, sim, obs_http, and ddp labels — the frontend's
#             hot-swap drains retire whole scheduler/session object
#             graphs while clients still hold futures into them, so
#             lifetime bugs (use-after-free on a drained ServingModel,
#             leaked promises) surface here, not under TSan; every
#             collective reduces rank buffers on pool tasks, so a
#             reduction that outlives a rank's buffer surfaces here
#             too. The backend label runs twice: once pooled
#             and once with MATSCI_TENSOR_POOL=0, so ASan sees each
#             tensor buffer's exact lifetime instead of pooled reuse
#             (a read past a pooled buffer's end lands in cached bytes
#             and would otherwise go unnoticed).
#   scalar    forced-scalar fallback (MATSCI_KERNEL_BACKEND=scalar) on
#             the regular tier-1 build tree — the portable kernel path
#             must keep passing the full suite on machines whose
#             default backend is AVX2/AVX-512, or it rots unnoticed.
#   avx2      the full suite with MATSCI_KERNEL_BACKEND=avx2 on the
#             scalar stage's build tree. On an AVX-512 host only the
#             cross-backend tests reach the AVX2 tier otherwise, and its
#             8-lane GEMM panels and masked column tails are code of
#             their own. Skipped, with a message, on a CPU without
#             AVX2 and FMA.
#   warnings  a clean Release build (fresh build-warnings/ tree, all
#             targets) that fails on any `warning:` line in its log, so
#             a new warning cannot hide among the old ones.
#
# Usage: ci_matrix.sh [tsan|asan|scalar|avx2|warnings|all]   (default: all)
# Build trees land in build-tsan/, build-asan/, build-scalar/ and
# build-warnings/ at the repo root.
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
  ctest --test-dir "$repo_root/build-asan" -L "serve|backend|sim|obs_http|ddp" \
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

run_avx2() {
  echo "=== ci_matrix: avx2 (MATSCI_KERNEL_BACKEND=avx2) ==="
  if ! grep -qw avx2 /proc/cpuinfo 2>/dev/null ||
     ! grep -qw fma /proc/cpuinfo 2>/dev/null; then
    echo "ci_matrix: this CPU lacks AVX2/FMA; skipping the avx2 stage"
    return 0
  fi
  cmake -B "$repo_root/build-scalar" -S "$repo_root"
  cmake --build "$repo_root/build-scalar" -j "$jobs"
  MATSCI_KERNEL_BACKEND=avx2 ctest --test-dir "$repo_root/build-scalar" \
    --output-on-failure -j "$jobs"
}

run_warnings() {
  echo "=== ci_matrix: warnings (clean Release build, no warning lines) ==="
  rm -rf "$repo_root/build-warnings"
  cmake -B "$repo_root/build-warnings" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=Release
  local log="$repo_root/build-warnings/build.log"
  cmake --build "$repo_root/build-warnings" -j "$jobs" 2>&1 | tee "$log"
  [ "${PIPESTATUS[0]}" -eq 0 ] || return 1
  local count
  count=$(grep -c "warning:" "$log" || true)
  if [ "$count" -ne 0 ]; then
    echo "ci_matrix: $count warning line(s) in the Release build:" >&2
    grep "warning:" "$log" >&2
    return 1
  fi
}

case "$stage" in
  tsan) run_tsan ;;
  asan) run_asan ;;
  scalar) run_scalar ;;
  avx2) run_avx2 ;;
  warnings) run_warnings ;;
  all)
    run_tsan
    run_asan
    run_scalar
    run_avx2
    run_warnings
    ;;
  *)
    echo "ci_matrix: unknown stage '$stage' (tsan|asan|scalar|avx2|warnings|all)" >&2
    exit 2
    ;;
esac
echo "=== ci_matrix: $stage OK ==="
