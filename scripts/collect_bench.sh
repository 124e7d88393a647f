#!/usr/bin/env bash
# Aggregate per-binary bench outputs into one trajectory file.
#
# Every bench binary writes BENCH_<name>.json (JSON-lines: one meta
# record, per-run records, a registry snapshot) into $MATSCI_BENCH_DIR
# (or the cwd). This script concatenates every BENCH_*.json found there
# into BENCH_trajectory.json — a single JSON-lines file with one
# trajectory meta line followed by every source line tagged with its
# originating file — so dashboards ingest one artifact per CI run
# instead of globbing.
#
# Usage:
#   collect_bench.sh [dir]     aggregate BENCH_*.json under dir
#                              (default: $MATSCI_BENCH_DIR, else .)
#   collect_bench.sh --selftest
#       build a temp dir with synthetic BENCH_*.json files, aggregate,
#       and verify line counts and tags (registered as the
#       `collect_bench` ctest, label `lint`).
set -u

aggregate() {
  local dir="$1"
  if [ ! -d "$dir" ]; then
    echo "collect_bench: no such directory: $dir" >&2
    return 2
  fi

  local out="$dir/BENCH_trajectory.json"
  local tmp="$out.tmp"
  local sources=()
  local f
  for f in "$dir"/BENCH_*.json; do
    [ -e "$f" ] || continue
    case "$(basename "$f")" in
      BENCH_trajectory.json) continue ;;  # never ingest our own output
    esac
    sources+=("$f")
  done

  {
    printf '{"record":"meta","schema":"matsci.trajectory.v1",'
    printf '"emitted_unix_s":%s,"num_sources":%d}\n' \
      "$(date +%s)" "${#sources[@]}"
    local src base
    for src in "${sources[@]}"; do
      base="$(basename "$src")"
      # Tag every line with its source file: rewrite the leading '{'
      # to '{"source":"<file>",'. Lines are flat JSON objects by the
      # BenchReporter contract, so this produces valid JSON.
      sed -e "s/^{/{\"source\":\"${base}\",/" "$src"
    done
  } > "$tmp"
  mv "$tmp" "$out"
  echo "collect_bench: wrote $out (${#sources[@]} source files)"
}

selftest() {
  # Not `local`: the EXIT trap fires after the function returns.
  selftest_dir="$(mktemp -d)"
  trap 'rm -rf "${selftest_dir:-}"' EXIT
  local dir="$selftest_dir"

  printf '{"record":"meta","bench":"a"}\n{"record":"run","x":1}\n' \
    > "$dir/BENCH_a.json"
  printf '{"record":"meta","bench":"b"}\n' > "$dir/BENCH_b.json"
  # Open-loop serving artifact — must ride the same glob. The
  # run line carries the telemetry-plane fields: mid-overload /metrics
  # scrape accounting, end-to-end trace continuity, and per-stage
  # latency attribution.
  printf '%s\n%s\n' \
    '{"record":"meta","bench":"serve_openloop"}' \
    '{"record":"run","closed_loop":false,"multiplier":10,"p99_us":9000,"scrapes":8,"scrapes_valid":8,"scrape_mean_us":410.2,"scrape_max_us":902.7,"trace_continuity_ok":1,"stage_queue_wait_mean_us":1800.4,"stage_forward_mean_us":950.1}' \
    > "$dir/BENCH_serve_openloop.json"
  # fig2's allreduce record (comm/coll): the exposed tail after
  # backward and the pool-side reduction must aggregate untouched.
  printf '%s\n%s\n' \
    '{"record":"meta","bench":"fig2_scaleout"}' \
    '{"record":"allreduce_vs_model","gradient_bytes":104072,"exposed_tail_rank_steps":48,"exposed_tail_mean_us":3100.5,"exposed_tail_p50_us":52.4,"exposed_tail_p95_us":9800.2,"pool_reduce_mean_us":160.3,"pool_reduce_max_us":288.7,"modeled_hdr200_w4_us":9.9}' \
    > "$dir/BENCH_fig2_scaleout.json"
  # fig4_mdscale's MD-at-scale records: wave-throughput accounting and
  # the active-learning outcome must aggregate with fields intact.
  printf '%s\n%s\n%s\n' \
    '{"record":"meta","bench":"fig4_mdscale"}' \
    '{"record":"md_scale","mode":"wave","frames_per_s":120.5,"mean_batch_occupancy":7.8,"speedup_vs_sequential":4.2,"wave_trace_continuity_ok":1}' \
    '{"record":"active_learning","gated_frame_fraction":0.31,"force_mae_pre":0.21,"force_mae_post":0.09}' \
    > "$dir/BENCH_fig4_mdscale.json"
  # A stale trajectory must be excluded from its own rebuild.
  printf '{"record":"meta","schema":"matsci.trajectory.v1"}\n' \
    > "$dir/BENCH_trajectory.json"

  aggregate "$dir" || return 1

  local out="$dir/BENCH_trajectory.json"
  local lines
  lines=$(wc -l < "$out")
  # 1 meta + 2 from a + 1 from b + 2 from serve_openloop + 2 from fig2
  # + 3 from fig4_mdscale
  if [ "$lines" -ne 11 ]; then
    echo "collect_bench selftest: expected 11 lines, got $lines" >&2
    cat "$out" >&2
    return 1
  fi
  if ! head -1 "$out" | grep -q '"schema":"matsci.trajectory.v1"'; then
    echo "collect_bench selftest: missing trajectory meta line" >&2
    return 1
  fi
  if ! grep -q '"source":"BENCH_a.json"' "$out" ||
     ! grep -q '"source":"BENCH_b.json"' "$out"; then
    echo "collect_bench selftest: missing source tags" >&2
    return 1
  fi
  # The open-loop record must land tagged, with its closed_loop marker
  # intact so trajectory consumers can split the two serving harnesses.
  if ! grep -q '"source":"BENCH_serve_openloop.json","record":"run","closed_loop":false' "$out"; then
    echo "collect_bench selftest: open-loop artifact missing or untagged" >&2
    return 1
  fi
  # The telemetry-plane fields must survive aggregation: scrape
  # accounting + continuity verdict + stage attribution are what
  # dashboards alert on.
  if ! grep -q '"scrapes":8,"scrapes_valid":8' "$out" ||
     ! grep -q '"trace_continuity_ok":1' "$out" ||
     ! grep -q '"stage_queue_wait_mean_us":1800.4' "$out" ||
     ! grep -q '"stage_forward_mean_us":950.1' "$out"; then
    echo "collect_bench selftest: telemetry fields missing from open-loop record" >&2
    return 1
  fi
  # The allreduce record must keep the tail's mean, p50 and p95 and the
  # pool-side reduction beside them, so dashboards can tell waiting for
  # the slower rank from reduction time.
  if ! grep -q '"source":"BENCH_fig2_scaleout.json","record":"allreduce_vs_model"' "$out" ||
     ! grep -q '"exposed_tail_mean_us":3100.5,"exposed_tail_p50_us":52.4,"exposed_tail_p95_us":9800.2' "$out" ||
     ! grep -q '"pool_reduce_mean_us":160.3,"pool_reduce_max_us":288.7' "$out"; then
    echo "collect_bench selftest: fig2 allreduce record missing fields" >&2
    return 1
  fi
  # The MD-at-scale records must keep their throughput and
  # active-learning fields so dashboards can plot wave speedup and the
  # post-fine-tune error drop.
  if ! grep -q '"source":"BENCH_fig4_mdscale.json","record":"md_scale","mode":"wave"' "$out" ||
     ! grep -q '"wave_trace_continuity_ok":1' "$out" ||
     ! grep -q '"frames_per_s":120.5' "$out" ||
     ! grep -q '"mean_batch_occupancy":7.8' "$out" ||
     ! grep -q '"gated_frame_fraction":0.31' "$out" ||
     ! grep -q '"force_mae_post":0.09' "$out"; then
    echo "collect_bench selftest: fig4_mdscale record missing fields" >&2
    return 1
  fi
  if grep -q '"source":"BENCH_trajectory.json"' "$out"; then
    echo "collect_bench selftest: ingested its own output" >&2
    return 1
  fi
  # Idempotence: re-aggregating over the produced trajectory must not
  # change the line count.
  aggregate "$dir" || return 1
  lines=$(wc -l < "$out")
  if [ "$lines" -ne 11 ]; then
    echo "collect_bench selftest: re-aggregation not idempotent" >&2
    return 1
  fi
  echo "collect_bench selftest: OK"
}

if [ "${1:-}" = "--selftest" ]; then
  selftest
  exit $?
fi

aggregate "${1:-${MATSCI_BENCH_DIR:-.}}"
