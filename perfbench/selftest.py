#!/usr/bin/env python3
"""Self-test of the repository benchmark at smoke size.

    python3 perfbench/selftest.py [--seconds 2] [workload ...]

For each workload it runs perfbench/run.py untraced and traced and asserts:
  * every metric of BENCHMARK.json is printed with its unit, and the
    workload's own per-layer metrics come from the binary (they are not
    among the zero-filled metrics of layers the workload does not use);
  * the per-layer parts add up to the step, latency or wave they split,
    within TOLERANCE;
  * every output-correctness check passed and attempted >= 1.
It also prints the tracing overhead: the traced run's own end-to-end
figures against the untraced run's. Exit code 0 means every assertion held.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOLERANCE = 0.05

# Layer metric prefixes each workload must fill itself.
OWNED = {
    "pretrain_ddp": ("train.", "comm.", "memory.", "data.edges"),
    "serve_openloop": ("frontend.", "serve.", "data.collate", "models."),
    "md_waves": ("sim.", "materials.", "tasks."),
}


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.rstrip("\n").split("\n")
    assert proc.returncode == 0, "%s trace=%d exited %d:\n%s" % (
        workload, trace, proc.returncode, proc.stdout)
    return json.loads(lines[-1]), lines[:-1]


def values(metrics):
    return {k: v["value"] for k, v in metrics.items()}


def check_units(result, expected, workload, notes):
    got = result["metrics"]
    for m in expected:
        assert m["name"] in got, "%s: %s missing" % (workload, m["name"])
        assert got[m["name"]]["unit"] == m["unit"], (workload, m["name"])
    filled = []
    for line in notes:
        match = re.match(r"# layers not exercised by \S+ \(reported as 0\): (.*)",
                         line)
        if match:
            filled = match.group(1).split(", ")
    for name in filled:
        assert not name.startswith(OWNED[workload]), (
            "%s did not report its own layer metric %s" % (workload, name))


def close(parts, whole, what):
    share = abs(parts - whole) / whole
    print("  %-40s parts %.4f vs whole %.4f (off by %.2f%%)"
          % (what, parts, whole, 100 * share))
    assert share <= TOLERANCE, what + " does not add up"


def check_sums(workload, m):
    if workload == "pretrain_ddp":
        for r in (0, 1):
            p = "train.rank%d." % r
            parts = sum(m[p + k] for k in ("data_ms", "fwd_ms", "bwd_ms",
                                           "opt_ms"))
            close(parts, m["train.step_mean_ms"],
                  "rank %d data+fwd+bwd+opt = step" % r)
    elif workload == "serve_openloop":
        parts = (m["serve.generator_late_ms"] +
                 m["frontend.submit_us_p50"] / 1000.0 +
                 m["serve.queue_wait_ms"] + m["serve.service_ms"])
        close(parts, m["serve.latency_mean_ms"],
              "late+submit+queue+service = latency")
    else:
        close(m["sim.evaluate_ms"] + m["materials.integrate_ms"],
              m["sim.wave_mean_ms"], "evaluate+integrate = wave")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("workloads", nargs="*", default=list(OWNED))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for workload in args.workloads:
        print("== " + workload)
        plain, plain_notes = run(workload, args.seconds, 0)
        traced, traced_notes = run(workload, args.seconds, 1)
        for result in (plain, traced):
            assert result["correct"] and result["attempted"] >= 1, result
        check_units(plain, spec["end_to_end"], workload, plain_notes)
        check_units(traced, spec["per_layer"], workload, traced_notes)
        check_sums(workload, values(traced["metrics"]))

        under_trace = None
        for line in traced_notes:
            if line.startswith("# end-to-end under tracing: "):
                under_trace = values(json.loads(line.split(": ", 1)[1]))
        assert under_trace is not None, "traced run printed no end-to-end set"
        for name, untraced in values(plain["metrics"]).items():
            print("  tracing overhead %-20s %+.2f%% (%.4g traced vs %.4g)"
                  % (name, 100 * (under_trace[name] - untraced) / untraced,
                     under_trace[name], untraced))
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
