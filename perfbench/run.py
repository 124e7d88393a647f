#!/usr/bin/env python3
"""Build (on first use) and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The matsci library and the benchmark
binary are compiled from source into $CARGO_TARGET_DIR (default
.bench_build) with CMake the first time; later runs only re-check the
build. The binary prints "# ..." detail lines and, as its last line, one
JSON object with "correct", "attempted", "failed" and "metrics".

BENCHMARK.json is the list of metric names and units. This script checks
the binary's metrics against it and fills in the per-layer metrics of
layers the chosen workload does not exercise, with value 0 (no work was
done there). It exits non-zero, printing no result, when the build
fails, the binary fails, or a metric is missing, unknown or has the
wrong unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pretrain_ddp", "serve_openloop", "md_waves")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure once, then (re)build the binary; output goes to stderr."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    expected = expected_metrics(args.trace == 1)
    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark binary printed no result (exit code %d)" % proc.returncode)

    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in expected}
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail("metric %s (%s) is not listed with that unit in "
                 "BENCHMARK.json" % (name, m["unit"]))
    missing = [m["name"] for m in expected if m["name"] not in metrics]
    if missing and args.trace == 0:
        fail("end-to-end metrics missing: " + ", ".join(missing))
    if missing:
        print("# layers not exercised by %s (reported as 0): %s"
              % (args.workload, ", ".join(missing)))
    result["metrics"] = {
        m["name"]: metrics.get(m["name"], {"value": 0, "unit": m["unit"]})
        for m in expected}
    if proc.returncode != 0 and result.get("correct", False):
        fail("benchmark binary exited with code %d" % proc.returncode)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
