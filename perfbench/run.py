#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload figures|churn|daemon \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the
simulator library plus the `perfbench` binary, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later runs rebuild incrementally. The binary's output is passed through;
its last line is one JSON object with the keys correct, attempted, failed
and metrics. This script also checks that the metrics are exactly the
ones BENCHMARK.json declares for the mode (end_to_end untraced,
per_layer traced). The exit code is non-zero when the build fails, an
output check fails, or the result does not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step; on failure shows its output on stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        fail(f"build step failed: {' '.join(cmd)}")


def build():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", str(len(os.sched_getaffinity(0)))])
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["figures", "churn", "daemon"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", out_dir],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output (exit code {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail(f"the last line is not a JSON result (exit code {proc.returncode})")

    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    declared = declared_metrics(bool(args.trace))
    if declared is not None:
        got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
        if got != declared:
            missing = sorted(set(declared) - set(got))
            extra = sorted(set(got) - set(declared))
            units = sorted(k for k in set(got) & set(declared)
                           if got[k] != declared[k])
            problems.append(f"metrics differ from BENCHMARK.json: missing "
                            f"{missing}, undeclared {extra}, unit {units}")
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("; ".join(problems))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
