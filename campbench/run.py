#!/usr/bin/env python3
"""Campaign benchmark: builds the driver from source and runs one workload.

    python3 campbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 campbench/run.py --test      # the driver's own unit tests

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory, and so do the generated inputs.
Build output and per-campaign progress go to stderr; the last line of stdout
is the driver's JSON result. The exit code is the driver's: nonzero when a
build fails, a campaign's results disagree with each other or with the
recorded fingerprint, or the printed metrics are not the ones
BENCHMARK.json lists.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir, targets):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None without it."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()
    if not args.test and not args.workload:
        ap.error("--workload is required")

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_dir, "campbench")
    if args.test:
        if not build(build_dir, ["campbench_test"]):
            return 1
        return subprocess.run([os.path.join(build_dir, "campbench_test")]).returncode
    if not build(build_dir, ["campaign_bench", "trace_gen"]):
        print("campbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(build_dir, "campaign_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", os.path.join(out_dir, "campbench-work"),
        "--trace-gen", os.path.join(build_dir, "tools", "trace_gen"),
    ]
    # Own process group, so a timeout also stops the fleet's worker processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("campbench: driver timed out", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("campbench: driver printed no result", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print("campbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(want - set(result["metrics"])), sorted(set(result["metrics"]) - want)),
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
