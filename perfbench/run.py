#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. The library and the benchmark are built
(Release) under $CARGO_TARGET_DIR, or .bench_build when it is unset; the
benchmark's scratch files (a data file, a journal, the span dump of a
traced run) go under the same directory.

The benchmark binary prints a table of everything it measured, with sample
counts. This script relays it, then prints as its last line the result
record: with --trace 0 every end_to_end metric of BENCHMARK.json, with
--trace 1 every per_layer metric. A per-layer metric the workload never
reaches reads 0. The exit code is 0 when every answer matched the
benchmark's reference, 1 when one did not (the record then says
"correct": false), and another non-zero code, with no record, when the
build or the run failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_TAG = "PERFBENCH_RESULT "


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(build_dir):
    """Configures and builds the Release binary; returns its path."""
    binary_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", binary_dir, "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(binary_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                   ", ".join(names)))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    # The library reads UINDEX_* overrides (backend, cache size, prefetch,
    # simulated latency); the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("UINDEX_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(seconds)), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    result = None
    for line in done.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if result is None or done.returncode not in (0, 1):
        fail("run ended with code %d and no result" % done.returncode)

    section = "end_to_end" if args.trace == 0 else "per_layer"
    measured = result["metrics"]
    metrics = {}
    for m in spec[section]:
        name = m["name"]
        if name in measured:
            value = measured[name]["value"]
        elif section == "per_layer":
            value = 0  # This workload does not reach the layer.
        else:
            fail("the run did not measure %s" % name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    record = {
        "correct": bool(result["correct"]) and done.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(record))
    sys.exit(0 if record["correct"] else 1)


if __name__ == "__main__":
    main()
