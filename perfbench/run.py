#!/usr/bin/env python3
"""Builds and runs one perfbench workload from a relserve checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of the checkout. The first call configures and
builds the relserve library and the relbench binary under
.bench_build/ (about a minute on four cores); later calls only check
that the build is current. Build output goes to standard error, so the
last line of standard output is the JSON result, restricted to the
metrics BENCHMARK.json lists (end_to_end untraced, per_layer traced);
a listed metric relbench did not report exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
RUN_TIMEOUT_S = 170


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "relbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "relbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(SPANS, exist_ok=True)
    span_file = os.path.join(
        SPANS, "%s-%d.jsonl" % (args.workload, args.seed))
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", WORK, "--span-file", span_file],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: relbench timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: relbench exited %d" % proc.returncode,
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        print("perfbench: no JSON result line", file=sys.stderr)
        return 1
    metrics = result.get("metrics", {})
    want = expected_metrics(args.trace)
    missing = sorted(want - set(metrics))
    if missing:
        sys.stderr.write(proc.stdout)
        print("perfbench: relbench did not report %s" % missing,
              file=sys.stderr)
        return 1
    # relbench prints every metric it knows; the result line carries
    # exactly the ones BENCHMARK.json lists.
    result["metrics"] = {k: v for k, v in metrics.items() if k in want}
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
