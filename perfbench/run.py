#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench program (and the geoblocks library, through the
repository's own CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs one workload. It prints perfbench's report,
then as its last line one JSON object with the keys correct, attempted,
failed and metrics. The metrics are the end_to_end metrics of
BENCHMARK.json with --trace 0 and its per_layer metrics with --trace 1.

Exits non-zero when the sources or BENCHMARK.json are missing, the build
fails, an answer is wrong, or a metric is missing from perfbench's output.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine_zipf", "lazy_zipf_half", "served_mixed_durable")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds perfbench; build output goes to stderr."""
    def attempt():
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", "3"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)

    try:
        attempt()
    except subprocess.CalledProcessError:
        # A build directory configured for another checkout cannot be
        # reused; start it afresh once.
        shutil.rmtree(build_dir, ignore_errors=True)
        try:
            attempt()
        except subprocess.CalledProcessError:
            fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller inputs and fewer set-up repetitions, for the self-test only.
    parser.add_argument("--points", type=int, default=1_000_000)
    parser.add_argument("--setup-reps", type=int, default=5)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "block_set.h")):
        fail("the geoblocks sources (src/) are not next to " + HERE)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json is missing")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    workdir = os.path.join(build_dir, "runs", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--points", str(args.points),
           "--setup-reps", str(args.setup_reps)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        measured = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(out, end="")
        fail("perfbench printed no result (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in wanted:
        got = measured["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s (%s) missing from perfbench's output"
                 % (m["name"], m["unit"]))
        metrics[m["name"]] = got
    result = {"correct": bool(measured["correct"]) and proc.returncode == 0,
              "attempted": measured["attempted"],
              "failed": measured["failed"],
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
