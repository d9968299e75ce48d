#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload figure_sweep --seed 1 --seconds 10 --trace 0

Without --workload it runs all three workloads, each in its own process.

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use. The last line of standard output
is the result object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the spans of the traced rep are written to
<build dir>/out/spans-<workload>.json. Build output goes to standard
error. Any failure to build or run exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("figure_sweep", "serve_burst", "trace_export")
# One run of the binary must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    """The build directory, kept inside the working directory."""
    cwd = os.getcwd()
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if os.path.commonpath([cwd, root]) != cwd:
        root = os.path.join(cwd, ".bench_build")
    return os.path.join(root, "perfbench")


def build(root):
    """Configure (once) and build the binary; returns its path."""
    binary_dir = os.path.join(root, "build")
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", binary_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(binary_dir, ignore_errors=True)
            fail("cmake configure failed")
    step = ["cmake", "--build", binary_dir, "--target", "perfbench",
            "--parallel", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(binary_dir, "perfbench")


def expected_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json at the repository root lists them."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Parse and validate the binary's result line."""
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"result line is not JSON: {line!r}")
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail(f"result line has the wrong keys: {line!r}")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
             f" or units differ")
    if result["attempted"] < 1:
        fail("no ops attempted")
    return result


def run(binary, root, workload, args):
    """Run one workload in its own process and print its lines."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workers", str(args.workers)]
    if args.trace:
        out_dir = os.path.join(root, "out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(out_dir, f"spans-{workload}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    check_result(lines[-1], args.trace)
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--workers", type=int, default=2,
                        help="harness worker threads (the benchmark uses 2)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.workers < 1:
        fail("--seed must be >= 0, --seconds and --workers >= 1")

    root = build_root()
    binary = build(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        run(binary, root, workload, args)

if __name__ == "__main__":
    main()
