#!/usr/bin/env python3
"""Whole-machine DVMC benchmark: builds the harness and runs workloads.

Usage (from the root of a source checkout):

    python3 dvmcbench/run.py --workload oltp-dir-base --seed 1 \
        --seconds 30 --trace 0
    python3 dvmcbench/run.py            # every workload, untraced and traced

The harness (dvmc_bench.cpp) is built from source with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Each workload runs
in its own single-threaded process. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Spans of
traced runs are written to .bench_out/. See README.md for the workloads
and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["oltp-dir-base", "oltp-snoop-dvmc", "barnes-dir-rmo-oracle"]
RUN_TIMEOUT_S = 170  # one invocation must end within 180 s
BUILD_TIMEOUT_S = 840

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "dvmc_bench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "dvmc_bench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        log(f"error: {workload} exited with code {proc.returncode}")
        return proc.returncode, None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"error: malformed result line from {workload}")
        return 1, None
    return 0, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default with --workload all: both)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"error: cannot build the benchmark: {e}")
        return 1

    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, args.seconds,
                               0 if args.trace is None else args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        return 0

    traces = [0, 1] if args.trace is None else [args.trace]
    ok = True
    for w in WORKLOADS:
        for t in traces:
            _, result = run_one(binary, w, args.seed, args.seconds, t)
            ok = ok and result is not None and result["correct"]
            print(flush=True)
    print("all workloads correct" if ok else "FAILED: see output above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
