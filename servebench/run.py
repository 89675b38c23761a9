#!/usr/bin/env python3
"""Serving benchmark for tbc_serve.

Builds the load generator (servebench/serve_bench.cc) and the repository's
libraries from the checkout's sources into .bench_build/, runs one
workload, and prints the result as the last line of stdout:

    python3 servebench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout; build output goes to stderr.
servebench/README.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO, ".bench_build")
WORKLOADS = ("hot", "cold")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        log("repository sources not found under", REPO)
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release", "-DTBC_WERROR=OFF"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "serve_bench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(BUILD_DIR, "serve_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1

    # The socket path is relative to the repository root: a unix socket
    # path must stay short, and the checkout's absolute path may not be.
    socket = os.path.join(".bench_build", "serve-%d.sock" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--socket", socket]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ".bench_build", "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + 90)
    except subprocess.TimeoutExpired:
        log("load generator timed out")
        return 1
    finally:
        try:
            os.unlink(os.path.join(REPO, socket))
        except FileNotFoundError:
            pass
    if proc.returncode != 0:
        log("load generator exited with", proc.returncode)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no JSON result from the load generator")
        return 1
    if set(result) != RESULT_KEYS:
        log("malformed result", result)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
