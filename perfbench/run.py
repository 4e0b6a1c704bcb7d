#!/usr/bin/env python3
"""Builds the provenance engine from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The engine and the provbench driver are built with CMake into
.bench_build/perfbench (configured once, rebuilt incrementally). The
driver's output is passed through unchanged; its last line is the JSON
result object. A traced run (--trace 1) also writes its spans to
.bench_build/traces/<workload>-seed<n>.tsv.

Exits non-zero without a result when the engine sources are missing or
the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "provbench")
BUILD_JOBS = "3"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target="provbench"):
    """Configures (once) and builds `target`; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "prov", "provenance_db.hpp")):
        fail("engine sources not found under %s/src; run from the repository root"
             % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja") is not None:
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed; see " + log_path)
        code = subprocess.call(
            ["cmake", "--build", BUILD_DIR, "--target", target, "-j", BUILD_JOBS],
            stdout=log, stderr=subprocess.STDOUT, env=env)
    if code != 0:
        fail("build failed; see " + log_path)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.tsv" % (args.workload, args.seed))]
    command += extra
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
