#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt) that
compiles the library from src/. It is built in Release mode under
$CARGO_TARGET_DIR (default .bench_build, relative to the repository root),
in the perfbench/ subdirectory. Build output goes to stderr, so the last
line of stdout is always the benchmark's JSON result. Any failed build,
correctness check or determinism check exits non-zero with no result.

With --trace 1 the spans of the last traced repetition are written to
<build dir>/spans-<workload>.bin (format in perfbench/src/trace.h).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", jobs])
    # One build at a time per build directory.
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step failed: {e}")
            if done.returncode != 0:
                fail(f"build step exited {done.returncode}: {' '.join(cmd)}")


def run(cmd):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}", code=1)
    return done.returncode, done.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true",
                   help="build and run the small-size self-test")
    args = p.parse_args()
    bdir = build_dir()

    if args.selftest:
        build(bdir, "perfbench_selftest")
        code, out = run([os.path.join(bdir, "perfbench_selftest")])
        sys.stdout.write(out)
        sys.exit(code)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")
    build(bdir, "perfbench")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--span-out", os.path.join(bdir, f"spans-{args.workload}.bin")]
    code, out = run(cmd)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited {code}", code=1)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no JSON result", code=1)
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail("benchmark result is malformed or incorrect", code=1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
