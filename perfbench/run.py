#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload inmem-64mib --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The benchmark and the repository's libraries are compiled from source into
.bench_build/ (Release) on first use. The last line of standard output is the
result object; build logs go to standard error. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# A run measures for --seconds; set-up, references and the last operation
# add at most this much on top.
RUN_SLACK_S = 120


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no mergepath sources next to perfbench/; nothing to build")
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    target = "perfbench_selftest" if args.self_test else "perfbench"
    if not build(target):
        return 1
    cmd = [str(BUILD / target)]
    if not args.self_test:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", args.trace]
    # The benchmark measures the library's default kernel dispatch.
    env = {k: v for k, v in os.environ.items() if k != "MP_MERGE_KERNEL"}
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish in time")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
