#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <classify_mt|session_rank|cold_boot>
                             --seed N --seconds S --trace <0|1>

`--workload all` runs the three workloads one after another, each in its
own process.

Builds the memcom libraries and the benchmark program from source into
.bench_build (or $CARGO_TARGET_DIR when set), then runs one workload in its
own process. The last line of standard output is the result JSON; build logs
go to standard error. Exits non-zero, without a result line, when the build
or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("classify_mt", "session_rank", "cold_boot")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# A fixed malloc mmap/trim threshold: the session workload's results carry a
# 200 KB logits row each, and glibc's adaptive threshold otherwise turns
# their frees into munmap calls, whose TLB shootdowns stall every thread
# of the process on a virtual machine.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=4194304:"
                   "glibc.malloc.trim_threshold=268435456")


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: corrupt part of the reference "
                             "outputs, so the run must report failures")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code = run_workload(binary, build_dir, workload, args)
        if code != 0:
            return code
    return 0


def run_workload(binary, build_dir, workload, args):
    work_dir = os.path.join(build_dir, "work",
                            f"{workload}-seed{args.seed}-trace{args.trace}")
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    env = dict(os.environ)
    env.setdefault("GLIBC_TUNABLES", MALLOC_TUNABLES)
    sys.stdout.flush()
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
