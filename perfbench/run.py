#!/usr/bin/env python3
"""Builds and runs the Klotski end-to-end benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload plan-full --seed 1 --seconds 20 --trace 0

Run from the root of a Klotski checkout. The first run configures and
builds an optimized tree under $CARGO_TARGET_DIR (default .bench_build);
later runs only check that it is up to date. Build output goes to stderr;
the benchmark's report goes to stdout and ends with one JSON line.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan-full", "serve-mix", "robustness")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark and the daemon."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench", "klotski_served"],
                   check=True, stdout=sys.stderr)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Klotski source tree beside perfbench/ (" + ROOT + ")")
        return 2
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: " + str(error))
        return 2

    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--served", os.path.join(build_dir, "klotski", "tools",
                                 "klotski_served"),
        "--work-dir", work_dir,
        "--git-sha", git_sha(),
    ]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
