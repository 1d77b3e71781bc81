#!/usr/bin/env python3
"""Build dpgrid's serving benchmark from source and run one workload.

    python3 perfbench/run.py --workload ug2d-1k --seed 1 --seconds 50 --trace 0

Run it from the repository root. The first run configures and builds the
dpgrid library and the benchmark driver (CMake, Release) under
.bench_build/; later runs only re-check the build. The driver's last
stdout line is the JSON result; the exit code is non-zero when the build
fails, a frame fails, or an answer differs from the in-process engine.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("ug2d-1k", "ag3d-publish")

# A run must end within 180 s of its start; the build of a fresh checkout
# gets its own, longer budget.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("perfbench: no dpgrid sources next to perfbench/; cannot build")
        return False
    started = time.monotonic()
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        left = BUILD_BUDGET_S - (time.monotonic() - started)
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=max(left, 1))
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-corrupt-answer", action="store_true",
                        help="negative control: corrupt one wire answer; "
                             "the run must fail")
    args = parser.parse_args()

    if not build():
        return 1

    started = time.monotonic()
    run_dir = os.path.join(BUILD_ROOT, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(run_dir, "store")]
    if args.inject_corrupt_answer:
        cmd.append("--inject-corrupt-answer")
    # The benchmark measures dpgrid as shipped: no DPGRID_* overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DPGRID_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_BUDGET_S}s")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines), flush=True)
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        log(f"perfbench: driver exited with {proc.returncode}")
        return proc.returncode or 1
    log(f"perfbench: {args.workload} seed {args.seed} took "
        f"{time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
