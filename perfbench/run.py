#!/usr/bin/env python3
"""Build and run coopnet's benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. The first run configures and builds
the perfbench CMake package (which compiles coopnet from src/) into
.bench_build/perfbench -- or into $CARGO_TARGET_DIR/perfbench when that is
set -- and later runs only confirm the build is current. Build output goes
to stderr; the benchmark's stdout is passed through unchanged, and its last
line is the result JSON. Workloads and metrics: perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, deadline, **kwargs):
    """Runs cmd in its own process group, killing the group if it is still
    running at `deadline` (a time.monotonic() value).

    Returns the exit code, or None when the command ran out of time.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build(build_dir):
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                    "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   deadline, stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    code = run(["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs], deadline, stdout=sys.stderr)
    return code == 0


def main():
    # The children run in their own process group, so a SIGTERM sent to
    # this script must unwind through run()'s cleanup to reach them.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tag = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                    os.getpid())
    scratch = os.path.join(out_dir, "scratch", tag)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, tag + ".jsonl")]
    sys.stdout.flush()
    try:
        code = run(cmd, time.monotonic() + RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code is None:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
