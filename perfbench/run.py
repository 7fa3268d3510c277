#!/usr/bin/env python3
"""Build the benchmark binary from this checkout's sources and run it.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload fig6-machines --seed 0 \
        --seconds 20 --trace 0

The benchmark (perfbench/perfbench.cc) is compiled with CMake into
.bench_build/perfbench on first use and rebuilt incrementally after.
Its standard output is passed through unchanged; the last line is the
JSON result.  Build output goes to standard error.  For seed 0 at the
pinned budget the run also checks the sweep digest against
perfbench/digests.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run_bounded(cmd, timeout, what, **kwargs):
    """Run cmd in its own process group; kill the whole group on timeout
    or when this script is told to stop."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)

    def kill():
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # The benchmark's scratch directory (see ScratchDir in perfbench.cc).
        shutil.rmtree(os.path.join(BUILD_ROOT, "tmp", f"run-{proc.pid}"),
                      ignore_errors=True)

    def stop(signum, _frame):
        kill()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        kill()
        fail(f"{what} did not finish within {timeout:.0f}s")
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for cmd in steps:
            rc = run_bounded(cmd, deadline - time.monotonic(), "the build",
                             stdout=sys.stderr, stderr=sys.stderr)
            if rc != 0:
                fail(f"build step failed: {' '.join(cmd)}")


def pinned_digest(workload, seed, insts):
    with open(os.path.join(HERE, "digests.json")) as f:
        pins = json.load(f)
    if seed != 0 or insts != pins["insts_per_trace"]:
        return None
    return pins["seed0"].get(workload)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--insts", type=int, default=100000,
                    help="x86 instructions per hot-spot trace")
    ap.add_argument("--setup-reps", type=int, default=3)
    ap.add_argument("--no-corpus", action="store_true",
                    help="synthesize conventional-corpus traces live")
    ap.add_argument("--corrupt-corpus", action="store_true",
                    help="damage one recorded container (smoke test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.insts < 1:
        fail("--seed must be >= 0, --seconds and --insts >= 1")

    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--insts", str(args.insts), "--setup-reps", str(args.setup_reps),
           "--work-dir", BUILD_ROOT]
    digest = pinned_digest(args.workload, args.seed, args.insts)
    if digest:
        cmd += ["--expect-digest", digest]
    if args.no_corpus:
        cmd.append("--no-corpus")
    if args.corrupt_corpus:
        cmd.append("--corrupt-corpus")
    sys.stdout.flush()
    sys.exit(run_bounded(cmd, RUN_TIMEOUT_S, "the benchmark"))


if __name__ == "__main__":
    main()
