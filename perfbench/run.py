#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload cq-bs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first call builds the program
from source (the repository's own CMake build, added unchanged as a
subdirectory of perfbench/CMakeLists.txt) into .bench_build, or into the
directory CARGO_TARGET_DIR names. --trace 0 runs perfbench_e2e and prints
the end-to-end metrics; --trace 1 runs perfbench_trace, prints the per-layer
metrics and writes the spans to .bench_out/trace-WORKLOAD-seedN.jsonl.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cq-bs", "hq-bs", "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no program sources in {ROOT}: run from a source checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] +
                 targets)
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    driver = "perfbench_trace" if args.trace else "perfbench_e2e"
    build(build_dir, [driver, "rigpm_serve"])

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    # Relative paths keep the daemon's socket path short.
    work_dir = os.path.join(".bench_out",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [os.path.join(build_dir, driver),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--serve-binary", os.path.join(build_dir, "rigpm", "rigpm_serve"),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")]
    # A session of its own, so the driver and the daemon it starts can be
    # stopped together whatever happens to the driver.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        sys.exit(128 + signum)  # the finally clause below stops the group

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    if stdout is None:
        fail(f"{driver} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{driver} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
