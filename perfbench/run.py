#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload point-uniform --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and with it the library, from the repository's own
CMakeLists.txt) into .bench_build/perfbench, then runs the runner. The
runner sets the workload (defined in src/workload.cc) up from the seed,
serves it from a separate server process, drives it over TCP, and checks
every answer. The last stdout line is the JSON result: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A run must end within 180 s, except the first one in a checkout, which
# builds the library and may take 900 s. The runner's limit counts from the
# end of the build; when nothing needs rebuilding the build takes seconds.
BUILD_LIMIT_S = 700
RUN_LIMIT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The seed parent and change are compared on. README.md names a held-out
# seed for validating a claim on inputs no change was tuned on.
DEFAULT_SEED = 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(command, deadline):
    """Runs one build step in its own process group, so a step that runs
    past the deadline is stopped together with the compilers it started."""
    proc = subprocess.Popen(command, stdout=sys.stderr, process_group=0)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, command)


def build():
    """Configures (once) and builds the runner and the server."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository's CMakeLists.txt and src/ are missing; "
             "the benchmark builds the program from them")
    deadline = time.monotonic() + BUILD_LIMIT_S
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], deadline)
    run_step(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
              "--target", "perfbench_runner", "perfbench_server"], deadline)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="point-uniform, batch-cold or zipf-live")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="generates the graph's edge qualities, the "
                             "request pool, the hot-swap chain and the "
                             "oracle sample")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not re.fullmatch(r"[a-z0-9][a-z0-9-]*", args.workload):
        fail(f"bad workload name {args.workload!r}")

    try:
        build()
    except (OSError, subprocess.SubprocessError) as error:
        fail(f"build failed: {error}")
    started = time.monotonic()

    workdir = os.path.join(BUILD, f"work-{args.workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_runner"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--server={os.path.join(BUILD, 'perfbench_server')}",
               f"--workdir={workdir}",
               f"--trace-out={os.path.join(traces, args.workload + '.spans.tsv')}"]

    # The runner and the server it forks share one process group, so a
    # timeout can stop both.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            process_group=0)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("the run exceeded its time limit")
    shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(lines[-1])
        fail(f"the runner exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail("the runner printed no result")
    if set(result) != RESULT_KEYS:
        fail(f"the result has keys {sorted(result)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
