#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The build goes to .bench_build/;
the result is the last line of standard output (see perfbench/DESIGN.md).
"""
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache", "disabled", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # One core for the whole run: the snvs_socket controller and daemon
    # then hand off on it, and their wake-up latency does not depend on
    # where the scheduler happened to place them.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # its own session, so a stuck run and its daemon can be killed together
    proc = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
