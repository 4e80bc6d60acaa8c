#!/usr/bin/env python3
"""Build and run the dgxsim simulator benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --pin

The benchmark compiles the dgxsim library from src/ together with
perfbench/perfbench.cc (a Release CMake build under .bench_build/perfbench),
then runs the binary in the checkout. The binary's last stdout line is
the JSON result; build output goes to stderr. Without the dgxsim
sources (src/ and the golden results/) it exits non-zero and prints no
result.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("src/CMakeLists.txt", "results/baseline.json",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("missing %s: run from a full dgxsim checkout" % need)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Keep stdout for the result line only.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    # A terminated wrapper must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([BINARY, "--root", ROOT] + sys.argv[1:], cwd=ROOT)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        fail("benchmark exited with code %d" % code)


if __name__ == "__main__":
    main()
