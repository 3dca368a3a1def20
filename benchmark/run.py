#!/usr/bin/env python3
"""Build the repo benchmark from source, then run it.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds an
optimised (Release, LTO) gbx_bench under .bench_build/; later calls only
rebuild what changed. Build output goes to stderr, so stdout carries the
benchmark's report alone, ending in one JSON line. The arguments are passed
to gbx_bench unchanged; it rejects malformed ones with usage and exit 2.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "gbx_bench")
JOBS = str(min(4, os.cpu_count() or 1))


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit 1 if it fails."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: src/ is missing; the benchmark builds the gbx "
                 "libraries from this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure)
    run_quiet(["cmake", "--build", BUILD, "-j", JOBS])
    return os.path.join(BUILD, "gbx_bench")


def main():
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
