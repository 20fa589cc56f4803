#!/usr/bin/env python3
"""Build cxl_bench from this checkout, then run it with the given arguments.

    python3 bench/cxl_bench/run.py --workload raw3 --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/ at the checkout root (configured once,
then brought up to date on every call); its output is sent to stderr,
so the last line of stdout is the benchmark's own result line.  Exits
with the benchmark's status, or 1 when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"


def build() -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "cxl_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def main() -> int:
    if not build():
        print("cxl_bench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([str(BUILD / "cxl_bench"), *sys.argv[1:]],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
