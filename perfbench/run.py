#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <opt_irregular|base_streaming|fig_sweep>
                             --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The first call configures and builds
the simulator and the benchmark from source into .bench_build/perfbench
(later calls rebuild incrementally); build output goes to stderr. The
benchmark's last stdout line is one JSON object with the keys
correct/attempted/failed/metrics. Exits non-zero, printing no result,
when the build fails or the checkout holds no simulator sources.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    """Configure (once) and build; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    r = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def main():
    if not (ROOT / "src").is_dir():
        sys.stderr.write("perfbench: no simulator sources in %s\n" % ROOT)
        return 2
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    # A child process, not exec: the benchmark's RUSAGE_CHILDREN peak
    # must cover its own sweep shards only, never the compiler.
    r = subprocess.run([str(BUILD / "perfbench"), *sys.argv[1:],
                        "--root", str(ROOT)])
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
