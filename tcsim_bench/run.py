#!/usr/bin/env python3
"""tcsim-bench launcher: build the benchmark program from source, then run it.

Run from the root of a tcsim checkout:

    python3 tcsim_bench/run.py --workload core-window --seed 1 \
        --seconds 10 --trace 0

The program is built (Release) under .bench_build/tcsim_bench together
with the simulator sources in src/, and then replaces this process, so
the workload runs in a single process. Build output goes to stderr; the
last line of stdout is the program's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "tcsim_bench"
WORKLOADS = ("core-window", "core-mispredict", "frontend-server")


def build():
    """Configure once, then build the program (a no-op when up to date)."""
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "tcsim_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in 1..3600")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"tcsim-bench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"tcsim-bench: build failed: {err}", file=sys.stderr)
        return 1

    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    program = str(BUILD / "tcsim_bench")
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.trace:
        cmd += ["--spans-out",
                str(work / f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(program, cmd)
    return 1


if __name__ == "__main__":
    sys.exit(main())
