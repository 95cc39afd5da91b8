#!/usr/bin/env python3
"""Control-epoch benchmark for surfosd.

Builds epoch_bench (the SurfOS libraries plus epoch_bench.cpp) from source
into .bench_build/ at the repository root, runs one workload and prints its
result as the last line of standard output:

    python3 epochbench/run.py --workload churn|observe --seed N \
        --seconds S --trace 0|1

Exits non-zero, printing no result, when the build or the run fails or the
result is malformed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "epochbench"
WORKLOADS = ("churn", "observe")
BUILD_TIMEOUT_S = 840
# A run measures for --seconds, then finishes the daemon it is serving.
RUN_MARGIN_S = 60


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "epoch_bench",
         "-j", "4"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return BUILD / "epoch_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as err:
        sys.exit(f"epochbench: build failed: {err}")
    # The program reads its knobs from SURFOS_* variables; run it on its
    # defaults whatever the calling shell exports.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SURFOS_")}
    try:
        done = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + RUN_MARGIN_S)
    except (OSError, subprocess.SubprocessError) as err:
        sys.exit(f"epochbench: run failed: {err}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"epochbench: epoch_bench exited with {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("epochbench: malformed result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
