#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 bench/selftest.py [--seed 0] [--workload sweep ...]

Runs every traced workload twice at one seed, each time in a fresh process,
and requires identical per-layer counters and identical output digests.
Exits 1 on any difference or failed run.
"""

import argparse
import json
import subprocess
import sys

import run


def traced(workload: str, seed: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, run.__file__, "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: traced run exited {proc.returncode}")
    counters = digest = None
    for line in proc.stdout.splitlines():
        if line.startswith("# counters "):
            counters = json.loads(line[len("# counters "):])
        elif line.startswith("# digest "):
            digest = line[len("# digest "):]
    return counters, digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or run.WORKLOAD_NAMES:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        differing = sorted(k for k in first[0] if first[0][k] != second[0].get(k))
        same = not differing and first[1] == second[1]
        ok = ok and same
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} "
              f"({len(first[0])} counters, digest {first[1]} / {second[1]})"
              + (f"; differing: {differing}" if differing else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
