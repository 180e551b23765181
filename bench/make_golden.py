#!/usr/bin/env python3
"""Regenerate golden.json: canonical-output digests of the first operations
of every workload at ``workloads.GOLDEN_SEED``.

    python3 bench/make_golden.py

Run it only at a commit whose outputs are known to be right.  The benchmark
fails every operation at that seed whose canonical JSON differs from the
stored digest, which enforces byte-identical output across changes.
"""

import json
import sys

import run

# enough operations to cover a full run at the golden seed
GOLDEN_OPS = {"sweep": 1600, "gain": 600, "wide": 300, "cli": None}


def main() -> int:
    workloads = run.import_program()
    golden = {}
    for name, count in GOLDEN_OPS.items():
        workload = workloads.WORKLOADS[name](workloads.GOLDEN_SEED, run.ROOT)
        try:
            digests = []
            for i in range(count or len(workloads.CLI_MIX)):
                spec = workload.spec(i)
                out = workload.run(spec)
                workload.check(spec, out)
                digests.append(workload.canonical(spec, out))
        finally:
            workload.close()
        golden[name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
