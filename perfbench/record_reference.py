#!/usr/bin/env python3
"""Record reference.json: every op's output values on the default seed.

The benchmark compares these values (to 1e-6) on every default-seed run.
Re-record only when a change is meant to alter the program's results, and
say so where the change is described.

Usage (from the repository root): python3 perfbench/record_reference.py
"""
import json
import shutil
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    run.import_package()
    out = run.OUT_DIR / "reference"
    reference = {}
    try:
        for name, workload in WORKLOADS.items():
            reference[name] = {}
            for i, op in enumerate(workload.make_ops(DEFAULT_SEED, None)):
                result = op.run(run.workers(), str(out / f"{name}-{i}"))
                if result.problems:
                    print("\n".join(result.problems), file=sys.stderr)
                    return 1
                reference[name][op.key] = result.values
                print(f"{name}: {op.key}", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
