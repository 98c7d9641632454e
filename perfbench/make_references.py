"""Regenerate ``perfbench/references.json``.

The file holds, per size, workload and seed, the output digest of the
first input set's round (with the final ``verify_deployment``).  The
runner compares every run against it, so regenerate it only after a
change that alters the simulated outputs on purpose, and say why in the
change.  Run from the repository root::

    python3 perfbench/make_references.py

To check that the digests do not depend on the hash seed, regenerate
under another ``PYTHONHASHSEED`` and compare with ``git diff``.
"""

from __future__ import annotations

import json
import sys

import run

#: Reference seeds 0..N-1 at the standard size.
STANDARD_SEEDS = 32


def main() -> int:
    bench_workloads = run.import_program()
    references: dict = {}
    # the smoke tests run seed 0 at the tiny size
    for size, seeds in (("standard", STANDARD_SEEDS), ("tiny", 1)):
        for name, workload in bench_workloads.WORKLOADS.items():
            table = references.setdefault(size, {}).setdefault(name, {})
            for seed in range(seeds):
                inputs = workload.make_inputs(run.input_seeds(seed)[0], size)
                outputs = workload.run_round(inputs, verify=True).outputs
                table[str(seed)] = bench_workloads.digest(outputs)
                print(f"{size} {name} seed {seed}: {table[str(seed)]}", flush=True)
    with open(run.REFERENCES, "w") as out:
        json.dump(references, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
