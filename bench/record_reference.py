"""Record reference.json: the expected result of every operation of every variant.

Run from the root of a checkout whose package is the reference:

    python3 bench/record_reference.py

Results are recorded as the package computes them, except for the spec
cases in workloads.KNOWN_SEED_DEFECTS, whose reference is what the README
documents: a NaN hardware constant and `"dtype_bytes": true` are rejected
with exit 1, and `"count_lm_head": true` gives the result of the
`include_lm_head` option it names.
"""

from __future__ import annotations

import json
import os
import sys

from run import BENCH_DIR, SRC, import_package
import workloads


def main() -> int:
    sys.path.insert(0, SRC)
    L = import_package()
    reference = {"variants": workloads.VARIANTS, "rel_tol": workloads.REL_TOL}
    for name, make in workloads.WORKLOADS.items():
        work = os.path.join(BENCH_DIR, "out", "record", name)
        os.makedirs(work, exist_ok=True)
        entries = []
        for variant in range(workloads.VARIANTS):
            workload = make()
            workload.prepare(variant, work)
            entries.append(workload.record(L, workload.run(L)))
        reference[name] = entries
        print(f"{name}: {len(entries)} variants", file=sys.stderr)
    with open(os.path.join(BENCH_DIR, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
