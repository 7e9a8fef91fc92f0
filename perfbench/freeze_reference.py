"""Freeze the correctness reference, perfbench/reference.json.

    python3 perfbench/freeze_reference.py

Records (status, rule, witness, trivial list) for every target of the
grid-q and grid-k universes, for the first LARGE_OPS theorems-large ops of
DEFAULT_SEED, and the detail line of every verify-full criterion.  Every
record is re-verified independently before it is written.

The file was frozen once, at the commit that defined the benchmark, and
later commits are checked against it.  Regenerating it from a changed
program would hide exactly the regressions it exists to catch.
"""

from __future__ import annotations

import json
import sys

import check
import workloads
from run import REFERENCE_SEED, Runner, failures, import_program, provenance, run_pass

LARGE_OPS = 600


def main() -> int:
    runner = Runner(import_program(), {})
    universes = {
        w: [workloads.Op(workloads.target_key(*t), t, "Q" if w == "grid-q" else "K")
            for t in workloads.grid_universe(w)]
        for w in ("grid-q", "grid-k")
    }
    stream = workloads.large_ops(REFERENCE_SEED)
    universes["theorems-large"] = [next(stream) for _ in range(LARGE_OPS)]
    universes["verify-full"] = workloads.verify_pass(list(runner.criteria))

    reference: dict = {"about": {"seed": REFERENCE_SEED, "git_sha": provenance()["git_sha"]}}
    for workload, ops in universes.items():
        runner.cold_memo()
        p = run_pass(runner, ops)
        bad = failures(p, workload, {})
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        reference[workload] = {op.key: record for op, record in p.records}
        print(f"{workload}: {len(p.records)} records in {p.wall:.1f} s")

    with open(check.REFERENCE_PATH, "w") as f:  # one record per line
        f.write('{"about": ' + json.dumps(reference.pop("about")))
        for workload, records in reference.items():
            f.write(f',\n"{workload}": {{\n')
            f.write(",\n".join(f"{json.dumps(k)}: {json.dumps(r)}" for k, r in records.items()))
            f.write("\n}")
        f.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
