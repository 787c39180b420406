"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src:perfbench python3 perfbench/record_refs.py

Runs one untimed pass of every workload for each seed in ``SEEDS`` and
writes ``refs.json.gz``.  Rerun it only at a commit whose outputs are
trusted: the references are what later commits are held to (vectors within
1e-12, step and event counts exactly).
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

#: the benchmark's own seeds: outputs for these are checked against the
#: recorded references; any other seed gets the cross-route checks only
SEEDS = range(0, 16)


def one_pass(workload):
    ops = workload.ops()
    outputs = [op.collect(op.run()) for op in ops]
    outcome = workload.check(ops, outputs, full=True)
    if outcome.failed:
        raise SystemExit(f"{workload.name} seed {workload.seed}: {outcome.messages}")
    return ops, outputs


def main() -> int:
    refs = {}
    work = Path(tempfile.mkdtemp(prefix="perfbench-refs-", dir=Path(__file__).parent))
    try:
        pool = workloads.probe_pool()
        probe = workloads.Probe(0, work, refs)
        strata = []
        for params, op in zip(pool, probe.ops()):
            results = op.run()
            strata.append({"p": [float(v) for v in workloads.bm.solve_fixed_point(params).p],
                           "full": max(r.iterations for r in results) >= 5000})
        refs["probe"] = {"pool": strata}
        print(f"probe pool: {sum(s['full'] for s in strata)} of {len(strata)} sets run "
              "the full damped phase", file=sys.stderr)
        for name in ("steady", "relax", "chain"):
            cls = workloads.WORKLOADS[name]
            entry = {"fixed": {}, "seeded": {}}
            for seed in SEEDS:
                workload = cls(seed, work, refs)
                rec = workload.record(*one_pass(workload))
                entry["fixed"].update(rec.get("fixed", {}))
                if rec.get("seeded"):
                    entry["seeded"][str(seed)] = rec["seeded"]
                if not rec.get("seeded"):
                    break  # nothing depends on the seed
            refs[name] = entry
            print(f"{name}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with gzip.open(workloads.REFS_PATH, "wt", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
