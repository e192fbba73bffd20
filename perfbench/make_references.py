"""Regenerate ``references.json`` from the checked-out sources.

    python3 perfbench/make_references.py

Runs one pass of every workload in declaration order and freezes, per
case, the unconfined and confined eigenvalues, the numeric shift, the
ratio and both node counts, and per well sweep its empirical order.  The
committed file was made this way at the commit that introduced the
benchmark; regenerate it only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    from probes import CaseLog, installed
    from workloads import WORKLOADS, WellSweep

    frozen = {}
    for workload in WORKLOADS.values():
        log = CaseLog()
        potentials = workload.resolve()
        with installed(log.patches()):
            orders = {}
            for job in workload.jobs:
                orders.update(job.run(potentials, random.Random(0), workload.oracle))
        cases = {}
        for record in log.records:
            if record.error is not None:
                raise SystemExit(f"{workload.name} {record.key}: {record.error}")
            rep = record.report
            cases[record.key] = {
                "h": rep.case.h,
                "lambda0": rep.lambda0,
                "lambda_confined": rep.lambda_confined,
                "numeric_shift": rep.numeric_shift,
                "ratio": rep.ratio,
                "nodes_confined": record.confined.nodes,
                "nodes_free": None if record.free is None else record.free.nodes,
            }
        sweeps = {}
        for job in workload.jobs:
            if isinstance(job, WellSweep):
                sweeps[job.key] = {"empirical_order": orders[job.key],
                                   "cases": job.case_keys}
        frozen[workload.name] = {"cases": cases, "sweeps": sweeps}

    checks.REFERENCES.write_text(json.dumps(
        {"generated_by": "perfbench/make_references.py", "workloads": frozen},
        indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
