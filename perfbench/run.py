"""Benchmark entry point.

    python3 perfbench/run.py --workload quartic-boxes --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``boxshift`` from its
``src`` directory, nothing else.  Prints every metric by name with its unit,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Exits 1 when a result fails its
check, 2 when the checkout holds no ``boxshift`` sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "boxshift"
    if not (package / "__init__.py").is_file():
        print(f"error: no boxshift sources under {package.parent}", file=sys.stderr)
        return 2
    # One solver thread: BLAS must not spread eigh_tridiagonal over cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(package.parent))

    import boxshift
    if Path(boxshift.__file__).resolve().parent != package:
        print(f"error: imported boxshift from {boxshift.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        result, lines = harness.measure_traced(workload, args.seed, args.seconds)
    else:
        result, lines = harness.measure(workload, args.seed, args.seconds)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
