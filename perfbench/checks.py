"""Correctness gate: every case against frozen references, every trace
against its own accounting rules.

Tolerances.  Eigenvalues must match the references to ``LAMBDA_RTOL``
relative: two orders looser than the variation seen when the integrator
tolerance is tightened from 1e-12 to 1e-13 (at most 1.5e-13 on these
grids), so a legitimate integrator change passes, and tighter than the
1e-7 at which acceptance test A6 compares shooting with finite
differences.  The ratio's tolerance is derived from that one: an error of
``LAMBDA_RTOL * |lambda|`` in each eigenvalue moves the numeric shift by up
to twice that, which moves the ratio by the same fraction of the shift,
plus ``PREDICTION_RTOL`` for the quadrature behind the prediction.  The
empirical order's tolerance is the ratio tolerances carried through the
least-squares slope.  Node counts must match exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

LAMBDA_RTOL = 1e-11
PREDICTION_RTOL = 1e-9
ORACLE_RTOL = 1e-7          # acceptance test A6
SELF_TIME_RTOL = 1e-9       # float rounding of the self-time telescoping sum

REFERENCES = Path(__file__).resolve().with_name("references.json")
DOP853_PARENTS = ("shooting.newton", "shooting.nodes", "spectra.bisect")


def load_references(workload: str) -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["workloads"][workload]


def ratio_tolerance(ref: dict) -> float:
    shift_error = LAMBDA_RTOL * (abs(ref["lambda0"]) + abs(ref["lambda_confined"]))
    return abs(ref["ratio"]) * (shift_error / abs(ref["numeric_shift"])
                                + PREDICTION_RTOL)


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def case_problems(ref: dict, record, oracle: bool) -> list[str]:
    """Why one case result disagrees with its reference (empty if it agrees)."""
    if record.error is not None:
        return [f"{record.key}: raised {record.error}"]
    rep = record.report
    if rep is None:
        return [f"{record.key}: produced no report"]
    out = []
    nodes = record.confined.nodes if record.confined is not None else None
    if nodes != ref["nodes_confined"]:
        out.append(f"{record.key}: confined node count {nodes}, "
                   f"want {ref['nodes_confined']}")
    free_nodes = record.free.nodes if record.free is not None else None
    if free_nodes != ref["nodes_free"]:
        out.append(f"{record.key}: unconfined node count {free_nodes}, "
                   f"want {ref['nodes_free']}")
    for field in ("lambda0", "lambda_confined"):
        got, want = getattr(rep, field), ref[field]
        if not _close(got, want, LAMBDA_RTOL * abs(want)):
            out.append(f"{record.key}: {field} {got!r}, want {want!r} "
                       f"(rel {LAMBDA_RTOL:g})")
    if not _close(rep.ratio, ref["ratio"], ratio_tolerance(ref)):
        out.append(f"{record.key}: ratio {rep.ratio!r}, want {ref['ratio']!r} "
                   f"+- {ratio_tolerance(ref):.3g}")
    if oracle:
        fd = rep.diagnostics.oracle_value
        if fd is None or not _close(rep.lambda_confined, fd,
                                    ORACLE_RTOL * abs(rep.lambda_confined)):
            out.append(f"{record.key}: shooting {rep.lambda_confined!r} vs "
                       f"FD oracle {fd!r} exceeds rel {ORACLE_RTOL:g}")
    return out


def order_tolerance(case_refs: list[dict]) -> float:
    """Bound on the fitted slope's change when each ratio moves within its
    tolerance: slope = sum w_i log|r_i - 1| with w_i = (x_i - mean) / Sxx."""
    xs = [math.log(ref["h"]) for ref in case_refs]
    mean = sum(xs) / len(xs)
    sxx = sum((x - mean) ** 2 for x in xs)
    return 1e-12 + sum(abs(x - mean) / sxx * ratio_tolerance(ref)
                       / abs(ref["ratio"] - 1.0)
                       for x, ref in zip(xs, case_refs))


def order_problems(key: str, sweep_ref: dict, case_refs: list[dict],
                   got: float | None) -> list[str]:
    want = sweep_ref["empirical_order"]
    tol = order_tolerance(case_refs)
    if got is None or not _close(got, want, tol):
        return [f"{key}: empirical order {got!r}, want {want!r} +- {tol:.3g}"]
    return []


# --------------------------------------------------------------------------
# Trace accounting
# --------------------------------------------------------------------------


def trace_problems(tracer, case_walls: dict[int, float]) -> list[str]:
    """Attribution and time accounting of a traced run.

    * every DOP853 solver instance belongs to a Newton, node-count or
      bisection span, so steps by parent sum to the total;
    * every span belongs to a case, no self time is negative, and per case
      the self times (``report.case`` included) add up to the case's span;
    * the case span agrees with the case wall time taken outside the tracer.
    """
    out = []
    self_sum: dict[int, float] = {}
    floor = -1e-6
    for span in tracer.spans:
        if span.name == "shooting.dop853" and (
                span.parent is None or span.parent.name not in DOP853_PARENTS):
            parent = None if span.parent is None else span.parent.name
            out.append(f"DOP853 instance {span.id} attributed to {parent}")
        if span.case not in tracer.case_pass:
            out.append(f"span {span.id} ({span.name}) outside any case")
            continue
        if span.self_s < floor:
            out.append(f"span {span.id} ({span.name}) has self time {span.self_s:.3g} s")
        self_sum[span.case] = self_sum.get(span.case, 0.0) + span.self_s
    for case_id, total in self_sum.items():
        case_span = tracer.spans[case_id]
        if abs(total - case_span.busy) > SELF_TIME_RTOL * case_span.busy + 1e-9:
            out.append(f"case span {case_id}: self times sum to {total!r} s, "
                       f"span lasted {case_span.busy!r} s")
        wall = case_walls.get(case_id)
        if wall is None or not case_span.busy <= wall <= 1.01 * case_span.busy + 1e-4:
            out.append(f"case span {case_id}: {case_span.busy!r} s inside the "
                       f"tracer, {wall!r} s by the case clock")
    return out


def repeat_problems(per_pass: list[dict[str, int]]) -> list[str]:
    """Integer layer counts must repeat exactly in every traced pass."""
    out = []
    for index, counts in enumerate(per_pass[1:], start=1):
        for name, value in counts.items():
            if value != per_pass[0][name]:
                out.append(f"{name}: {value} in traced pass {index}, "
                           f"{per_pass[0][name]} in pass 0")
    return out
