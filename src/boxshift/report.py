"""Case orchestration and machine-readable reporting.

A *case* is one (potential, box, m, nu, h): run the confined and unconfined
solvers, evaluate the leading shift prediction, and package the comparison
as a :class:`ShiftReport`.  Sweeps run a case per grid point (h for wells,
box radius for hydrogen) and emit CSV rows plus an empirical convergence
order fitted from log|ratio - 1| vs log h.

Serialization notes: floats are emitted with ``repr`` semantics (shortest
round-trip form, <= 17 significant digits), so JSON and CSV round-trip
losslessly.  Both linear and log forms of each shift are reported because
the linear values underflow quickly along a sweep.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .asymptotics import (
    ShiftPrediction,
    hydrogen_shift_term,
    shift_leading_line,
    shift_leading_radial,
)
from .errors import BoxshiftError, InvalidPotential
from .potentials import Domain, LineBox, PotentialSpec, RadialBox, validate_potential
from .shooting import ModeSpec, steps_taken
from .spectra import (
    Eigenpair,
    HydrogenSpec,
    confined_eigenvalue,
    fd_oracle,
    harmonic_level,
    harmonic_spacing,
    hydrogen_confined,
    unconfined_eigenvalue,
)

CSV_HEADER = (
    "h", "lambda0", "lambda_confined", "numeric_shift", "predicted_shift",
    "ratio", "log_numeric", "log_predicted", "status",
)
HYDROGEN_CSV_HEADER = ("R",) + CSV_HEADER[1:]


@dataclass(frozen=True)
class CaseDescriptor:
    potential: str
    kind: str                      # "line" | "radial"
    domain: tuple[float, float]
    level: int
    nu: float | None
    h: float


@dataclass(frozen=True)
class Diagnostics:
    """The work behind one report: the confined Newton's iterations and
    every integrator step of the case, the loose iterates of a graded
    Newton (``shooting.newton``) included.  ``free_iterations`` counts the
    free level's Newton iterations; it is None where no Newton solved it
    (the closed-form harmonic level, Coulomb's E_n).  A report written
    before the field existed loads with None."""

    iterations: int
    steps: int
    oracle_value: float | None = None
    free_iterations: int | None = None


@dataclass(frozen=True)
class ShiftReport:
    case: CaseDescriptor
    lambda0: float
    lambda_confined: float
    numeric_shift: float
    log_numeric_shift: float
    predicted_shift: float
    log_predicted_shift: float
    ratio: float
    diagnostics: Diagnostics


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x != 0.0 else -math.inf


def _ratio(numeric: float, log_numeric: float, prediction: ShiftPrediction) -> float:
    # Work in logs so an underflowed shift or prediction still yields a
    # ratio; an underflowed shift keeps its sign as a signed zero.
    if log_numeric == -math.inf:
        return 0.0
    try:
        value = math.exp(log_numeric - prediction.log_leading_value)
    except OverflowError:
        value = math.inf
    return math.copysign(value, numeric)


def run_shift_case(p: PotentialSpec, domain: Domain, mode: ModeSpec, *,
                   integrate_tol: float = 1e-12,
                   oracle: bool = False) -> ShiftReport:
    """Full pipeline for one well case: validate, solve both sides, compare."""
    start = steps_taken()
    report = validate_potential(p, domain, 64)
    if not report.passed:
        raise InvalidPotential(report.summary())

    if isinstance(domain, LineBox):
        prediction = shift_leading_line(p, domain, mode)
        span = (domain.left, domain.right)
    else:
        if mode.nu is None:
            raise InvalidPotential("radial cases need nu")
        prediction = shift_leading_radial(p, domain.length, mode)
        span = (0.0, domain.length)

    # The confined level comes first: the free level is one Newton on the
    # Wronskian of the well without walls, started at lambda_D, whose first
    # step is the flux step (wall values times O(1) projections).  The
    # shift is the sum of its steps, never lambda_D - lambda_0, which would
    # round it at eps*lambda again; the closed-form harmonic level has no
    # steps and keeps the subtraction.  The sum keeps its exponent, so a
    # shift below the float range still has its log and its ratio.  The
    # leading prediction seeds lambda_D and, as the free solve's shift
    # estimate, tells it where the flux pair may be shot loosely.  The seed
    # moves by one harmonic spacing at most: where the level lies above the
    # walls' height the prediction can exceed the real shift by far, and a
    # seed that far up stands for a higher level.
    shift = prediction.leading_value \
        if math.isfinite(prediction.leading_value) else 0.0
    lam0 = harmonic_level(p, mode) + min(shift, harmonic_spacing(p, mode))
    confined = confined_eigenvalue(p, domain, mode, lam0=lam0,
                                   rtol=integrate_tol)
    free = unconfined_eigenvalue(p, mode, rtol=integrate_tol,
                                 lam0=confined.value, box=domain,
                                 box_shots=confined.shots,
                                 shift_estimate=shift)
    if free.offset is None:
        numeric, log_numeric = confined.value - free.value, None
    else:
        numeric, log_numeric = -free.offset.to_float(), free.offset.log_abs()

    oracle_value: float | None = None
    if oracle:
        levels = fd_oracle(p, domain, mode, count=mode.level + 1)
        oracle_value = levels[mode.level].value

    case = CaseDescriptor(potential=p.label, kind=p.kind, domain=span,
                          level=mode.level, nu=mode.nu, h=mode.h)
    return _report(case, free.value, confined, numeric, prediction, start,
                   log_numeric=log_numeric, oracle_value=oracle_value,
                   free_iterations=free.iterations
                   if free.method == "shooting" else None)


def run_hydrogen_case(spec: HydrogenSpec, *,
                      integrate_tol: float = 1e-12) -> ShiftReport:
    """Boxed Coulomb level vs the closed-form shift for one box radius."""
    start = steps_taken()
    prediction = hydrogen_shift_term(spec)
    pair = hydrogen_confined(spec, rtol=integrate_tol)
    case = CaseDescriptor(
        potential=f"hydrogen(n={spec.n},ell={spec.ell},z={spec.z:g})",
        kind="radial", domain=(0.0, spec.r_box),
        level=spec.level, nu=spec.nu, h=spec.h)
    return _report(case, spec.energy_unconfined, pair,
                   pair.value - spec.energy_unconfined, prediction, start)


def _report(case: CaseDescriptor, lambda0: float, confined: Eigenpair,
            numeric: float, prediction: ShiftPrediction, start: int, *,
            log_numeric: float | None = None,
            oracle_value: float | None = None,
            free_iterations: int | None = None) -> ShiftReport:
    """The comparison for one case; ``start`` is ``steps_taken()`` when the
    case began.  ``log_numeric`` defaults to log|numeric|."""
    if log_numeric is None:
        log_numeric = _log_abs(numeric)
    return ShiftReport(
        case=case,
        lambda0=lambda0,
        lambda_confined=confined.value,
        numeric_shift=numeric,
        log_numeric_shift=log_numeric,
        predicted_shift=prediction.leading_value,
        log_predicted_shift=prediction.log_leading_value,
        ratio=_ratio(numeric, log_numeric, prediction),
        diagnostics=Diagnostics(iterations=confined.iterations,
                                steps=steps_taken() - start,
                                oracle_value=oracle_value,
                                free_iterations=free_iterations),
    )


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------


def shift_resolved(report: ShiftReport) -> bool:
    """Whether |lambda_D - lambda_0| clears 1e3 * eps * max(|lambda_0|,
    |lambda_D|); below that floor the subtraction's roundoff is the shift."""
    floor = 1e3 * sys.float_info.epsilon \
        * max(abs(report.lambda0), abs(report.lambda_confined))
    return abs(report.numeric_shift) >= floor


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep: a report on success, an error tag on
    failure.  ``status`` is "ok", "unresolved" (a report whose shift is
    below the roundoff floor, see ``shift_resolved``) or the error tag."""

    grid_value: float
    report: ShiftReport | None
    status: str

    @property
    def ok(self) -> bool:
        return self.report is not None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    empirical_order: float | None   # slope of log|ratio-1| vs log h


def geometric_grid(start: float, stop: float, count: int) -> list[float]:
    import numpy as np

    if count < 1:
        raise ValueError(f"grid needs at least one point, got {count}")
    if start <= 0.0 or stop <= 0.0:
        raise ValueError("geometric grids need positive endpoints")
    return [float(v) for v in np.geomspace(start, stop, count)]


def fit_empirical_order(rows: Sequence[SweepRow]) -> float | None:
    """Slope of log|ratio - 1| against log h over the rows with status
    "ok"; failed and unresolved rows are left out.  None unless the rows
    kept span two distinct h."""
    import numpy as np

    xs, ys = [], []
    for row in rows:
        if row.status != "ok" or not math.isfinite(row.report.ratio):
            continue
        err = abs(row.report.ratio - 1.0)
        if err > 0.0:
            xs.append(math.log(row.grid_value))
            ys.append(math.log(err))
    if len(set(xs)) < 2:
        return None
    slope = np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0]
    return float(slope)


def _run_rows(grid: Sequence[float], worker) -> list[SweepRow]:
    def guarded(value: float) -> SweepRow:
        try:
            report = worker(value)
        except BoxshiftError as exc:
            return SweepRow(grid_value=value, report=None,
                            status=f"{type(exc).__name__}: {exc}")
        status = "ok" if shift_resolved(report) else "unresolved"
        return SweepRow(grid_value=value, report=report, status=status)

    return [guarded(v) for v in grid]


def run_sweep(p: PotentialSpec, domain: Domain, level: int, nu: float | None,
              h_grid: Sequence[float], *,
              integrate_tol: float = 1e-12) -> SweepResult:
    def worker(h: float) -> ShiftReport:
        mode = ModeSpec(level=level, h=h, nu=nu)
        return run_shift_case(p, domain, mode, integrate_tol=integrate_tol)

    rows = _run_rows(h_grid, worker)
    return SweepResult(rows=tuple(rows), empirical_order=fit_empirical_order(rows))


def run_hydrogen_sweep(n: int, ell: int, z: float, h: float,
                       r_grid: Sequence[float], *,
                       integrate_tol: float = 1e-12) -> SweepResult:
    def worker(r_box: float) -> ShiftReport:
        spec = HydrogenSpec(n=n, ell=ell, z=z, h=h, r_box=r_box)
        return run_hydrogen_case(spec, integrate_tol=integrate_tol)

    rows = _run_rows(r_grid, worker)
    # Hydrogen converges in the box radius, not h; the h-order fit does not
    # apply.
    return SweepResult(rows=tuple(rows), empirical_order=None)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def report_to_dict(report: ShiftReport) -> dict:
    data = asdict(report)
    data["case"]["domain"] = list(report.case.domain)
    return data


def report_from_dict(data: dict) -> ShiftReport:
    case_data = dict(data["case"])
    case_data["domain"] = tuple(case_data["domain"])
    diag = Diagnostics(**data["diagnostics"])
    return ShiftReport(
        case=CaseDescriptor(**case_data),
        lambda0=data["lambda0"],
        lambda_confined=data["lambda_confined"],
        numeric_shift=data["numeric_shift"],
        log_numeric_shift=data["log_numeric_shift"],
        predicted_shift=data["predicted_shift"],
        log_predicted_shift=data["log_predicted_shift"],
        ratio=data["ratio"],
        diagnostics=diag,
    )


def report_to_json(report: ShiftReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def report_from_json(text: str) -> ShiftReport:
    return report_from_dict(json.loads(text))


def _row_cells(row: SweepRow) -> list[str]:
    if row.report is None:
        return [repr(row.grid_value)] + [""] * 7 + [row.status]
    r = row.report
    return [
        repr(row.grid_value), repr(r.lambda0), repr(r.lambda_confined),
        repr(r.numeric_shift), repr(r.predicted_shift), repr(r.ratio),
        repr(r.log_numeric_shift), repr(r.log_predicted_shift), row.status,
    ]


def sweep_to_csv(result: SweepResult, *, hydrogen: bool = False) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(HYDROGEN_CSV_HEADER if hydrogen else CSV_HEADER)
    for row in result.rows:
        writer.writerow(_row_cells(row))
    return buffer.getvalue()


def format_report(report: ShiftReport) -> str:
    """Aligned human-readable table for one case."""
    case = report.case
    nu_text = "" if case.nu is None else f"  nu={case.nu:g}"
    lines = [
        f"potential       {case.potential}",
        f"domain          ({case.domain[0]:g}, {case.domain[1]:g})   "
        f"m={case.level}{nu_text}  h={case.h:g}",
        f"lambda0         {report.lambda0!r}",
        f"lambda_confined {report.lambda_confined!r}",
        f"numeric shift   {report.numeric_shift!r}   "
        f"(log {report.log_numeric_shift:.6f})",
        f"predicted shift {report.predicted_shift!r}   "
        f"(log {report.log_predicted_shift:.6f})",
        f"ratio           {report.ratio!r}",
        f"diagnostics     iterations={report.diagnostics.iterations} "
        f"steps={report.diagnostics.steps}",
    ]
    if report.diagnostics.oracle_value is not None:
        rel = abs(report.lambda_confined - report.diagnostics.oracle_value) \
            / max(abs(report.lambda_confined), 1e-300)
        lines.append(f"fd oracle       {report.diagnostics.oracle_value!r}   "
                     f"(rel diff {rel:.3e})")
    return "\n".join(lines)


def sweep_summary_lines(result: SweepResult) -> Iterable[str]:
    if result.empirical_order is not None:
        yield f"empirical order (log|ratio-1| vs log h): {result.empirical_order:.3f}"
    failures = [row for row in result.rows if not row.ok]
    if failures:
        yield f"{len(failures)} of {len(result.rows)} rows failed"
    unresolved = [row for row in result.rows if row.status == "unresolved"]
    if unresolved:
        yield (f"{len(unresolved)} of {len(result.rows)} rows unresolved "
               "(shift below the roundoff floor of lambda_D - lambda_0)")
