"""Measurement loop, metrics and the result line of the benchmark.

One process, one thread of solver work (``jobs=1``, BLAS pinned to one
thread by ``run.py``), a closed loop: each case starts when the previous
one has finished.  Runs are whole passes, so every run holds the same mix
of cases: at least ``MIN_PASSES`` of them, and more until the measured
time reaches ``--seconds``.  The minimum keeps the sample count of the
slowest workload, and with it the tail percentile, from changing with the
host's speed.

Case and pass times are corrected for the host's speed, which on a shared
2-core host drifts by up to 2x over minutes; no run length averages that
out.  Before each case the case log times ``calibrate``: scipy's ``DOP853``
stepping a fixed two-component ODE, the code path that carries most of a
case, with no boxshift code in it.  Every time measured in a
run is scaled by ``(CALIBRATION_REFERENCE_S / c) ** CALIBRATION_ELASTICITY``,
where ``c`` is the run's median calibration time: the seconds it would have
taken on a host where the calibration takes the reference time.  Across
sixty runs of the three workloads, case time followed calibration time with
an elasticity of 0.44 to 0.57 (log-log slope, r 0.83 to 0.94), hence 0.5.
One factor per run follows the drift between runs; a factor per pass would
add its own sampling noise to the tail.  A program change moves these times exactly as it
moves raw ones; host drift does not.  The raw figures are printed too.

``--trace 0`` measures the end-to-end metrics with only the case log
installed.  ``--trace 1`` first runs untraced passes for a third of the
time, then traced passes for the rest, and reports per-layer numbers per
traced pass plus the tracing overhead between the two phases.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy
import scipy
from scipy.integrate import DOP853

import checks
from probes import CaseLog, Tracer, installed
from workloads import Workload

# (name, unit, better).  BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cases_per_s", "1/s", "higher"),
    ("case_p50_s", "s", "lower"),
    ("case_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("shooting.dop853.steps", "count/pass", "lower"),
    ("shooting.dop853.rhs_calls", "count/pass", "lower"),
    ("shooting.dop853.restarts", "count/pass", "lower"),
    ("shooting.dop853.self_s", "s/pass", "lower"),
    ("shooting.newton.calls", "count/pass", "lower"),
    ("shooting.newton.iterations", "count/pass", "lower"),
    ("shooting.newton.steps", "count/pass", "lower"),
    ("shooting.newton.failed", "count/pass", "lower"),
    ("shooting.newton.self_s", "s/pass", "lower"),
    ("shooting.newton.useful_ratio", "ratio", "higher"),
    ("shooting.nodes.calls", "count/pass", "lower"),
    ("shooting.nodes.self_s", "s/pass", "lower"),
    ("spectra.unconfined.calls", "count/pass", "lower"),
    ("spectra.unconfined.boxes", "count/pass", "lower"),
    ("spectra.unconfined.boxes_per_call", "count/call", "lower"),
    ("spectra.unconfined.self_s", "s/pass", "lower"),
    ("spectra.unconfined.share", "ratio", "lower"),
    ("spectra.confined.calls", "count/pass", "lower"),
    ("spectra.confined.self_s", "s/pass", "lower"),
    ("spectra.fd.calls", "count/pass", "lower"),
    ("spectra.fd.fallbacks", "count/pass", "lower"),
    ("spectra.eigh.calls", "count/pass", "lower"),
    ("spectra.eigh.self_s", "s/pass", "lower"),
    ("spectra.hydrogen.self_s", "s/pass", "lower"),
    ("agmon.phi.calls", "count/pass", "lower"),
    ("agmon.quadrature.calls", "count/pass", "lower"),
    ("agmon.self_s", "s/pass", "lower"),
    ("asymptotics.predict.self_s", "s/pass", "lower"),
    ("potentials.validate.self_s", "s/pass", "lower"),
    ("potentials.V.evals", "count/pass", "lower"),
    ("report.case.self_s", "s/pass", "lower"),
    ("report.steps_reported_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

SETUP_REPEATS = 5
CALIBRATION_REFERENCE_S = 0.006  # calibrate() on a quiet 2-core host
CALIBRATION_ELASTICITY = 0.5     # d log(case time) / d log(calibration time)
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import boxshift
from boxshift.potentials import resolve_potential
for kind in sys.argv[3:]:
    resolve_potential(sys.argv[2], kind)
"""
SRC = Path(__file__).resolve().parents[1] / "src"
OUT = Path(__file__).resolve().with_name("out")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def environment() -> str:
    return (f"jobs=1, single process, OPENBLAS_NUM_THREADS="
            f"{os.environ.get('OPENBLAS_NUM_THREADS')}, OMP_NUM_THREADS="
            f"{os.environ.get('OMP_NUM_THREADS')}, nproc {os.cpu_count()}, "
            f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}")


def _airy_like(x: float, y) -> tuple[float, float]:
    return y[1], -(1.0 + x) * y[0]


def calibrate() -> float:
    """Seconds for scipy's DOP853 to take the same 49 steps of
    u'' = -(1 + x) u on [0, 4] that it always takes: the solver's step loop
    without boxshift."""
    start = perf_counter()
    solver = DOP853(_airy_like, 0.0, [1.0, 0.0], t_bound=4.0, rtol=1e-12, atol=1e-15)
    while solver.status == "running":
        solver.step()
    return perf_counter() - start


def setup_seconds(workload: Workload) -> float:
    """Median wall time of a cold interpreter importing boxshift and
    resolving the workload's potentials.  Not speed-corrected: a cold start
    is mostly file and page-fault work, which does not follow the
    calibration, and its raw median holds steady while case times drift."""
    kinds = sorted(workload.resolve())
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC),
            workload.potential or "", *kinds]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(argv, check=True, capture_output=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with
    at least ten samples beyond it; the maximum if there are fewer."""
    ordered = sorted(values)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


class Run:
    """One benchmark run: passes of a workload, their case log and checks."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.log = CaseLog(calibrate)
        self.potentials = workload.resolve()
        self.references = checks.load_references(workload.name)
        self.pass_s: list[float] = []  # wall time, calibration excluded
        self.calibration_s: list[list[float]] = []  # samples of each pass
        self.problems: list[str] = []
        self.failed_keys: list[tuple[int, str]] = []

    def passes(self, budget_s: float, min_passes: int, potentials=None,
               tracer: Tracer | None = None) -> list[int]:
        """Run whole passes until their wall time adds up to ``budget_s``;
        return their indices."""
        indices: list[int] = []
        elapsed = 0.0
        while len(indices) < min_passes or elapsed < budget_s:
            index = self.log.pass_index = len(self.pass_s)
            if tracer is not None:
                tracer.pass_index = index
            first = len(self.log.records)
            start = perf_counter()
            orders = self.workload.run_pass(potentials or self.potentials, self.rng)
            wall = perf_counter() - start
            samples = [r.calibration_s for r in self.log.records[first:]]
            self.pass_s.append(wall - sum(samples))
            self.calibration_s.append(samples)
            elapsed += wall
            indices.append(index)
            self._check_orders(orders)
        return indices

    def calibration(self, indices: list[int]) -> float:
        """Median calibration time over these passes."""
        return statistics.median(s for i in indices for s in self.calibration_s[i])

    def speed_factor(self, indices: list[int]) -> float:
        """Multiplier that turns seconds measured in these passes into
        reference-host seconds."""
        ratio = CALIBRATION_REFERENCE_S / self.calibration(indices)
        return ratio ** CALIBRATION_ELASTICITY

    def _check_orders(self, orders: dict[str, float | None]) -> None:
        for key, got in orders.items():
            sweep = self.references["sweeps"][key]
            case_refs = [self.references["cases"][k] for k in sweep["cases"]]
            self.problems += checks.order_problems(key, sweep, case_refs, got)

    def check_cases(self) -> None:
        for record in self.log.records:
            found = checks.case_problems(self.references["cases"][record.key],
                                         record, self.workload.oracle)
            if found:
                self.failed_keys.append((record.pass_index, record.key))
                self.problems += found

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.problems,
                "attempted": len(self.log.records),
                "failed": len(self.failed_keys),
                "metrics": metrics}


def measure(workload: Workload, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics, with tracing off."""
    setup = setup_seconds(workload)
    run = Run(workload, seed)
    workload.warm(run.potentials)
    with installed(run.log.patches()):
        indices = run.passes(seconds, MIN_PASSES)
    run.check_cases()

    factor = run.speed_factor(indices)
    raw = [record.wall_s for record in run.log.records]
    walls = [wall * factor for wall in raw]
    tail_s, tail_pct, beyond = tail(walls)
    values = {
        "setup_s": setup,
        "cases_per_s": len(walls) / (sum(run.pass_s) * factor),
        "case_p50_s": statistics.median(walls),
        "case_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} cold starts, not corrected",
        "cases_per_s": f"raw {len(raw) / sum(run.pass_s):.4g}",
        "case_p50_s": f"median of {len(walls)} cases; raw {statistics.median(raw):.4g}",
        "case_tail_s": f"p{tail_pct:.1f} of {len(walls)} cases, {beyond} beyond; "
                       f"raw {tail(raw)[0]:.4g}",
    }
    lines = [f"{name:<34} {values[name]:>12.6g} {unit:<10} {notes.get(name, '')}"
             for name, unit, _ in END_TO_END]
    lines.append(f"{'fail_frac':<34} {len(run.failed_keys) / len(walls):>12.6g} "
                 f"{'ratio':<10} {len(run.failed_keys)} of {len(walls)} cases")
    lines.insert(0, f"{workload.name}: seed {seed}, {len(run.pass_s)} passes, "
                    f"{sum(run.pass_s):.2f} s measured, calibration "
                    f"{1e3 * run.calibration(indices):.2f}"
                    f" ms (reference {1e3 * CALIBRATION_REFERENCE_S:g} ms); "
                    f"{environment()}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in END_TO_END}
    return run.result(metrics), lines + run.problems


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------


def layer_counts(tracer: Tracer, records, pass_index: int,
                 factor: float) -> tuple[dict, dict]:
    """Integer counts and speed-corrected self times of one traced pass."""
    counts = {name: 0 for name in (
        "shooting.dop853.steps", "shooting.dop853.rhs_calls",
        "shooting.dop853.restarts", "shooting.newton.calls",
        "shooting.newton.iterations", "shooting.newton.steps",
        "shooting.newton.failed", "shooting.newton.accepted",
        "shooting.nodes.calls", "spectra.unconfined.calls",
        "spectra.unconfined.boxes", "spectra.confined.calls",
        "spectra.fd.calls", "spectra.fd.fallbacks", "spectra.eigh.calls",
        "agmon.phi.calls", "agmon.quadrature.calls", "report.case.calls")}
    counts.update({f"shooting.dop853.steps.under.{parent}": 0
                   for parent in checks.DOP853_PARENTS})
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    for span in tracer.spans:
        if tracer.case_pass.get(span.case) != pass_index:
            continue
        name = span.name
        self_s[name] = self_s.get(name, 0.0) + span.self_s * factor
        inclusive[name] = inclusive.get(name, 0.0) + span.busy * factor
        parent = span.parent.name if span.parent is not None else None
        if name == "shooting.dop853":
            counts["shooting.dop853.restarts"] += 1
            counts["shooting.dop853.steps"] += span.counts["steps"]
            counts["shooting.dop853.rhs_calls"] += span.counts["rhs_calls"]
            key = f"shooting.dop853.steps.under.{parent}"
            counts[key] = counts.get(key, 0) + span.counts["steps"]
        elif name == "shooting.newton":
            counts["shooting.newton.calls"] += 1
            counts["shooting.newton.iterations"] += span.counts.get("iterations", 0)
            counts["shooting.newton.steps"] += span.counts.get("steps", 0)
            counts["shooting.newton.failed"] += span.counts.get("failed", 0)
        elif name == "shooting.nodes":
            counts["shooting.nodes.calls"] += 1
            if span.counts.get("nodes") == span.parent.counts.get("level"):
                counts["shooting.newton.accepted"] += 1
        elif name == "spectra.unconfined":
            counts["spectra.unconfined.calls"] += 1
        elif name == "spectra.confined":
            counts["spectra.confined.calls"] += 1
            if parent == "spectra.unconfined":
                counts["spectra.unconfined.boxes"] += 1
        elif name == "spectra.fd":
            counts["spectra.fd.calls"] += 1
            if any(a.name == "spectra.confined" for a in span.ancestors()):
                counts["spectra.fd.fallbacks"] += 1
        elif name in ("spectra.eigh", "agmon.phi", "agmon.quadrature", "report.case"):
            counts[f"{name}.calls"] += 1
    counts["potentials.V.evals"] = tracer.v_evals.get(pass_index, 0)
    counts["report.steps_reported"] = sum(
        record.report.diagnostics.steps for record in records
        if record.pass_index == pass_index and record.report is not None)
    self_s["spectra.unconfined.inclusive"] = inclusive.get("spectra.unconfined", 0.0)
    self_s["report.case.wall"] = inclusive.get("report.case", 0.0)
    return counts, self_s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_traced(workload: Workload, seed: int, seconds: float,
                   out_dir: Path = OUT) -> tuple[dict, list[str]]:
    """Per-layer metrics from a traced run."""
    run = Run(workload, seed)
    workload.warm(run.potentials)
    with installed(run.log.patches()):
        untraced = run.passes(seconds / 3.0, 1)
    tracer = Tracer()
    counted = {kind: tracer.counting(p) for kind, p in run.potentials.items()}
    with installed(tracer.patches() + run.log.patches()):
        traced = run.passes(2.0 * seconds / 3.0, MIN_TRACED_PASSES, counted, tracer)
    run.check_cases()
    first_traced = traced[0]

    traced_records = [r for r in run.log.records if r.pass_index >= first_traced]
    case_spans = [s for s in tracer.spans if s.name == "report.case"]
    walls = {span.id: record.wall_s for span, record in zip(case_spans, traced_records)}
    run.problems += checks.trace_problems(tracer, walls)
    factor = run.speed_factor(traced)
    per_pass = [layer_counts(tracer, traced_records, index, factor)
                for index in traced]
    run.problems += checks.repeat_problems([c for c, _ in per_pass])

    c = per_pass[0][0]
    t = {name: statistics.fmean(times.get(name, 0.0) for _, times in per_pass)
         for name in set().union(*(times for _, times in per_pass))}
    agmon_s = sum(t.get(n, 0.0) for n in ("agmon.phi", "agmon.quadrature",
                                             "agmon.prefactor"))
    values = {
        "shooting.dop853.steps": c["shooting.dop853.steps"],
        "shooting.dop853.rhs_calls": c["shooting.dop853.rhs_calls"],
        "shooting.dop853.restarts": c["shooting.dop853.restarts"],
        "shooting.dop853.self_s": t.get("shooting.dop853", 0.0),
        "shooting.newton.calls": c["shooting.newton.calls"],
        "shooting.newton.iterations": c["shooting.newton.iterations"],
        "shooting.newton.steps": c["shooting.newton.steps"],
        "shooting.newton.failed": c["shooting.newton.failed"],
        "shooting.newton.self_s": t.get("shooting.newton", 0.0),
        "shooting.newton.useful_ratio": _ratio(c["shooting.newton.accepted"],
                                               c["shooting.newton.calls"]),
        "shooting.nodes.calls": c["shooting.nodes.calls"],
        "shooting.nodes.self_s": t.get("shooting.nodes", 0.0),
        "spectra.unconfined.calls": c["spectra.unconfined.calls"],
        "spectra.unconfined.boxes": c["spectra.unconfined.boxes"],
        "spectra.unconfined.boxes_per_call": _ratio(c["spectra.unconfined.boxes"],
                                                    c["spectra.unconfined.calls"]),
        "spectra.unconfined.self_s": t.get("spectra.unconfined", 0.0),
        "spectra.unconfined.share": _ratio(t["spectra.unconfined.inclusive"],
                                           t["report.case.wall"]),
        "spectra.confined.calls": c["spectra.confined.calls"],
        "spectra.confined.self_s": t.get("spectra.confined", 0.0),
        "spectra.fd.calls": c["spectra.fd.calls"],
        "spectra.fd.fallbacks": c["spectra.fd.fallbacks"],
        "spectra.eigh.calls": c["spectra.eigh.calls"],
        "spectra.eigh.self_s": t.get("spectra.eigh", 0.0),
        "spectra.hydrogen.self_s": t.get("spectra.hydrogen", 0.0),
        "agmon.phi.calls": c["agmon.phi.calls"],
        "agmon.quadrature.calls": c["agmon.quadrature.calls"],
        "agmon.self_s": agmon_s,
        "asymptotics.predict.self_s": t.get("asymptotics.predict", 0.0),
        "potentials.validate.self_s": t.get("potentials.validate", 0.0),
        "potentials.V.evals": c["potentials.V.evals"],
        "report.case.self_s": t.get("report.case", 0.0),
        "report.steps_reported_frac": _ratio(c["report.steps_reported"],
                                             c["shooting.dop853.steps"]),
        "trace.overhead_frac":
            statistics.fmean(run.pass_s[i] for i in traced) * factor
            / (statistics.fmean(run.pass_s[i] for i in untraced)
               * run.speed_factor(untraced)) - 1.0,
    }

    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)

    lines = [f"{workload.name}: seed {seed}, {len(untraced)} untraced + "
             f"{len(traced)} traced passes; {environment()}"]
    lines += [f"{name:<34} {values[name]:>12.6g} {unit}"
              for name, unit, _ in PER_LAYER]
    lines.append("DOP853 steps by parent: " + ", ".join(
        f"{parent} {c[f'shooting.dop853.steps.under.{parent}']}"
        for parent in checks.DOP853_PARENTS)
        + f"; total {c['shooting.dop853.steps']}")
    lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in PER_LAYER}
    return run.result(metrics), lines + run.problems
