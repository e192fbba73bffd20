"""Instrumentation installed from the benchmark's own files.

``report`` and ``spectra`` import their collaborators by name, so every
probe patches the name where the caller looks it up, not where it is
defined.  Two probes exist:

* ``CaseLog`` runs on every measurement.  It times each case at
  ``report.run_shift_case`` / ``report.run_hydrogen_case`` (the functions
  the sweeps call per grid point) and keeps the eigenpairs each case
  produced, so the correctness checks can see node counts.  Before each
  case it can take one host-speed sample (see ``harness.calibrate``).  It
  adds nothing inside the solvers.
* ``Tracer`` runs only for ``--trace 1``.  It records a span (name, start,
  end, parent span, case id) for every call into a layer's entry points,
  one span per scipy ``DOP853`` solver instance (a restart of the
  integrator), and counts potential evaluations.  Spans stay in memory
  until the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Callable
from unittest import mock

from boxshift import agmon, asymptotics, report, shooting, spectra
from boxshift.potentials import PotentialSpec

from workloads import hydrogen_case_key, shift_case_key


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


@contextlib.contextmanager
def installed(patches):
    """Apply (owner, attribute, make_wrapper) patches; undo them on exit.

    ``make_wrapper`` receives the current value, so probes installed later
    wrap probes installed earlier.
    """
    with contextlib.ExitStack() as stack:
        for owner, attribute, make_wrapper in patches:
            wrapper = make_wrapper(getattr(owner, attribute))
            stack.enter_context(mock.patch.object(owner, attribute, wrapper))
        yield


# --------------------------------------------------------------------------
# Per-case timing and results
# --------------------------------------------------------------------------


@dataclass
class CaseRecord:
    key: str
    pass_index: int
    wall_s: float = 0.0
    report: report.ShiftReport | None = None
    confined: spectra.Eigenpair | None = None  # the Dirichlet solve
    free: spectra.Eigenpair | None = None      # the unconfined solve, if any
    error: str | None = None
    calibration_s: float = 0.0  # host-speed sample taken before the case


class CaseLog:
    """Wall time and outputs of every case run while installed."""

    def __init__(self, calibrate: Callable[[], float] | None = None) -> None:
        self.records: list[CaseRecord] = []
        self.pass_index = 0
        self._calibrate = calibrate
        self._current: CaseRecord | None = None

    def patches(self) -> list:
        return [
            (report, "run_shift_case",
             self._timed(lambda a, k: shift_case_key(_arg(a, k, 2, "mode")))),
            (report, "run_hydrogen_case",
             self._timed(lambda a, k: hydrogen_case_key(_arg(a, k, 0, "spec")))),
            (report, "confined_eigenvalue", self._keep("confined")),
            (report, "hydrogen_confined", self._keep("confined")),
            (report, "unconfined_eigenvalue", self._keep("free")),
        ]

    def _timed(self, key_of):
        def make(fn):
            @functools.wraps(fn)
            def case(*args, **kwargs):
                record = CaseRecord(key_of(args, kwargs), self.pass_index)
                if self._calibrate is not None:
                    record.calibration_s = self._calibrate()
                self.records.append(record)
                self._current = record
                start = perf_counter()
                try:
                    record.report = fn(*args, **kwargs)
                except Exception as exc:
                    record.error = f"{type(exc).__name__}: {exc}"
                    raise
                finally:
                    record.wall_s = perf_counter() - start
                    self._current = None
                return record.report
            return case
        return make

    def _keep(self, field: str):
        def make(fn):
            @functools.wraps(fn)
            def keep(*args, **kwargs):
                pair = fn(*args, **kwargs)
                if self._current is not None:
                    setattr(self._current, field, pair)
                return pair
            return keep
        return make


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------


class Span:
    """One call into a layer.  ``busy`` is the time charged to the span:
    its duration for a function call, the time spent inside the solver's
    own methods for a DOP853 instance.  ``child`` sums the children's busy
    time, so ``busy - child`` is the span's self time."""

    __slots__ = ("id", "name", "parent", "case", "start", "end", "busy",
                 "child", "counts")

    def __init__(self, span_id: int, name: str, parent: Span | None,
                 case: int, start: float) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.case = case
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.counts: dict[str, int] = {}

    @property
    def self_s(self) -> float:
        return self.busy - self.child

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent

    def as_json(self, origin: float) -> dict:
        return {"id": self.id, "name": self.name,
                "parent": None if self.parent is None else self.parent.id,
                "case": self.case, "start": self.start - origin,
                "end": self.end - origin, "busy": self.busy,
                "self": self.self_s, "counts": self.counts}


class Tracer:
    """Records spans at every layer boundary the benchmark knows of."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.case_pass: dict[int, int] = {}   # case span id -> pass index
        self.pass_index = 0
        self.v_evals: dict[int, int] = {}     # pass index -> V evaluations
        self._stack: list[Span] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str, start: float) -> Span:
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        case = self._stack[0].id if self._stack else span_id
        span = Span(span_id, name, parent, case, start)
        self.spans.append(span)
        return span

    def _charge(self, span: Span, start: float) -> None:
        now = perf_counter()
        span.busy += now - start
        span.end = now
        if span.parent is not None:
            span.parent.child += now - start

    def _wrap(self, name: str, on_open=None, on_close=None):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = self._open(name, perf_counter())
                if on_open is not None:
                    on_open(span, args, kwargs)
                self._stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                    if on_close is not None:
                        on_close(span, result)
                except Exception:
                    span.counts["failed"] = 1
                    raise
                finally:
                    self._stack.pop()
                    self._charge(span, span.start)
                return result
            return traced
        return make

    # -- per-layer hooks --------------------------------------------------

    def _case_opened(self, span: Span, args, kwargs) -> None:
        self.case_pass[span.id] = self.pass_index

    @staticmethod
    def _level(index: int, name: str):
        def on_open(span: Span, args, kwargs) -> None:
            span.counts["level"] = _arg(args, kwargs, index, name).level
        return on_open

    @staticmethod
    def _newton_done(span: Span, solution) -> None:
        span.counts["iterations"] = solution.iterations
        span.counts["steps"] = solution.steps

    @staticmethod
    def _nodes_done(span: Span, nodes: int) -> None:
        span.counts["nodes"] = nodes

    def _dop853(self, base):
        tracer = self

        class TracedDOP853(base):
            def __init__(self, *args, **kwargs):
                start = perf_counter()
                super().__init__(*args, **kwargs)
                self._bench_span = tracer._open("shooting.dop853", start)
                self._bench_span.counts.update(steps=0, rhs_calls=0)
                self._bench_charge(start)

            def _bench_charge(self, start: float) -> None:
                span = self._bench_span
                span.counts["rhs_calls"] = self.nfev
                tracer._charge(span, start)

            def step(self):
                start = perf_counter()
                message = super().step()
                self._bench_span.counts["steps"] += 1
                self._bench_charge(start)
                return message

            def dense_output(self):
                start = perf_counter()
                out = super().dense_output()
                self._bench_charge(start)
                return out

        return TracedDOP853

    def counting(self, p: PotentialSpec) -> PotentialSpec:
        """The same potential with its evaluations counted per pass."""
        evaluate = p.evaluate

        def counted(x: float) -> float:
            self.v_evals[self.pass_index] = self.v_evals.get(self.pass_index, 0) + 1
            return evaluate(x)

        return dataclasses.replace(p, evaluate=counted)

    def patches(self) -> list:
        case = self._wrap("report.case", on_open=self._case_opened)
        confined = self._wrap("spectra.confined", on_open=self._level(2, "mode"))
        fd = self._wrap("spectra.fd")
        newton = self._wrap("shooting.newton", on_close=self._newton_done)
        nodes = self._wrap("shooting.nodes", on_close=self._nodes_done)
        predict = self._wrap("asymptotics.predict")
        prefactor = self._wrap("agmon.prefactor")
        return [
            (report, "run_shift_case", case),
            (report, "run_hydrogen_case", case),
            (report, "validate_potential", self._wrap("potentials.validate")),
            (report, "shift_leading_line", predict),
            (report, "shift_leading_radial", predict),
            (report, "hydrogen_shift_term", predict),
            (report, "unconfined_eigenvalue", self._wrap("spectra.unconfined")),
            (report, "confined_eigenvalue", confined),
            (report, "fd_oracle", fd),
            (report, "hydrogen_confined",
             self._wrap("spectra.hydrogen", on_open=self._level(0, "spec"))),
            (spectra, "confined_eigenvalue", confined),
            (spectra, "fd_oracle", fd),
            (spectra, "eigh_tridiagonal", self._wrap("spectra.eigh")),
            (spectra, "_bisect_radial", self._wrap("spectra.bisect")),
            (spectra, "newton_solve_line", newton),
            (spectra, "newton_solve_radial", newton),
            (spectra, "count_nodes_line", nodes),
            (spectra, "count_nodes_radial", nodes),
            (shooting, "DOP853", self._dop853),
            (agmon.AgmonProfile, "phi", self._wrap("agmon.phi")),
            (agmon, "adaptive_quadrature", self._wrap("agmon.quadrature")),
            (asymptotics, "wkb_prefactor_line", prefactor),
            (asymptotics, "wkb_prefactor_radial", prefactor),
        ]

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_json(origin)) + "\n")
