"""Dormand-Prince 8(5,3) on Python floats for the shooting equations.

This is scipy's ``DOP853`` (Hairer, Norsett & Wanner, *Solving ODEs I*,
section II.5) run unchanged -- its tableau, its E5/E3 error norm, its
0.9 / 0.2 / 10 step controller and its initial-step selection --
specialised to the one system shooting integrates:

    u' = v,  v' = q(x) u,  w' = z,  z' = q(x) w + dq u

where ``dq`` is the constant lambda-derivative of ``q`` (``-1/h^2``), so
``(w, z)`` carries du/dlambda alongside ``(u, v)``.

The error norm's float operations run in another order than scipy's
(straight-line sums here, ``np.dot`` and a squared ``np.linalg.norm``
there), so an attempt whose error estimate sits at 1 within roundoff can
be accepted by one and rejected by the other: the quartic x^2 + x^4 at
lambda = 0.1, h = 0.1, from (1, 0, 0, 0) at x = 0 to 1 with dq = 0, takes
49 steps in both, but 650 right-hand-side calls here and 662 in scipy.
Away from such a tie the two take the same steps (``tests/test_dop853.py``).

On a 4-component state scipy's per-step cost is numpy call overhead, not
arithmetic.  Here the state stays a tuple of floats, and one generator
writes ``rhs`` and ``attempt`` as straight-line code with the tableau
inlined as float literals.  Each stage names its point ``x`` and sets the
coefficient ``qq`` there: the generic kernel, compiled at import, calls
``q(x)``; a fused kernel, compiled on first use and cached by source,
inlines ``((V) - lam) / h2`` (``+ cent / (x * x)`` for a radial
nu != 1/2), V being the potential's own Python expression in ``x`` that
``q.parts`` names.  That is q's own arithmetic, so both give the same bits,
but without a chain of calls through the potential's evaluator per stage.

The evaluator checks each value (a DSL expression raises a descriptive
``EvalError`` where it is undefined); a fused call is checked once: if it
raises, or its coefficient (``rhs``) or error norm (``attempt``; every
stage's coefficient reaches it) is not finite, the generic kernel redoes
the call through ``q``, reproducing the evaluator's value or error.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Sequence

from scipy.integrate._ivp import dop853_coefficients as _tableau

SAFETY = 0.9       # multiplies the asymptotically optimal step change
MIN_FACTOR = 0.2   # largest decrease of the step after a rejection
MAX_FACTOR = 10.0  # largest increase of the step after an acceptance
_ERROR_EXPONENT = -1.0 / 8.0  # error estimator of order 7
_RTOL_FLOOR = 100.0 * sys.float_info.epsilon
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

_A, _B, _C = _tableau.A, _tableau.B, _tableau.C
_E3, _E5 = _tableau.E3, _tableau.E5
_N_STAGES = _tableau.N_STAGES  # 12 stages per attempt
_N = 4                         # components: (u, u', du/dlambda, du'/dlambda)
# Fused kernels kept; a solve uses at most 2 (nu = 1/2 or not).
FUSED_CACHE_SIZE = 16


# --------------------------------------------------------------------------
# Kernel generation
# --------------------------------------------------------------------------


def _derivative(s: Sequence[str]) -> list[str]:
    return [s[1], f"qq * {s[0]}", s[3], f"qq * {s[2]} + dq * {s[0]}"]


def _combination(coefficients, terms: Sequence[str]) -> str:
    """``c0 * t0 + c1 * t1 + ...`` over the nonzero coefficients."""
    return " + ".join(f"{float(c)!r} * {term}"
                      for c, term in zip(coefficients, terms) if c != 0.0)


def _stage_lines(coefficient: str, s: int) -> list[str]:
    """Stage ``s``: its state from stages 0..s-1, then q once, then k_s."""
    k = [[f"k{j}_{i}" for j in range(s)] for i in range(_N)]
    lines = [f"s{i} = y{i} + ({_combination(_A[s, :s], k[i])}) * h"
             for i in range(_N)]
    lines += [f"x = t + {float(_C[s])!r} * h", f"qq = {coefficient}"]
    lines += [f"k{s}_{i} = {d}" for i, d in
              enumerate(_derivative([f"s{i}" for i in range(_N)]))]
    return lines


def _function(name: str, params: str, body: list[str], result: str,
              check: str, guarded: bool) -> list[str]:
    """``def name(q, lam, h2, cent, dq, params)``; when ``guarded``, a call
    that raises or whose ``check`` is not finite goes to ``generic_name``."""
    args = f"q, lam, h2, cent, dq, {params}"
    if not guarded:
        return [f"def {name}({args}):", *(f"    {line}" for line in body),
                f"    return {result}", ""]
    return [f"def {name}({args}):", "    try:",
            *(f"        {line}" for line in body),
            f"        if isfinite({check}):",
            f"            return {result}",
            "    except Exception:",
            "        pass",
            f"    return generic_{name}({args})", ""]


def _kernel_source(coefficient: str, guarded: bool) -> str:
    ys = [f"y{i}" for i in range(_N)]
    news = [f"n{i}" for i in range(_N)]
    last = [f"k{_N_STAGES}_{i}" for i in range(_N)]

    rhs = [f"{', '.join(ys)}, = y", "x = t", f"qq = {coefficient}"]
    source = _function("rhs", "t, y", rhs, f"({', '.join(_derivative(ys))},)",
                       "qq", guarded)

    attempt = [f"{', '.join(ys)}, = y",
               f"{', '.join(f'k0_{i}' for i in range(_N))}, = f"]
    for s in range(1, _N_STAGES):
        attempt += _stage_lines(coefficient, s)
    for i in range(_N):
        ks = [f"k{j}_{i}" for j in range(_N_STAGES)]
        attempt.append(f"n{i} = y{i} + h * ({_combination(_B, ks)})")
    attempt += ["x = t + h", f"qq = {coefficient}"]
    attempt += [f"{name} = {d}" for name, d in zip(last, _derivative(news))]
    for i in range(_N):
        ks = [f"k{j}_{i}" for j in range(_N_STAGES + 1)]
        attempt += [f"sc = atol + max(abs(y{i}), abs(n{i})) * rtol",
                    f"e{i} = ({_combination(_E5, ks)}) / sc",
                    f"g{i} = ({_combination(_E3, ks)}) / sc"]
    attempt += [f"e5 = {' + '.join(f'e{i} * e{i}' for i in range(_N))}",
                f"e3 = {' + '.join(f'g{i} * g{i}' for i in range(_N))}",
                "if e5 == 0.0 and e3 == 0.0:",
                "    err = 0.0",
                "else:",
                f"    err = abs(h) * e5 / sqrt((e5 + 0.01 * e3) * {_N})"]
    source += _function("attempt", "t, h, y, f, rtol, atol", attempt,
                        f"({', '.join(news)},), ({', '.join(last)},), err",
                        "err", guarded)
    return "\n".join(source)


class _Kernel:
    """The generated ``rhs`` and ``attempt`` of one coefficient; a fused
    kernel falls back on ``generic``."""

    def __init__(self, coefficient: str, generic: _Kernel | None = None) -> None:
        namespace: dict = {"sqrt": math.sqrt, "isfinite": math.isfinite,
                           "math": math}
        if generic is not None:
            namespace.update({f"generic_{name}": fn for name, fn in
                              vars(generic).items()})
        source = _kernel_source(coefficient, generic is not None)
        exec(compile(source, f"<dop853 kernel: qq = {coefficient}>", "exec"),
             namespace)
        self.rhs = namespace["rhs"]
        self.attempt = namespace["attempt"]


_GENERIC = _Kernel("q(x)")


@functools.lru_cache(maxsize=FUSED_CACHE_SIZE)
def fused_kernel(source: str, centrifugal: bool) -> _Kernel:
    """The kernel with V = ``source`` inlined, and ``cent / (x * x)`` added
    when ``centrifugal``."""
    coefficient = f"(({source}) - lam) / h2"
    if centrifugal:
        coefficient += " + cent / (x * x)"
    return _Kernel(coefficient, _GENERIC)


# --------------------------------------------------------------------------
# Solver
# --------------------------------------------------------------------------


class DOP853:
    """One integration from ``t0`` towards ``t_bound``, a step per ``step()``.

    ``fun`` is the coefficient ``q(x)``, ``dq`` its lambda-derivative, and
    the state ``y0`` has the 4 components of the module docstring's system.
    ``status`` is "running", "finished" or "failed"; ``t``, ``y`` (a
    tuple) and ``f`` hold the last accepted point, state and derivative,
    and ``nfev`` counts evaluations of ``q``.

    ``fun.parts``, if set, is ``(source, lam, h2, cent)``: ``fun(x)`` is
    ``(V(x) - lam) / h2`` (``+ cent / (x * x)`` if ``cent``) with V the
    expression ``source`` in ``x``, whose fused kernels then run.
    """

    def __init__(self, fun: Callable[[float], float], t0: float,
                 y0: Sequence[float], t_bound: float, rtol: float, atol: float,
                 max_step: float = math.inf, dq: float = 0.0) -> None:
        if len(y0) != _N:
            raise ValueError(f"DOP853 integrates {_N} components, got {len(y0)}")
        if not max_step > 0.0:
            raise ValueError(f"max_step must be positive, got {max_step!r}")
        source, lam, h2, cent = getattr(fun, "parts", (None, 0.0, 1.0, 0.0))
        kernel = _GENERIC if source is None else fused_kernel(source, cent != 0.0)
        self._rhs = kernel.rhs
        self._attempt = kernel.attempt
        self._coefficient = (fun, lam, h2, cent, dq)
        self.t = t0
        self.t_bound = t_bound
        self.y = tuple(float(c) for c in y0)
        self.rtol = max(rtol, _RTOL_FLOOR)
        self.atol = atol
        self.max_step = max_step
        self.direction = math.copysign(1.0, t_bound - t0) if t_bound != t0 else 1.0
        self.status = "running"
        self.f = self._rhs(*self._coefficient, t0, self.y)
        self.nfev = 1
        self.h_abs = self._initial_step()

    def _initial_step(self) -> float:
        """Hairer-Norsett-Wanner II.4 starting step, as scipy selects it."""
        interval = abs(self.t_bound - self.t)
        if interval == 0.0:
            return 0.0
        y, f, rtol, atol = self.y, self.f, self.rtol, self.atol
        scale = [atol + abs(c) * rtol for c in y]
        root_n = len(y) ** 0.5
        d0 = _norm(y, scale) / root_n
        d1 = _norm(f, scale) / root_n
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        step = h0 * self.direction
        f1 = self._rhs(*self._coefficient, self.t + step,
                       tuple(c + step * df for c, df in zip(y, f)))
        self.nfev += 1
        d2 = _norm([b - a for a, b in zip(f, f1)], scale) / root_n / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
        return min(100 * h0, h1, interval, self.max_step)

    def step(self) -> str | None:
        """Take one accepted step; return a failure message or None."""
        if self.status != "running":
            raise RuntimeError("attempt to step on a failed or finished solver")
        t = self.t
        t_bound = self.t_bound
        if t == t_bound:
            self.status = "finished"
            return None
        direction = self.direction
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        q, lam, h2, cent, dq = self._coefficient
        y, f, rtol, atol, attempt = self.y, self.f, self.rtol, self.atol, self._attempt
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a NaN step, which never shrinks
                self.status = "failed"
                return TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err = attempt(q, lam, h2, cent, dq, t, h, y, f,
                                        rtol, atol)
            self.nfev += _N_STAGES
            if err < 1.0:
                factor = MAX_FACTOR if err == 0.0 else \
                    min(MAX_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
            rejected = True

        self.t = t_new
        self.y = y_new
        self.f = f_new
        self.h_abs = h_abs
        if direction * (t_new - t_bound) >= 0:
            self.status = "finished"
        return None


def _norm(values: Sequence[float], scale: Sequence[float]) -> float:
    return math.sqrt(sum((v / s) ** 2 for v, s in zip(values, scale)))
