"""The hand-written DOP853 solver and the integration loop over it, the
reference the generated legs of ``boxshift.dop853`` are compared with.

``DOP853`` is scipy's DOP853 algorithm (tableau, E5/E3 error norm,
0.9 / 0.2 / 10 step controller, initial-step selection) on tuples of
floats, a step per ``step()``; its ``rhs`` and ``attempt`` kernels come
from the package's stage generator with ``qq = q(x)``, so what it checks
of the legs is the loop around the stages: the initial step, the step
control, the renormalisation restarts and the zero and turn tracking.
scipy's own ``DOP853`` stays the outside reference for the stages
(``tests/test_dop853.py``).

``integrate`` is that loop, as ``shooting._integrate`` ran it over
``DOP853`` before the legs were generated.  Nothing under ``src/`` imports
this module, and pytest does not collect it (its name does not start with
``test_``).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from boxshift import SolverError
from boxshift.dop853 import (MAX_FACTOR, MIN_FACTOR, RENORM_HI, RENORM_LO,
                             SAFETY, TOO_SMALL_STEP, _ERROR_EXPONENT, _N,
                             _N_STAGES, _RTOL_FLOOR, _compile)

_KERNELS = """
def rhs(q, dq, t, y):
    y0, y1, y2, y3 = y
    x = t
    @qq
    @f_of_y
    return k0_0, k0_1, k0_2, k0_3

def attempt(q, dq, t, h, h_abs, y, f, rtol, atol):
    y0, y1, y2, y3 = y
    k0_0, k0_1, k0_2, k0_3 = f
    @attempt
    return (n0, n1, n2, n3), (k12_0, k12_1, k12_2, k12_3), err
"""
_namespace = _compile(_KERNELS, "q(x)", {})
_rhs, _attempt = _namespace["rhs"], _namespace["attempt"]


class DOP853:
    """One integration from ``t0`` towards ``t_bound``, a step per ``step()``.

    ``fun`` is the coefficient ``q(x)``, ``dq`` its lambda-derivative, and
    the state ``y0`` has the 4 components (u, u', du/dlambda,
    du'/dlambda).  ``status`` is "running", "finished" or "failed"; ``t``,
    ``y`` (a tuple) and ``f`` hold the last accepted point, state and
    derivative, and ``nfev`` counts evaluations of ``q``.
    """

    def __init__(self, fun: Callable[[float], float], t0: float,
                 y0: Sequence[float], t_bound: float, rtol: float, atol: float,
                 max_step: float = math.inf, dq: float = 0.0) -> None:
        if len(y0) != _N:
            raise ValueError(f"DOP853 integrates {_N} components, got {len(y0)}")
        if not max_step > 0.0:
            raise ValueError(f"max_step must be positive, got {max_step!r}")
        self._coefficient = (fun, dq)
        self.t = t0
        self.t_bound = t_bound
        self.y = tuple(float(c) for c in y0)
        self.rtol = max(rtol, _RTOL_FLOOR)
        self.atol = atol
        self.max_step = max_step
        self.direction = math.copysign(1.0, t_bound - t0) if t_bound != t0 else 1.0
        self.status = "running"
        self.f = _rhs(fun, dq, t0, self.y)
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
        f1 = _rhs(*self._coefficient, self.t + step,
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

        q, dq = self._coefficient
        y, f, rtol, atol = self.y, self.f, self.rtol, self.atol
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
            y_new, f_new, err = _attempt(q, dq, t, h, h_abs, y, f, rtol, atol)
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


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def integrate(q: Callable[[float], float], x0: float, y0: Sequence[float],
              x1: float, rtol: float, *, dq: float = 0.0,
              max_step: float = math.inf
              ) -> tuple[tuple[float, ...], float, int, float, int, int]:
    """``shooting._integrate``'s (state, log scale, zeros, widest turn)
    from x0 to x1 over ``DOP853`` solvers, one per renormalisation
    restart, then the steps and q evaluations it took."""
    y = tuple(float(c) for c in y0)
    if x0 == x1:
        return y, 0.0, 0, 0.0, 0, 0
    log_scale = 0.0
    crossings = 0
    turn2 = 0.0  # the widest turn, squared
    atol = 1e-3 * rtol
    last_sign = _sign(y[0])
    t = x0
    steps = 0
    solvers: list[DOP853] = []
    try:
        while True:
            # Every solver starts from a state of size within [e^-12, e^12],
            # its scale carried in log_scale.
            mag = max(map(abs, y))
            if mag != 0.0 and not (RENORM_LO <= mag <= RENORM_HI):
                y = tuple(c / mag for c in y)
                log_scale += math.log(mag)
            solver = DOP853(q, t, y, x1, rtol, atol, max_step, dq)
            solvers.append(solver)
            # -q where u = 0 cannot be read; 0 stands in for it.
            k2 = -solver.f[1] / y[0] if y[0] != 0.0 else 0.0
            while solver.status == "running":
                t_prev, k2_prev = solver.t, k2
                msg = solver.step()
                steps += 1
                if solver.status == "failed":
                    raise SolverError(
                        f"integrator failed near x={solver.t:g}: {msg}")
                y = solver.y
                u_now = y[0]
                k2 = -solver.f[1] / u_now if u_now != 0.0 else 0.0
                dx = solver.t - t_prev
                bend = dx * dx * (k2 if k2 > k2_prev else k2_prev)
                if bend > turn2:
                    turn2 = bend
                # Only a zero, a sign change or a start at u = 0 needs this.
                if not u_now * last_sign > 0.0:
                    s_now = _sign(u_now)
                    # A landing on 0 counts once, whatever sign follows it.
                    crossings += s_now == 0 or last_sign == -s_now
                    last_sign = s_now
                mag = max(map(abs, y))
                if mag != 0.0 and not (RENORM_LO <= mag <= RENORM_HI):
                    t = solver.t
                    break
            else:
                return (y, log_scale, crossings, math.sqrt(turn2), steps,
                        sum(solver.nfev for solver in solvers))
    except ArithmeticError as exc:  # q or the error norm left the floats
        raise SolverError(
            f"integrator failed near x={solvers[-1].t if solvers else t:g}: "
            f"{exc!r}") from exc
