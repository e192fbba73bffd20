"""Shooting solver for Dirichlet eigenvalues on an interval.

All problems here reduce to  h^2 u'' = (V(x) - lambda + h^2 (nu^2-1/4)/x^2) u
with Dirichlet walls, and all are solved the same way: two shots meet at a
matching point x_m, and lambda is a root of their Wronskian
W = u_L u_R' - u_L' u_R there (Cooley, Math. Comp. 15 (1961) 363).

Line problems shoot *inward*, from each wall with (u, u') = (0, +-1) to the
well bottom x_m = 0.  That is the stable direction: the eigenfunction
decays from the well toward each wall, so an inward shot follows the
branch that grows, and local errors feed the other branch, which shrinks
relative to it like exp(-2 (phi(wall) - phi(x))/h).  An outward shot does
the reverse: its errors grow into the wall value and into the zeros seen
near it, which in wide boxes added spurious nodes.

Radial problems start just off the singular origin with a Frobenius series
and match at the outer wall, x_m = L.  No inward start can reach the origin
stably (toward it the irregular branch x^(1/2-nu) dominates), and the
series start sits at the well bottom, so the outward shot is the whole
solution: the right-hand shot is empty and W = -u(L).  Pollution by the
growing branch enters that shot only with an exponentially small
coefficient fixed at the wall, so its effect on the root is polynomial in
h (roughly rtol*h^(-(3m-1)/2) for level m), not exponential.

Sensitivities are integrated alongside the state.  The lambda-derivative w
obeys  w'' = q w - u/h^2  (same q), and stays within O(1/h) of u, so the
pair renormalises safely together.  Each side carries it, so dW/dlambda
comes from the same two shots as W.

Every integration -- Newton iterates, node counts, bisection shots -- runs
through ``_integrate``, which steps ``dop853.DOP853``: scipy's DOP853
algorithm and tableau on tuples of Python floats, generated as
straight-line code for the two systems used here, (u, u') and
(u, u', w, w'), because on 2- and 4-component states a generic stepper
spends its time on array and loop overhead rather than arithmetic.  When V
carries its source (DSL expressions, the builtins, the Coulomb tail), the
kernels inline it and call q only to redo a kernel call that failed.

State magnitudes are kept inside [e^-12, e^+12]: after every accepted step
the vector is rescaled to unit max-norm when it leaves that window, and the
accumulated natural-log scale travels with the result as a ScaledValue.
The window is much narrower than overflow requires; it is set by error
control instead.  The integrator's absolute tolerance (1e-3 * rtol) is
meaningful only while component magnitudes stay within a few orders of the
renormalised unit scale, which the +/-12 window guarantees.  A solver's
cached derivative, stages and error scale all belong to the unscaled
state, so each renormalisation starts a fresh solver from the rescaled
state, with its own initial-step selection, instead of patching them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .dop853 import DOP853
from .errors import SeriesError, SolverError
from .potentials import LineBox, PotentialSpec
from .scaled import ScaledValue

_RENORM_LOG = 12.0
_RENORM_HI = math.exp(_RENORM_LOG)
_RENORM_LO = math.exp(-_RENORM_LOG)
_MAX_NEWTON_DEFAULT = 50
_SERIES_MAX_TERMS = 40
_SERIES_CUTOFF = 1e-16

# Integrator steps and q evaluations in this process; only _integrate adds.
_steps_taken = 0
_rhs_calls = 0


@dataclass(frozen=True)
class ModeSpec:
    """Which level we are solving for, and at what h."""

    level: int
    h: float
    nu: float | None = None

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level index must be >= 0, got {self.level}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be positive and finite, got {self.h}")
        if self.nu is not None and not self.nu > 0:
            raise ValueError(f"angular parameter nu must be > 0, got {self.nu}")


@dataclass(frozen=True)
class ShootState:
    """Solution value and slope at a point, exponent factored out."""

    x: float
    u: ScaledValue
    du: ScaledValue


# --------------------------------------------------------------------------
# Core integrator: linear system, renormalised, optional zero tracking
# --------------------------------------------------------------------------


def steps_taken() -> int:
    """Integrator steps taken so far in this process, failed integrations
    included.  A solve's work is the difference across it, so nested
    callers share the one counter."""
    return _steps_taken


def rhs_calls_taken() -> int:
    """Evaluations of q so far in this process, counted like steps."""
    return _rhs_calls


def _integrate(q: Callable[[float], float], x0: float, y0: Sequence[float],
               x1: float, rtol: float, *, dq: float = 0.0,
               max_step: float = math.inf, track_zeros: bool = False
               ) -> tuple[tuple[float, ...], float, list[float]]:
    """Integrate u'' = q u (with the lambda-sensitivity pair when y0 has 4
    components; ``dq`` = dq/dlambda) from x0 to x1, either direction.

    Returns (final state, accumulated log scale, zeros of y[0]).  The steps
    and the solvers' ``nfev`` are counted when it ends, also in failure.
    """
    global _steps_taken, _rhs_calls
    y = tuple(float(c) for c in y0)
    log_scale = 0.0
    crossings: list[float] = []
    if x0 == x1:
        return y, log_scale, crossings

    atol = 1e-3 * rtol
    last_sign = _sign(y[0])
    pending_zero = False
    t = x0
    steps = 0
    solvers: list[DOP853] = []
    try:
        while True:
            solver = DOP853(q, t, y, x1, rtol, atol, max_step, dq)
            solvers.append(solver)
            while solver.status == "running":
                t_prev = solver.t
                msg = solver.step()
                steps += 1
                if solver.status == "failed":
                    raise SolverError(
                        f"integrator failed near x={solver.t:g}: {msg}")
                y = solver.y
                if track_zeros:
                    u_now = y[0]
                    s_now = _sign(u_now)
                    if u_now == 0.0:
                        crossings.append(solver.t)
                        pending_zero = True
                    elif pending_zero:
                        last_sign = s_now
                        pending_zero = False
                    elif last_sign != 0 and s_now != last_sign:
                        crossings.append(brentq(
                            solver.dense_output(), t_prev, solver.t,
                            xtol=1e-13 * (1.0 + abs(solver.t))))
                        last_sign = s_now
                    elif last_sign == 0 and s_now != 0:
                        last_sign = s_now
                mag = max(map(abs, y))
                if mag != 0.0 and not (_RENORM_LO <= mag <= _RENORM_HI):
                    t = solver.t
                    y = tuple(c / mag for c in y)
                    log_scale += math.log(mag)
                    break
            else:
                return y, log_scale, crossings
    finally:
        _steps_taken += steps
        _rhs_calls += sum(solver.nfev for solver in solvers)


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def _q_factory(V: Callable[[float], float], lam: float, h: float,
               nu: float | None) -> Callable[[float], float]:
    """q(x) = (V(x) - lam)/h^2 (+ (nu^2 - 1/4)/x^2), with ``q.parts`` for
    ``DOP853`` to inline V's ``source``, if it has one."""
    h2 = h * h
    cent = 0.0 if nu is None else nu * nu - 0.25
    if cent == 0.0:
        q = lambda x: (V(x) - lam) / h2  # noqa: E731
    else:
        q = lambda x: (V(x) - lam) / h2 + cent / (x * x)  # noqa: E731
    q.parts = (getattr(V, "source", None), lam, h2, cent)
    return q


def _dq(h: float) -> float:
    """d q / d lambda: the source term of the sensitivity pair."""
    return -1.0 / (h * h)


def integrate(p: PotentialSpec, lam: float, state: ShootState, to_x: float,
              h: float, tol: float, nu: float | None = None) -> ShootState:
    """Public single-trajectory integration of (u, u') between two points.

    ``tol`` is the relative local-error tolerance, restricted to
    [1e-13, 1e-6]; tighter values would be swamped by roundoff, looser ones
    defeat the purpose of an 8th-order method.
    """
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError(f"integration tolerance must be in [1e-13, 1e-6], got {tol:g}")
    ref = max(state.u.log_abs(), state.du.log_abs())
    if ref == -math.inf:
        return ShootState(to_x, ScaledValue.zero(), ScaledValue.zero())
    y0 = (state.u.float_at(ref), state.du.float_at(ref))
    q = _q_factory(p.evaluate, lam, h, nu)
    y, ls, _ = _integrate(q, state.x, y0, to_x, tol)
    ls += ref
    return ShootState(to_x, ScaledValue.of(y[0], ls), ScaledValue.of(y[1], ls))


# --------------------------------------------------------------------------
# Radial problems: series starts at the singular origin
# --------------------------------------------------------------------------


def default_series_point(h: float, omega: float, L: float) -> float:
    """Matching point for the power-series start: min(0.05*sqrt(h), L/100),
    further capped by the harmonic core size 0.1*sqrt(h)/omega."""
    return min(0.05 * math.sqrt(h), 0.1 * math.sqrt(h) / omega, L / 100.0)


def fit_even_tail(V: Callable[[float], float], omega: float,
                  scale: float) -> tuple[float, float, float, float]:
    """Coefficients (W2, W4, W6, W8) of the even Taylor tail of V at 0.

    W2 = omega^2 comes from the curvature; the rest are fitted through
    V(x) - W2 x^2 at three nodes near ``scale`` (exact for polynomials of
    degree <= 8, adequate beyond since the series is only used at
    x = O(sqrt(h)) where higher terms are negligible).
    """
    w2 = omega * omega
    nodes = np.array([scale, 0.5 * scale, 0.25 * scale])
    resid = np.array([V(x) - w2 * x * x for x in nodes])
    powers = np.stack([nodes ** 4, nodes ** 6, nodes ** 8], axis=1)
    w4, w6, w8 = np.linalg.solve(powers, resid)
    return w2, float(w4), float(w6), float(w8)


class OscillatorSeriesStart:
    """Frobenius data  u = x^(nu+1/2) (1 + c1 x^2 + ...)  near a well origin.

    Callable: (lambda, with_sensitivity) -> (x0, state vector).  The
    lambda-derivative series rides along for the Newton Jacobian.
    """

    def __init__(self, p: PotentialSpec, nu: float, h: float,
                 x0: float | None = None, L: float = math.inf,
                 tail: tuple[float, float, float, float] | None = None) -> None:
        omega = p.curvature_omega
        if tail is None:
            if p.builtin == "harmonic":
                tail = (omega * omega, 0.0, 0.0, 0.0)
            else:
                tail = fit_even_tail(p.evaluate, omega, 0.3)
        self.tail = tail
        self.nu = nu
        self.h = h
        self.x0 = x0 if x0 is not None else default_series_point(h, omega, L)
        core = 0.1 * math.sqrt(h) / omega
        if self.x0 > core:
            raise SeriesError(
                f"series matching point x0={self.x0:g} lies outside the harmonic "
                f"core (<= {core:g}); choose a smaller x_start")

    def __call__(self, lam: float, with_sensitivity: bool = True
                 ) -> tuple[float, tuple[float, ...]]:
        nu, h, x0 = self.nu, self.h, self.x0
        w = self.tail
        h2 = h * h
        x2 = x0 * x0
        c = [1.0]
        d = [0.0]
        su = c[0]
        sdu = (nu + 0.5) * c[0]
        sw = 0.0
        sdw = 0.0
        pw = 1.0
        for k in range(_SERIES_MAX_TERMS):
            denom = h2 * (2 * k + 2) * (2 * k + 2 + 2 * nu)
            acc_c = -lam * c[k]
            acc_d = -c[k] - lam * d[k]
            for j in range(1, 5):
                if k - j >= 0:
                    acc_c += w[j - 1] * c[k - j]
                    acc_d += w[j - 1] * d[k - j]
            c.append(acc_c / denom)
            d.append(acc_d / denom)
            pw *= x2
            term_u = c[k + 1] * pw
            term_w = d[k + 1] * pw
            su += term_u
            sdu += (nu + 0.5 + 2 * (k + 1)) * term_u
            sw += term_w
            sdw += (nu + 0.5 + 2 * (k + 1)) * term_w
            if abs(term_u) <= _SERIES_CUTOFF * abs(su) and \
               abs(term_w) <= _SERIES_CUTOFF * max(abs(sw), 1e-300):
                break
        else:
            raise SeriesError(
                f"power series did not converge in {_SERIES_MAX_TERMS} terms at "
                f"x0={x0:g} (h={h:g}, nu={nu:g}); use a smaller x_start")
        amp = x0 ** (nu + 0.5)
        if with_sensitivity:
            return x0, (amp * su, amp / x0 * sdu, amp * sw, amp / x0 * sdw)
        return x0, (amp * su, amp / x0 * sdu)


class CoulombSeriesStart:
    """Series  u = x^(l+1) (1 + d1 x + ...)  for the attractive-Coulomb radial
    equation  h^2 u'' = (l(l+1) h^2/x^2 - z/x - E) u."""

    def __init__(self, z: float, ell: int, h: float, x0: float) -> None:
        self.z = z
        self.ell = ell
        self.h = h
        self.x0 = x0

    def __call__(self, energy: float, with_sensitivity: bool = True
                 ) -> tuple[float, tuple[float, ...]]:
        z, ell, h, x0 = self.z, self.ell, self.h, self.x0
        h2 = h * h
        d = [1.0, -z / (h2 * (2 * ell + 2))]
        e = [0.0, 0.0]
        su = d[0] + d[1] * x0
        sdu = (ell + 1) * d[0] + (ell + 2) * d[1] * x0
        sw = 0.0
        sdw = 0.0
        pw = x0
        for k in range(1, _SERIES_MAX_TERMS):
            denom = h2 * (k + 1) * (k + 2 * ell + 2)
            d.append(-(z * d[k] + energy * d[k - 1]) / denom)
            e.append(-(d[k - 1] + z * e[k] + energy * e[k - 1]) / denom)
            pw *= x0
            term_u = d[k + 1] * pw
            term_w = e[k + 1] * pw
            su += term_u
            sdu += (ell + 2 + k) * term_u
            sw += term_w
            sdw += (ell + 2 + k) * term_w
            if abs(term_u) <= _SERIES_CUTOFF * abs(su) and \
               abs(term_w) <= _SERIES_CUTOFF * max(abs(sw), 1e-300):
                break
        else:
            raise SeriesError(
                f"Coulomb series did not converge in {_SERIES_MAX_TERMS} terms at "
                f"x0={x0:g} (h={h:g}); use a smaller x_start")
        amp = x0 ** (ell + 1)
        if with_sensitivity:
            return x0, (amp * su, amp / x0 * sdu, amp * sw, amp / x0 * sdw)
        return x0, (amp * su, amp / x0 * sdu)


SeriesStart = Callable[..., tuple[float, tuple[float, ...]]]


def frobenius_start(w: PotentialSpec, mode: ModeSpec, lam: float,
                    x_start: float) -> ShootState:
    """Series solution (u, u') at x_start for the radial problem."""
    if mode.nu is None:
        raise ValueError("frobenius_start needs a radial mode (nu set)")
    series = OscillatorSeriesStart(w, mode.nu, mode.h, x0=x_start)
    x0, y = series(lam, with_sensitivity=False)
    return ShootState(x0, ScaledValue.of(y[0]), ScaledValue.of(y[1]))


# --------------------------------------------------------------------------
# Two-sided matching: one shooter for line and radial problems
# --------------------------------------------------------------------------


def wall_start(x: float, slope: float) -> SeriesStart:
    """Dirichlet start (u, u') = (0, ``slope``) at the wall ``x``.  It does
    not depend on lambda, so its sensitivity pair starts at zero."""
    def start(lam: float, with_sensitivity: bool = True
              ) -> tuple[float, tuple[float, ...]]:
        return x, (0.0, slope, 0.0, 0.0) if with_sensitivity else (0.0, slope)
    return start


@dataclass(frozen=True)
class Shot:
    """One side's state at the matching point, exponent factored out."""

    y: tuple[float, ...]          # (u, u'), plus (du/dlambda, du'/dlambda)
    log_scale: float
    crossings: tuple[float, ...]  # zeros of u recorded during the pass

    def at(self, i: int) -> ScaledValue:
        return ScaledValue.of(self.y[i], self.log_scale)


@dataclass(frozen=True)
class Matching:
    """A Dirichlet problem as two shots that meet at ``x_m``.

    ``left`` and ``right`` map (lambda, with_sensitivity) to a start point
    and state: a wall start, or a series start off a singular origin.
    """

    V: Callable[[float], float]
    nu: float | None
    h: float
    left: SeriesStart
    right: SeriesStart
    x_m: float
    width: float

    @classmethod
    def line(cls, p: PotentialSpec, domain: LineBox, mode: ModeSpec) -> Matching:
        """Inward from both walls to the well bottom at 0."""
        return cls(p.evaluate, None, mode.h, wall_start(domain.left, 1.0),
                   wall_start(domain.right, -1.0), 0.0,
                   domain.right - domain.left)

    @classmethod
    def radial(cls, V: Callable[[float], float], nu: float, h: float, L: float,
               series_start: SeriesStart) -> Matching:
        """Outward from the series start to the wall at L, where the right
        shot is empty and W = -u(L)."""
        return cls(V, nu, h, series_start, wall_start(L, -1.0), L, L)

    def shoot(self, lam: float, rtol: float, *, with_sensitivity: bool = True,
              track_zeros: bool = False, max_step: float = math.inf
              ) -> tuple[Shot, Shot]:
        """Both sides' states at x_m."""
        starts = [start(lam, with_sensitivity)
                  for start in (self.left, self.right)]
        if starts[0][0] >= self.x_m:
            raise SolverError(f"start point x0={starts[0][0]:g} is not left "
                              f"of the matching point {self.x_m:g}")
        q = _q_factory(self.V, lam, self.h, self.nu)
        shots: list[Shot] = []
        for x0, y0 in starts:
            y, ls, zeros = _integrate(q, x0, y0, self.x_m, rtol, dq=_dq(self.h),
                                      track_zeros=track_zeros,
                                      max_step=max_step)
            shots.append(Shot(y, ls, tuple(zeros)))
        return shots[0], shots[1]


def wronskian(left: Shot, right: Shot
              ) -> tuple[ScaledValue, ScaledValue | None]:
    """W = u_L u_R' - u_L' u_R at the matching point, and dW/dlambda when
    the shots carry the sensitivity pair (None otherwise)."""
    w = left.at(0) * right.at(1) - left.at(1) * right.at(0)
    if len(left.y) == 2:
        return w, None
    dw = (left.at(2) * right.at(1) + left.at(0) * right.at(3)) \
        - (left.at(3) * right.at(0) + left.at(1) * right.at(2))
    return w, dw


@dataclass(frozen=True)
class Solution:
    """A converged Newton root of W."""

    lam: float
    iterations: int
    converged: bool
    residual_log: float  # natural log of |W| at the last iterate
    steps: int           # integrator steps the iteration took


def newton_match(match: Matching, lam0: float, *, rtol: float,
                 newton_tol: float, scale: float, max_iter: int) -> Solution:
    """Scalar Newton iteration on lambda for W(lambda) = 0.

    Converged when |d lambda| <= newton_tol * scale.
    """
    start = steps_taken()
    lam = lam0
    for it in range(1, max_iter + 1):
        left, right = match.shoot(lam, rtol)
        w, dw = wronskian(left, right)
        if dw.is_zero:
            raise SolverError("the Wronskian's lambda-derivative vanished; "
                              "cannot take a Newton step")
        step = -w.ratio(dw)
        cap = 0.3 * max(abs(lam), scale)
        if abs(step) > cap:
            step = math.copysign(cap, step)
        lam += step
        if abs(step) <= newton_tol * scale:
            return Solution(lam=lam, iterations=it, converged=True,
                            residual_log=w.log_abs(),
                            steps=steps_taken() - start)

    raise SolverError(
        f"Newton did not converge in {max_iter} iterations "
        f"(h={match.h:g}, last lambda={lam!r})")


def count_nodes(match: Matching, lam: float, rtol: float) -> int:
    """Interior zeros of the matched solution.

    Both sides are shot with a step cap of half the shortest local
    oscillation wavelength, so no sign change can hide inside a step, and
    each counts the zeros strictly inside its own stretch.  Zeros near x_m
    are read off the matched state there instead.  At an interior x_m,
    zeros within 1e-3 of the cap are dropped and one node counts when u
    vanishes that close to x_m: an odd level on a symmetric box has its
    node at x_m exactly, and either side may see it.  At a wall x_m the
    Dirichlet zero is no node, and zeros within 100*|u/u'| of it are
    discarded.
    """
    a, _ = match.left(lam, False)
    b, _ = match.right(lam, False)
    cap = _counting_step_cap(match.V, match.nu, match.h, lam, a, b)
    left, right = match.shoot(lam, rtol, with_sensitivity=False,
                              track_zeros=True, max_step=cap)
    if b == match.x_m:
        margin = _wall_margin(left.at(0), left.at(1), match.width)
        at_match = 0
    else:
        margin = 1e-3 * cap
        at_match = int(abs(left.y[0]) <= margin * abs(left.y[1]))
    inside = sum(1 for z in left.crossings + right.crossings
                 if abs(z - match.x_m) > margin)
    return inside + at_match


def _wall_margin(value: ScaledValue, slope: ScaledValue, width: float) -> float:
    if slope.is_zero:
        return 0.0
    return min(0.05 * width, 100.0 * abs(value.ratio(slope)))


def _counting_step_cap(V: Callable[[float], float], nu: float | None,
                       h: float, lam: float, a: float, b: float) -> float:
    """Half the minimal local wavelength pi/k over the interval (sampled)."""
    cent = 0.0 if nu is None else nu * nu - 0.25
    k2_max = 1.0 / (h * h)  # floor: never step wider than ~pi*h/2
    for i in range(256):
        x = a + (b - a) * (i + 0.5) / 256.0
        if x == 0.0:
            continue
        k2 = (lam - V(x)) / (h * h) - cent / (x * x)
        if k2 > k2_max:
            k2_max = k2
    return math.pi / (2.0 * math.sqrt(k2_max))


def newton_solve_line(p: PotentialSpec, domain: LineBox, mode: ModeSpec,
                      lam0: float, *, rtol: float = 1e-12,
                      newton_tol: float = 1e-10,
                      max_iter: int = _MAX_NEWTON_DEFAULT) -> Solution:
    """Newton on the line problem: inward shots meeting at 0, converged
    when |d lambda| <= newton_tol * h.

    W carries the truncation error of both shots into the root, so each
    runs at rtol/2.  That keeps the root within about 0.1*rtol*lambda of
    the level on the harmonic well (the error is proportional to rtol).
    """
    return newton_match(Matching.line(p, domain, mode), lam0, rtol=0.5 * rtol,
                        newton_tol=newton_tol, scale=mode.h, max_iter=max_iter)


def newton_solve_radial(V: Callable[[float], float], nu: float, h: float,
                        L: float, lam0: float, series_start: SeriesStart, *,
                        rtol: float = 1e-12, newton_tol: float = 1e-10,
                        lambda_scale: float | None = None,
                        max_iter: int = _MAX_NEWTON_DEFAULT) -> Solution:
    """Newton on the radial problem: the series shot matched at the wall L.

    ``lambda_scale`` sets the convergence yardstick |d lambda| <=
    newton_tol * scale; it defaults to h, appropriate for low-lying levels
    of a well (pass the energy magnitude instead for Coulomb problems).
    """
    scale = lambda_scale if lambda_scale is not None else h
    return newton_match(Matching.radial(V, nu, h, L, series_start), lam0,
                        rtol=rtol, newton_tol=newton_tol, scale=scale,
                        max_iter=max_iter)


def count_nodes_line(p: PotentialSpec, domain: LineBox, mode: ModeSpec,
                     lam: float, rtol: float = 1e-12) -> int:
    """Interior zeros on (r-, r+); see ``count_nodes``."""
    return count_nodes(Matching.line(p, domain, mode), lam, rtol)


def count_nodes_radial(V: Callable[[float], float], nu: float, h: float,
                       L: float, lam: float, series_start: SeriesStart,
                       rtol: float = 1e-12) -> int:
    """Interior zeros on (0, L); see ``count_nodes``."""
    return count_nodes(Matching.radial(V, nu, h, L, series_start), lam, rtol)
