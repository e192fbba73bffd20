"""Shooting solver for Dirichlet eigenvalues on an interval.

All problems here reduce to  h^2 u'' = (V(x) - lambda + h^2 (nu^2-1/4)/x^2) u
with Dirichlet walls.  Line problems shoot outward from the well bottom at 0
to both walls; radial problems start just off the singular origin with a
Frobenius series and shoot to the outer wall.  Shooting *outward* keeps the
decaying eigenfunction branch accurate: pollution by the growing branch only
enters with an exponentially small coefficient fixed at the wall, and its
effect on the eigenvalue root is polynomial in h (roughly rtol*h^(-(3m-1)/2)
for level m), not exponential.

Sensitivities are integrated alongside the state.  The lambda-derivative w
obeys  w'' = q w - u/h^2  (same q), and stays within O(1/h) of u, so the
pair renormalises safely together.  The boundary-mixing derivative for line
problems solves the homogeneous equation with swapped initial data and is
integrated separately: it grows like exp(+phi/h) while u decays, and
co-scaling the two would erase u below the error-control floor.

Every integration -- Newton iterates, node counts, bisection shots -- runs
through ``_integrate``, which steps ``dop853.DOP853``: scipy's DOP853
algorithm and tableau on tuples of Python floats.  Its 12 stages, update
and error sums are generated at import as straight-line code for the two
systems used here, (u, u') and (u, u', w, w'), because on 2- and
4-component states a generic stepper spends its time on array and loop
overhead rather than arithmetic.

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
_CONDITION_LIMIT = 1e12
_SERIES_MAX_TERMS = 40
_SERIES_CUTOFF = 1e-16


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


def _integrate(q: Callable[[float], float], x0: float, y0: Sequence[float],
               x1: float, rtol: float, *, dq: float = 0.0,
               max_step: float = math.inf, track_zeros: bool = False
               ) -> tuple[tuple[float, ...], float, list[float], int]:
    """Integrate u'' = q u (with the lambda-sensitivity pair when y0 has 4
    components; ``dq`` = dq/dlambda) from x0 to x1, either direction.

    Returns (final state, accumulated log scale, zeros of y[0], step count).
    """
    y = tuple(float(c) for c in y0)
    log_scale = 0.0
    crossings: list[float] = []
    steps = 0
    if x0 == x1:
        return y, log_scale, crossings, steps

    atol = 1e-3 * rtol
    last_sign = _sign(y[0])
    pending_zero = False
    t = x0
    while True:
        solver = DOP853(q, t, y, x1, rtol, atol, max_step, dq)
        while solver.status == "running":
            t_prev = solver.t
            msg = solver.step()
            if solver.status == "failed":
                raise SolverError(f"integrator failed near x={solver.t:g}: {msg}",
                                  steps)
            steps += 1
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
            return y, log_scale, crossings, steps


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def _q_factory(V: Callable[[float], float], lam: float, h: float,
               nu: float | None) -> Callable[[float], float]:
    h2 = h * h
    if nu is None:
        return lambda x: (V(x) - lam) / h2
    cent = nu * nu - 0.25
    if cent == 0.0:
        return lambda x: (V(x) - lam) / h2
    return lambda x: (V(x) - lam) / h2 + cent / (x * x)


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
    y, ls, _, _ = _integrate(q, state.x, y0, to_x, tol)
    ls += ref
    return ShootState(to_x, ScaledValue.of(y[0], ls), ScaledValue.of(y[1], ls))


# --------------------------------------------------------------------------
# Line problem
# --------------------------------------------------------------------------


def line_initial_state(mode: ModeSpec, beta: float,
                       with_sensitivity: bool) -> tuple[float, ...]:
    """(u, u') at the well bottom; even levels peak there, odd levels vanish.

    ``beta`` mixes in the opposite parity and is the second shooting unknown.
    """
    base = (1.0, beta) if mode.level % 2 == 0 else (beta, 1.0)
    return base + (0.0, 0.0) if with_sensitivity else base


def beta_sensitivity_initial_state(mode: ModeSpec) -> tuple[float, float]:
    # d/d(beta) of the initial state: the swapped-parity homogeneous solution.
    return (0.0, 1.0) if mode.level % 2 == 0 else (1.0, 0.0)


@dataclass(frozen=True)
class ShotSide:
    value: ScaledValue            # u at the wall
    slope: ScaledValue            # u' at the wall
    d_lambda: ScaledValue | None  # du/dlambda at the wall
    crossings: tuple[float, ...]  # interior zeros recorded during the pass
    steps: int


def shoot_line_side(p: PotentialSpec, mode: ModeSpec, lam: float, beta: float,
                    x_end: float, rtol: float, *, with_sensitivity: bool = True,
                    track_zeros: bool = False,
                    max_step: float = math.inf) -> ShotSide:
    q = _q_factory(p.evaluate, lam, mode.h, None)
    y0 = line_initial_state(mode, beta, with_sensitivity)
    y, ls, zeros, steps = _integrate(q, 0.0, y0, x_end, rtol, dq=_dq(mode.h),
                                     track_zeros=track_zeros, max_step=max_step)
    return ShotSide(
        value=ScaledValue.of(y[0], ls),
        slope=ScaledValue.of(y[1], ls),
        d_lambda=ScaledValue.of(y[2], ls) if with_sensitivity else None,
        crossings=tuple(zeros),
        steps=steps,
    )


def shoot_beta_sensitivity(p: PotentialSpec, mode: ModeSpec, lam: float,
                           x_end: float, rtol: float) -> tuple[ScaledValue, int]:
    q = _q_factory(p.evaluate, lam, mode.h, None)
    y, ls, _, steps = _integrate(q, 0.0, beta_sensitivity_initial_state(mode),
                                 x_end, rtol)
    return ScaledValue.of(y[0], ls), steps


def line_residual(p: PotentialSpec, domain: LineBox, mode: ModeSpec,
                  lam: float, beta: float, rtol: float
                  ) -> tuple[ScaledValue, ScaledValue, int]:
    """(u(r-), u(r+), steps) for the shooting solution; values only."""
    left = shoot_line_side(p, mode, lam, beta, domain.left, rtol,
                           with_sensitivity=False)
    right = shoot_line_side(p, mode, lam, beta, domain.right, rtol,
                            with_sensitivity=False)
    return left.value, right.value, left.steps + right.steps


@dataclass(frozen=True)
class BoundaryMap:
    """Wall values G-+ = u(r-+) and their (lambda, beta) sensitivities.

    ``jacobian`` rows are ordered (r- row, r+ row); each row is
    (d/dlambda, d/dbeta).  ``condition`` measures the row-scaled Jacobian,
    the quantity that actually decides whether a Newton step is trustworthy
    when the two walls sit at wildly different exp(phi/h) magnitudes.
    """

    g_minus: ScaledValue
    g_plus: ScaledValue
    jacobian: tuple[tuple[ScaledValue, ScaledValue], tuple[ScaledValue, ScaledValue]]
    condition: float
    steps: int

    @property
    def values(self) -> tuple[ScaledValue, ScaledValue]:
        return (self.g_plus, self.g_minus)


def _row_scaled(rows: Sequence[tuple[ScaledValue, ScaledValue, ScaledValue]]
                ) -> tuple[np.ndarray, np.ndarray, float]:
    """Express each (J1, J2, G) row at its own magnitude; return matrix,
    right-hand side -G, and the condition number of the scaled matrix."""
    mat = np.empty((2, 2))
    vec = np.empty(2)
    for i, (a, b, g) in enumerate(rows):
        ref = max(a.log_abs(), b.log_abs(), g.log_abs())
        if ref == -math.inf:
            # Row identically zero: nothing to solve in this direction.
            mat[i] = (1.0, 0.0) if i == 0 else (0.0, 1.0)
            vec[i] = 0.0
            continue
        mat[i, 0] = a.float_at(ref)
        mat[i, 1] = b.float_at(ref)
        vec[i] = -g.float_at(ref)
    sv = np.linalg.svd(mat, compute_uv=False)
    cond = math.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    return mat, vec, cond


def boundary_map_line(p: PotentialSpec, domain: LineBox, mode: ModeSpec,
                      lam: float, beta: float, tol: float) -> BoundaryMap:
    """Shoot both walls and assemble the full 2x2 sensitivity picture."""
    left = shoot_line_side(p, mode, lam, beta, domain.left, tol)
    right = shoot_line_side(p, mode, lam, beta, domain.right, tol)
    v_left, s1 = shoot_beta_sensitivity(p, mode, lam, domain.left, tol)
    v_right, s2 = shoot_beta_sensitivity(p, mode, lam, domain.right, tol)
    rows = [(left.d_lambda, v_left, left.value),
            (right.d_lambda, v_right, right.value)]
    _, _, cond = _row_scaled(rows)
    return BoundaryMap(
        g_minus=left.value,
        g_plus=right.value,
        jacobian=((left.d_lambda, v_left), (right.d_lambda, v_right)),
        condition=cond,
        steps=left.steps + right.steps + s1 + s2,
    )


@dataclass(frozen=True)
class LineSolution:
    lam: float
    beta: float
    iterations: int
    converged: bool
    condition: float
    residual_log: float  # natural log of the final boundary residual magnitude
    steps: int


def newton_solve_line(p: PotentialSpec, domain: LineBox, mode: ModeSpec,
                      lam0: float, beta0: float = 0.0, *,
                      rtol: float = 1e-12, newton_tol: float = 1e-10,
                      max_iter: int = _MAX_NEWTON_DEFAULT,
                      jacobian: str = "refreshed") -> LineSolution:
    """Newton iteration on (lambda, beta) for u(r-) = u(r+) = 0.

    ``jacobian="frozen"`` computes sensitivities once at the starting guess
    and reuses them, integrating values only afterwards; "refreshed"
    (default) recomputes the Jacobian every step.  Converged when
    |d lambda| <= newton_tol * h and |d beta| <= newton_tol.
    """
    if jacobian not in ("refreshed", "frozen"):
        raise ValueError(f"jacobian must be 'refreshed' or 'frozen', got {jacobian!r}")
    lam, beta = lam0, beta0
    h = mode.h
    cond = 0.0
    frozen_jac: tuple[tuple[ScaledValue, ScaledValue], ...] | None = None
    total_steps = 0

    for it in range(1, max_iter + 1):
        if jacobian == "refreshed" or frozen_jac is None:
            bmap = boundary_map_line(p, domain, mode, lam, beta, rtol)
            frozen_jac = bmap.jacobian
            g_left, g_right = bmap.g_minus, bmap.g_plus
            total_steps += bmap.steps
        else:
            g_left, g_right, n = line_residual(p, domain, mode, lam, beta, rtol)
            total_steps += n

        mat, vec, cond = _row_scaled([
            (frozen_jac[0][0], frozen_jac[0][1], g_left),
            (frozen_jac[1][0], frozen_jac[1][1], g_right),
        ])
        if cond > _CONDITION_LIMIT:
            raise SolverError(
                f"shooting Jacobian is numerically singular (condition {cond:.3g}); "
                "check that the domain brackets the well and the level index is sane",
                total_steps)
        d = np.linalg.solve(mat, vec)
        d_lam, d_beta = float(d[0]), float(d[1])

        # Trust-region style clipping; inactive for sane starting guesses.
        lam_cap = 0.3 * max(abs(lam), h)
        if abs(d_lam) > lam_cap:
            shrink = lam_cap / abs(d_lam)
            d_lam *= shrink
            d_beta *= shrink
        beta_cap = 0.5 * (1.0 + abs(beta))
        if abs(d_beta) > beta_cap:
            shrink = beta_cap / abs(d_beta)
            d_lam *= shrink
            d_beta *= shrink

        lam += d_lam
        beta += d_beta
        if abs(d_lam) <= newton_tol * h and abs(d_beta) <= newton_tol:
            res_log = max(g_left.log_abs(), g_right.log_abs())
            return LineSolution(lam=lam, beta=beta, iterations=it,
                                converged=True, condition=cond,
                                residual_log=res_log, steps=total_steps)

    raise SolverError(
        f"Newton did not converge in {max_iter} iterations "
        f"(level {mode.level}, h={h:g}, last lambda={lam!r})", total_steps)


def count_nodes_line(p: PotentialSpec, domain: LineBox, mode: ModeSpec,
                     lam: float, beta: float, rtol: float = 1e-12
                     ) -> tuple[int, int]:
    """(interior zeros of the shooting solution on (r-, r+), steps taken).

    Shoots both directions from 0 with a step cap of half the shortest local
    oscillation wavelength, so no sign change can hide inside a step.  Zeros
    within 100*|u/u'| of a wall are discarded: at a converged eigenvalue the
    boundary zero itself would otherwise be miscounted as interior.
    """
    cap = _counting_step_cap(p.evaluate, None, mode.h, lam,
                             domain.left, domain.right)
    total = steps = 0
    for x_end in (domain.left, domain.right):
        side = shoot_line_side(p, mode, lam, beta, x_end, rtol,
                               with_sensitivity=False, track_zeros=True,
                               max_step=cap)
        margin = _wall_margin(side.value, side.slope, domain.right - domain.left)
        total += sum(1 for z in side.crossings if abs(z - x_end) > margin)
        steps += side.steps
    if line_initial_state(mode, beta, False)[0] == 0.0:
        total += 1  # exact zero at the origin (pure odd mode)
    return total, steps


def _wall_margin(value: ScaledValue, slope: ScaledValue, width: float) -> float:
    if slope.is_zero:
        return 0.0
    ratio = value.ratio(slope)
    if ratio is None:
        return 0.05 * width
    return min(0.05 * width, 100.0 * abs(ratio))


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


@dataclass(frozen=True)
class RadialShot:
    value: ScaledValue
    slope: ScaledValue
    d_lambda: ScaledValue | None
    crossings: tuple[float, ...]
    steps: int


def shoot_radial(V: Callable[[float], float], nu: float, h: float, L: float,
                 lam: float, series_start: SeriesStart, rtol: float, *,
                 with_sensitivity: bool = True, track_zeros: bool = False,
                 max_step: float = math.inf) -> RadialShot:
    x0, y0 = series_start(lam, with_sensitivity)
    if x0 >= L:
        raise SolverError(f"series matching point x0={x0:g} is outside the box (L={L:g})")
    q = _q_factory(V, lam, h, nu)
    y, ls, zeros, steps = _integrate(q, x0, y0, L, rtol, dq=_dq(h),
                                     track_zeros=track_zeros, max_step=max_step)
    return RadialShot(
        value=ScaledValue.of(y[0], ls),
        slope=ScaledValue.of(y[1], ls),
        d_lambda=ScaledValue.of(y[2], ls) if with_sensitivity else None,
        crossings=tuple(zeros),
        steps=steps,
    )


@dataclass(frozen=True)
class RadialSolution:
    lam: float
    iterations: int
    converged: bool
    residual_log: float
    steps: int


def newton_solve_radial(V: Callable[[float], float], nu: float, h: float,
                        L: float, lam0: float, series_start: SeriesStart, *,
                        rtol: float = 1e-12, newton_tol: float = 1e-10,
                        lambda_scale: float | None = None,
                        max_iter: int = _MAX_NEWTON_DEFAULT,
                        jacobian: str = "refreshed") -> RadialSolution:
    """Scalar Newton iteration on lambda for u(L) = 0.

    ``lambda_scale`` sets the convergence yardstick |d lambda| <=
    newton_tol * scale; it defaults to h, appropriate for low-lying levels
    of a well (pass the energy magnitude instead for Coulomb problems).
    """
    if jacobian not in ("refreshed", "frozen"):
        raise ValueError(f"jacobian must be 'refreshed' or 'frozen', got {jacobian!r}")
    lam = lam0
    scale = lambda_scale if lambda_scale is not None else h
    d_lam_val: ScaledValue | None = None
    total_steps = 0

    for it in range(1, max_iter + 1):
        need_jac = jacobian == "refreshed" or d_lam_val is None
        shot = shoot_radial(V, nu, h, L, lam, series_start, rtol,
                            with_sensitivity=need_jac)
        total_steps += shot.steps
        if need_jac:
            d_lam_val = shot.d_lambda
        ratio = shot.value.ratio(d_lam_val)
        if ratio is None:
            raise SolverError("radial shooting sensitivity vanished; "
                              "cannot take a Newton step", total_steps)
        step = -ratio
        cap = 0.3 * max(abs(lam), scale)
        if abs(step) > cap:
            step = math.copysign(cap, step)
        lam += step
        if abs(step) <= newton_tol * scale:
            return RadialSolution(lam=lam, iterations=it, converged=True,
                                  residual_log=shot.value.log_abs(),
                                  steps=total_steps)

    raise SolverError(
        f"radial Newton did not converge in {max_iter} iterations "
        f"(h={h:g}, nu={nu:g}, last lambda={lam!r})", total_steps)


def count_nodes_radial(V: Callable[[float], float], nu: float, h: float,
                       L: float, lam: float, series_start: SeriesStart,
                       rtol: float = 1e-12) -> tuple[int, int]:
    """(interior zeros of the radial shooting solution on (0, L), steps)."""
    x0, _ = series_start(lam, False)
    cap = _counting_step_cap(V, nu, h, lam, x0, L)
    shot = shoot_radial(V, nu, h, L, lam, series_start, rtol,
                        with_sensitivity=False, track_zeros=True, max_step=cap)
    margin = _wall_margin(shot.value, shot.slope, L)
    return sum(1 for z in shot.crossings if abs(z - L) > margin), shot.steps
