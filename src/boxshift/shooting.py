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
(``FrobeniusStart``, one recurrence for a well's Taylor tail and for the
Coulomb term) and match at the outer wall, x_m = L.  No inward start can
reach the origin stably (toward it the irregular branch x^(1/2-nu)
dominates), and the series start sits at the well bottom, so the outward
shot is the whole solution: the right-hand shot is empty and W = -u(L).
Pollution by the growing branch enters that shot only with an
exponentially small coefficient fixed at the wall, so its effect on the
root is polynomial in h (roughly rtol*h^(-(3m-1)/2) for level m), not
exponential.  The problem without walls (``Unwalled``) cannot match
there: away from a Dirichlet root the series shot past the turning point
is dominated by the growing branch, whose rounding then swamps F.  So it
matches at an interior x_m, a turning point V = lambda, which the series
shot reaches through the well and the inward decaying shot through the
barrier, both stably.

Without walls, each end starts in the barrier from the decaying WKB state
u'/u = -+sqrt(q), and lambda is a root of the free Wronskian F.  Newton on
F from a Dirichlet level lambda_D takes the flux step first
(``flux_wronskian``), F(lambda_D) as wall values times O(1) projections,
so the shift lambda_D - lambda_0 never comes from a subtraction.  Where
the flux step s is so small that Newton's next step, about s^2/gap for a
level spacing gap, would be dropped as noise, the flux step is the whole
solve.  On the line the flux step takes the Dirichlet pair from the box's
own Newton, whose last shots it moves to lambda_D along their
sensitivity pairs, instead of shooting it again.

A decaying start sits deep in the barrier, and an inward shot from it
damps its own errors on the way in: a local error along the decaying
solution only renormalises the shot, and the rest feeds the branch that
shrinks relative to it like exp(-2 (phi(x) - phi(wall))/h).  So each free
shot runs the outer part of its margin, from the start to
``Unwalled.x_a``, where that damping is down to the shot's tolerance over
``_LOOSE_RTOL`` (``damped_margin``), at ``_LOOSE_RTOL``, and the rest at
the iterate's own tolerance; a loose iterate and a Dirichlet shot never
split.  At the wall, where the flux step reads it, the state keeps u'/u
to the shot's tolerance.  w/u moves by about 1e-7: w gains a multiple of
u, the lambda-derivative of a renormalisation, which moves W' only by a
multiple of W.

Newton grades its integrator tolerance (``newton``): it shoots its far
iterates loosely, each only as tight as its next step needs, and ends
only on an iterate shot at the full rtol.  The flux iterate is shot
loosely too where an estimate of the shift says that the flux step
cannot end the solve, at a tolerance set by that estimate, and it grades
the next iterate by its own size; Newton's later steps correct a loose
step's error, so none of it stays in the summed shift.  Every solve ends
by one rule: it ends where the step Newton would take next is noise, and
where an estimate of that step lies near noise, it adds the estimate
instead of shooting the pair that would only confirm it (``_next_step``).
The estimate comes from the secant of the last two W', or before there
is a secant, from the step's square over the level spacing.

An even well (``PotentialSpec.even``) in a symmetric box, with or without
walls, is shot from one side (``Matching.mirror``).  x -> -x maps the left
shot onto the right one, so only the left side is integrated and the right
``Shot`` is derived from it (``Shot.mirrored``): u and w keep their values,
u' and w' change sign, and the log scale, zero count and widest turn
stay.  That halves each Newton iterate, flux pair and node-count
re-shoot.  Newton's function is unchanged: W = -2 u u' at
x_m = 0, and where V(-x) = V(x) holds in floating point, as for the
builtins and the x^2 + x^4 of the benchmark, the integrator's steps from
the two walls are mirror images, so every iterate is bit for bit what two
shots give.  A half-interval solve with a parity condition at 0 would
change the function Newton sees, and with it the iterates and the node
count.

Every shot integrates one system, the state with its sensitivity:
(u, u', w, w') with w = du/dlambda, which obeys  w'' = q w - u/h^2  (same
q) and stays within O(1/h) of u, so the four renormalise safely together.
Each side carries it, so dW/dlambda comes from the same two shots as W,
and a flux pair, node-count re-shoot or bisection shot carries it too.

Every shot counts the zeros of u it passes and records the widest phase
k*dx one of its steps turned, so node counts read the counts off Newton's
last shots, with the Pruefer phase of both states at an interior x_m, and
shoot again, each step capped, only when a step turned by more than a
quarter wavelength (``count_nodes``).  The same counts and phases give the
number of levels below any lambda (``level_count``, Sturm's oscillation
count), which holds each Newton iterate inside its level's bracket.

Every integration -- Newton iterates, node counts, bisection shots -- runs
through ``_integrate``, on scipy's DOP853 algorithm in Python floats
(``dop853``, with scipy's tableau copied there as float literals, so no
integration loads ``scipy.integrate``), generated as straight-line code
for that system, because on a 4-component state a generic stepper spends
its time on array and loop overhead rather than arithmetic.  When V carries its
source (DSL expressions, the builtins, the Coulomb tail), one generated
function integrates the whole leg with V inlined (``dop853.leg``).  The
same code, generated to call q at each stage (``dop853.checked_leg``),
takes a plain callable V from the start and runs again a leg that failed
or met a non-finite value, so q's own value or error stands.

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
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from . import dop853
from .dop853 import DOP853
from .errors import SeriesError, SolverError
from .potentials import LineBox, PotentialSpec, RadialBox, v_on_grid
from .scaled import ScaledValue, logaddexp

_NEWTON_MAX_ITER = 50
_LOOSE_RTOL = 1e-6  # a graded Newton's first iterate is shot at this (newton)
_FLUX_LOOSE = 1e-3  # a loose flux iterate's tolerance per |shift|/gap
_TRUST = 100.0  # the factor Newton's step estimates are trusted to (newton)
_SERIES_MAX_TERMS = 40
_SERIES_CUTOFF = 1e-16
_FIRST_ZERO = 3.67  # j_(1,1)^2/4 = 3.6705..., j_(1,1) the first zero of J_1
_QUARTER_TURN = 0.5 * math.pi  # the phase k*dx a node-counting step may span

# Integrator steps and q evaluations in this process; only _count adds.
_steps_taken = 0
_rhs_calls = 0
_NO_SOURCE = (None, 0.0, 1.0, 0.0)  # q.parts of a q without V's source


@dataclass(frozen=True)
class ModeSpec:
    """Which level we are solving for, and at what h."""

    level: int
    h: float
    nu: float | None = None

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level index must be >= 0, got {self.level}")
        if not (math.isfinite(self.h) and self.h > 0
                and self.h * self.h >= sys.float_info.min):
            raise ValueError("h must be positive and finite, with h^2 a "
                             f"normal float, got {self.h}")
        if self.nu is not None and not (self.nu > 0
                                        and math.isfinite(self.nu * self.nu)):
            raise ValueError("angular parameter nu must be positive and finite, "
                             f"with nu^2 finite, got {self.nu}")


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


def _count(steps: int, calls: int) -> None:
    """Add one leg's integrator steps and q evaluations to the counters."""
    global _steps_taken, _rhs_calls
    _steps_taken += steps
    _rhs_calls += calls


def _integrate(q: Callable[[float], float], x0: float, y0: Sequence[float],
               x1: float, rtol: float, *, dq: float = 0.0,
               max_step: float = math.inf
               ) -> tuple[tuple[float, ...], float, int, float]:
    """Integrate u'' = q u with its lambda-sensitivity pair (``dq`` =
    dq/dlambda; y0 = (u, u', w, w')) from x0 to x1, either direction.

    Returns (final state, accumulated log scale, number of zeros of y[0],
    widest turn).  A zero is counted where u changes sign between two accepted
    steps or lands on 0 at one (the start excepted), so a step that holds
    two zeros counts neither.  The widest turn rules that out: it is the
    largest phase k*|dx| a step spanned, with k^2 = -q the larger at its
    two ends (0 in a barrier), and q read off the solver's derivative
    u'' = q u.  Zeros lie pi/k apart, so a step that turns by at most pi/2
    holds one.  The leg's steps and q evaluations are counted when it
    ends, also in failure.

    Where ``q.parts`` names V's source, the leg is one generated function
    with V inlined (``dop853.leg``).  Where it has none, or that leg
    returns None (it failed or met a non-finite value), the same generated
    code calls q (``dop853.checked_leg``), so q's own value or error
    stands, and this module's ``DOP853`` steps it, one view per solver
    run.  A ``DOP853`` replaced here (a tracer, a test's tally) takes every
    leg that way, so it sees every step.
    """
    y = tuple(float(c) for c in y0)
    if x0 == x1:
        return y, 0.0, 0, 0.0
    source, lam, h2, cent = getattr(q, "parts", _NO_SOURCE)
    if source is not None and DOP853 is dop853.DOP853:
        done = dop853.leg(source, cent != 0.0)(lam, h2, cent, dq, x0, y, x1,
                                                rtol, max_step, _count)
        if done is not None:
            return done
    leg = dop853.checked_leg(q, dq, x0, y, x1, rtol, max_step, _count)
    try:
        return DOP853.run(leg)
    finally:
        leg.close()


def _q_factory(V: Callable[[float], float], lam: float, h: float,
               nu: float | None) -> Callable[[float], float]:
    """q(x) = (V(x) - lam)/h^2 (+ (nu^2 - 1/4)/x^2), with ``q.parts`` for
    ``_integrate`` to inline V's ``source``, if it has one."""
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
    import numpy as np

    w2 = omega * omega
    nodes = np.array([scale, 0.5 * scale, 0.25 * scale])
    resid = np.array([V(x) - w2 * x * x for x in nodes])
    powers = np.stack([nodes ** 4, nodes ** 6, nodes ** 8], axis=1)
    w4, w6, w8 = np.linalg.solve(powers, resid)
    return w2, float(w4), float(w6), float(w8)


class FrobeniusStart:
    """Frobenius data  u = x^(nu+1/2) sum_n c_n x^n  off a singular origin.

    For V = sum_p v_p x^p (``terms``, the pairs (p, v_p) with p >= -1) the
    radial equation gives  h^2 n (n + 2nu) c_n = sum_p v_p c_(n-2-p) -
    lambda c_(n-2),  c_0 = 1.  When every p is even the odd c_n vanish and
    n steps by 2.  Callable: lambda -> (x0, (u, u', w, w')); the
    lambda-derivative series rides along for the Newton Jacobian.

    The sums stop once two consecutive terms, t_(n-1) and t_n, and their
    lambda-derivatives lie below the cutoff: in a Coulomb series (stride
    1) a tiny odd term may precede the -lambda term, which enters at n = 2
    and in a tiny box sets the level.  A well's odd terms are 0.

    Node counts start at x0 and miss any zero of u before it, so a start
    refuses (SeriesError) every lambda above ``top``, below which u has
    none on (0, x0].
    """

    def __init__(self, terms: Sequence[tuple[int, float]], nu: float,
                 h: float, x0: float) -> None:
        self.terms = tuple(terms)
        self.stride = 2 if all(p % 2 == 0 for p, _ in self.terms) else 1
        self.nu = nu
        self.h = h
        self.x0 = x0
        self.top = math.inf  # bounded for Coulomb (``coulomb``)

    @classmethod
    def well(cls, p: PotentialSpec, nu: float, h: float,
             x0: float | None = None, L: float = math.inf) -> FrobeniusStart:
        """The start at a well bottom, from the even Taylor tail of V
        (``fit_even_tail``), at ``x0`` (default ``default_series_point``),
        which must lie inside the harmonic core 0.1*sqrt(h)/omega."""
        omega = p.curvature_omega
        tail = fit_even_tail(p.evaluate, omega, 0.3)
        x0 = x0 if x0 is not None else default_series_point(h, omega, L)
        core = 0.1 * math.sqrt(h) / omega
        if x0 > core:
            raise SeriesError(
                f"series matching point x0={x0:g} lies outside the harmonic "
                f"core (<= {core:g}); pass FrobeniusStart.well a smaller x0")
        return cls(tuple(zip((2, 4, 6, 8), tail)), nu, h, x0)

    @classmethod
    def coulomb(cls, z: float, ell: int, h: float, x0: float) -> FrobeniusStart:
        """The start for the attractive Coulomb potential V = -z/x.

        On (0, x0] the equation's q = (lambda + z/x)/h^2 - (nu^2 - 1/4)/x^2
        stays below B/(h^2 x) - (nu^2 - 1/4)/x^2, B = z + max(lambda, 0)*x0,
        whose solution regular at 0, sqrt(x) J_2nu(2 sqrt(B x)/h), first
        vanishes at h^2 j_(2nu,1)^2/(4B) >= 3.67 h^2/B (nu >= 1/2).  By Sturm
        comparison u has no zero on (0, x0] while x0*B < 3.67 h^2, which
        sets ``top``; where z*x0 alone reaches 3.67 h^2, no lambda is safe."""
        start = cls(((-1, -z),), ell + 0.5, h, x0)
        reach = _FIRST_ZERO * h * h / x0 - z  # x0 * top, kept from underflow
        start.top = reach / x0 if reach > 0.0 else -math.inf
        return start

    def __call__(self, lam: float) -> tuple[float, tuple[float, ...]]:
        nu, h, x0, stride = self.nu, self.h, self.x0, self.stride
        if lam > self.top:
            raise SeriesError(
                f"lambda={lam!r} lies above {self.top!r}, where a zero of u "
                f"may lie before the series point x0={x0:g} (h={h:g}, "
                f"nu={nu:g}) and escape the node count")
        # The recurrence runs in t_n = c_n x0^n, which stay O(1) however
        # small h is:  n (n + 2nu) t_n = sum_p w_p t_(n-2-p)  with
        # w_p = v_p x0^(p+2) / h^2, formed so that no factor underflows.
        # -lambda enters as the p = 0 term, in ascending order of p.
        r = x0 / h
        r2 = r * r
        terms = [(p, v * r2 * x0 ** p)
                 for p, v in sorted(self.terms + ((0, -lam),))]
        t = [1.0] + [0.0] * (stride * _SERIES_MAX_TERMS)
        d = [0.0] * len(t)  # lambda-derivatives of the t_n
        su, sdu, sw, sdw = 1.0, nu + 0.5, 0.0, 0.0
        for n in range(stride, len(t), stride):
            acc_t = 0.0
            acc_d = -r2 * t[n - 2] if n >= 2 else 0.0
            for p, w in terms:
                if n - 2 - p >= 0:
                    acc_t += w * t[n - 2 - p]
                    acc_d += w * d[n - 2 - p]
            denom = n * (n + 2 * nu)
            term_u = t[n] = acc_t / denom
            term_w = d[n] = acc_d / denom
            su += term_u
            sdu += (nu + 0.5 + n) * term_u
            sw += term_w
            sdw += (nu + 0.5 + n) * term_w
            cut_u = _SERIES_CUTOFF * abs(su)
            cut_w = _SERIES_CUTOFF * max(abs(sw), 1e-300)
            if abs(t[n - 1]) <= cut_u and abs(term_u) <= cut_u and \
               abs(d[n - 1]) <= cut_w and abs(term_w) <= cut_w:
                break
        else:
            raise SeriesError(
                f"power series did not converge in {_SERIES_MAX_TERMS} terms "
                f"at x0={x0:g} (h={h:g}, nu={nu:g}); start it at a smaller x0")
        amp = x0 ** (nu + 0.5)
        return x0, (amp * su, amp / x0 * sdu, amp * sw, amp / x0 * sdw)


SeriesStart = Callable[[float], tuple[float, tuple[float, ...]]]


# --------------------------------------------------------------------------
# Two-sided matching: one shooter for line and radial problems
# --------------------------------------------------------------------------


def wall_start(x: float, slope: float) -> SeriesStart:
    """Dirichlet start (u, u') = (0, ``slope``) at the wall ``x``.  It does
    not depend on lambda, so its sensitivity pair starts at zero."""
    def start(lam: float) -> tuple[float, tuple[float, ...]]:
        return x, (0.0, slope, 0.0, 0.0)
    return start


def decaying_start(V: Callable[[float], float], h: float, nu: float | None,
                   x: float, sign: float) -> SeriesStart:
    """WKB start (u, u') = (1, ``sign``*sqrt(q)) at ``x`` in the barrier: the
    branch that decays away from the well, for ``sign`` +1 on the left end
    and -1 on the right.  Its lambda-derivative is (0, ``sign``*dq/(2 sqrt q))."""
    def start(lam: float) -> tuple[float, tuple[float, ...]]:
        k2 = _q_factory(V, lam, h, nu)(x)
        if not k2 > 0.0:
            raise SolverError(f"decaying start at x={x:g} is not in the "
                              f"barrier (q={k2:g}, lambda={lam!r})")
        k = math.sqrt(k2)
        return x, (1.0, sign * k, 0.0, 0.5 * sign * _dq(h) / k)
    return start


def damped_margin(rtol: float) -> float:
    """c = ln(``_LOOSE_RTOL``/``rtol``)/2, inf unless ``_LOOSE_RTOL`` is
    the looser: an error of ``_LOOSE_RTOL`` made where phi lies c*h or
    more beyond the wall's reaches the wall below ``rtol``.

    Inward from a decaying start, an error along the decaying solution
    only renormalises the shot, which moves no root; the rest feeds the
    branch that decays toward the well, and the barrier damps that one
    relative to the shot by exp(-2 (phi(x) - phi(wall))/h) by the time it
    reaches the wall (Agmon, Lectures on Exponential Decay, 1982), the
    damping that buries the start's own admixture.  So the leg from the
    start to where phi = phi(wall) + c*h, ``Unwalled.x_a``, may run at
    ``_LOOSE_RTOL`` (``Matching._shot``)."""
    if _LOOSE_RTOL <= rtol:
        return math.inf
    return 0.5 * math.log(_LOOSE_RTOL / rtol)


@dataclass(frozen=True)
class Unwalled:
    """The well without walls, as the shooter sees it.

    Each shot starts from the decaying WKB state (``decaying_start``) at an
    end placed so deep in the barrier that the start's own error is buried:
    ``left`` and ``right`` on the line; radially the series start at the
    origin takes the left end's place and ``left`` is 0.  The shots meet at
    ``x_m``.  Newton started at ``box_level``, the Dirichlet level of
    ``box``, takes the flux step first (see ``newton``).  ``box_shots``,
    if set, is the Dirichlet pair the box's own Newton shot last, with the
    lambda it was shot at, for the flux step to reuse (``flux_wronskian``).
    ``shift_estimate``, an estimate of the shift the flux step measures,
    tells whether that step can end the solve before it is shot; where it
    cannot, its pair is shot loosely (``_flux_tol``).  ``x_a``, per side,
    splits that side's margin leg: from the start to ``x_a``, strictly
    between the start and the wall, a shot runs at ``_LOOSE_RTOL``
    (``damped_margin``); None, or a radial left end, runs the whole shot
    at its own tolerance.
    """

    left: float
    right: float
    x_m: float = 0.0
    box: LineBox | RadialBox | None = None
    box_level: float | None = None
    box_shots: ShotsAt | None = field(default=None, compare=False,
                                      repr=False)
    shift_estimate: float | None = None
    x_a: tuple[float | None, float | None] = (None, None)

    @property
    def kind(self) -> str:
        return "radial" if self.left == 0.0 else "line"

    def as_tuple(self) -> tuple[float, float]:
        return (self.left, self.right)

    def flux_start(self, lam0: float) -> Unwalled | None:
        """This problem, if Newton from ``lam0`` takes the flux step: if
        ``lam0`` is its box's level."""
        return self if self.box is not None and lam0 == self.box_level \
            else None


@dataclass(frozen=True, slots=True)
class Shot:
    """One side's state at the matching point, exponent factored out."""

    y: tuple[float, ...]          # (u, u', du/dlambda, du'/dlambda)
    log_scale: float
    crossings: int                # zeros of u counted during the pass
    widest_turn: float            # largest phase a step spanned (_integrate)
    via: Shot | None = None       # the state where the shot passed ``via``

    def at(self, i: int) -> ScaledValue:
        return ScaledValue.of(self.y[i], self.log_scale)

    def mirrored(self) -> Shot:
        """The shot that x -> -x maps this one onto, for an even V: u and
        du/dlambda keep their values, their slopes change sign."""
        y = tuple(-c if i % 2 else c for i, c in enumerate(self.y))
        return Shot(y, self.log_scale, self.crossings, self.widest_turn,
                    None if self.via is None else self.via.mirrored())


# Both sides' shots and the lambda they were shot at.
ShotsAt = tuple[float, tuple[Shot, Shot]]
Bracket = tuple[int, float, float] | None  # (level, floor, top): ``newton``


@dataclass(frozen=True)
class Matching:
    """A two-point problem as two shots that meet at ``x_m``.

    ``left`` and ``right`` map lambda to a start point and state: a wall
    start, a series start off a singular origin, or a decaying start in
    the barrier of a well without walls.  With ``mirror``, an even line
    problem whose ends are each other's mirror images, the right shot is
    the left one reflected (``Shot.mirrored``).  ``x_a``, per side, is the
    end of a decaying start's loose margin leg (``Unwalled.x_a``), carried
    from the problem without walls and dropped by ``walled``.
    """

    V: Callable[[float], float]
    nu: float | None
    h: float
    left: SeriesStart
    right: SeriesStart
    x_m: float
    mirror: bool = False
    x_a: tuple[float | None, float | None] = (None, None)

    @classmethod
    def line(cls, p: PotentialSpec, domain: LineBox | Unwalled,
             mode: ModeSpec) -> Matching:
        """Inward from both ends to the well bottom at 0."""
        if isinstance(domain, Unwalled):
            left = decaying_start(p.evaluate, mode.h, None, domain.left, 1.0)
            right = decaying_start(p.evaluate, mode.h, None, domain.right, -1.0)
            x_a = domain.x_a
        else:
            left = wall_start(domain.left, 1.0)
            right = wall_start(domain.right, -1.0)
            x_a = (None, None)
        return cls(p.evaluate, None, mode.h, left, right, 0.0,
                   mirror=p.even and domain.left == -domain.right, x_a=x_a)

    @classmethod
    def radial(cls, V: Callable[[float], float], nu: float, h: float,
               L: float | Unwalled, series_start: SeriesStart) -> Matching:
        """Outward from the series start to the wall at L, where the right
        shot is empty and W = -u(L); without walls, the series shot and an
        inward decaying shot meet at the interior ``L.x_m``."""
        if isinstance(L, Unwalled):
            return cls(V, nu, h, series_start,
                       decaying_start(V, h, nu, L.right, -1.0), L.x_m,
                       x_a=L.x_a)
        return cls(V, nu, h, series_start, wall_start(L, -1.0), L)

    def walled(self, box: LineBox | RadialBox) -> Matching:
        """The same matching with Dirichlet wall starts at ``box``'s walls;
        a radial problem keeps its series start, since the origin is no
        wall.  It stays mirrored only if ``box`` is symmetric, and its
        shots have no loose leg."""
        a, b = box.as_tuple()
        left = self.left if self.nu is not None else wall_start(a, 1.0)
        return replace(self, left=left, right=wall_start(b, -1.0),
                       mirror=self.mirror and a == -b, x_a=(None, None))

    def shoot(self, lam: float, rtol: float, *, max_step: float = math.inf,
              via: tuple[float | None, float | None] = (None, None)
              ) -> tuple[Shot, Shot]:
        """Both sides' states at x_m; a side whose ``via`` point is set also
        keeps its state where it passed that point."""
        sides = (self.left,) if self.mirror else (self.left, self.right)
        starts = [start(lam) for start in sides]
        if starts[0][0] >= self.x_m:
            raise SolverError(f"start point x0={starts[0][0]:g} is not left "
                              f"of the matching point {self.x_m:g}")
        q = _q_factory(self.V, lam, self.h, self.nu)
        return self._pair(q, starts, rtol, max_step, via)

    def _pair(self, q: Callable[[float], float],
              starts: Sequence[tuple[float, tuple[float, ...]]], rtol: float,
              max_step: float, via: tuple[float | None, float | None]
              ) -> tuple[Shot, Shot]:
        """The two sides' shots from their ``starts``: a mirrored pair
        integrates the left side only and reflects it."""
        left = self._shot(q, *starts[0], rtol, max_step, via[0], self.x_a[0])
        if self.mirror:
            return left, left.mirrored()
        return left, self._shot(q, *starts[1], rtol, max_step, via[1],
                                self.x_a[1])

    def _shot(self, q: Callable[[float], float], x0: float,
              y0: tuple[float, ...], rtol: float, max_step: float,
              via: float | None, x_a: float | None = None) -> Shot:
        """One side's shot from ``x0`` to x_m, passing ``via``; a decaying
        start's margin leg, ``x0`` to ``x_a``, runs at ``_LOOSE_RTOL``
        where that is looser than ``rtol`` and ``x_a`` lies strictly
        between ``x0`` and the next point (``damped_margin``)."""
        stop = self.x_m if via is None else via
        split = x_a is not None and rtol < _LOOSE_RTOL \
            and min(x0, stop) < x_a < max(x0, stop)
        legs = [(x0, _LOOSE_RTOL), (x_a, rtol)] if split else [(x0, rtol)]
        if via is not None:
            legs.append((via, rtol))
        legs.append((self.x_m, rtol))
        y, log_scale, zeros, turn, passed = y0, 0.0, 0, 0.0, None
        for (a, tol), (b, _) in zip(legs, legs[1:]):
            if passed is None and a == via:
                passed = Shot(y, log_scale, zeros, turn)
            y, grown, found, widest = _integrate(q, a, y, b, tol,
                                                 dq=_dq(self.h),
                                                 max_step=max_step)
            log_scale += grown
            zeros += found
            turn = max(turn, widest)
        return Shot(y, log_scale, zeros, turn, via=passed)


def wronskian(left: Shot, right: Shot) -> tuple[ScaledValue, ScaledValue]:
    """W = u_L u_R' - u_L' u_R at the matching point, and dW/dlambda from
    the sensitivity pairs."""
    w = left.at(0) * right.at(1) - left.at(1) * right.at(0)
    dw = (left.at(2) * right.at(1) + left.at(0) * right.at(3)) \
        - (left.at(3) * right.at(0) + left.at(1) * right.at(2))
    return w, dw


@dataclass(frozen=True)
class Solution:
    """A Newton root of W, converged to its noise bound."""

    lam: float
    iterations: int      # loose iterates included (see ``newton``)
    steps: int           # integrator steps the iteration took
    offset: ScaledValue | None = None  # lam - lam0 summed, from a box's level
    # The last iterate's two shots, for ``count_nodes``, shot at
    # ``shot_at``: at lam where the solve dropped its last step as noise,
    # else short of lam by that step and the estimated next step, where
    # it was added (``_next_step``).
    shots: tuple[Shot, Shot] | None = field(default=None, repr=False)
    shot_at: float | None = None


def newton(match: Matching, lam0: float, *, rtol: float, scale: float,
           flux: Unwalled | None = None, reused: bool = False,
           gap: float | None = None, bracket: Bracket = None) -> Solution:
    """Newton on lambda for a root of the Wronskian W of ``match``.

    Each step is -W/W'.  Its noise bound N is the step that ``rtol`` times
    the size of the two states at x_m would cause (``_wronskian_size``, at
    the wavenumber sqrt(max(|lambda|, scale))/h): below N, W is the shots'
    own error.

    The tolerance is graded (inexact Newton; Dembo, Eisenstat & Steihaug,
    SIAM J. Numer. Anal. 19 (1982) 400): an iterate far from the root
    needs only as many digits as its step.  The first iterate is shot at
    ``_LOOSE_RTOL``.  A loose iterate's step is taken if it exceeds
    ``_TRUST`` times N at its own tolerance; the next tolerance is then
    max(rtol, min(``_LOOSE_RTOL``, rho^4)), with rho = |step|/max(|lambda|,
    scale), far below the rho^2 error Newton leaves.  A smaller step means
    lambda is as good as that iterate can tell, and the same lambda is
    shot again at rtol.

    One rule ends the solve, on an iterate shot at rtol: it ends where the
    step Newton would take next is noise.  An s below N is itself noise,
    and is dropped.  Otherwise s is taken and ``_next_step`` estimates the
    step p after it, from the secant of the last two W' or, before there
    is one, as s^2/``gap``, ``gap`` the level spacing: p is dropped where
    it is noise, added where a secant p lies near noise, and otherwise
    lambda is shot again.  A step longer than max(|lambda|, scale) ends
    nothing: in a Coulomb box far inside the Bohr radius, N at the seed
    E_n exceeds it while the level is far above.  ``Solution.shots`` are
    the last iterate's, shot at rtol (a free shot's margin leg loose, its
    error damped, ``damped_margin``).  With ``reused`` they will stand in
    for a flux step's wall pair (``spectra.confined_eigenvalue`` keeps
    them), so the solve ends short of its root only where ``_moved_pair``
    can move them there.  ``iterations`` and ``steps`` count the loose
    iterates too.

    With ``bracket`` = (m, floor, top), each iterate stays in a Sturm
    bracket of level m in (floor, top), past which no shot starts (Pryce,
    Numerical Solution of Sturm-Liouville Problems, 1993; Bailey, Gordon
    & Shampine, ACM TOMS 4 (1978) 193).  Newton steps from an iterate
    whose own shots (``_counts``, no re-shoot) stand for level m, inside
    the bracket.  Any other iterate moves a side, by the level it stands
    for, which loose and full shots agree on, else by the levels below
    it, and goes to the midpoint; with no side above m yet, to lo's
    distance from the floor doubled, up to top, where a level still above
    raises SolverError.  A seed outside [floor, top) starts there.  A step
    that lands below the floor by at most rtol*max(|lambda|, scale) stays
    inside, since a level may lie a rounding above it.  An iterate at or
    below the floor whose count puts the level below it would close the
    bracket: a loose one is shot again in full, and a full one ends the
    solve there, the level lying within its noise of the floor.

    With ``flux``, ``match`` is that problem without walls, ``lam0`` is its
    box's Dirichlet level, and the first step is the flux step
    (``flux_wronskian``, which reuses ``flux.box_shots``), taken whatever
    its size: W there is wall values times O(1) projections, so the step
    keeps its relative precision however small the shift is.  ``offset``
    is the sum of the steps, never lam - lam0, and keeps its exponent
    where a float underflows; a run that went to a bracket point has no
    ``offset``.  The flux pair is shot at ``_flux_tol`` of
    ``flux.shift_estimate``; where that is loose and its step shows that
    the flux step in full would end the solve, lambda is shot again at
    rtol.  The iterate after the flux step is graded like a loose one.
    """
    start = steps_taken()
    level, floor, top = bracket or (None, -math.inf, math.inf)
    # The level lies in (lo, hi), hi None while open, and at or below top,
    # now the last lambda a shot starts at.
    lo, hi, top = floor, None, math.nextafter(top, -math.inf)

    def midpoint() -> float:  # while hi is open, lo's from the floor doubled
        if hi is None and lo >= top:
            raise SolverError(f"level {level} lies above lambda={top!r}")
        return min(lo + max(lo - floor, gap or scale), top) if hi is None \
            else 0.5 * (lo + hi)

    # A run that goes to a bracket point no longer sums the shift.
    if level is not None and not lo <= lam0 <= top:
        lam0, flux = midpoint(), None
    walls = None if flux is None else match.walled(flux.box)
    # The sum of the steps taken: a float places the iterates, and the
    # ScaledValue keeps the exponent a float loses below 1e-308.
    offset, shift = 0.0, ScaledValue.zero()
    last: tuple[ScaledValue, ScaledValue] | None = None  # a step, W' before it
    # This iterate's integrator tolerance: graded from _LOOSE_RTOL down to
    # rtol; the flux iterate's comes from the shift estimate (_flux_tol).
    tol = max(rtol, _LOOSE_RTOL) if flux is None \
        else _flux_tol(flux.shift_estimate, gap, lam0, scale, rtol)

    def solved(at: float, summed: ScaledValue) -> Solution:
        return Solution(lam=lam0 + at, iterations=it,
                        steps=steps_taken() - start,
                        offset=None if flux is None else summed,
                        shots=(left, right), shot_at=lam)

    for it in range(1, _NEWTON_MAX_ITER + 1):
        lam = lam0 + offset
        # The flux step comes first; a loose one may leave lam where it is.
        at_flux = flux is not None and last is None
        if at_flux:
            left, right, w = flux_wronskian(match, walls, lam, tol,
                                            box_shots=flux.box_shots)
            dw = wronskian(left, right)[1]
        else:
            left, right = match.shoot(lam, tol)
            w, dw = wronskian(left, right)
        if dw.is_zero:
            raise SolverError("the Wronskian's lambda-derivative vanished; "
                              "cannot take a Newton step")
        step = -(w / dw)
        if level is not None:
            # (level it stands for, levels below it), off its own shots with
            # no re-shoot, is at most (level, level) where lam is below it.
            counts = None if max(left.widest_turn, right.widest_turn) \
                > _QUARTER_TURN else _counts(match, lam, tol, (left, right))
            # A level can lie a rounding above the floor (E_n in a wide
            # Coulomb box).
            below = rtol * max(abs(lam), scale) if lo == floor else 0.0
            if counts and counts[0] != level or not (
                    lo - below < lam + step.to_float()
                    < (top if hi is None else hi)):
                below_it = counts <= (level, level) if counts \
                    else step.sign > 0
                if not below_it and lam <= lo:
                    # Counted above a level that lies at most a rounding
                    # above the floor: a loose count is noise, and lam is
                    # shot again in full; a full one puts the level at lam.
                    if tol > rtol:
                        tol = rtol
                        continue
                    return solved(offset, shift)
                lo, hi = (lam, hi) if below_it else (lo, lam)
                lam0, offset, last, flux = midpoint(), 0.0, None, None
                continue
        long = step.log_abs() > math.log(max(abs(lam), scale))
        k = math.sqrt(max(abs(lam), scale)) / match.h
        log_noise = math.log(tol) + _wronskian_size(left, right, k) \
            - dw.log_abs()
        loose = tol > rtol
        if loose and not long:
            # lam is as good as this iterate can tell, or a flux step shot
            # in full would end the solve: shoot lam again in full.
            full_noise = log_noise - math.log(tol) + math.log(rtol)
            if (_next_step(step, dw, last, gap, full_noise, lam) is not None
                    if at_flux
                    else step.log_abs() <= math.log(_TRUST) + log_noise):
                tol = rtol
                continue
        elif not (loose or long or at_flux) and step.log_abs() <= log_noise:
            return solved(offset, shift)
        offset += step.to_float()
        shift += step
        ahead = None if loose or long \
            else _next_step(step, dw, last, gap, log_noise, lam0 + offset)
        if ahead is not None:
            ended = offset + ahead.to_float()
            # Shots short of the root must reach it where they are reused.
            if not reused or _moved_pair(lam, (left, right), lam0 + ended,
                                         rtol) is not None:
                return solved(ended, shift + ahead)
        if loose or at_flux:
            tol = _graded_tol(step, lam, scale, rtol)
        last = (step, dw)

    raise SolverError(
        f"Newton did not reach its noise bound in {_NEWTON_MAX_ITER} "
        f"iterations (h={match.h:g}, last lambda={lam0 + offset!r})")


def _next_step(step: ScaledValue, dw: ScaledValue,
               last: tuple[ScaledValue, ScaledValue] | None,
               gap: float | None, log_noise: float,
               lam: float) -> ScaledValue | None:
    """How a solve may end after Newton took ``step``, with W' = ``dw``, to
    ``lam``: the estimate of its next step p to add before ending, zero
    where p is to be dropped, or None where lambda must be shot again.

    With ``last``, the step before and its W', p is the secant estimate
    -(W' - W'_last)/s_last/W' step^2/2, which has a sign.  It is dropped
    where |p| <= N = exp(``log_noise``) and added where |p| <= ``_TRUST``
    max(N, ulp(lam)).  Its error is the secant's, about |step/s_last| of p,
    0.05% to 0.3% wherever p stood clear of N and of an ulp, so ``_TRUST``
    keeps that error under a third of N.  The ulp floor serves the radial
    wall, where N measures the converged shot there and sits below an ulp
    and below the real error, so that p is noise too.

    Without ``last``, p is about step^2/``gap``, with no sign and good
    only to a factor ``_TRUST`` (|p| gap/step^2 stayed at most 15 on
    seven wells, line and radial): it is dropped where ``_TRUST``
    step^2/gap <= N.  Without a gap either, as for a Coulomb level, there
    is no estimate.
    """
    if last is not None:
        ahead = (dw - last[1]) / last[0] / dw * step * step \
            * ScaledValue.of(-0.5)
        if ahead.log_abs() <= log_noise:
            return ScaledValue.zero()
        floor = ScaledValue.of(1.0, max(log_noise, math.log(math.ulp(lam))))
        return ahead if abs(ahead).ratio(floor) <= _TRUST else None
    if gap is not None and (step * step).log_abs() - math.log(gap) \
            <= log_noise - math.log(_TRUST):
        return ScaledValue.zero()
    return None


def _flux_tol(s: float | None, gap: float | None, lam: float, scale: float,
              rtol: float) -> float:
    """The flux iterate's tolerance: rtol, unless the shift estimate s
    puts Newton's next step, about s^2/gap, at or above rtol*max(|lambda|,
    scale), the size of the full iterate's noise bound, so that the flux
    step cannot end the solve; then max(rtol, min(``_LOOSE_RTOL``,
    ``_FLUX_LOOSE``*|s|/gap))."""
    if not s or not math.isfinite(s) or gap is None \
            or s * s / gap < rtol * max(abs(lam), scale):
        return rtol
    return max(rtol, min(_LOOSE_RTOL, _FLUX_LOOSE * abs(s) / gap))


def _graded_tol(step: ScaledValue, lam: float, scale: float,
                rtol: float) -> float:
    """The tolerance of the iterate after ``step``: max(rtol, min(
    ``_LOOSE_RTOL``, rho^4)), rho = |step|/max(|lambda|, scale) up to 1."""
    rho = min(1.0, abs(step.to_float()) / max(abs(lam), scale))
    return max(rtol, min(_LOOSE_RTOL, rho ** 4))


def _wronskian_size(left: Shot, right: Shot, k: float) -> float:
    """log of (k|u_L| + |u_L'|)(k|u_R| + |u_R'|)/k: the largest Wronskian
    of two states of these sizes, each measured at wavenumber ``k``.  A
    relative error e in either state moves W by up to e times this."""
    def size(shot: Shot) -> float:
        return logaddexp(math.log(k) + shot.at(0).log_abs(),
                         shot.at(1).log_abs())
    return size(left) + size(right) - math.log(k)


def flux_wronskian(free: Matching, walls: Matching, lam: float, rtol: float,
                   *, box_shots: ShotsAt | None = None
                   ) -> tuple[Shot, Shot, ScaledValue]:
    """The free shots at ``lam``, a Dirichlet level of ``walls``, and the
    free Wronskian F = Wr(d_L, d_R) there, from the flux identity.

    At a Dirichlet level the wall shots are proportional, D_L = kappa D_R.
    In a basis (D_R, G) with Wr(D_R, G) = 1, each free shot is
    d = alpha D_R + beta G with beta = Wr(D_R, d).  A Wronskian of two
    solutions does not depend on x, so beta is read where the free shot
    passes the wall, from the wall start's state: there it is a wall value
    of d.  alpha is the projection of d onto D_R at x_m, exact up to the
    exponentially small beta G.  Then F = alpha_L beta_R - beta_L alpha_R
    (Herring's flux in Wronskian form): wall values times O(1)
    projections, with nothing cancelling.  A side that keeps the free
    start (the radial series) has no wall, and beta = 0 there.

    ``box_shots`` is a lambda and the wall pair of ``walls`` shot there at
    ``rtol`` or tighter: the Dirichlet Newton's last iterate.  On the line,
    where both ends are walls and that pair meets at the free shots' x_m,
    it stands in for the pair at ``lam`` (``_moved_pair``).  A radial
    Dirichlet pair meets at the wall, not at the turning point, and the
    pair is shot at ``lam`` there, as it is without ``box_shots``.
    """
    sides = ((free.left, walls.left), (free.right, walls.right))
    walled = [start(lam) if start is not own else None
              for own, start in sides]
    via = tuple(None if wall is None else wall[0] for wall in walled)
    # The free shots pass the walls, so they mirror only where walls do.
    d = replace(free, mirror=walls.mirror).shoot(lam, rtol, via=via)
    q = _q_factory(walls.V, lam, walls.h, walls.nu)
    if walled[0] is None:  # the radial series side
        D = (d[0], walls._shot(q, *walled[1], rtol, math.inf, None))
    else:
        D = None if box_shots is None else _moved_pair(*box_shots, lam, rtol)
        if D is None:
            D = walls._pair(q, walled, rtol, math.inf, (None, None))

    def along(shot: Shot) -> ScaledValue:  # projection onto D_R, times |D_R|^2
        return shot.at(0) * D[1].at(0) + shot.at(1) * D[1].at(1)

    def beta(side: int) -> ScaledValue:  # Wr(D_side, d_side), at the wall
        if walled[side] is None:
            return ScaledValue.zero()
        u, du = walled[side][1][:2]
        passed = d[side].via
        return ScaledValue.of(u) * passed.at(1) - ScaledValue.of(du) * passed.at(0)

    # alpha_L beta_R - beta_L alpha_R, with kappa = along(D_L)/along(D_R).
    f = along(d[0]) * beta(1) / along(D[1]) - beta(0) * along(d[1]) / along(D[0])
    return d[0], d[1], f


def _moved_pair(at: float, shots: tuple[Shot, Shot], lam: float,
                rtol: float) -> tuple[Shot, Shot] | None:
    """``shots``, shot at ``at``, moved to ``lam`` to first order along
    their sensitivity pairs, (u, u') += (lam - at) (w, w'); None where the
    move is too large to keep rtol: where (|lam - at| |(w, w')|/|(u, u')|)^2,
    the relative size of the second-order term, exceeds rtol.  At
    ``lam == at`` they are the shots themselves, bit for bit."""
    delta = lam - at
    if delta == 0.0:
        return shots
    moved = []
    for shot in shots:
        u, du, w, dw = shot.y
        if (delta * math.hypot(w, dw)) ** 2 > rtol * (u * u + du * du):
            return None
        moved.append(replace(shot, y=(u + delta * w, du + delta * dw, w, dw)))
    return moved[0], moved[1]


def count_nodes(match: Matching, lam: float, rtol: float,
                shots: tuple[Shot, Shot] | None = None) -> int:
    """Interior zeros of the matched solution.

    Each side's zeros (``Shot.crossings``) are read off ``shots`` (Newton's
    last), or off a re-shoot where a step of theirs turned by more than a
    quarter wavelength, in which two sign changes could hide (``_counts``).

    At an interior x_m the count is read off the Pruefer phase (Pruefer,
    Math. Ann. 95 (1926) 499): with k = 1/h, the phase of (u, u'/k) from
    the left and of (u, -u'/k) from the right each turns by pi per zero.
    So at x_m side s has turned by pi z_s + phi_s, z_s its zeros and phi_s
    in [0, pi] the angle whose cotangent is the slope over k u there, 0
    only where u = 0, which the side counted as a zero.  The two turns sum
    to (n + 1) pi at a root with n nodes, and whatever k is, phi_L + phi_R
    is 0 or pi there, so n is that sum over pi, rounded, less one.  No
    zero is located: a node at x_m itself, as an odd level on a symmetric
    box has, moves the sum continuously as it crosses x_m.

    At a wall x_m the phase is no guide (deep in a barrier, lam a rounding
    error off the level puts a zero anywhere inside), so the zeros count
    the Dirichlet levels below lam (Sturm), less one where u(L) is 0, and
    one is taken off where lam lies above the level it stands for: u
    there takes the sign of du/dlambda.
    """
    return _counts(match, lam, rtol, shots)[0]


def level_count(match: Matching, lam: float, rtol: float) -> int:
    """The number of levels of ``match`` below ``lam`` (Sturm oscillation):
    z_L + z_R + floor((phi_L + phi_R)/pi) of a capped shot (``_counts``),
    as the two Pruefer turns at x_m grow with lam and sum to a multiple of
    pi at a level.  At a wall x_m it is the zero count alone, since phi_L
    rounds to pi there where |u'/u| dwarfs 1/h (a tiny Coulomb box)."""
    return _counts(match, lam, rtol)[1]


def _counts(match: Matching, lam: float, rtol: float,
            shots: tuple[Shot, Shot] | None = None) -> tuple[int, int]:
    """(``count_nodes``, ``level_count``), read off ``shots`` unless these
    are missing or a step of theirs turned by more than ``_QUARTER_TURN``;
    then both sides are shot again, every step capped
    (``_counting_step_cap``)."""
    b, _ = match.right(lam)
    if shots is None or max(shot.widest_turn for shot in shots) \
            > _QUARTER_TURN:
        a, _ = match.left(lam)
        cap = _counting_step_cap(match.V, match.nu, match.h, lam, a, b)
        shots = match.shoot(lam, rtol, max_step=cap)
    left, right = shots
    zeros = left.crossings + right.crossings
    if b == match.x_m:
        u, _, w, _ = left.y
        above = (u > 0.0 and w > 0.0) or (u < 0.0 and w < 0.0)
        return zeros - (u == 0.0) - above, zeros

    def phase(u: float, v: float) -> float:  # cot = v/u, in [0, pi]
        return 0.0 if u == 0.0 else 0.5 * math.pi - math.atan(v / u)
    turns = (phase(left.y[0], match.h * left.y[1])  # k = 1/h
             + phase(right.y[0], -match.h * right.y[1])) / math.pi
    return zeros + round(turns) - 1, zeros + math.floor(turns)


def _counting_step_cap(V: Callable[[float], float], nu: float | None,
                       h: float, lam: float, a: float, b: float) -> float:
    """A quarter of the shortest local wavelength 2 pi/k over the interval
    (256 samples, V over them in one call, ``v_on_grid``): a step of this
    length turns by at most ``_QUARTER_TURN``.  Only a count that needs a
    cap builds this array, so numpy loads with the first such count."""
    import numpy as np

    cent = 0.0 if nu is None else nu * nu - 0.25
    floor = 1.0 / (h * h)  # never step wider than ~pi*h/2
    x = a + (b - a) * (np.arange(256) + 0.5) / 256.0
    x = x[x != 0.0]
    with np.errstate(all="ignore"):
        k2 = (lam - v_on_grid(V, x)) / (h * h) - cent / (x * x)
    # A NaN sample is passed over, as it fails every comparison.
    return _QUARTER_TURN / math.sqrt(k2.max(initial=floor, where=k2 > floor))


def newton_solve_line(p: PotentialSpec, domain: LineBox | Unwalled,
                      mode: ModeSpec, lam0: float, *, rtol: float = 1e-12,
                      reused: bool = False, gap: float | None = None,
                      bracket: Bracket = None) -> Solution:
    """Newton on the line problem: inward shots meeting at 0, stopped at
    their noise bound (see ``newton``, with h as ``scale`` and ``gap`` the
    level spacing).

    W carries the truncation error of both shots into the root, so each
    runs at rtol/2.  That keeps the root within about 0.1*rtol*lambda of
    the level on the harmonic well (the error is proportional to rtol).
    """
    flux = domain.flux_start(lam0) if isinstance(domain, Unwalled) else None
    return newton(Matching.line(p, domain, mode), lam0, rtol=0.5 * rtol,
                  scale=mode.h, flux=flux, reused=reused, gap=gap,
                  bracket=bracket)


def newton_solve_radial(V: Callable[[float], float], nu: float, h: float,
                        L: float | Unwalled, lam0: float,
                        series_start: SeriesStart, *, rtol: float = 1e-12,
                        lambda_scale: float | None = None,
                        gap: float | None = None, bracket: Bracket = None
                        ) -> Solution:
    """Newton on the radial problem: the series shot matched at the wall L
    (without walls, at ``L.x_m``), stopped at the noise bound (see
    ``newton``, with ``gap`` the level spacing).

    ``lambda_scale`` is the floor of |lambda| in the noise bound's
    wavenumber and in the sizes Newton measures its steps by; it defaults
    to h, appropriate for low-lying levels of a well (pass the energy
    magnitude instead for Coulomb problems).
    """
    flux = L.flux_start(lam0) if isinstance(L, Unwalled) else None
    return newton(Matching.radial(V, nu, h, L, series_start), lam0, rtol=rtol,
                  scale=lambda_scale if lambda_scale is not None else h,
                  flux=flux, gap=gap, bracket=bracket)


def count_nodes_line(p: PotentialSpec, domain: LineBox | Unwalled,
                     mode: ModeSpec, lam: float, rtol: float = 1e-12, *,
                     shots: tuple[Shot, Shot] | None = None) -> int:
    """Interior zeros on (r-, r+); see ``count_nodes``."""
    return count_nodes(Matching.line(p, domain, mode), lam, rtol, shots)


def count_nodes_radial(V: Callable[[float], float], nu: float, h: float,
                       L: float | Unwalled, lam: float,
                       series_start: SeriesStart, rtol: float = 1e-12, *,
                       shots: tuple[Shot, Shot] | None = None) -> int:
    """Interior zeros on (0, L); see ``count_nodes``."""
    return count_nodes(Matching.radial(V, nu, h, L, series_start), lam, rtol,
                       shots)
