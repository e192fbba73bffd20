"""Agmon distance and WKB prefactors for a single nondegenerate well.

The tunnelling distance from the well bottom is

    phi(x) = | integral_0^x sqrt(V(t)) dt |   (positive on both sides),

so phi'(x) = sgn(x) sqrt(V(x)) and phi''(x) = sgn(x) V'(x) / (2 sqrt(V(x))),
both smooth through the origin for a well with V''(0) > 0.

The leading WKB amplitude a0 solves a first-order transport equation whose
logarithmic derivative g(t) has a simple pole at the well bottom:

    line:   g(t) = (omega*(2m+1)        - phi''(t)) / (2 phi'(t))
            with residue m,    a0(x) = |x|**m  * exp(int_0^x (g - m/t) dt)
    radial: g(t) = (2*omega*(2m+1+nu)   - phi''(t)) / (2 phi'(t)) - (2nu+1)/(2t)
            with residue 2m,   a0(x) = x**(2m) * exp(int_0^x (g - 2m/t) dt)

where omega = sqrt(V''(0)/2) and m is the level index.  For the pure
harmonic well the regular part vanishes identically and a0 reduces to the
bare power, which the tests pin down.

The regular part r = g - residue/t is analytic at 0 but numerically delicate
there (difference of two large terms), so the integral is split: a short
initial segment is integrated via a degree-3 interpolant of r built from
points safely away from 0, and the rest by adaptive Gauss-Legendre.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .potentials import Domain, PotentialSpec

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_DEPTH = 48


# --------------------------------------------------------------------------
# Adaptive quadrature (15-point Gauss-Legendre with bisection)
# --------------------------------------------------------------------------


def _gl15(f: Callable[[float], float], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0.0
    for t, w in zip(_GL_NODES, _GL_WEIGHTS):
        acc += w * f(mid + half * t)
    return half * acc


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float,
                        tol: float) -> float:
    """integral_a^b f, bisecting until the two-half refinement agrees.

    ``tol`` is an absolute tolerance for the whole interval; each bisection
    halves the budget.  Raises QuadratureError past the depth cap (48) --
    in practice that means a non-integrable singularity or a wildly wrong
    tolerance, not slow convergence.
    """
    if a == b:
        return 0.0

    def refine(lo: float, hi: float, whole: float, budget: float, depth: int) -> float:
        mid = 0.5 * (lo + hi)
        left = _gl15(f, lo, mid)
        right = _gl15(f, mid, hi)
        err = abs(left + right - whole)
        if err <= budget or err <= 1e-16 * (abs(left) + abs(right)):
            return left + right
        if depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"quadrature failed to converge on [{lo:g}, {hi:g}] "
                f"(error estimate {err:.3g}, budget {budget:.3g})")
        return (refine(lo, mid, left, 0.5 * budget, depth + 1)
                + refine(mid, hi, right, 0.5 * budget, depth + 1))

    return refine(a, b, _gl15(f, a, b), tol, 0)


# --------------------------------------------------------------------------
# Agmon distance
# --------------------------------------------------------------------------


def _sqrt_potential(p: PotentialSpec) -> Callable[[float], float]:
    omega2 = p.curvature_omega ** 2

    def f(t: float) -> float:
        # Near the bottom, V(t) is a difference of almost-equal quantities
        # and can round to a tiny negative; form |t| * sqrt(V/t^2) with the
        # ratio pinned to the curvature at t = 0.
        if abs(t) < 1e-4:
            ratio = omega2 if t == 0.0 else p.evaluate(t) / (t * t)
            if ratio < 0.0:
                if ratio >= -1e-10 * (1.0 + omega2):
                    return 0.0
                raise QuadratureError(
                    f"potential is negative at x={t:g} "
                    "(the tunnelling distance is undefined there)")
            return abs(t) * math.sqrt(ratio)
        v = p.evaluate(t)
        if v < 0.0:
            raise QuadratureError(
                f"potential is negative at x={t:g} (V={v:g}); "
                "the tunnelling distance is undefined there")
        return math.sqrt(v)
    return f


def agmon_distance(p: PotentialSpec, x: float, tol: float = 1e-12) -> float:
    """phi(x): tunnelling distance from the well bottom to x (>= 0).

    Absolute accuracy ~ tol * (1 + phi(x)).
    """
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"quadrature tolerance must be in [1e-14, 1e-6], got {tol:g}")
    return _phi_increment(p, 0.0, x, tol)


def _phi_increment(p: PotentialSpec, a: float, b: float, tol: float) -> float:
    """phi(b) - phi(a) for a and b on one side of the well bottom: the
    integral of sqrt(V) from a to b, negated on the left side."""
    f = _sqrt_potential(p)
    # |b - a| * sqrt(V(b)) overestimates the integral for monotone V.
    budget = tol * (1.0 + abs(b - a) * f(b))
    if a + b >= 0.0:
        return adaptive_quadrature(f, a, b, budget)
    return adaptive_quadrature(f, b, a, budget)


class AgmonProfile:
    """Cached phi and its derivatives for one potential.

    ``domain`` is optional; when given, evaluating phi more than 25% beyond
    the confinement region triggers a one-time warning (the asymptotics are
    only controlled near the actual Dirichlet walls).
    """

    def __init__(self, potential: PotentialSpec,
                 quadrature_tolerance: float = 1e-12,
                 domain: Domain | None = None) -> None:
        self.potential = potential
        self.quadrature_tolerance = quadrature_tolerance
        self._phi_cache: dict[float, float] = {0.0: 0.0}
        self._outer = None
        if domain is not None:
            lo, hi = domain.as_tuple()
            self._outer = max(abs(lo), abs(hi))
        self._warned = False

    @property
    def omega(self) -> float:
        return self.potential.curvature_omega

    def phi(self, x: float) -> float:
        try:
            return self._phi_cache[x]
        except KeyError:
            pass
        if self._outer is not None and abs(x) > 1.25 * self._outer and not self._warned:
            warnings.warn(
                f"evaluating tunnelling distance at x={x:g}, more than 25% outside "
                f"the confinement region (|x| <= {self._outer:g}); results there are "
                "not covered by the working assumptions", RuntimeWarning, stacklevel=2)
            self._warned = True
        value = agmon_distance(self.potential, x, self.quadrature_tolerance)
        self._phi_cache[x] = value
        return value

    def phi_increment(self, a: float, b: float) -> float:
        """phi(b) - phi(a) for a and b on one side of the well bottom, from
        one quadrature between them; not cached."""
        return _phi_increment(self.potential, a, b, self.quadrature_tolerance)

    def phi_prime(self, x: float) -> float:
        v = self.potential.evaluate(x)
        if v < 0.0:
            raise QuadratureError(f"potential is negative at x={x:g} (V={v:g})")
        return math.copysign(math.sqrt(v), x)

    def phi_second(self, x: float) -> float:
        if x == 0.0:
            return self.omega
        v = self.potential.evaluate(x)
        if v <= 0.0:
            raise QuadratureError(
                f"cannot form phi'' at x={x:g}: V={v:g} (need V > 0 off the minimum)")
        sign = 1.0 if x > 0 else -1.0
        return sign * self.potential.slope(x) / (2.0 * math.sqrt(v))


# --------------------------------------------------------------------------
# Transport equation: regular part and prefactor
# --------------------------------------------------------------------------


def transport_regular_part(profile: AgmonProfile, m: int,
                           t: float) -> float:
    """r(t) = g(t) - m/t for the line problem (t != 0)."""
    omega = profile.omega
    g = (omega * (2 * m + 1) - profile.phi_second(t)) / (2.0 * profile.phi_prime(t))
    return g - m / t


def radial_transport_regular_part(profile: AgmonProfile, m: int, nu: float,
                                  t: float) -> float:
    """r(t) = g(t) - 2m/t for the radial problem (t > 0)."""
    omega = profile.omega
    g = ((2.0 * omega * (2 * m + 1 + nu) - profile.phi_second(t))
         / (2.0 * profile.phi_prime(t)) - (2.0 * nu + 1.0) / (2.0 * t))
    return g - 2.0 * m / t


def _integral_of_regular_part(regular: Callable[[float], float], x: float,
                              tol: float) -> float:
    """int_0^x r(t) dt with the near-origin segment handled by interpolation.

    r is analytic at 0 but evaluating it there cancels two O(1/t) terms, so
    on [0, s] (s = x/100) we integrate the cubic through r at s, s/2, s/4,
    s/8 instead of sampling closer in.
    """
    if x == 0.0:
        return 0.0
    s = 0.01 * x
    nodes = np.array([s / 8.0, s / 4.0, s / 2.0, s])
    values = np.array([regular(t) for t in nodes])
    # Exact-degree interpolation, then exact integration of the polynomial.
    coeffs = np.linalg.solve(np.vander(nodes, 4, increasing=True), values)
    head = sum(c * s ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
    tail = adaptive_quadrature(regular, s, x, tol * max(1.0, abs(x)))
    return head + tail


def wkb_prefactor_line(profile: AgmonProfile, m: int, x: float,
                       tol: float = 1e-12) -> float:
    """Leading WKB amplitude a0(x) on the line, normalised to |x|^m near 0."""
    if x == 0.0:
        return 0.0 if m > 0 else 1.0
    log_reg = _integral_of_regular_part(
        lambda t: transport_regular_part(profile, m, t), x, tol)
    return abs(x) ** m * math.exp(log_reg)


def wkb_prefactor_radial(profile: AgmonProfile, m: int, nu: float, x: float,
                         tol: float = 1e-12) -> float:
    """Leading WKB amplitude a0(x) for the radial problem (x > 0)."""
    if x <= 0.0:
        raise ValueError(f"radial prefactor needs x > 0, got {x}")
    log_reg = _integral_of_regular_part(
        lambda t: radial_transport_regular_part(profile, m, nu, t), x, tol)
    return x ** (2 * m) * math.exp(log_reg)


def prefactor_a0_line(p: PotentialSpec, m: int, x: float,
                      tol: float = 1e-12) -> float:
    """a0(x) on the line, built from a fresh profile (convenience form)."""
    return wkb_prefactor_line(AgmonProfile(p, tol), m, x, tol)


def prefactor_a0_radial(w: PotentialSpec, m: int, nu: float, x: float,
                        tol: float = 1e-12) -> float:
    """Radial a0(x), built from a fresh profile (convenience form)."""
    return wkb_prefactor_radial(AgmonProfile(w, tol), m, nu, x, tol)
