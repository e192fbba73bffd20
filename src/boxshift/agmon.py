"""Agmon distance and WKB prefactors for a single nondegenerate well.

The tunnelling distance from the well bottom is

    phi(x) = | integral_0^x sqrt(V(t)) dt |   (positive on both sides),

so phi'(x) = sgn(x) sqrt(V(x)), smooth through the origin for a well with
V''(0) > 0.

The leading WKB amplitude a0 solves a first-order transport equation whose
logarithmic derivative is (2 omega E - phi'')/(2 phi') on the line, less
(2nu+1)/(2t) radially, where omega = sqrt(V''(0)/2) and E = lambda/(2 omega h)
is the harmonic level in units of the curvature.  Since phi''/(2 phi') is
(ln V)'/4, that term integrates in closed form, and

    log a0(x) = p ln|x| + E K(x) - (1/4) ln(V(x) / (omega x)^2),
    K(x)      = int_0^x (omega/phi'(t) - 1/t) dt,

with (p, E) = (m, m + 1/2) on the line and (2m, 2m + 1 + nu) radially for
level index m.  The prefactor therefore reads only V and V''(0): K depends
on the potential alone, not on the level.  For the pure harmonic well K
and the last term vanish and a0 is the bare power, which the tests pin
down.

K's integrand is analytic at 0 but cancels two O(1/t) terms there, so a
short initial segment is integrated via a degree-3 interpolant built from
points safely away from 0, and the rest by QUADPACK's adaptive
Gauss-Kronrod rule (``scipy.integrate.quad``), as is phi itself.
``quad`` is imported on the first quadrature, not with this module, so a
command that needs no Agmon distance never loads ``scipy.integrate``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .potentials import PotentialSpec

_QUAD_TOL = 1e-12  # absolute and relative target of every quadrature


def adaptive_quadrature(f: Callable[[float], float], a: float,
                        b: float) -> float:
    """integral_a^b f by QUADPACK's adaptive Gauss-Kronrod rule
    (``scipy.integrate.quad``), aimed at ``_QUAD_TOL``.

    Raises QuadratureError when QUADPACK reports that it did not converge.
    Its error estimate is not compared with the target: it is pessimistic
    (5.7e-13 on the integral of t^8 - 3t^2 over [0, 2], which it gets
    exact), and QUADPACK already flags an estimate it cannot bring down.
    """
    from scipy.integrate import quad

    value, _, _, *failure = quad(f, a, b, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                                 full_output=1)
    if failure:
        reason = " ".join(failure[0].split()).split(".")[0]
        raise QuadratureError(f"quadrature on [{a:g}, {b:g}] did not "
                              f"converge: {reason}")
    return value


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


def agmon_distance(p: PotentialSpec, x: float) -> float:
    """phi(x): tunnelling distance from the well bottom to x (>= 0)."""
    return _phi_increment(p, 0.0, x)


def _phi_increment(p: PotentialSpec, a: float, b: float) -> float:
    """phi(b) - phi(a) for a and b on one side of the well bottom: the
    integral of sqrt(V) from a to b, negated on the left side."""
    f = _sqrt_potential(p)
    if a + b >= 0.0:
        return adaptive_quadrature(f, a, b)
    return adaptive_quadrature(f, b, a)


class AgmonProfile:
    """Cached phi and its derivative for one potential."""

    def __init__(self, potential: PotentialSpec) -> None:
        self.potential = potential
        self._phi_cache: dict[float, float] = {0.0: 0.0}

    @property
    def omega(self) -> float:
        return self.potential.curvature_omega

    def phi(self, x: float) -> float:
        if x not in self._phi_cache:
            self._phi_cache[x] = agmon_distance(self.potential, x)
        return self._phi_cache[x]

    def phi_increment(self, a: float, b: float) -> float:
        """phi(b) - phi(a) for a and b on one side of the well bottom, from
        one quadrature between them; not cached."""
        return _phi_increment(self.potential, a, b)

    def phi_prime(self, x: float) -> float:
        v = self.potential.evaluate(x)
        if v < 0.0:
            raise QuadratureError(f"potential is negative at x={x:g} (V={v:g})")
        return math.copysign(math.sqrt(v), x)


# --------------------------------------------------------------------------
# Transport amplitude
# --------------------------------------------------------------------------


def _log_amplitude(profile: AgmonProfile, power: int, level: float,
                   x: float) -> float:
    """log a0(x) = power ln|x| + level K(x) - ln(V(x)/(omega x)^2)/4.

    K's integrand r(t) = omega/phi'(t) - 1/t is analytic at 0 but cancels
    two O(1/t) terms there, so on [0, s] (s = x/100) we integrate the cubic
    through r at s, s/2, s/4, s/8 instead of sampling closer in.
    """
    if x == 0.0:
        return -math.inf if power > 0 else 0.0
    omega = profile.omega

    def regular(t: float) -> float:
        return omega / profile.phi_prime(t) - 1.0 / t

    s = 0.01 * x
    nodes = np.array([s / 8.0, s / 4.0, s / 2.0, s])
    values = np.array([regular(t) for t in nodes])
    # Exact-degree interpolation, then exact integration of the polynomial.
    coeffs = np.linalg.solve(np.vander(nodes, 4, increasing=True), values)
    head = sum(c * s ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
    k_x = float(head + adaptive_quadrature(regular, s, x))
    ratio = profile.potential.evaluate(x) / (omega * x) ** 2
    return power * math.log(abs(x)) + level * k_x - 0.25 * math.log(ratio)


def wkb_prefactor_line(profile: AgmonProfile, m: int, x: float) -> float:
    """log a0(x): the log of the leading WKB amplitude on the line,
    normalised to |x|^m near 0 (-inf at x = 0 for m > 0).  The log, not a0,
    since a0 underflows a double for high levels."""
    return _log_amplitude(profile, m, m + 0.5, x)


def wkb_prefactor_radial(profile: AgmonProfile, m: int, nu: float,
                         x: float) -> float:
    """log a0(x): the log of the leading radial WKB amplitude (x > 0),
    normalised to x^(2m) near 0."""
    if x <= 0.0:
        raise ValueError(f"radial prefactor needs x > 0, got {x}")
    return _log_amplitude(profile, 2 * m, 2 * m + 1 + nu, x)
