"""Independent routes the tests check the package against.

None of these is on the measured path: no subcommand, report or benchmark
calls them.  They live here, outside the installed package, and pytest does
not collect this module (its name does not start with ``test_``).

* Closed forms of the leading shift for the stock wells: the pure harmonic
  well on the line and radially, and the boxed Coulomb problem.  The
  general quadrature evaluators of ``boxshift.asymptotics`` must reduce to
  them.
* ``hydrogen_confined_via_oscillator``: the boxed Coulomb level through the
  quadratic change of variables onto the radial oscillator, a second route
  to ``spectra.hydrogen_confined``.
* ``normalize_to_unit_curvature``: the rescaling of x to V''(0) = 2, under
  which the Dirichlet spectrum and the predicted shift must not move.
* Exact Dirichlet levels in mpmath: the boxed harmonic from parabolic
  cylinder functions (``exact_harmonic_shift``) and the boxed Coulomb
  problem from the confluent hypergeometric function
  (``exact_coulomb_level``).  Each takes the mpmath module, which the
  tests import or skip.
"""

from __future__ import annotations

import math
import warnings

from scipy.optimize import brentq

from boxshift import (
    Domain, Eigenpair, HydrogenSpec, InvalidPotential, LineBox, ModeSpec,
    PotentialSpec, RadialBox, SolverError, ShiftPrediction,
    confined_eigenvalue, harmonic,
)
from boxshift.asymptotics import _from_log, hydrogen_shift_term

_LOG2 = math.log(2.0)
_LOG_PI = math.log(math.pi)
_BRACKET_ROUNDS = 25  # upper-bound growths by 1.5 in the oscillator map


# --------------------------------------------------------------------------
# Closed forms for the stock wells
# --------------------------------------------------------------------------


def ho_shift_term(mode: ModeSpec, R: float) -> ShiftPrediction:
    """Shift term of the boxed harmonic line well V = x^2 on (-R, R)."""
    m, h = mode.level, mode.h
    log_value = (0.5 - m) * math.log(h) \
        + (m + 2) * _LOG2 - math.lgamma(m + 1.0) - 0.5 * _LOG_PI \
        + (2 * m + 1) * math.log(R) - R * R / h
    return ShiftPrediction(leading_value=_from_log(log_value),
                           log_leading_value=log_value,
                           exponent=R * R / h, prefactor_power=0.5 - m)


def ho_confined_closed_form(mode: ModeSpec, R: float) -> float:
    """Boxed harmonic line level: (2m+1) h + the closed-form shift term."""
    if mode.h >= R * R:
        warnings.warn(
            f"R^2/h = {R * R / mode.h:g} is not large; the closed form's "
            "relative error O(h/R^2) is uncontrolled here",
            RuntimeWarning, stacklevel=2)
    return (2 * mode.level + 1) * mode.h + ho_shift_term(mode, R).leading_value


def iso_ho_shift_term(mode: ModeSpec, L: float) -> ShiftPrediction:
    """Shift term of the boxed radial harmonic well W = x^2 on (0, L)."""
    if mode.nu is None:
        raise InvalidPotential("radial closed form needs mode.nu")
    m, h, nu = mode.level, mode.h, mode.nu
    log_value = math.log(4.0) + (-2 * m - nu) * math.log(h) \
        + 2.0 * (2 * m + 1 + nu) * math.log(L) - L * L / h \
        - math.log(math.factorial(m)) - math.lgamma(1.0 + m + nu)
    return ShiftPrediction(leading_value=_from_log(log_value),
                           log_leading_value=log_value,
                           exponent=L * L / h, prefactor_power=-2 * m - nu)


def iso_ho_confined_closed_form(mode: ModeSpec, L: float) -> float:
    """Boxed radial harmonic level: 2(2m+1+nu) h + closed-form shift term."""
    if mode.nu is None:
        raise InvalidPotential("radial closed form needs mode.nu")
    if mode.h >= L * L:
        warnings.warn(
            f"L^2/h = {L * L / mode.h:g} is not large; the closed form's "
            "relative error O(h/L^2) is uncontrolled here",
            RuntimeWarning, stacklevel=2)
    return 2.0 * (2 * mode.level + 1 + mode.nu) * mode.h \
        + iso_ho_shift_term(mode, L).leading_value


def hydrogen_confined_closed_form(spec: HydrogenSpec) -> float:
    """Boxed Coulomb level E_n(R) = E_n + the closed-form shift term."""
    if spec.h ** 2 >= 0.25 * spec.r_box:
        warnings.warn(
            f"h^2/R = {spec.h ** 2 / spec.r_box:g} is not small; the closed "
            "form's relative error O(h^2/R) is uncontrolled here",
            RuntimeWarning, stacklevel=2)
    return spec.energy_unconfined + hydrogen_shift_term(spec).leading_value


def hydrogen_wavenumber_closed_form(spec: HydrogenSpec) -> float:
    """k(R): the shifted wavenumber of the boxed z=2 Coulomb problem.

    The boxed level satisfies E_n(R) = -1/k(R)^2 in the z=2 normalisation;
    expanding that relation around k = n h reproduces hydrogen_shift_term,
    which the tests verify as an algebraic identity.  Only z=2 is supported:
    for other charges rescale first (E and R transform, k is a z=2 object).
    """
    if spec.z != 2.0:
        raise InvalidPotential(
            f"the wavenumber form is defined in the z=2 normalisation, got z={spec.z:g}")
    n, ell, h, R = spec.n, spec.ell, spec.h, spec.r_box
    log_delta = 2 * n * math.log(2.0) + (-4 * n + 1) * math.log(h) \
        + 2 * n * math.log(R) - 2 * n * math.log(n) \
        - math.log(math.factorial(n - ell - 1)) \
        - math.log(math.factorial(n + ell)) \
        - 2.0 * R / (n * h * h)
    return n * h + _from_log(log_delta)


# --------------------------------------------------------------------------
# Confined hydrogen through the radial oscillator
# --------------------------------------------------------------------------


def hydrogen_confined_via_oscillator(spec: HydrogenSpec, *,
                                     rtol: float = 1e-12) -> Eigenpair:
    """E_n(R) through the quadratic change of variables.

    The z=2 Coulomb problem in a box R is equivalent to a radial harmonic
    problem with angular parameter 2*ell+1 in a box L = sqrt(2R/k), where
    the oscillator eigenvalue is 4k and E = -1/k^2; general z is rescaled
    onto z=2 first.  Since L itself depends on k, the defining condition
    is the scalar root  lambda_osc(L(k)) = 4k.  Plain self-iteration cycles
    once the wall does real work (its derivative passes 1), so the root is
    bracketed and bisected: k = n*h from below -- the Dirichlet wall only
    raises the level -- and an expanding upper bound from above, where the
    shrinking box makes the level grow only sublinearly in k.
    """
    r2 = spec.z * spec.r_box / 2.0  # box radius of the equivalent z=2 problem
    n, ell, h, m = spec.n, spec.ell, spec.h, spec.level
    nu_osc = 2.0 * ell + 1.0
    well = harmonic(kind="radial")
    evals = {"count": 0, "pair": None}

    def mismatch(k: float) -> float:
        L = math.sqrt(2.0 * r2 / k)
        pair = confined_eigenvalue(
            well, RadialBox(L), ModeSpec(level=m, h=h, nu=nu_osc),
            lam0=max(4.0 * k, 4.0 * n * h), rtol=rtol)
        evals["count"] += 1
        evals["pair"] = pair
        return pair.value - 4.0 * k

    k_lo = n * h
    if mismatch(k_lo) <= 0.0:  # wall effect below resolution: free value
        k = k_lo
    else:
        k_hi = 1.5 * k_lo
        for _ in range(_BRACKET_ROUNDS):
            if mismatch(k_hi) < 0.0:
                break
            k_hi *= 1.5
        else:
            raise SolverError(
                "could not bracket the oscillator-map matching condition "
                f"(n={n}, ell={ell}, box={spec.r_box:g})")
        k = float(brentq(mismatch, k_lo, k_hi, xtol=1e-13 * n * h))
    energy = -(spec.z ** 2 / 4.0) / (k * k)
    pair = evals["pair"]
    return Eigenpair(index_m=m, value=energy, method="shooting",
                     iterations=evals["count"], nodes=pair.nodes)


# --------------------------------------------------------------------------
# Unit-curvature rescaling
# --------------------------------------------------------------------------


def normalize_to_unit_curvature(
    p: PotentialSpec, domain: Domain, h: float
) -> tuple[PotentialSpec, Domain, float]:
    """Rescale x so the well has V''(0) = 2, mapping (domain, h) along.

    Eigenvalues of the Dirichlet problem are unchanged.  Already-normalised
    input is returned untouched, so applying twice equals applying once.
    """
    omega = p.curvature_omega
    if abs(omega - 1.0) <= 1e-14:
        return p, domain, h
    s = 1.0 / omega  # V~(x) = V(s*x)

    ev, d2 = p.evaluate, p.derivative2
    scaled = PotentialSpec(
        kind=p.kind,
        evaluate=lambda x: ev(s * x),
        derivative2=(lambda x: s * s * d2(s * x)) if d2 is not None else None,
        label=f"unit-curvature[{p.label}]",
    )
    if isinstance(domain, LineBox):
        new_domain: Domain = LineBox(omega * domain.left, omega * domain.right)
    else:
        new_domain = RadialBox(omega * domain.length)
    return scaled, new_domain, omega * h


# --------------------------------------------------------------------------
# Exact Dirichlet levels (mpmath)
# --------------------------------------------------------------------------


def exact_harmonic_shift(mpmath, h: float, m: int) -> float:
    """lambda_D - (2m+1)h for x^2 on (-1, 1), m <= 1, from the Dirichlet
    root of U(a, t) +- U(a, -t) at t = sqrt(2/h), a = -lambda/(2h).  The
    root sits e^(-1/h)-close to a = -(2m+1)/2, so the working precision
    grows with 1/h (80 digits at least)."""
    digits = max(80, 30 + int(1.0 / (h * math.log(10.0))))
    with mpmath.workdps(digits):
        t0 = mpmath.sqrt(2 / mpmath.mpf(h))
        a0 = -mpmath.mpf(2 * m + 1) / 2
        parity = 1 if m % 2 == 0 else -1

        def wall_value(delta):
            a = a0 - delta
            return mpmath.pcfu(a, t0) + parity * mpmath.pcfu(a, -t0)

        delta = mpmath.findroot(
            wall_value, (mpmath.mpf(0), mpmath.mpf(10) ** (-digits // 2)),
            solver="secant")
        return float(2 * mpmath.mpf(h) * delta)


def exact_coulomb_level(mpmath, spec: HydrogenSpec, near: float):
    """The boxed Coulomb level of ``spec`` as an mpmath number (60 digits),
    the root of 1F1(ell + 1 - kappa; 2 ell + 2; 2kR) = 0 with
    k = sqrt(-lambda)/h and kappa = z/(2kh^2): the solution regular at the
    origin, x^(ell+1) e^(-kx) 1F1(...), vanishes at the wall.  The root is
    bracketed at (0.3, 3) times ``near`` - E_n from E_n, ``near`` a level
    with that shift to within a factor of 3."""
    with mpmath.workdps(60):
        h, z = mpmath.mpf(spec.h), mpmath.mpf(spec.z)
        e_n = -z * z / (4 * spec.n ** 2 * h * h)
        shift = mpmath.mpf(near) - e_n

        def wall_value(lam):
            k = mpmath.sqrt(-lam) / h
            return mpmath.hyp1f1(spec.ell + 1 - z / (2 * k * h * h),
                                 2 * spec.ell + 2, 2 * k * spec.r_box)

        return mpmath.findroot(wall_value, (e_n + shift * 0.3, e_n + shift * 3),
                               solver="anderson")
