"""Leading-order predictions for the Dirichlet confinement shift.

The quantities assembled here make the statement "confinement raises the
level by an exponentially small amount" quantitative:

    line:     shift = h^(1/2-m) * sum over walls of exp(-2 phi(r)/h) * s0(r)
              s0(r) = 2^(m+1)/(m! sqrt(pi)) * omega^(m+1/2) * sqrt(V(r)) * a0(r)^2
    radial:   shift = h^(-nu-2m) * exp(-2 phi(L)/h) * s0
              s0    = 4 sqrt(W(L)) / (Gamma(1+m+nu) m!)
                      * omega^(2m+1+nu) * L^(1+2nu) * a0(L)^2

together with the closed forms these reduce to for the stock wells (pure
harmonic on the line and radially, and the confined Coulomb problem), which
serve as independent cross-checks of the general evaluators.

Everything is computed in log space first: sweeps deliberately run into
exp(-2 phi/h) ranges far below double-precision underflow, so each
prediction carries both a plain value (0.0 once underflowed) and its
natural log.  Gamma(1+m+nu), the line terms' 2^(m+1)/m! and the factorials
of the radial and Coulomb terms enter as math.lgamma, logs of powers of 2
and the log of the exact math.factorial, which stay finite where Gamma,
m! or 2^m themselves overflow a double (from 171 on).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .agmon import AgmonProfile, wkb_prefactor_line, wkb_prefactor_radial
from .errors import InvalidPotential
from .potentials import LineBox, PotentialSpec
from .shooting import ModeSpec
from .spectra import HydrogenSpec

_LOG2 = math.log(2.0)
_LOG_PI = math.log(math.pi)

# --------------------------------------------------------------------------
# Prediction containers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EndpointTerm:
    position: float
    value: float       # 0.0 when underflowed; see log_value
    log_value: float


@dataclass(frozen=True)
class ShiftPrediction:
    """Leading confinement-shift value with its log-space decomposition.

    ``exponent`` is the decay rate actually multiplying the dominant term
    (2 phi/h, or z R/(n h^2) for hydrogen); ``prefactor_power`` is the
    power of h in front.
    """

    leading_value: float
    log_leading_value: float
    exponent: float
    prefactor_power: float
    per_endpoint: tuple[EndpointTerm, EndpointTerm] | None = None


def _from_log(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


# --------------------------------------------------------------------------
# General evaluators (line and radial wells)
# --------------------------------------------------------------------------


def shift_leading_line(p: PotentialSpec, domain: LineBox,
                       mode: ModeSpec) -> ShiftPrediction:
    """Leading confinement shift for a line well on (r-, r+)."""
    m, h = mode.level, mode.h
    omega = p.curvature_omega
    profile = AgmonProfile(p, domain=domain)
    base_log = (0.5 - m) * math.log(h) \
        + (m + 1) * _LOG2 - math.lgamma(m + 1.0) - 0.5 * _LOG_PI \
        + (m + 0.5) * math.log(omega)

    terms = []
    for r in (domain.left, domain.right):
        v = p.evaluate(r)
        if v <= 0.0:
            raise InvalidPotential(
                f"wall at x={r:g} is not inside the barrier (V={v:g})")
        a0 = wkb_prefactor_line(profile, m, r)
        log_term = base_log + 0.5 * math.log(v) + 2.0 * math.log(a0) \
            - 2.0 * profile.phi(r) / h
        terms.append(EndpointTerm(position=r, value=_from_log(log_term),
                                  log_value=log_term))

    total_log = float(np.logaddexp(terms[0].log_value, terms[1].log_value))
    dominant_phi = min(profile.phi(domain.left), profile.phi(domain.right))
    return ShiftPrediction(
        leading_value=_from_log(total_log),
        log_leading_value=total_log,
        exponent=2.0 * dominant_phi / h,
        prefactor_power=0.5 - m,
        per_endpoint=(terms[0], terms[1]),
    )


def shift_leading_radial(w: PotentialSpec, L: float,
                         mode: ModeSpec) -> ShiftPrediction:
    """Leading confinement shift for a radial well boxed at L."""
    if mode.nu is None:
        raise InvalidPotential("radial shift prediction needs mode.nu")
    m, h, nu = mode.level, mode.h, mode.nu
    omega = w.curvature_omega
    profile = AgmonProfile(w)
    wL = w.evaluate(L)
    if wL <= 0.0:
        raise InvalidPotential(f"wall at x={L:g} is not inside the barrier (W={wL:g})")
    a0 = wkb_prefactor_radial(profile, m, nu, L)
    log_value = (-nu - 2 * m) * math.log(h) - 2.0 * profile.phi(L) / h \
        + math.log(4.0) + 0.5 * math.log(wL) \
        - math.lgamma(1.0 + m + nu) - math.log(math.factorial(m)) \
        + (2 * m + 1 + nu) * math.log(omega) + (1.0 + 2.0 * nu) * math.log(L) \
        + 2.0 * math.log(a0)
    return ShiftPrediction(
        leading_value=_from_log(log_value),
        log_leading_value=log_value,
        exponent=2.0 * profile.phi(L) / h,
        prefactor_power=-nu - 2 * m,
    )


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


def hydrogen_shift_term(spec: HydrogenSpec) -> ShiftPrediction:
    """Closed-form shift of the boxed Coulomb level E_n(R) - E_n."""
    n, ell, z, h, R = spec.n, spec.ell, spec.z, spec.h, spec.r_box
    log_value = (2 * n + 1) * math.log(2.0) + (-4 * n - 2) * math.log(h) \
        + 2 * n * math.log(R) \
        - (2 * n + 3) * math.log(n) \
        - math.log(math.factorial(n - ell - 1)) \
        - math.log(math.factorial(n + ell)) \
        + (2 * n + 2) * math.log(z / 2.0) \
        - z * R / (n * h * h)
    return ShiftPrediction(leading_value=_from_log(log_value),
                           log_leading_value=log_value,
                           exponent=z * R / (n * h * h),
                           prefactor_power=-4 * n - 2)


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
