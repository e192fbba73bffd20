"""Leading-order predictions for the Dirichlet confinement shift.

The quantities assembled here make the statement "confinement raises the
level by an exponentially small amount" quantitative:

    line:     shift = h^(1/2-m) * sum over walls of exp(-2 phi(r)/h) * s0(r)
              s0(r) = 2^(m+1)/(m! sqrt(pi)) * omega^(m+1/2) * sqrt(V(r)) * a0(r)^2
    radial:   shift = h^(-nu-2m) * exp(-2 phi(L)/h) * s0
              s0    = 4 sqrt(W(L)) / (Gamma(1+m+nu) m!)
                      * omega^(2m+1+nu) * L^(1+2nu) * a0(L)^2

together with the closed-form shift of the boxed Coulomb problem, which
``report`` compares with the measured Coulomb shift.  The closed forms of
the pure harmonic wells, which cross-check the general evaluators, live
with the tests (``tests/crosschecks.py``).

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
from dataclasses import dataclass

from .agmon import AgmonProfile, wkb_prefactor_line, wkb_prefactor_radial
from .errors import InvalidPotential
from .potentials import LineBox, PotentialSpec
from .scaled import logaddexp
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
    profile = AgmonProfile(p)
    base_log = (0.5 - m) * math.log(h) \
        + (m + 1) * _LOG2 - math.lgamma(m + 1.0) - 0.5 * _LOG_PI \
        + (m + 0.5) * math.log(omega)

    terms = []
    for r in (domain.left, domain.right):
        v = p.evaluate(r)
        if v <= 0.0:
            raise InvalidPotential(
                f"wall at x={r:g} is not inside the barrier (V={v:g})")
        log_a0 = wkb_prefactor_line(profile, m, r)
        log_term = base_log + 0.5 * math.log(v) + 2.0 * log_a0 \
            - 2.0 * profile.phi(r) / h
        terms.append(EndpointTerm(position=r, value=_from_log(log_term),
                                  log_value=log_term))

    total_log = logaddexp(terms[0].log_value, terms[1].log_value)
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
    log_a0 = wkb_prefactor_radial(profile, m, nu, L)
    log_value = (-nu - 2 * m) * math.log(h) - 2.0 * profile.phi(L) / h \
        + math.log(4.0) + 0.5 * math.log(wL) \
        - math.lgamma(1.0 + m + nu) - math.log(math.factorial(m)) \
        + (2 * m + 1 + nu) * math.log(omega) + (1.0 + 2.0 * nu) * math.log(L) \
        + 2.0 * log_a0
    return ShiftPrediction(
        leading_value=_from_log(log_value),
        log_leading_value=log_value,
        exponent=2.0 * profile.phi(L) / h,
        prefactor_power=-nu - 2 * m,
    )


# --------------------------------------------------------------------------
# Boxed Coulomb problem
# --------------------------------------------------------------------------


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
