"""Tunnelling distance phi and the WKB transport prefactor a0.

Reference values for the quartic well were produced with 50-digit
arithmetic (hypergeometric-free: straight quadrature of the closed-form
integrands at dps=50) and are frozen here to full double precision.
"""

import math

import pytest
from scipy.integrate import quad

from boxshift import (
    AgmonProfile, LineBox, QuadratureError, agmon_distance, from_expression,
    harmonic, quartic,
)
from boxshift.agmon import (
    adaptive_quadrature, radial_transport_regular_part, transport_regular_part,
    wkb_prefactor_line, wkb_prefactor_radial,
)

# phi(1) for V = x^2 + x^4: int_0^1 x*sqrt(1+x^2) dx = (2^1.5 - 1)/3.
QUARTIC_PHI_1 = 0.60947570824873003
# a0(1) for the quartic well, 50-digit quadrature of the transport equation.
QUARTIC_A0_LINE = {0: 0.76536686473017954, 1: 0.63405067112442885}
QUARTIC_A0_RADIAL = {(0, 0.5): 0.63405067112442885, (1, 1.5): 0.36048475046919381}


# -- adaptive quadrature --------------------------------------------------------

def test_quadrature_polynomial_is_exact():
    # The 21-point Gauss-Kronrod rule integrates degree 31 exactly; QUADPACK's
    # pessimistic error estimate must not turn the exact value into a failure.
    got = adaptive_quadrature(lambda t: t ** 8 - 3 * t ** 2, 0.0, 2.0)
    assert got == pytest.approx(2.0 ** 9 / 9 - 8.0, rel=1e-14)


def test_quadrature_matches_scipy_on_oscillatory_integrand():
    f = lambda t: math.sin(7.0 * t) ** 2 * math.exp(-t)  # noqa: E731
    want, _ = quad(f, 0.0, 3.0, epsabs=1e-13, epsrel=1e-13)
    got = adaptive_quadrature(f, 0.0, 3.0)
    assert got == pytest.approx(want, abs=1e-11)
    # sin^2 = (1 - cos 14t)/2, and int_0^3 e^-t cos 14t dt in closed form.
    e3 = math.exp(-3.0)
    exact = 0.5 * (1.0 - e3) \
        - 0.5 * (1.0 + e3 * (14.0 * math.sin(42.0) - math.cos(42.0))) / 197.0
    assert got == pytest.approx(exact, rel=1e-12)


def test_quadrature_budget_guard():
    # A non-integrable singularity exhausts QUADPACK's subdivision budget.
    with pytest.raises(QuadratureError, match="subdivisions"):
        adaptive_quadrature(
            lambda t: 1.0 / abs(t - 0.3) if t != 0.3 else 1e308, 0.0, 1.0)


# -- phi --------------------------------------------------------------------------

def test_harmonic_phi_is_half_x_squared():
    p = harmonic()
    for x in (0.25, 1.0, -1.0, 2.0, -0.5):
        assert agmon_distance(p, x) == pytest.approx(0.5 * x * x, rel=1e-12)


def test_quartic_phi_frozen_value():
    assert agmon_distance(quartic(), 1.0) == pytest.approx(QUARTIC_PHI_1, rel=1e-12)
    assert agmon_distance(quartic(), -1.0) == pytest.approx(QUARTIC_PHI_1, rel=1e-12)


@pytest.mark.parametrize("source", ["x^2 + 0.25*x^4", "cosh(x) - 1", "x^2 + sin(x)^2"])
@pytest.mark.parametrize("x", [0.4, 1.0, 1.7])
def test_phi_matches_scipy_quad(source, x):
    """sqrt(V) integrated directly by QUADPACK, past the near-origin guard."""
    p = from_expression(source)
    want, err = quad(lambda t: math.sqrt(p.evaluate(t)), 0.0, x,
                     epsabs=1e-13, epsrel=1e-13)
    assert agmon_distance(p, x) == pytest.approx(want, abs=max(1e-11, 10 * err))


def test_cosh_phi_closed_form():
    # sqrt(cosh t - 1) = sqrt(2)*sinh(t/2), so phi(x) = 2*sqrt(2)*(cosh(x/2)-1).
    p = from_expression("cosh(x) - 1")
    for x in (0.5, 1.0, 2.0):
        want = 2.0 * math.sqrt(2.0) * (math.cosh(0.5 * x) - 1.0)
        assert agmon_distance(p, x) == pytest.approx(want, rel=1e-12)


def test_phi_rejects_negative_potential():
    p = from_expression("x^2 - x^4")  # turns over beyond |x| = 1
    with pytest.raises(QuadratureError):
        agmon_distance(p, 1.5)


def test_profile_derivative_consistency():
    """phi' and phi'' callables against central differences of phi itself."""
    profile = AgmonProfile(quartic())
    for x in (0.3, 0.8, 1.4):
        d = 1e-6
        fd1 = (profile.phi(x + d) - profile.phi(x - d)) / (2 * d)
        assert profile.phi_prime(x) == pytest.approx(fd1, rel=1e-7)
        fd2 = (profile.phi_prime(x + d) - profile.phi_prime(x - d)) / (2 * d)
        assert profile.phi_second(x) == pytest.approx(fd2, rel=1e-6)


def test_profile_phi_second_at_origin_is_omega():
    assert AgmonProfile(quartic()).phi_second(0.0) == pytest.approx(1.0, rel=1e-12)
    p = from_expression("cosh(x) - 1")
    assert AgmonProfile(p).phi_second(0.0) == pytest.approx(math.sqrt(0.5), rel=1e-10)


def test_profile_warns_far_outside_domain():
    profile = AgmonProfile(harmonic(), domain=LineBox(-1.0, 1.0))
    profile.phi(1.2)  # within the 25% margin: fine
    with pytest.warns(RuntimeWarning, match="outside"):
        profile.phi(3.0)


# -- transport prefactor -----------------------------------------------------------

# wkb_prefactor_* return log a0; these give a0 itself.
def a0_line(p, m, x):
    return math.exp(wkb_prefactor_line(AgmonProfile(p), m, x))


def a0_radial(w, m, nu, x):
    return math.exp(wkb_prefactor_radial(AgmonProfile(w), m, nu, x))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("x", [0.3, 1.0, 1.8])
def test_harmonic_line_prefactor_is_power(m, x):
    # For V = x^2 the transport equation is solved exactly by |x|^m.
    assert a0_line(harmonic(), m, x) == pytest.approx(abs(x) ** m, rel=1e-11)
    assert a0_line(harmonic(), m, -x) == pytest.approx(x ** m, rel=1e-11)


@pytest.mark.parametrize("m,nu", [(0, 0.5), (1, 0.5), (0, 1.5), (2, 2.5)])
def test_harmonic_radial_prefactor_is_power(m, nu):
    for x in (0.4, 1.0, 1.6):
        got = a0_radial(harmonic(kind="radial"), m, nu, x)
        assert got == pytest.approx(x ** (2 * m), rel=1e-11)


def test_harmonic_regular_part_vanishes():
    profile = AgmonProfile(harmonic())
    for t in (0.2, 0.9, 1.5):
        assert transport_regular_part(profile, 2, t) == pytest.approx(0.0, abs=1e-12)
    radial = AgmonProfile(harmonic(kind="radial"))
    for t in (0.2, 0.9, 1.5):
        assert radial_transport_regular_part(radial, 1, 1.5, t) == \
            pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m,want", sorted(QUARTIC_A0_LINE.items()))
def test_quartic_line_prefactor_frozen(m, want):
    assert a0_line(quartic(), m, 1.0) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("m,nu", sorted(QUARTIC_A0_RADIAL))
def test_quartic_radial_prefactor_frozen(m, nu):
    want = QUARTIC_A0_RADIAL[(m, nu)]
    got = a0_radial(quartic(kind="radial"), m, nu, 1.0)
    assert got == pytest.approx(want, rel=1e-11)


def test_half_integer_nu_reduces_to_odd_line_sector():
    """nu = 1/2 radial transport equals the line transport one level up:
    a0_radial(m, 1/2; x) * x corresponds to the line a0 at level 2m+1,
    so the regular parts integrate to the same value."""
    w = quartic(kind="radial")
    p = quartic()
    got = a0_radial(w, 0, 0.5, 1.0)
    want = a0_line(p, 1, 1.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_prefactor_positive_and_origin_normalised():
    p = from_expression("x^2 + 0.5*x^4")
    for m in (0, 1, 2):
        a = a0_line(p, m, 1.3)
        assert a > 0.0
    assert a0_line(p, 0, 0.0) == 1.0
    assert a0_line(p, 1, 0.0) == 0.0


def test_radial_prefactor_needs_positive_x():
    with pytest.raises(ValueError):
        a0_radial(quartic(kind="radial"), 0, 0.5, -1.0)
