"""Tunnelling distance phi and the WKB transport prefactor a0.

Reference values for the quartic well were produced with 50-digit
arithmetic (hypergeometric-free: straight quadrature of the closed-form
integrands at dps=50) and are frozen here to full double precision.
"""

import math

import pytest
from scipy.integrate import quad

from boxshift import (
    AgmonProfile, QuadratureError, agmon_distance, from_expression, harmonic,
    quartic,
)
from boxshift.agmon import (
    adaptive_quadrature, wkb_prefactor_line, wkb_prefactor_radial,
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
    """The phi' callable against central differences of phi itself."""
    profile = AgmonProfile(quartic())
    for x in (0.3, 0.8, 1.4, -0.8):
        d = 1e-6
        fd1 = (profile.phi(x + d) - profile.phi(x - d)) / (2 * d)
        assert profile.phi_prime(x) == pytest.approx(fd1, rel=1e-7)


HUMP = "10*x^2*exp(-x^2) + 0.001*x^2"


@pytest.mark.parametrize("target", [2.0, 2.8, 3.0])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["right", "left"])
def test_phi_reaches_its_target_past_a_hump_in_the_potential(target, side):
    # V peaks near |x| = 1 and then sinks, so phi' is small past the hump.
    # Out from the bottom the walk reaches the target from below; in from
    # |x| = 4, where phi is 3.26, a Newton step would leave the bracket, and
    # the walk must bisect instead.  The carried phi and a full quadrature
    # differ by ulps, which the walk's margin above the target absorbs.
    profile = AgmonProfile(from_expression(HUMP))
    far = side * 4.0
    for x, phi_x in (profile.reach(target, side),
                     profile.reach(target, side, 4.0, profile.phi(far))):
        assert math.copysign(1.0, x) == side
        assert target <= profile.phi(x) <= target * (1.0 + 1e-6)
        assert phi_x == pytest.approx(profile.phi(x), rel=1e-12)


@pytest.mark.parametrize("source, kind, side", [
    ("x^2 + x^4", "line", 1.0),
    ("x^2 + 0.3*x^3 + x^4", "line", 1.0),
    ("x^2 + 0.3*x^3 + x^4", "line", -1.0),
    (HUMP, "line", 1.0),
    ("x^2 + x^4", "radial", 1.0),
], ids=["quartic", "asymmetric-right", "asymmetric-left", "hump",
        "radial-quartic"])
@pytest.mark.parametrize("h", [0.2, 0.05])
def test_reach_walks_out_from_the_wall_and_back_in(source, kind, side, h):
    # The decaying start's search: out from the wall at |x| = 1 to
    # phi(1) + 17.5h, then in from there to phi(1) + 7h, the margin leg's
    # split (spectra.unconfined_eigenvalue); and from the bottom to 17.5h.
    profile = AgmonProfile(from_expression(source, kind=kind))
    base = profile.phi(side)
    start, phi_start = profile.reach(base + 17.5 * h, side, 1.0, base)
    split, _ = profile.reach(base + 7.0 * h, side, abs(start), phi_start)
    free, _ = profile.reach(17.5 * h, side)
    for x, target in ((start, base + 17.5 * h), (split, base + 7.0 * h),
                      (free, 17.5 * h)):
        assert math.copysign(1.0, x) == side
        assert target <= profile.phi(x) <= target * (1.0 + 1e-6)
    assert 1.0 < abs(split) < abs(start)


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


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("x", [-0.6, 0.6, 1.0, -1.0, 1.7, -1.7])
def test_cosh_line_prefactor_closed_form(m, x):
    """V = cosh(x) - 1 has omega = 1/sqrt(2) and phi' = sgn(x) sqrt(2)
    sinh(|x|/2), so K(x) = ln(4 tanh(|x|/4)/|x|) and
    a0 = |x|^m (4 tanh(|x|/4)/|x|)^(m+1/2) (|x|/(2 sinh(|x|/2)))^(1/2).
    The tolerance allows for cosh(t) - 1 losing digits near t = 0."""
    r = abs(x)
    want = r ** m * (4.0 * math.tanh(r / 4.0) / r) ** (m + 0.5) \
        * math.sqrt(r / (2.0 * math.sinh(r / 2.0)))
    assert a0_line(from_expression("cosh(x) - 1"), m, x) == \
        pytest.approx(want, rel=1e-8)


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
