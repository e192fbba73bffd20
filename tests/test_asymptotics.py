"""Leading-order shift predictions: the general quadrature-based
evaluators, the stock-well closed forms, the algebraic identities tying
them together, and their logs where Gamma and k! overflow a double.

The quartic reference shifts were assembled at 50 digits (quadrature of the
tunnelling integrand and of the transport equation's regular part, then the
explicit prefactor) and frozen here; the evaluator must land within 1e-11,
three orders above its own quadrature tolerance.
"""

import math

import pytest

from boxshift import (
    HydrogenSpec, InvalidPotential, LineBox, ModeSpec, from_expression,
    harmonic, quartic, shift_leading_line, shift_leading_radial,
)
from boxshift.asymptotics import hydrogen_shift_term
from crosschecks import (
    ho_confined_closed_form, ho_shift_term, hydrogen_confined_closed_form,
    hydrogen_wavenumber_closed_form, iso_ho_confined_closed_form,
    iso_ho_shift_term, normalize_to_unit_curvature,
)

BOX = LineBox(-1.0, 1.0)

# V = x^2 + x^4 on (-1, 1), 50-digit assembly.
QUARTIC_LINE_SHIFTS = {
    (0, 0.2): 1.8851026054412078e-3,
    (0, 0.05): 1.0803062523657181e-11,
    (1, 0.2): 1.2937298966559855e-2,
    (1, 0.05): 2.9656199979688676e-10,
}
# W = x^2 + x^4 on (0, 1).
QUARTIC_RADIAL_SHIFTS = {
    (0, 0.5): 4.1251452276461229e-5,
    (1, 1.5): 3.5557714364543941e-3,
}


# -- general evaluator vs closed forms (same well, independent code paths) -------

@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("R", [1.0, 1.3])
def test_line_evaluator_matches_harmonic_closed_form(m, R):
    mode = ModeSpec(level=m, h=0.2)
    general = shift_leading_line(harmonic(), LineBox(-R, R), mode)
    closed = ho_shift_term(mode, R)
    assert general.leading_value == pytest.approx(closed.leading_value, rel=1e-10)
    assert general.exponent == pytest.approx(closed.exponent, rel=1e-12)
    assert general.prefactor_power == closed.prefactor_power


@pytest.mark.parametrize("m,nu", [(0, 0.5), (1, 0.5), (0, 1.5), (2, 3.0)])
@pytest.mark.parametrize("L", [1.0, 1.2])
def test_radial_evaluator_matches_harmonic_closed_form(m, nu, L):
    mode = ModeSpec(level=m, h=0.2, nu=nu)
    general = shift_leading_radial(harmonic(kind="radial"), L, mode)
    closed = iso_ho_shift_term(mode, L)
    assert general.leading_value == pytest.approx(closed.leading_value, rel=1e-10)
    assert general.exponent == pytest.approx(closed.exponent, rel=1e-12)


@pytest.mark.parametrize("m,h", sorted(QUARTIC_LINE_SHIFTS))
def test_quartic_line_shift_frozen(m, h):
    got = shift_leading_line(quartic(), BOX, ModeSpec(level=m, h=h))
    assert got.leading_value == pytest.approx(QUARTIC_LINE_SHIFTS[(m, h)], rel=1e-11)


@pytest.mark.parametrize("m,nu", sorted(QUARTIC_RADIAL_SHIFTS))
def test_quartic_radial_shift_frozen(m, nu):
    got = shift_leading_radial(quartic(kind="radial"), 1.0,
                               ModeSpec(level=m, h=0.1, nu=nu))
    assert got.leading_value == pytest.approx(QUARTIC_RADIAL_SHIFTS[(m, nu)], rel=1e-11)


def test_asymmetric_walls_decompose_per_endpoint():
    """On (-1, 2) with V = x^2, each wall's term has an elementary closed
    form; the near wall dominates by e^(2*(phi(2)-phi(1))/h) = e^12."""
    h = 0.25
    pred = shift_leading_line(harmonic(), LineBox(-1.0, 2.0), ModeSpec(level=0, h=h))
    c = 2.0 / math.sqrt(math.pi)
    left_want = math.sqrt(h) * c * 1.0 * math.exp(-1.0 / h)
    right_want = math.sqrt(h) * c * 2.0 * math.exp(-4.0 / h)
    left, right = pred.per_endpoint
    assert left.position == -1.0 and right.position == 2.0
    assert left.value == pytest.approx(left_want, rel=1e-12)
    assert right.value == pytest.approx(right_want, rel=1e-12)
    assert pred.leading_value == pytest.approx(left.value + right.value, rel=1e-14)
    # Decay rate reported for the dominant (nearer) wall.
    assert pred.exponent == pytest.approx(2.0 * 0.5 / h, rel=1e-12)


def test_half_integer_nu_shift_identity():
    """nu = 1/2 closed forms: the radial level m equals the odd line level
    2m+1 on the doubled box, so the shift constants coincide through
    Gamma(m + 3/2) = (2m+1)! sqrt(pi) / (4^m m!)."""
    for m, h, L in ((0, 0.1, 1.0), (1, 0.1, 1.0), (2, 0.25, 1.3)):
        rad = iso_ho_shift_term(ModeSpec(level=m, h=h, nu=0.5), L)
        lin = ho_shift_term(ModeSpec(level=2 * m + 1, h=h), L)
        assert rad.leading_value == pytest.approx(lin.leading_value, rel=1e-13)
    # and for a non-harmonic well through the quadrature evaluators
    rad = shift_leading_radial(quartic(kind="radial"), 1.0,
                               ModeSpec(level=1, h=0.1, nu=0.5))
    lin = shift_leading_line(quartic(), BOX, ModeSpec(level=3, h=0.1))
    assert rad.leading_value == pytest.approx(lin.leading_value, rel=1e-11)


def test_prediction_invariant_under_curvature_normalisation():
    """Rescaling x to make V''(0) = 2 leaves the Dirichlet spectrum alone,
    so the predicted shift must not move either."""
    p = from_expression("2*x^2 + x^4")
    mode = ModeSpec(level=0, h=0.12)
    base = shift_leading_line(p, BOX, mode)
    q, dom, h2 = normalize_to_unit_curvature(p, BOX, mode.h)
    mapped = shift_leading_line(q, dom, ModeSpec(level=0, h=h2))
    assert mapped.leading_value == pytest.approx(base.leading_value, rel=1e-9)


# -- log-space behaviour far below underflow --------------------------------------

def test_underflowed_shift_keeps_its_log():
    pred = shift_leading_line(harmonic(), BOX, ModeSpec(level=0, h=0.001))
    assert pred.leading_value == 0.0  # e^-1000 is not a double
    want_log = math.log(4.0 / math.sqrt(math.pi)) + 0.5 * math.log(0.001) - 1000.0
    assert pred.log_leading_value == pytest.approx(want_log, rel=1e-12)
    for term in pred.per_endpoint:
        assert term.value == 0.0
        assert math.isfinite(term.log_value)


def test_radial_underflow_keeps_its_log():
    pred = iso_ho_shift_term(ModeSpec(level=0, h=0.001, nu=1.5), 1.0)
    assert pred.leading_value == 0.0
    want = math.log(4.0) + 1.5 * math.log(1000.0) - 1000.0 \
        - math.log(math.gamma(2.5))
    assert pred.log_leading_value == pytest.approx(want, rel=1e-12)


def test_closed_forms_stay_finite_where_gamma_overflows():
    """Gamma(x) and x! overflow a double from x = 171 on; the closed forms
    take only their logs, which stay finite, and match the same formula
    evaluated in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40

    spec = HydrogenSpec(n=172, ell=0, z=2.0, h=1.0, r_box=8.0)
    n, ell, z, h, R = spec.n, spec.ell, spec.z, spec.h, spec.r_box
    want = (2 * n + 1) * mp.log(2) + (-4 * n - 2) * mp.log(h) \
        + 2 * n * mp.log(R) - (2 * n + 3) * mp.log(n) \
        - mp.log(mp.factorial(n - ell - 1)) - mp.log(mp.factorial(n + ell)) \
        + (2 * n + 2) * mp.log(mp.mpf(z) / 2) - mp.mpf(z) * R / (n * h * h)
    got = hydrogen_shift_term(spec).log_leading_value
    assert math.isfinite(got)
    assert got == pytest.approx(float(want), rel=1e-12)
    # k = n h + delta with delta ~ e^-2246: the shift is below one ulp of k.
    assert hydrogen_wavenumber_closed_form(spec) == n * h

    mode = ModeSpec(level=171, h=0.001, nu=1.5)
    m, nu, L = mode.level, mp.mpf(mode.nu), mp.mpf(1)
    want = mp.log(4) + (-2 * m - nu) * mp.log(mp.mpf(mode.h)) \
        + 2 * (2 * m + 1 + nu) * mp.log(L) - L * L / mp.mpf(mode.h) \
        - mp.log(mp.factorial(m)) - mp.loggamma(1 + m + nu)
    got = iso_ho_shift_term(mode, 1.0).log_leading_value
    assert math.isfinite(got)
    assert got == pytest.approx(float(want), rel=1e-12)


def test_line_terms_stay_finite_where_m_factorial_overflows():
    """2^(m+1)/m! overflows a double from m = 171 on; the line terms take
    its log as (m+1) log 2 - lgamma(m+1), matching mpmath, and the general
    evaluator on the harmonic well agrees with the closed form."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40

    mode = ModeSpec(level=171, h=0.001)
    m, h, R = mode.level, mp.mpf(mode.h), mp.mpf(1)
    want = (mp.mpf(0.5) - m) * mp.log(h) + (m + 2) * mp.log(2) \
        - mp.log(mp.factorial(m)) - mp.log(mp.pi) / 2 \
        + (2 * m + 1) * mp.log(R) - R * R / h
    got = ho_shift_term(mode, 1.0).log_leading_value
    assert math.isfinite(got)
    assert got == pytest.approx(float(want), rel=1e-12)
    general = shift_leading_line(harmonic(), BOX, mode).log_leading_value
    assert general == pytest.approx(float(want), rel=1e-12)


def test_high_level_prediction_keeps_its_log():
    # a0(1)^2 underflows a double at m = 100000; its log does not.
    pred = shift_leading_line(quartic(), BOX, ModeSpec(level=100000, h=0.1))
    assert pred.leading_value == 0.0
    assert math.isfinite(pred.log_leading_value)


# -- guards and warnings ------------------------------------------------------------

def test_wall_outside_barrier_rejected():
    p = from_expression("x^2 - 0.25*x^4")  # V(2) = 0: wall on the turning point
    with pytest.raises(InvalidPotential):
        shift_leading_line(p, LineBox(-2.0, 2.0), ModeSpec(level=0, h=0.1))


def test_radial_prediction_requires_nu():
    with pytest.raises(InvalidPotential):
        shift_leading_radial(quartic(kind="radial"), 1.0, ModeSpec(level=0, h=0.1))


def test_closed_form_warns_when_h_is_not_small():
    with pytest.warns(RuntimeWarning, match="not large"):
        ho_confined_closed_form(ModeSpec(level=0, h=2.0), 1.0)
    with pytest.warns(RuntimeWarning, match="not large"):
        iso_ho_confined_closed_form(ModeSpec(level=0, h=2.0, nu=0.5), 1.0)
    with pytest.warns(RuntimeWarning, match="not small"):
        hydrogen_confined_closed_form(HydrogenSpec(n=1, ell=0, z=2.0, h=1.0, r_box=2.0))


def test_closed_forms_are_level_plus_term():
    mode = ModeSpec(level=1, h=0.1)
    assert ho_confined_closed_form(mode, 1.0) == \
        3 * 0.1 + ho_shift_term(mode, 1.0).leading_value
    rmode = ModeSpec(level=1, h=0.1, nu=1.5)
    assert iso_ho_confined_closed_form(rmode, 1.0) == \
        2 * (2 + 1 + 1.5) * 0.1 + iso_ho_shift_term(rmode, 1.0).leading_value


# -- hydrogen closed forms -------------------------------------------------------------

def test_hydrogen_shift_spot_value():
    # n=1, ell=0, z=2, h=1, R=10: the prefactor collapses to 8 * 100 = 800.
    spec = HydrogenSpec(n=1, ell=0, z=2.0, h=1.0, r_box=10.0)
    pred = hydrogen_shift_term(spec)
    assert pred.leading_value == pytest.approx(800.0 * math.exp(-20.0), rel=1e-13)
    assert pred.exponent == pytest.approx(20.0, rel=1e-14)
    assert pred.prefactor_power == -6


def test_hydrogen_closed_form_is_free_level_plus_term():
    spec = HydrogenSpec(n=2, ell=1, z=2.0, h=1.0, r_box=14.0)
    assert hydrogen_confined_closed_form(spec) == \
        spec.energy_unconfined + hydrogen_shift_term(spec).leading_value


@pytest.mark.parametrize("n,ell", [(1, 0), (2, 0), (2, 1), (3, 1)])
@pytest.mark.parametrize("h,R", [(1.0, 10.0), (0.8, 14.0)])
def test_wavenumber_bootstrap_identity(n, ell, h, R):
    """Expanding E = -1/k^2 around k = n h maps the wavenumber shift onto
    the energy shift: delta E = 2 delta k / (n h)^3, exactly at leading
    order.  The two closed forms must therefore agree to rounding."""
    spec = HydrogenSpec(n=n, ell=ell, z=2.0, h=h, r_box=R)
    delta_k = hydrogen_wavenumber_closed_form(spec) - n * h
    via_k = 2.0 * delta_k / (n * h) ** 3
    direct = hydrogen_shift_term(spec).leading_value
    assert via_k == pytest.approx(direct, rel=1e-12)


def test_wavenumber_form_requires_z_two():
    with pytest.raises(InvalidPotential):
        hydrogen_wavenumber_closed_form(HydrogenSpec(n=1, ell=0, z=4.0, h=1.0, r_box=8.0))


def test_shift_predictions_are_positive():
    cases = [
        shift_leading_line(quartic(), BOX, ModeSpec(level=1, h=0.15)),
        shift_leading_radial(quartic(kind="radial"), 1.0, ModeSpec(level=0, h=0.15, nu=2.5)),
        ho_shift_term(ModeSpec(level=2, h=0.3), 1.1),
        hydrogen_shift_term(HydrogenSpec(n=2, ell=0, z=2.0, h=1.0, r_box=8.0)),
    ]
    for pred in cases:
        assert pred.leading_value > 0.0
        assert pred.exponent > 0.0
