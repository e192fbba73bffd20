"""Potential wrappers: validation, curvature, normalisation, CLI resolution."""

import math

import pytest

from boxshift import (
    InvalidPotential, LineBox, ModeSpec, RadialBox, confined_eigenvalue,
    curvature_at_minimum, from_callables, from_expression, harmonic,
    quartic, resolve_potential, validate_potential,
)
from crosschecks import normalize_to_unit_curvature

BOX = LineBox(-1.0, 1.0)


# -- domains -------------------------------------------------------------------

def test_line_box_must_straddle_origin():
    with pytest.raises(InvalidPotential):
        LineBox(0.5, 1.0)
    with pytest.raises(InvalidPotential):
        LineBox(-1.0, -0.5)


def test_radial_box_must_be_positive():
    with pytest.raises(InvalidPotential):
        RadialBox(0.0)
    with pytest.raises(InvalidPotential):
        RadialBox(-2.0)


def test_asymmetric_line_box_is_fine():
    assert LineBox(-1.0, 2.0).as_tuple() == (-1.0, 2.0)


# -- validation ----------------------------------------------------------------

def test_harmonic_validates():
    report = validate_potential(harmonic(), BOX)
    assert report.passed
    assert report.curvature_omega == pytest.approx(1.0, rel=1e-12)


def test_quartic_validates():
    assert validate_potential(quartic(), BOX).passed


def test_offset_well_fails_zero_at_minimum():
    report = validate_potential(from_expression("x^2 - 1"), BOX)
    assert not report.passed
    assert any(v.assumption == "zero-at-minimum" for v in report.violations)


def test_cubic_fails_positivity():
    report = validate_potential(from_expression("x^3"), BOX)
    assert not report.passed
    assert any(v.assumption == "positive-away-from-minimum" for v in report.violations)


def test_tilted_well_fails_flatness():
    report = validate_potential(from_expression("x^2 + 0.5*x"), BOX)
    assert not report.passed
    assert any(v.assumption == "flat-at-minimum" for v in report.violations)


def test_degenerate_minimum_detected():
    report = validate_potential(from_expression("x^4"), BOX)
    assert not report.passed
    assert any(v.assumption == "nondegenerate-minimum" for v in report.violations)


def test_non_finite_sample_detected():
    report = validate_potential(from_expression("sqrt(x)"), BOX)
    assert not report.passed
    assert any(v.assumption == "finite-evaluation" for v in report.violations)


def test_odd_radial_extension_detected():
    report = validate_potential(from_expression("x^2 + x^3", kind="radial"),
                                RadialBox(1.0))
    assert not report.passed
    assert any(v.assumption == "even-extension" for v in report.violations)


def test_hydrogen_tail_is_not_a_well():
    # -z/y has no interior minimum; the dedicated solver consumes it anyway.
    with pytest.warns(RuntimeWarning, match="division"):
        p = from_expression("-2/x", kind="radial")
    report = validate_potential(p, RadialBox(8.0))
    assert not report.passed


def test_validation_is_deterministic():
    p = from_expression("x^2 + 0.1*x^4")
    r1 = validate_potential(p, BOX)
    r2 = validate_potential(p, BOX)
    assert r1 == r2


def test_validation_sample_count_guard():
    with pytest.raises(ValueError):
        validate_potential(harmonic(), BOX, samples=4)


def test_kind_mismatch_rejected():
    with pytest.raises(InvalidPotential):
        validate_potential(harmonic(kind="radial"), BOX)


# -- curvature -----------------------------------------------------------------

def test_curvature_of_cosh_well():
    # cosh(x) - 1 = x^2/2 + ..., so V''(0) = 1 and omega = sqrt(1/2).
    p = from_expression("cosh(x) - 1")
    assert p.curvature_omega == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_curvature_finite_difference_fallback():
    # No derivative callables: Richardson differences, ~1e-8 relative.
    p = from_callables(lambda x: math.cosh(x) - 1.0)
    assert curvature_at_minimum(p) == pytest.approx(math.sqrt(0.5), rel=1e-8)


def test_curvature_rejects_flat_minimum():
    with pytest.raises(InvalidPotential):
        curvature_at_minimum(from_callables(lambda x: x ** 4))


# -- normalisation -------------------------------------------------------------

def test_normalize_is_identity_on_unit_curvature():
    p = harmonic()
    q, dom, h = normalize_to_unit_curvature(p, BOX, 0.1)
    assert q is p and dom is BOX and h == 0.1


def test_normalize_rescales_curvature_to_one():
    p = from_expression("2*x^2")
    q, dom, h = normalize_to_unit_curvature(p, BOX, 0.1)
    assert q.curvature_omega == pytest.approx(1.0, rel=1e-12)
    omega = math.sqrt(2.0)
    assert dom.as_tuple() == pytest.approx((-omega, omega), rel=1e-15)
    assert h == pytest.approx(omega * 0.1, rel=1e-15)


def test_normalize_twice_equals_once():
    p = from_expression("2*x^2")
    q1, dom1, h1 = normalize_to_unit_curvature(p, BOX, 0.1)
    q2, dom2, h2 = normalize_to_unit_curvature(q1, dom1, h1)
    assert q2 is q1 and dom2 is dom1 and h2 == h1


def test_normalization_preserves_eigenvalues():
    """The rescaling maps the Dirichlet problem onto itself: the confined
    level of (V, domain, h) and of its unit-curvature image must agree."""
    p = from_expression("2*x^2 + x^4")
    q, dom, h = normalize_to_unit_curvature(p, BOX, 0.12)
    mode = ModeSpec(level=0, h=0.12)
    mode_n = ModeSpec(level=0, h=h)
    lam = confined_eigenvalue(p, BOX, mode).value
    lam_n = confined_eigenvalue(q, dom, mode_n).value
    assert lam_n == pytest.approx(lam, rel=1e-9)


# -- CLI-facing resolution -------------------------------------------------------

def test_resolve_builtin_names():
    assert resolve_potential("harmonic").builtin == "harmonic"
    assert resolve_potential("quartic").builtin == "quartic"


def test_resolve_builtin_call_with_argument():
    p = resolve_potential("quartic(0.5)")
    assert p.builtin == "quartic"
    assert p.evaluate(1.0) == pytest.approx(1.5, rel=1e-15)


def test_resolve_hydrogen_effective_arity_checked():
    with pytest.raises(InvalidPotential):
        resolve_potential("quartic(1, 2)")


def test_resolve_falls_back_to_expression():
    p = resolve_potential("x^2 + 0.1*x^4")
    assert p.builtin is None
    assert p.evaluate(1.0) == pytest.approx(1.1, rel=1e-15)


def test_resolve_bad_builtin_arguments():
    with pytest.raises(InvalidPotential):
        resolve_potential("quartic(nope)")


def test_division_in_expression_warns():
    with pytest.warns(RuntimeWarning, match="division"):
        from_expression("x^2/(x + 2)")


def test_expression_potential_has_symbolic_derivatives():
    p = from_expression("x^2 + x^4")
    assert p.derivative1(1.0) == pytest.approx(6.0, rel=1e-15)
    assert p.derivative2(1.0) == pytest.approx(14.0, rel=1e-15)
