"""The shift from the flux-seeded Newton on the free Wronskian.

run_shift_case reports the shift lambda_D - lambda_0 as the sum of the
Newton steps from lambda_D on the Wronskian F of the well without walls,
the first of them the flux step (wall values times O(1) projections).  So
it keeps its relative precision where the subtraction of two separately
solved levels has lost it.  Checked here against the exact boxed harmonic
(Dirichlet roots of parabolic cylinder functions in mpmath), on the small-h
quartic sweep the subtraction cannot resolve, and against the subtraction
wherever that one resolves the shift.
"""

import math
import sys

import numpy as np
import pytest

from boxshift import (LineBox, ModeSpec, RadialBox, confined_eigenvalue,
                      from_expression, report, resolve_potential, spectra)
from boxshift.report import run_shift_case, run_sweep

BOX = LineBox(-1.0, 1.0)
EPS = sys.float_info.epsilon


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


@pytest.mark.parametrize("h", [0.05, 0.02, 0.01, 0.005])
@pytest.mark.parametrize("m", [0, 1])
def test_flux_ratio_matches_the_exact_boxed_harmonic(m, h):
    # The DSL x^2 is not the builtin harmonic, so it takes the flux path.
    mpmath = pytest.importorskip("mpmath")
    rep = run_shift_case(from_expression("x^2"), BOX, ModeSpec(level=m, h=h))
    exact = math.exp(math.log(exact_harmonic_shift(mpmath, h, m))
                     - rep.log_predicted_shift)
    assert rep.ratio == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05, 0.02])
@pytest.mark.parametrize("m", [0, 1])
def test_free_start_margin_loses_nothing_against_34_5(monkeypatch, m, h):
    # The WKB start admixes the growing branch by at most O(1), and the
    # barrier beyond the wall damps that by exp(-2*_PHI_MARGIN) of the wall
    # effect.  Where the start used to sit, at phi(wall) + 34.5h, the shift
    # was no closer to the exact one.
    mpmath = pytest.importorskip("mpmath")
    exact = exact_harmonic_shift(mpmath, h, m)
    p, mode = from_expression("x^2"), ModeSpec(level=m, h=h)

    def error():
        return abs(run_shift_case(p, BOX, mode).numeric_shift - exact)

    now = error()
    monkeypatch.setattr(spectra, "_PHI_MARGIN", 34.5)
    assert now <= error()


@pytest.mark.parametrize("m", [0, 1])
def test_small_h_quartic_order_is_one(m):
    # Below h ~ 0.035 the subtraction reads noise; the flux ratios keep
    # closing on 1 at first order in h.
    grid = [float(h) for h in np.geomspace(0.05, 0.0125, 5)]
    p = from_expression("x^2 + x^4")
    ratios = [run_shift_case(p, BOX, ModeSpec(level=m, h=h)).ratio
              for h in grid]
    assert all(a > b > 1.0 for a, b in zip(ratios, ratios[1:]))
    order = np.polyfit(np.log(grid), np.log([r - 1.0 for r in ratios]), 1)[0]
    assert order == pytest.approx(1.0, abs=0.1)


def test_quartic_h004_row_reads_the_flux_ratio():
    # The subtraction reported this row "ok" at 0.9925.
    [row] = run_sweep(from_expression("x^2 + x^4"), BOX, 0, None, [0.04]).rows
    assert row.status == "ok"
    assert row.report.ratio == pytest.approx(1.03284, abs=1e-4)


def test_shift_below_the_float_range_keeps_its_log_and_ratio():
    # At h = 0.0015 the quartic's shift is about e^-815, below the smallest
    # double: numeric_shift underflows, but the flux step's exponent carries
    # log_numeric_shift, and the ratio keeps closing on 1 from h = 0.003.
    p = from_expression("x^2 + x^4")
    coarse, fine = (run_shift_case(p, BOX, ModeSpec(level=0, h=h))
                    for h in (0.003, 0.0015))
    assert fine.numeric_shift == 0.0
    assert math.isfinite(fine.log_numeric_shift)
    assert fine.log_numeric_shift == pytest.approx(fine.log_predicted_shift,
                                                   abs=0.01)
    assert coarse.ratio == pytest.approx(1.00281, abs=1e-5)
    assert 1.0 < fine.ratio < coarse.ratio


QUARTIC_BOXES = [("line", m, None, h) for m in (0, 1) for h in (0.2, 0.1, 0.05)] \
    + [("radial", 0, 1.5, h) for h in (0.1, 0.05)]


@pytest.mark.parametrize("kind, m, nu, h", QUARTIC_BOXES)
def test_flux_agrees_with_the_subtraction_within_its_bar(kind, m, nu, h):
    """On the benchmark's quartic cases, where the subtraction resolves the
    shift, both routes agree.  The subtraction's lambda_0 comes from a box
    three times wider, whose own wall effect is below exp(-2*9/h) of the
    shift; its bar is its change from rtol 1e-12 to 1e-13 plus the rounding
    of the two levels.  Both routes are compared at 1e-13."""
    p = resolve_potential("x^2 + x^4", kind)
    box, wide = (BOX, LineBox(-3.0, 3.0)) if kind == "line" \
        else (RadialBox(1.0), RadialBox(3.0))
    mode = ModeSpec(level=m, h=h, nu=nu)
    shift, levels = {}, 0.0
    for tol in (1e-12, 1e-13):
        lam_d = confined_eigenvalue(p, box, mode, rtol=tol).value
        lam_0 = confined_eigenvalue(p, wide, mode, lam0=lam_d, rtol=tol).value
        shift[tol] = lam_d - lam_0
        levels = abs(lam_d) + abs(lam_0)
    bar = abs(shift[1e-12] - shift[1e-13]) + 2.0 * EPS * levels
    flux = run_shift_case(p, box, mode, integrate_tol=1e-13).numeric_shift
    assert abs(flux - shift[1e-13]) <= bar


def test_level_lifted_about_a_gap_takes_the_subtraction(monkeypatch):
    # At h = 0.3 the box lifts the quartic's level 2 from 2.01 to 2.46,
    # nearer the free level 3 at 2.99, where Newton from lambda_D lands.
    # The free level is then solved from the harmonic seed, and a shift
    # that large is the subtraction.
    p, mode = from_expression("x^2 + x^4"), ModeSpec(level=2, h=0.3)
    free = []

    def kept(*args, **kwargs):
        free.append(spectra.unconfined_eigenvalue(*args, **kwargs))
        return free[-1]

    monkeypatch.setattr(report, "unconfined_eigenvalue", kept)
    rep = run_shift_case(p, BOX, mode)
    [pair] = free
    assert pair.nodes == 2 and pair.offset is None
    assert rep.numeric_shift == rep.lambda_confined - rep.lambda0
    assert rep.lambda0 == pytest.approx(
        spectra.unconfined_eigenvalue(p, mode).value, rel=1e-12)
