"""Renormalised shooting integration, the matching Wronskian, Newton solves
and node counting, checked against closed-form solutions of the unit well.

For V = x^2 the two-sided family  u = exp(+-x^2/(2h))  solves
h^2 u'' = (x^2 -+ h) u exactly, which pins the integrator, the scale
bookkeeping and the sensitivity system without any reference data.
"""

import math
import warnings
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from boxshift import (
    HydrogenSpec, LineBox, ModeSpec, RadialBox, ScaledValue, SeriesError,
    SolverError, confined_eigenvalue, count_nodes_line, count_nodes_radial,
    fd_oracle, from_expression, harmonic, hydrogen_confined,
    newton_solve_line, newton_solve_radial, quartic, resolve_potential,
    unconfined_eigenvalue,
)
from boxshift import report, shooting
from boxshift.asymptotics import shift_leading_line
from boxshift.dsl import EvalError
from boxshift.shooting import (FrobeniusStart, Matching, Unwalled, steps_taken,
                               wronskian)
from crosschecks import exact_coulomb_level, exact_harmonic_shift

H = 0.1
BOX = LineBox(-1.0, 1.0)

# Dirichlet ground state of x^2 on (-1, 1) at h = 0.2, from a 50-digit
# evaluation of the confluent-hypergeometric boundary condition.
LEVEL2_H02 = 1.1990788504622032


def integrate(p, lam, x0, y0, x1, h, rtol):
    """(u, u') at x1 of the shot from (x0, (u, u')), exponent factored out;
    the sensitivity pair rides along from zero."""
    q = shooting._q_factory(p.evaluate, lam, h, None)
    y, log_scale, *_ = shooting._integrate(q, x0, (*y0, 0.0, 0.0), x1, rtol,
                                           dq=shooting._dq(h))
    return ScaledValue.of(y[0], log_scale), ScaledValue.of(y[1], log_scale)


# -- integrator against the exact Gaussian family ------------------------------

def test_decaying_gaussian_short_range():
    # u = exp(-x^2/2h) at lambda = h; at x=0.7 the growing-mode contamination
    # sits at rtol * exp(2*phi/h) ~ 1e-10.
    u, du = integrate(harmonic(), H, 0.0, (1.0, 0.0), 0.7, H, 1e-13)
    want = math.exp(-0.49 / (2 * H))
    assert u.to_float() == pytest.approx(want, rel=1e-9)
    assert du.to_float() == pytest.approx(-0.7 / H * want, rel=1e-9)


def test_decaying_gaussian_moderate_range():
    u, _ = integrate(harmonic(), H, 0.0, (1.0, 0.0), 1.0, H, 1e-12)
    assert u.to_float() == pytest.approx(math.exp(-5.0), rel=1e-6)


def test_odd_gaussian_solution():
    # u = x exp(-x^2/2h) solves the lambda = 3h equation.
    u, _ = integrate(harmonic(), 3 * H, 0.0, (0.0, 1.0), 0.7, H, 1e-13)
    want = 0.7 * math.exp(-0.49 / (2 * H))
    assert u.to_float() == pytest.approx(want, rel=1e-9)


def test_growing_gaussian_beyond_double_range():
    """u = exp(+x^2/2h) at lambda = -h grows to e^800 by x=4; the scale
    ledger must carry it while the mantissa stays a normal double."""
    h = 0.01
    u, du = integrate(harmonic(), -h, 0.0, (1.0, 0.0), 4.0, h, 1e-12)
    assert u.log_abs() == pytest.approx(16.0 / (2 * h), abs=1e-6)
    assert 1.0 <= abs(u.mantissa) < 2.0
    # u'/u = x/h exactly, and the ratio survives the common huge scale.
    assert du.ratio(u) == pytest.approx(4.0 / h, rel=1e-8)


def test_integrate_backward_direction():
    u, _ = integrate(harmonic(), H, 0.7, (1.0, -0.7 / H), 0.0, H, 1e-13)
    assert u.to_float() == pytest.approx(math.exp(0.49 / (2 * H)), rel=1e-9)


# -- Wronskian conservation ------------------------------------------------------

def wronskian_after(p, lam, h, x_end, tol=1e-12):
    u_a, du_a = integrate(p, lam, 0.0, (1.0, 0.0), x_end, h, tol)
    u_b, du_b = integrate(p, lam, 0.0, (0.0, 1.0), x_end, h, tol)
    return (u_a * du_b - du_a * u_b).to_float()


def test_wronskian_constant_in_allowed_region():
    # lambda above V everywhere on the interval: no exponential growth,
    # the conservation check is clean.
    assert wronskian_after(harmonic(), 3.0, H, 1.0) == pytest.approx(1.0, rel=1e-10)


def test_wronskian_constant_in_forbidden_region():
    # Short tunnelling stretch: cancellation costs ~ exp(2 phi/h) ~ 4.
    assert wronskian_after(quartic(), 0.05, 0.2, 0.5) == pytest.approx(1.0, rel=1e-8)


# -- the matching Wronskian and its lambda-derivative -------------------------------

def _w(match, lam):
    return wronskian(*match.shoot(lam, 1e-12))[0]


def test_boundary_map_jacobian_matches_finite_differences():
    # The boundary map of the matching shooter is W(lambda); its derivative
    # from the sensitivity pair must match a central difference of W.
    for box in (BOX, LineBox(-0.8, 1.4)):
        match = Matching.line(harmonic(), box, ModeSpec(level=0, h=H))
        lam = 0.105
        _, dw = wronskian(*match.shoot(lam, 1e-12))
        d_lam = 1e-6 * H
        fd = (_w(match, lam + d_lam) - _w(match, lam - d_lam)) \
            / ScaledValue.of(2 * d_lam)
        assert fd.ratio(dw) == pytest.approx(1.0, rel=1e-5)


# -- Newton solves -----------------------------------------------------------------

def test_newton_reproduces_reference_level():
    sol = newton_solve_line(harmonic(), BOX, ModeSpec(level=2, h=0.2), 5 * 0.2 * 1.001)
    assert sol.lam == pytest.approx(LEVEL2_H02, rel=1e-12)


def test_newton_exhausts_iterations(monkeypatch):
    monkeypatch.setattr(shooting, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(SolverError):
        newton_solve_line(harmonic(), BOX, ModeSpec(level=0, h=H), 0.3)


def test_failed_line_newton_reports_every_step(fail_on_call):
    # Call 4 is the right-hand shot of the second iterate: the counter must
    # hold iterate 1's two shots and iterate 2's left-hand shot as well.
    taken = fail_on_call(4)
    before = steps_taken()
    with pytest.raises(SolverError):
        newton_solve_line(quartic(), BOX, ModeSpec(level=1, h=0.12), 3 * 0.12)
    assert len(taken) == 4
    assert steps_taken() - before == sum(taken)


def test_failed_radial_newton_reports_every_step(fail_on_call):
    p = harmonic(kind="radial")
    series = FrobeniusStart.well(p, 1.5, H, L=1.0)
    taken = fail_on_call(3)
    before = steps_taken()
    with pytest.raises(SolverError):
        newton_solve_radial(p.evaluate, 1.5, H, 1.0, 0.5 * 1.05, series)
    assert len(taken) == 3
    assert steps_taken() - before == sum(taken)


def test_newton_deterministic():
    runs = [newton_solve_line(quartic(), BOX, ModeSpec(level=0, h=H), 0.1)
            for _ in range(2)]
    assert runs[0].lam == runs[1].lam
    assert runs[0].steps == runs[1].steps


# -- graded tolerances: loose far iterates, a full-precision last one --------------

class Graded(NamedTuple):
    """A Newton solve from ``seed``, the node count of its root, and what
    its noise bound reads: the matching, rtol as Newton sees it, scale."""

    solve: Callable
    seed: float
    nodes: Callable
    match: Matching
    rtol: float
    scale: float
    level: int


def _coulomb(n, R=8.0):
    """Newton and node count of the Coulomb (n, ell=0) level, z = 2 and
    h = 1, in a box of radius R, from the seed E_n."""
    V = lambda x: -2.0 / x  # noqa: E731
    V.source = "-2.0 / x"
    series = FrobeniusStart.coulomb(2.0, 0, 1.0, min(0.05 * n, 0.08))
    e_n = -1.0 / (n * n)
    return Graded(lambda seed: newton_solve_radial(V, 0.5, 1.0, R, seed,
                                                   series, lambda_scale=-e_n),
                  e_n,
                  lambda lam, shots: count_nodes_radial(
                      V, 0.5, 1.0, R, lam, series, shots=shots),
                  Matching.radial(V, 0.5, 1.0, R, series), 1e-12, -e_n,
                  n - 1)


def _quartic_line(m, h):
    mode = ModeSpec(level=m, h=h)
    return Graded(lambda seed: newton_solve_line(quartic(), BOX, mode, seed),
                  (2 * m + 1) * h,
                  lambda lam, shots: count_nodes_line(quartic(), BOX, mode,
                                                      lam, shots=shots),
                  Matching.line(quartic(), BOX, mode), 0.5e-12, h, m)


def _radial(p, nu, h):
    series = FrobeniusStart.well(p, nu, h, L=1.0)
    return Graded(lambda seed: newton_solve_radial(p.evaluate, nu, h, 1.0,
                                                   seed, series),
                  2 * (1 + nu) * h,
                  lambda lam, shots: count_nodes_radial(
                      p.evaluate, nu, h, 1.0, lam, series, shots=shots),
                  Matching.radial(p.evaluate, nu, h, 1.0, series), 1e-12, h,
                  0)


GRADED_SOLVES = {
    **{f"line-m{m}-h{h}": (_quartic_line, (m, h))
       for m in (0, 1) for h in (0.2, 0.05)},
    "radial-nu1.5": (_radial, (quartic(kind="radial"), 1.5, 0.1)),
    "coulomb-1-0": (_coulomb, (1,)),
    "coulomb-2-0": (_coulomb, (2,)),
}


def _noise_bound(sol, case):
    """The step that rtol-sized errors in the last shots would cause
    (``newton``'s stopping test)."""
    left, right = sol.shots
    k = math.sqrt(max(abs(sol.lam), case.scale)) / case.match.h
    return case.rtol * math.exp(shooting._wronskian_size(left, right, k)
                           - wronskian(left, right)[1].log_abs())


@pytest.mark.parametrize("case", GRADED_SOLVES)
def test_graded_newton_agrees_with_full_precision_newton(monkeypatch, case):
    # With the loose tolerance at or below rtol every iterate is shot in
    # full: the same code without grading.  The two roots agree within the
    # full-precision noise bound (a float cannot place lambda closer than
    # an ulp), and so do their node counts.
    build, args = GRADED_SOLVES[case]
    c = build(*args)
    graded = c.solve(c.seed)
    monkeypatch.setattr(shooting, "_LOOSE_RTOL", 0.0)
    full = c.solve(c.seed)
    bound = _noise_bound(full, c) + math.ulp(full.lam)
    assert abs(graded.lam - full.lam) <= bound
    assert c.nodes(graded.lam, graded.shots) \
        == c.nodes(full.lam, full.shots) == c.level
    assert graded.steps < full.steps


@pytest.fixture
def shot_tolerances(monkeypatch):
    """The ``rtol`` of every ``Matching.shoot`` call, with what it returned."""
    calls = []
    real = Matching.shoot

    def spy(self, lam, rtol, **kwargs):
        shots = real(self, lam, rtol, **kwargs)
        calls.append((rtol, shots))
        return shots
    monkeypatch.setattr(Matching, "shoot", spy)
    return calls


@pytest.mark.parametrize("warm", [False, True], ids=["seed", "at-the-root"])
@pytest.mark.parametrize("case", GRADED_SOLVES)
def test_graded_newton_starts_loose_and_ends_on_a_full_shot(shot_tolerances,
                                                            case, warm):
    # Started at its own root, the first, loose iterate's step lies within
    # its noise: the same lambda is shot again in full.
    build, args = GRADED_SOLVES[case]
    c = build(*args)
    rtol, seed = c.rtol, c.seed
    if warm:
        seed = c.solve(seed).lam
        del shot_tolerances[:]
    sol = c.solve(seed)
    assert shot_tolerances[0][0] == shooting._LOOSE_RTOL
    if warm:
        assert [tol for tol, _ in shot_tolerances[:2]] \
            == [shooting._LOOSE_RTOL, rtol]
    assert all(rtol <= tol <= shooting._LOOSE_RTOL
               for tol, _ in shot_tolerances)
    # The last iterate, whose shots count_nodes reads, is shot in full.
    assert shot_tolerances[-1] == (rtol, sol.shots)


@pytest.mark.parametrize("kind, nu", [("line", None), ("radial", 1.5)])
def test_flux_solve_shoots_every_iterate_in_full(shot_tolerances, kind, nu):
    # The flux iterate is shot at rtol, and the next one at the tolerance
    # the flux step's rho grades it to: at h = 0.1 the step is small
    # enough that rho^4 lies below rtol, so every iterate is shot in full.
    p = quartic(kind=kind)
    mode, box = ModeSpec(level=0, h=0.1, nu=nu), \
        BOX if kind == "line" else RadialBox(1.0)
    lam_d = confined_eigenvalue(p, box, mode).value
    del shot_tolerances[:]
    free = unconfined_eigenvalue(p, mode, lam0=lam_d, box=box)
    assert free.offset is not None  # the flux solve, not a fallback seed
    rtol = 0.5e-12 if kind == "line" else 1e-12
    assert len(shot_tolerances) > 1
    assert {tol for tol, _ in shot_tolerances} == {rtol}


def _free_noise_bound(sol, h, rtol=0.5e-12):
    """The noise bound of a free line solve, read off its last shots like
    ``newton``'s stopping test (rtol halved on the line)."""
    left, right = sol.shots
    k = math.sqrt(max(abs(sol.shot_at), h)) / h
    return rtol * math.exp(shooting._wronskian_size(left, right, k)
                           - wronskian(left, right)[1].log_abs())


def test_free_solve_grades_the_iterates_after_a_large_flux_step(
        monkeypatch, free_solves):
    # At h = 0.2 the flux step is large enough that rho^4 exceeds rtol:
    # the iterate after it is shot at that tolerance, and Newton corrects
    # the loose step's error before it ends, on an iterate shot at rtol.
    p, mode, rtol = quartic(), ModeSpec(level=0, h=0.2), 0.5e-12
    confined = confined_eigenvalue(p, BOX, mode)
    calls = []
    real = Matching.shoot

    def spy(self, lam, tol, **kwargs):
        shots = real(self, lam, tol, **kwargs)
        calls.append((lam, tol, shots))
        return shots
    monkeypatch.setattr(Matching, "shoot", spy)

    def free():
        del calls[:]
        unconfined_eigenvalue(p, mode, lam0=confined.value, box=BOX,
                              box_shots=confined.shots)
        return free_solves[-1]

    graded = free()
    lams, tols = [c[0] for c in calls], [c[1] for c in calls]
    assert lams[0] == confined.value
    assert tols[0] == tols[-1] == rtol  # the flux iterate and the last
    assert (graded.shot_at, graded.shots) == (lams[-1], calls[-1][2])
    rho = abs(lams[1] - lams[0]) / max(abs(lams[0]), mode.h)
    assert tols[1] > rtol
    assert tols[1] == pytest.approx(min(shooting._LOOSE_RTOL, rho ** 4),
                                    rel=1e-12)
    assert all(rtol <= tol <= shooting._LOOSE_RTOL for tol in tols)
    monkeypatch.setattr(shooting, "_LOOSE_RTOL", 0.0)  # every iterate in full
    full = free()
    assert {tol for _, tol, _ in calls} == {rtol}
    assert abs(graded.offset.to_float() - full.offset.to_float()) \
        <= _free_noise_bound(full, mode.h)


@pytest.mark.parametrize("h", [0.2, 0.05, 0.01])
@pytest.mark.parametrize("m", [0, 1])
def test_reused_wall_pair_moves_the_shift_by_less_than_its_noise(
        free_solves, m, h):
    # On the line the flux step reuses the Dirichlet Newton's last pair,
    # moved to lambda_D along its sensitivity pair, instead of shooting it
    # again there.
    p, mode = quartic(), ModeSpec(level=m, h=h)
    confined = confined_eigenvalue(p, BOX, mode)
    for box_shots in (confined.shots, None):
        unconfined_eigenvalue(p, mode, lam0=confined.value, box=BOX,
                              box_shots=box_shots)
    reused, shot = free_solves
    assert reused.steps < shot.steps
    assert abs(reused.offset.to_float() - shot.offset.to_float()) \
        <= _free_noise_bound(shot, h)


def test_wall_pair_moved_past_its_gate_is_shot_again():
    # A pair claimed at a lambda 1e-3 off lambda_D would move by more than
    # its second-order term allows: the flux step shoots the pair instead,
    # bit for bit as without it.
    p, mode = quartic(), ModeSpec(level=0, h=0.05)
    confined = confined_eigenvalue(p, BOX, mode)
    _, shots = confined.shots
    far = confined.value * (1.0 - 1e-3)
    assert shooting._moved_pair(far, shots, confined.value, 0.5e-12) is None
    steps, free = [], []
    for box_shots in ((far, shots), None):
        before = steps_taken()
        free.append(unconfined_eigenvalue(p, mode, lam0=confined.value,
                                          box=BOX, box_shots=box_shots))
        steps.append(steps_taken() - before)
    assert free[0] == free[1] and free[0].offset == free[1].offset
    assert steps[0] == steps[1]


def test_unmoved_wall_pair_is_reused_as_it_is():
    p, mode = quartic(), ModeSpec(level=0, h=0.1)
    at, shots = confined_eigenvalue(p, BOX, mode).shots
    assert shooting._moved_pair(at, shots, at, 0.5e-12) is shots


# -- the predicted last step ---------------------------------------------------------

PREDICTED_SOLVES = {
    **GRADED_SOLVES,
    "harmonic-radial-nu0.5-h0.05": (_radial,
                                    (harmonic(kind="radial"), 0.5, 0.05)),
    "coulomb-1-0-R12": (_coulomb, (1, 12.0)),
}

def _odd_harmonic_level(mpmath, near):
    """The radial harmonic level m = 0 at nu = 1/2 and h = 0.05: the odd
    line level 1, 3h plus its shift."""
    with mpmath.workdps(30):
        return 3 * mpmath.mpf(0.05) + exact_harmonic_shift(mpmath, 0.05, 1)


# Exact levels of the radial cases that have one.
EXACT_LEVELS = {
    "coulomb-1-0": lambda mpmath, near: exact_coulomb_level(
        mpmath, HydrogenSpec(1, 0, 2.0, 1.0, 8.0), near),
    "coulomb-2-0": lambda mpmath, near: exact_coulomb_level(
        mpmath, HydrogenSpec(2, 0, 2.0, 1.0, 8.0), near),
    "coulomb-1-0-R12": lambda mpmath, near: exact_coulomb_level(
        mpmath, HydrogenSpec(1, 0, 2.0, 1.0, 12.0), near),
    "harmonic-radial-nu0.5-h0.05": _odd_harmonic_level,
}


@pytest.mark.parametrize("case", PREDICTED_SOLVES)
def test_predicted_step_ends_within_noise_of_the_confirming_shot(
        monkeypatch, case):
    # Where ``_next_step`` gives no estimate to add, the predicted step is
    # never taken, and a solve that it ends shoots lambda + step once more
    # to confirm it.  Where it ends a solve, that saves the confirming shot
    # and moves lambda by less than the noise bound (a float cannot place
    # it closer than an ulp); everywhere else the two solves are the same,
    # bit for bit.
    build, args = PREDICTED_SOLVES[case]
    c = build(*args)
    taken = c.solve(c.seed)
    real = shooting._next_step

    def nothing_added(*args):
        ahead = real(*args)
        return ahead if ahead is None or ahead.is_zero else None
    monkeypatch.setattr(shooting, "_next_step", nothing_added)
    shot = c.solve(c.seed)
    assert c.nodes(taken.lam, taken.shots) == c.level
    if taken.iterations == shot.iterations:
        assert (taken.lam, taken.steps) == (shot.lam, shot.steps)
        return
    assert taken.iterations == shot.iterations - 1
    assert taken.steps < shot.steps
    bound = _noise_bound(shot, c) + math.ulp(shot.lam)
    if case in EXACT_LEVELS:
        # At a radial wall the noise bound measures the converged shot
        # there, far below the shots' real error: both roots lie 20 to 170
        # ulp from the exact level, and the confirming step is noise as
        # well.  There the move stays below a quarter of that error.
        mpmath = pytest.importorskip("mpmath")
        exact = EXACT_LEVELS[case](mpmath, shot.lam)
        bound = max(bound, 0.25 * abs(float(shot.lam - exact)))
    assert abs(taken.lam - shot.lam) <= bound


@pytest.mark.parametrize("log_dw", [0.0, 800.0])
def test_next_step_ends_where_the_estimate_is_noise_or_near_it(log_dw):
    # After a step of 1e-4, with W' = 1 and the step before it 1e-2 with
    # W' = 1 - d, the secant puts the next step at p = -d*5e-7.  Against a
    # noise bound N = 1e-10, d = 1e-4 makes p noise, d = 1e-3 puts it
    # within _TRUST*N, and d = 0.5 beyond.  Scaling every W' by e^800
    # changes nothing.
    def ends(step, d=None, gap=None, noise=1e-10, lam=1.0):
        last = None if d is None \
            else (ScaledValue.of(1e-2), ScaledValue.of(1.0 - d, log_dw))
        return shooting._next_step(ScaledValue.of(step),
                                   ScaledValue.of(1.0, log_dw), last, gap,
                                   math.log(noise), lam)

    assert ends(1e-4, 1e-4).is_zero  # |p| <= N: end, p dropped
    assert ends(1e-4, 1e-3).to_float() == pytest.approx(-5e-10, rel=1e-9)
    assert ends(1e-4, 0.5) is None  # |p| > _TRUST*N: go on
    assert ends(1e-4, 0.5, gap=1e30) is None  # a secant outranks the gap
    # Without a secant, p is about step^2/gap, trusted to a factor _TRUST.
    assert ends(1e-7, gap=1.0).is_zero  # _TRUST*p = 1e-12 <= N
    assert ends(2e-6, gap=1.0) is None  # _TRUST*p = 4e-10 > N
    assert ends(1e-30) is None  # neither a secant nor a gap
    # Below an ulp of lambda the ulp decides: p = -5e-10 lies beyond
    # _TRUST*N for N = 1e-14, but within _TRUST*ulp(1e6) = 1.2e-8.
    assert ends(1e-4, 1e-3, noise=1e-14) is None
    assert ends(1e-4, 1e-3, noise=1e-14, lam=1e6).to_float() \
        == pytest.approx(-5e-10, rel=1e-9)


def test_coulomb_box_solves_shoot_one_iterate_in_full(shot_tolerances):
    # The benchmark's Coulomb boxes: every solve ends on the first iterate
    # it shoots at rtol, by the noise bound or the predicted step.
    for n, ell in ((1, 0), (2, 0), (2, 1)):
        for R in (8.0, 10.0, 12.0, 14.0):
            del shot_tolerances[:]
            hydrogen_confined(HydrogenSpec(n, ell, 2.0, 1.0, R))
            full = [tol for tol, _ in shot_tolerances if tol == 1e-12]
            assert len(full) == 1, (n, ell, R)


@pytest.mark.parametrize("m", [0, 1])
def test_seed_close_solve_ends_on_its_first_full_shot(shot_tolerances,
                                                      monkeypatch, m):
    # The harmonic-oracle line cases at h = 0.05: seeded at the harmonic
    # level plus the leading prediction, the loose shot cannot tell the
    # seed from the level, so the seed is shot again at rtol, with no
    # secant yet.  Its step s puts the next one, about s^2/gap, far below
    # the noise bound: the solve ends there, where shooting lambda + s
    # only dropped that next step, with the same level bit for bit.
    def case():
        del shot_tolerances[:]
        return report.run_shift_case(harmonic(), BOX, ModeSpec(m, 0.05))

    ended = case()
    assert [tol for tol, _ in shot_tolerances] == [1e-6, 0.5e-12]
    # Without its gap estimate, Newton shoots lambda + s.
    real = shooting._next_step
    monkeypatch.setattr(shooting, "_next_step",
                        lambda step, dw, last, gap, *rest:
                        real(step, dw, last, None, *rest))
    full = case()
    assert [tol for tol, _ in shot_tolerances] == [1e-6, 0.5e-12, 0.5e-12]
    assert ended.lambda_confined == full.lambda_confined


def test_a_solve_without_a_gap_never_ends_on_its_first_step(shot_tolerances):
    # The same seed-close start without the level spacing, as a Coulomb
    # level is solved: lambda + step is shot to confirm the step.
    mode = ModeSpec(level=0, h=0.05)
    seed = 0.05 + shift_leading_line(harmonic(), BOX, mode).leading_value
    gapped = newton_solve_line(harmonic(), BOX, mode, seed, gap=0.1)
    assert gapped.iterations == len(shot_tolerances) == 2
    del shot_tolerances[:]
    plain = newton_solve_line(harmonic(), BOX, mode, seed)
    assert plain.iterations == len(shot_tolerances) == 3
    assert plain.lam == gapped.lam


def test_predicted_step_keeps_the_confirming_shot_a_reused_pair_needs():
    # The quartic m = 1 level at h = 0.05 predicts a step its last wall
    # pair cannot be moved across: spectra keeps that pair for the flux
    # step, so Newton shoots the confirming iterate instead of taking it.
    p, mode = quartic(), ModeSpec(level=1, h=0.05)
    level = newton_solve_line(p, BOX, mode, 3 * mode.h)
    kept = newton_solve_line(p, BOX, mode, 3 * mode.h, reused=True)
    assert level.iterations < kept.iterations
    assert shooting._moved_pair(level.shot_at, level.shots, level.lam,
                                0.5e-12) is None
    assert shooting._moved_pair(kept.shot_at, kept.shots, kept.lam,
                                0.5e-12) is not None


def test_only_a_line_level_with_a_flux_step_keeps_its_wall_pair():
    # The builtin harmonic's free level is closed form: no flux step reads
    # its box's wall pair, so the level does not keep one.
    mode = ModeSpec(level=0, h=0.1)
    assert confined_eigenvalue(harmonic(), BOX, mode).shots is None
    assert confined_eigenvalue(quartic(), BOX, mode).shots is not None
    assert confined_eigenvalue(quartic(kind="radial"), RadialBox(1.0),
                               ModeSpec(level=0, h=0.1, nu=1.5)).shots is None


# -- node counting ------------------------------------------------------------------

@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_line_node_count_matches_level(m):
    mode = ModeSpec(level=m, h=H)
    sol = newton_solve_line(harmonic(), BOX, mode, (2 * m + 1) * H * 1.0003)
    nodes = count_nodes_line(harmonic(), BOX, mode, sol.lam)
    assert nodes == m


@pytest.mark.parametrize("m,nu", [(0, 0.5), (1, 0.5), (2, 1.5)])
def test_radial_node_count_matches_level(m, nu):
    h, L = 0.1, 1.0
    p = harmonic(kind="radial")
    series = FrobeniusStart.well(p, nu, h, L=L)
    lam0 = 2 * (2 * m + 1 + nu) * h
    sol = newton_solve_radial(p.evaluate, nu, h, L, lam0 * 1.0003, series)
    nodes = count_nodes_radial(p.evaluate, nu, h, L, sol.lam, series)
    assert nodes == m


def test_node_count_reads_newton_shots_and_reshoots_past_a_quarter_turn(
        monkeypatch):
    mode = ModeSpec(level=3, h=H)
    sol = newton_solve_line(harmonic(), BOX, mode, 7 * H * 1.0003)
    before = steps_taken()
    assert count_nodes_line(harmonic(), BOX, mode, sol.lam,
                            shots=sol.shots) == 3
    assert steps_taken() == before  # read off the shots
    # With the bound below the widest turn the shots took, a step of
    # theirs might hide two zeros: the count shoots the level again,
    # capped, and agrees.
    assert max(shot.widest_turn for shot in sol.shots) > 0.05
    monkeypatch.setattr(shooting, "_QUARTER_TURN", 0.05)
    assert count_nodes_line(harmonic(), BOX, mode, sol.lam,
                            shots=sol.shots) == 3
    assert steps_taken() > before


@pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
def test_radial_wall_count_is_the_level_within_noise_of_a_deep_root(ulps):
    # RadialBox(3) lifts the quartic's level by about e^-200, far below an
    # ulp: a lambda an ulp or two either side of the root puts a zero of the
    # shot deep in the barrier, or none, as the shot's noise falls.  The
    # count stays the level either way.
    p, nu, h, L = quartic(kind="radial"), 1.5, 0.1, 3.0
    series = FrobeniusStart.well(p, nu, h, L=L)
    sol = newton_solve_radial(p.evaluate, nu, h, L, 0.568, series, rtol=1e-13)
    lam = sol.lam
    for _ in range(abs(ulps)):
        lam = math.nextafter(lam, math.copysign(math.inf, ulps))
    assert count_nodes_radial(p.evaluate, nu, h, L, lam, series,
                              rtol=1e-13) == 0


@pytest.mark.parametrize("m", [0, 1, 2])
def test_node_count_samples_v_only_to_reshoot(monkeypatch, m):
    # The count off Newton's shots reads zero counts and the phase at x_m,
    # so it samples V for no level, the odd one with its node at x_m
    # included; only a re-shoot samples it, once, for its step cap.
    calls = []
    cap = shooting._counting_step_cap
    monkeypatch.setattr(shooting, "_counting_step_cap",
                        lambda *args: calls.append(args) or cap(*args))
    mode = ModeSpec(level=m, h=H)
    sol = newton_solve_line(harmonic(), BOX, mode, (2 * m + 1) * H * 1.0003)
    assert count_nodes_line(harmonic(), BOX, mode, sol.lam,
                            shots=sol.shots) == m
    assert calls == []
    assert count_nodes_line(harmonic(), BOX, mode, sol.lam) == m
    assert len(calls) == 1


@pytest.mark.parametrize("p, box, m", [
    (harmonic(), BOX, 1), (harmonic(), BOX, 3),
    *((from_expression("x^2 + x^3"), LineBox(-1.2, 0.9), m) for m in range(5)),
], ids=["harmonic-1", "harmonic-3", *(f"cubic-{m}" for m in range(5))])
def test_interior_count_is_the_level_within_ulps_of_the_root(p, box, m):
    # At an interior x_m the phase sum moves continuously with lambda, so a
    # few ulps either side of the root, where a zero of u may cross x_m and
    # a side's count change, the count stays the level: read off shots
    # with no wide step, and re-shot with capped steps.  The mirrored
    # harmonic's odd levels have their node at x_m itself.
    mode = ModeSpec(level=m, h=H)
    match = Matching.line(p, box, mode)
    root = confined_eigenvalue(p, box, mode).value
    lams = [root]
    for toward in (-math.inf, math.inf):
        lam = root
        for _ in range(3):
            lam = math.nextafter(lam, toward)
            lams.append(lam)
    for lam in lams:
        shots = match.shoot(lam, 0.5e-12)
        assert max(shot.widest_turn for shot in shots) \
            <= shooting._QUARTER_TURN
        before = steps_taken()
        assert shooting.count_nodes(match, lam, 1e-12, shots) == m
        assert steps_taken() == before  # read off the shots
        assert shooting.count_nodes(match, lam, 1e-12) == m
        assert steps_taken() > before


# The Sturm count (``level_count``) on dense lambda grids, against the
# levels of a fine finite-difference grid (within 1e-8 of each) or the
# exact Coulomb roots.  The grids skip lambda within 1e-8 of a level, and
# at the full tolerance add points 2e-8 either side of each; a count shot
# at 1e-6, as the level's bracket shoots it, keeps its phase only to about
# 1e-7 of a level, so there the dense grid alone is checked.

def _check_level_count(match, levels, lams, rtol):
    levels = np.asarray(levels)
    if rtol < 1e-6:
        lams = np.concatenate([lams, levels * (1 - 2e-8),
                               levels * (1 + 2e-8)])
    checked = 0
    for lam in map(float, lams):
        if np.min(np.abs(levels - lam)) <= 1e-8 * abs(lam):
            continue
        assert shooting.level_count(match, lam, rtol) \
            == np.count_nonzero(levels < lam), lam
        checked += 1
    assert checked >= 150


@pytest.mark.parametrize("rtol", [1e-12, 1e-6])
@pytest.mark.parametrize("source, box, nu", [
    ("harmonic", BOX, None), ("harmonic", LineBox(-1.2, 0.9), None),
    ("x^2 + x^3", LineBox(-1.2, 0.9), None),
    ("x^2 + x^4", RadialBox(1.0), 0.5), ("x^2 + x^4", RadialBox(1.0), 1.5),
], ids=["harmonic", "harmonic-asymmetric", "cubic", "radial-0.5",
        "radial-1.5"])
def test_level_count_is_the_number_of_levels_below_lambda(source, box, nu,
                                                           rtol):
    p = resolve_potential(source, box.kind)
    mode = ModeSpec(level=0, h=H, nu=nu)
    levels = [pair.value for pair in fd_oracle(p, box, mode, grid_n=4000,
                                               count=6)]
    if nu is None:
        match = Matching.line(p, box, mode)
    else:
        match = Matching.radial(p.evaluate, nu, H, box.length,
                                FrobeniusStart.well(p, nu, H, L=box.length))
    _check_level_count(match, levels, np.linspace(-0.5, levels[-1], 151),
                       rtol)


@pytest.mark.parametrize("rtol", [1e-12, 1e-6])
@pytest.mark.parametrize("ell, R, n_top", [(0, 8.0, 2), (0, 20.0, 3),
                                           (1, 20.0, 3)])
def test_coulomb_level_count_is_the_number_of_levels_below_lambda(
        ell, R, n_top, rtol):
    # The wall raises every level, so below E_(n_top + 1) lie only the
    # levels n = ell + 1 ... n_top, whose exact roots are the reference.
    mpmath = pytest.importorskip("mpmath")
    levels = []
    for n in range(ell + 1, n_top + 1):
        spec = HydrogenSpec(n=n, ell=ell, z=2.0, h=1.0, r_box=R)
        levels.append(float(exact_coulomb_level(
            mpmath, spec, hydrogen_confined(spec).value)))
    V = lambda x: -2.0 / x  # noqa: E731
    V.source = "-2.0 / x"
    match = Matching.radial(V, ell + 0.5, 1.0, R, FrobeniusStart.coulomb(
        2.0, ell, 1.0, min(0.05 * (ell + 1), 0.01 * R)))
    top = -1.0 / (n_top + 1) ** 2
    _check_level_count(match, levels, np.linspace(-1.2, top, 161)[:-1], rtol)


def _pointwise_cap(V, nu, h, lam, a, b):
    """``_counting_step_cap`` as a loop over its 256 samples, V point by
    point."""
    cent = 0.0 if nu is None else nu * nu - 0.25
    k2_max = 1.0 / (h * h)
    for i in range(256):
        x = a + (b - a) * (i + 0.5) / 256.0
        if x != 0.0:
            k2_max = max(k2_max, (lam - V(x)) / (h * h) - cent / (x * x))
    return shooting._QUARTER_TURN / math.sqrt(k2_max)


def _coulomb_v(x):
    return -2.0 / x


_coulomb_v.source = "-2.0 / x"


@pytest.mark.parametrize("V, nu, h, span", [
    (from_expression("x^2 + x^4").evaluate, None, 0.1, (-1.0, 1.0)),
    (from_expression("x^2 + x^4").evaluate, 1.5, 0.05, (0.0, 1.0)),
    (harmonic().evaluate, None, 0.2, (-1.0, 2.0)),
    (harmonic().evaluate, 0.5, 0.1, (0.0, 1.0)),
    (_coulomb_v, 0.5, 1.0, (0.0, 14.0)),
], ids=["quartic-line", "quartic-radial", "harmonic-line", "harmonic-radial",
        "coulomb"])
def test_step_cap_samples_v_in_one_call(V, nu, h, span):
    # The benchmark's potentials give the loop's cap bit for bit, from one
    # evaluation of V over the samples; without a source, V is called at
    # each sample and the cap is the same.
    calls = []

    def counted(x):
        calls.append(x)
        return V(x)

    plain = lambda x: counted(x)  # noqa: E731
    counted.source = V.source
    for lam in (-1.0, 0.05, 0.3, 1.7, 25.0):
        want = _pointwise_cap(V, nu, h, lam, *span)
        assert shooting._counting_step_cap(counted, nu, h, lam, *span) == want
        assert calls == []
        assert shooting._counting_step_cap(plain, nu, h, lam, *span) == want
        assert len(calls) == 256 and all(type(x) is float for x in calls)
        del calls[:]


# -- series starts --------------------------------------------------------------------

def test_oscillator_series_satisfies_the_ode():
    """Three series evaluations around x0 give a centred second difference;
    it must match q(x0)*u(x0) from the equation being solved."""
    p = quartic(kind="radial")
    nu, h, lam = 1.5, 0.1, 0.8
    x0 = 0.01
    d = 1e-4 * x0
    u = {}
    for dx in (-d, 0.0, d):
        series = FrobeniusStart.well(p, nu, h, x0=x0 + dx)
        _, y = series(lam)
        u[dx] = y[0]
    fd2 = (u[d] - 2 * u[0.0] + u[-d]) / (d * d)
    q = (p.evaluate(x0) - lam) / (h * h) + (nu * nu - 0.25) / (x0 * x0)
    assert fd2 == pytest.approx(q * u[0.0], rel=1e-5)


def test_oscillator_series_lambda_sensitivity():
    p = quartic(kind="radial")
    series = FrobeniusStart.well(p, 0.5, 0.1, x0=0.02)
    lam, d = 0.3, 1e-5
    _, y = series(lam)
    _, y_p = series(lam + d)
    _, y_m = series(lam - d)
    assert y[2] == pytest.approx((y_p[0] - y_m[0]) / (2 * d), rel=1e-6)
    assert y[3] == pytest.approx((y_p[1] - y_m[1]) / (2 * d), rel=1e-6)


def test_oscillator_series_slope_consistent():
    p = harmonic(kind="radial")
    series = FrobeniusStart.well(p, 2.5, 0.05, x0=0.01)
    d = 1e-6
    _, y = series(0.7)
    _, y_p = series(0.7)
    up = FrobeniusStart.well(p, 2.5, 0.05, x0=0.01 + d)(0.7)[1][0]
    dn = FrobeniusStart.well(p, 2.5, 0.05, x0=0.01 - d)(0.7)[1][0]
    assert y[1] == pytest.approx((up - dn) / (2 * d), rel=1e-6)
    assert y_p[0] == y[0]  # same object inputs, same output


def test_series_matching_point_must_sit_in_harmonic_core():
    with pytest.raises(SeriesError):
        FrobeniusStart.well(harmonic(kind="radial"), 0.5, 0.01, x0=0.2)


def test_frobenius_start_leading_power():
    # Near 0 the solution is ~ x^(nu+1/2); ratio of two small x values
    # exposes the exponent.
    w = harmonic(kind="radial")
    _, s1 = FrobeniusStart.well(w, 1.5, 0.1, x0=1e-3)(0.5)
    _, s2 = FrobeniusStart.well(w, 1.5, 0.1, x0=2e-3)(0.5)
    got = s2[0] / s1[0]
    assert got == pytest.approx(2.0 ** 2.0, rel=1e-4)


def test_coulomb_series_satisfies_the_ode():
    z, ell, h, energy = 2.0, 1, 1.0, -0.25
    x0, d = 0.05, 1e-6
    u = {}
    for dx in (-d, 0.0, d):
        series = FrobeniusStart.coulomb(z, ell, h, x0 + dx)
        _, y = series(energy)
        u[dx] = y[0]
    fd2 = (u[d] - 2 * u[0.0] + u[-d]) / (d * d)
    q = (ell * (ell + 1) * h * h / x0 ** 2 - z / x0 - energy) / (h * h)
    assert fd2 == pytest.approx(q * u[0.0], rel=1e-4)


def test_coulomb_series_lambda_sensitivity():
    series = FrobeniusStart.coulomb(2.0, 0, 1.0, 0.05)
    e, d = -1.0, 1e-6
    _, y = series(e)
    _, y_p = series(e + d)
    _, y_m = series(e - d)
    assert y[2] == pytest.approx((y_p[0] - y_m[0]) / (2 * d), rel=1e-5)


def test_coulomb_series_sums_past_a_tiny_odd_term():
    # x0 = 1e-18 and the free level of a 1e-16 box: the odd term z x0/h^2
    # is 1e-18, below the cutoff, while -lambda enters at n = 2 with
    # (k x0)^2 ~ 1e-3.  At this lambda -z/x is negligible and u is
    # sin(k x)/k, so x0 u'/u = k x0 cot(k x0).
    x0, lam = 1e-18, math.pi ** 2 * 1e32
    _, (u, du, _, _) = FrobeniusStart.coulomb(2.0, 0, 1.0, x0)(lam)
    kx0 = math.sqrt(lam) * x0
    assert x0 * du / u == pytest.approx(kx0 / math.tan(kx0), rel=1e-14)


@pytest.mark.parametrize("ell", [0, 1, 3])
@pytest.mark.parametrize("zx0", [0.5, 2.0, 3.66])
def test_coulomb_series_has_no_zero_before_its_point_below_top(ell, zx0):
    # Sturm comparison: at top, u keeps its sign on (0, x0].  At ell = 0 and
    # z*x0 = 3.66 h^2, top is near 0, where the bound is the equation
    # itself and u's first zero lies at 3.6705 h^2/z, just past x0.
    z, h = 2.0, 1.0
    x0 = zx0 * h * h / z
    top = FrobeniusStart.coulomb(z, ell, h, x0).top
    assert 0.0 < top < math.inf
    for x in np.linspace(x0 / 64, x0, 64):
        _, (u, _, _, _) = FrobeniusStart.coulomb(z, ell, h, x)(top)
        assert u > 0.0
    with pytest.raises(SeriesError, match="escape the node count"):
        FrobeniusStart.coulomb(z, ell, h, x0)(math.nextafter(top, math.inf))


def test_coulomb_series_past_the_zero_energy_zero_refuses_every_lambda():
    # At lambda = 0, u = sqrt(x) J_1(2 sqrt(z x)/h) vanishes at 3.6705 h^2/z.
    series = FrobeniusStart.coulomb(2.0, 0, 1.0, 1.9)
    assert series.top == -math.inf
    with pytest.raises(SeriesError):
        series(-1.0)


@pytest.mark.parametrize("h", [1e-15, 1e-16, 1e-100])
def test_coulomb_series_is_h_invariant(h):
    # With x0 = 0.05 h^2 and E = -1/h^2 the series sums su = u / x0^(nu+1/2)
    # and sdu = x0 u' / x0^(nu+1/2) do not depend on h; the coefficients
    # c_n alone grow like h^(-2n) and overflow a double from h = 1e-15 on.
    def sums(h):
        x0 = 0.05 * h * h
        _, (u, du, _, _) = FrobeniusStart.coulomb(2.0, 0, h, x0)(
            -1.0 / (h * h))
        return u / x0, du  # nu + 1/2 = 1 for ell = 0
    su, sdu = sums(h)
    su_1, sdu_1 = sums(1.0)
    assert su == pytest.approx(su_1, rel=1e-13)
    assert sdu == pytest.approx(sdu_1, rel=1e-13)


# -- ModeSpec validation -----------------------------------------------------------

def test_mode_spec_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ModeSpec(level=-1, h=0.1)
    with pytest.raises(ValueError):
        ModeSpec(level=0, h=0.0)
    with pytest.raises(ValueError):
        ModeSpec(level=0, h=math.nan)
    with pytest.raises(ValueError):
        ModeSpec(level=0, h=0.1, nu=-0.5)
    with pytest.raises(ValueError, match="finite"):
        ModeSpec(level=0, h=0.1, nu=math.inf)
    with pytest.raises(ValueError, match="nu\\^2"):
        ModeSpec(level=0, h=0.1, nu=1e160)  # nu^2 overflows


@pytest.mark.parametrize("h", [1e-300, 1e-170, 1e-155])
def test_mode_spec_rejects_h_whose_square_underflows(h):
    # (V - lambda)/h^2 would divide by zero or by a subnormal.
    with pytest.raises(ValueError, match="h\\^2"):
        ModeSpec(level=0, h=h)
    ModeSpec(level=0, h=1e-150)  # h^2 = 1e-300 is still a normal float


@pytest.mark.parametrize("fault", [ZeroDivisionError, OverflowError])
def test_arithmetic_error_while_stepping_is_a_solver_error(fault):
    def q(x):
        if x > 0.5:
            raise fault("forced")
        return 1.0
    before = steps_taken()
    with pytest.raises(SolverError, match=fault.__name__):
        shooting._integrate(q, 0.0, (1.0, 0.0, 0.0, 0.0), 1.0, 1e-12)
    assert steps_taken() > before  # the steps before the fault still count


def test_shoot_line_side_reports_steps_and_crossings():
    mode = ModeSpec(level=3, h=H)
    sol = newton_solve_line(harmonic(), BOX, mode, 7 * H * 1.0003)
    _, side = Matching.line(harmonic(), BOX, mode).shoot(
        sol.lam, 1e-12, max_step=0.05)
    # Level 3 has nodes at the origin and a symmetric pair; the inward shot
    # from the right wall crosses one of the pair on its way to the origin,
    # and its start on the wall is no crossing.  At the origin u is a
    # rounding error from 0 and still has the sign that crossing gave it.
    assert side.crossings == 1


# -- mirrored pairs ------------------------------------------------------------------

def test_mirrored_right_shot_is_the_integrated_one():
    # Decaying starts in the barrier of the quartic, each shot keeping its
    # state where it passes a wall, as the flux step shoots them.
    match = Matching.line(quartic(), Unwalled(-2.5, 2.5), ModeSpec(1, H))
    assert match.mirror
    walls = (-1.0, 1.0)
    before = steps_taken()
    mirrored = match.shoot(0.5, 1e-12, via=walls)
    half = steps_taken() - before
    integrated = replace(match, mirror=False).shoot(0.5, 1e-12, via=walls)
    assert steps_taken() - before == 3 * half
    assert mirrored == integrated
    assert mirrored[1].via is not None and mirrored[1].crossings


def test_walls_keep_the_mirror_only_when_symmetric():
    match = Matching.line(quartic(), Unwalled(-2.5, 2.5), ModeSpec(0, H))
    assert match.walled(BOX).mirror
    assert not match.walled(LineBox(-1.0, 2.0)).mirror
    assert not Matching.line(quartic(), LineBox(-1.0, 2.0), ModeSpec(0, H)).mirror
    # Free ends symmetric about an asymmetric box: the flux pair, which
    # keeps each free shot's state at its wall, shoots both sides.
    asymmetric = match.walled(LineBox(-1.0, 2.0))
    two_sided = replace(match, mirror=False)
    assert shooting.flux_wronskian(match, asymmetric, 0.11, 1e-12) \
        == shooting.flux_wronskian(two_sided, asymmetric, 0.11, 1e-12)
    p = harmonic(kind="radial")
    radial = Matching.radial(p.evaluate, 0.5, H, 1.0,
                             FrobeniusStart.well(p, 0.5, H, L=1.0))
    assert not radial.mirror and not radial.walled(RadialBox(1.0)).mirror


# -- errors of the potential inside a shot --------------------------------------

@pytest.mark.parametrize("text,error,message", [
    ("x^2 + (x + 0.9)^0.5", EvalError,
     "negative base with non-integer exponent in '(x + 0.9)^0.5'"),
    ("x^2 + log(x + 0.95)", EvalError,
     "log of a non-positive value in 'log(x + 0.95)'"),
    ("x^2 + sqrt(x^2 - 0.25)", EvalError,
     "sqrt of a negative value in 'sqrt(x^2 - 0.25)'"),
    ("x^2 + 1e300*(1e10*(0.25 - x^2 + abs(0.25 - x^2)))", EvalError,
     "non-finite result inf in "
     "'x^2 + 1e+300*(10000000000*(0.25 - x^2 + abs(0.25 - x^2)))'"),
    ("x^2 + 1/(x + 0.7)", SolverError,
     "integrator failed near x=-0.7: "
     "Required step size is less than spacing between numbers."),
], ids=["sensitivity-power-at-wall", "sensitivity-log-at-wall",
        "sensitivity-sqrt-inside", "sensitivity-overflow-inside",
        "sensitivity-pole-inside"])
def test_potential_error_inside_a_shot_surfaces_unchanged(text, error, message):
    # The first two are undefined at the left wall, where the solver's
    # first right-hand side meets them; the next two only inside the shot,
    # one raising there and one overflowing to inf without raising.  The
    # pole is never hit exactly: the step shrinks in front of it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the division
        p = from_expression(text)
    with pytest.raises(error) as caught:
        Matching.line(p, BOX, ModeSpec(0, 0.1)).shoot(0.1, 5e-13)
    assert type(caught.value) is error
    assert str(caught.value) == message
