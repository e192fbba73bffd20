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
from dataclasses import replace

import numpy as np
import pytest

from boxshift import (LineBox, ModeSpec, RadialBox, confined_eigenvalue,
                      from_expression, report, resolve_potential, shooting,
                      shift_leading_line, shift_leading_radial, spectra,
                      unconfined_eigenvalue)
from boxshift.report import run_shift_case, run_sweep
from crosschecks import exact_harmonic_shift

BOX = LineBox(-1.0, 1.0)
EPS = sys.float_info.epsilon


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


# -- the flux step as the whole free solve ---------------------------------------

@pytest.mark.parametrize("h", [0.1, 0.05, 0.02])
@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("kind, nu", [("line", None), ("radial", 1.5)])
@pytest.mark.parametrize("source", ["x^2 + x^4", "x^2", "cosh(x) - 1",
                                    "1 - exp(-x^2)"])
def test_flux_step_ends_only_solves_whose_next_step_is_noise(
        monkeypatch, source, kind, nu, m, h):
    # Newton's next step from the flux step s is about s^2/gap.  Where that
    # lies 100 times below the noise bound, the full loop shoots one more
    # pair only to drop its step: the solve that ends on the flux step
    # returns bit for bit the same level and shift.  Where it does not
    # end, it is the same solve.
    p = resolve_potential(source, kind)
    box = BOX if kind == "line" else RadialBox(1.0)
    mode = ModeSpec(level=m, h=h, nu=nu)
    confined = confined_eigenvalue(p, box, mode)

    def free():
        return unconfined_eigenvalue(p, mode, lam0=confined.value, box=box,
                                     box_shots=confined.shots)

    ended = free()
    # Without its gap estimate, Newton never ends on the flux step.
    real = shooting._next_step
    monkeypatch.setattr(shooting, "_next_step",
                        lambda step, dw, last, gap, *rest:
                        real(step, dw, last, None, *rest))
    full = free()
    assert full.iterations > 1
    if ended.iterations == 1:
        assert ended.offset is not None
        assert (ended.value, ended.offset) == (full.value, full.offset)
    else:
        assert ended == full
    if h == 0.02:  # a shift of e^-(2 phi/h): the flux step alone is enough
        assert ended.iterations == 1


SMALL_SHIFTS = [("line", m, None, h) for m in (0, 1)
                for h in (0.05, 0.02, 0.01, 0.005)] \
    + [("radial", 0, 1.5, h) for h in (0.05, 0.02)]


@pytest.mark.parametrize("kind, m, nu, h", SMALL_SHIFTS)
def test_small_quartic_shifts_take_one_free_iteration(kind, m, nu, h):
    # The h = 0.05 cases of the benchmark and the small-h quartic set: the
    # free solve is the flux step, and no pair is shot only to confirm it.
    p = resolve_potential("x^2 + x^4", kind)
    box = BOX if kind == "line" else RadialBox(1.0)
    rep = run_shift_case(p, box, ModeSpec(level=m, h=h, nu=nu))
    assert rep.diagnostics.free_iterations == 1


# -- the flux iterate shot loosely where Newton continues -----------------------

def _box(kind):
    return BOX if kind == "line" else RadialBox(1.0)


def _rtol(kind):
    """Newton's rtol in a free solve at the default 1e-12 (halved on the
    line, see ``newton_solve_line``)."""
    return 0.5e-12 if kind == "line" else 1e-12


def _leading(p, box, mode):
    if mode.nu is None:
        return shift_leading_line(p, box, mode).leading_value
    return shift_leading_radial(p, box.length, mode).leading_value


def _noise_bound(sol, h, rtol):
    """A free solve's noise bound, read off its last shots like ``newton``'s
    stopping test."""
    left, right = sol.shots
    k = math.sqrt(max(abs(sol.shot_at), h)) / h
    return rtol * math.exp(shooting._wronskian_size(left, right, k)
                           - shooting.wronskian(left, right)[1].log_abs())


@pytest.mark.parametrize("wrong", [
    lambda s: 1e-3 * s, lambda s: 1e3 * s, lambda s: 0.0, lambda s: None,
    lambda s: math.inf, lambda s: math.nan,
], ids=["x1e-3", "x1e3", "zero", "none", "inf", "nan"])
@pytest.mark.parametrize("kind, m, nu, h", QUARTIC_BOXES)
def test_a_wrong_shift_estimate_costs_at_most_one_loose_pair(
        monkeypatch, free_solves, kind, m, nu, h, wrong):
    # The estimate only sets the flux iterate's tolerance.  Too small, the
    # flux pair is shot in full, as without one; too large, a loose flux
    # step that a full one would have ended is dropped and lambda_D shot
    # again in full, which is then the solve without an estimate.  Either
    # way the solve lands within its noise bound and ends on a full shot.
    p = resolve_potential("x^2 + x^4", kind)
    box, mode, rtol = _box(kind), ModeSpec(level=m, h=h, nu=nu), _rtol(kind)
    confined = confined_eigenvalue(p, box, mode)
    shots = []
    real = shooting.Matching.shoot

    def spy(self, lam, tol, **kwargs):
        shots.append((tol, real(self, lam, tol, **kwargs)))
        return shots[-1][1]
    monkeypatch.setattr(shooting.Matching, "shoot", spy)

    def free(estimate):
        pair = unconfined_eigenvalue(p, mode, lam0=confined.value, box=box,
                                     box_shots=confined.shots,
                                     shift_estimate=estimate)
        assert shots[-1] == (rtol, free_solves[-1].shots)
        return pair, free_solves[-1]

    plain, plain_sol = free(None)
    pair, sol = free(wrong(_leading(p, box, mode)))
    bound = _noise_bound(plain_sol, h, rtol)
    assert pair.nodes == plain.nodes == m
    assert abs(pair.value - plain.value) <= bound + math.ulp(plain.value)
    assert abs(pair.offset.to_float() - plain.offset.to_float()) <= bound
    assert pair.iterations <= plain.iterations + 1
    if pair.iterations > plain.iterations:  # the loose flux pair dropped
        assert (pair.value, pair.offset) == (plain.value, plain.offset)


@pytest.mark.parametrize("kind, m, nu, h", SMALL_SHIFTS)
def test_small_shifts_do_not_read_the_shift_estimate(monkeypatch, kind, m,
                                                     nu, h):
    # Where the flux step ends the solve, its pair is shot in full: the
    # report is bit for bit the one without an estimate.
    p = resolve_potential("x^2 + x^4", kind)
    box, mode = _box(kind), ModeSpec(level=m, h=h, nu=nu)
    with_estimate = run_shift_case(p, box, mode)
    real = spectra.unconfined_eigenvalue
    monkeypatch.setattr(report, "unconfined_eigenvalue",
                        lambda *args, shift_estimate, **kwargs:
                        real(*args, **kwargs))
    assert run_shift_case(p, box, mode) == with_estimate


@pytest.fixture
def flux_tols(monkeypatch):
    """The tolerance of every ``flux_wronskian`` call."""
    tols = []
    real = shooting.flux_wronskian

    def spy(free, walls, lam, tol, **kwargs):
        tols.append(tol)
        return real(free, walls, lam, tol, **kwargs)
    monkeypatch.setattr(shooting, "flux_wronskian", spy)
    return tols


LOOSE_FLUX = [("line", m, None, h) for m in (0, 1) for h in (0.2, 0.1)] \
    + [("radial", 0, 1.5, 0.1)]


@pytest.mark.parametrize("kind, m, nu, h", LOOSE_FLUX)
def test_loose_flux_pair_ends_no_solve(monkeypatch, free_solves, flux_tols,
                                       kind, m, nu, h):
    # The flux pair is shot above rtol, so the solve ends on a later
    # iterate shot at rtol, whose shots are the ones count_nodes reads.
    p = resolve_potential("x^2 + x^4", kind)
    box, mode, rtol = _box(kind), ModeSpec(level=m, h=h, nu=nu), _rtol(kind)
    confined = confined_eigenvalue(p, box, mode)
    shots = []
    real = shooting.Matching.shoot

    def spy(self, lam, tol, **kwargs):
        shots.append((lam, tol, real(self, lam, tol, **kwargs)))
        return shots[-1][2]
    monkeypatch.setattr(shooting.Matching, "shoot", spy)
    unconfined_eigenvalue(p, mode, lam0=confined.value, box=box,
                          box_shots=confined.shots,
                          shift_estimate=_leading(p, box, mode))
    sol = free_solves[-1]
    assert len(flux_tols) == 1 and rtol < flux_tols[0] <= shooting._LOOSE_RTOL
    assert shots[0][:2] == (confined.value, flux_tols[0])  # the flux pair
    assert shots[-1] == (sol.shot_at, rtol, sol.shots)
    assert sol.iterations > 1


@pytest.mark.parametrize("kind, m, nu", [("line", 0, None), ("line", 1, None),
                                         ("radial", 0, 1.5)])
def test_loose_flux_pair_takes_no_more_iterations(flux_tols, kind, m, nu):
    # At h = 0.1 the estimate shoots the flux pair above rtol.  Newton's
    # next iterate corrects its error, which enters the secant of the last
    # step at about 1e-3 of that step: no iteration is added.
    p = resolve_potential("x^2 + x^4", kind)
    box, mode, rtol = _box(kind), ModeSpec(level=m, h=0.1, nu=nu), _rtol(kind)
    confined = confined_eigenvalue(p, box, mode)
    runs = []
    for estimate in (None, _leading(p, box, mode)):
        before = shooting.steps_taken()
        pair = unconfined_eigenvalue(p, mode, lam0=confined.value, box=box,
                                     box_shots=confined.shots,
                                     shift_estimate=estimate)
        runs.append((pair, shooting.steps_taken() - before))
    (full, full_steps), (loose, loose_steps) = runs
    assert flux_tols[0] == rtol < flux_tols[1]
    assert loose.iterations <= full.iterations
    assert loose_steps < full_steps
    assert loose.nodes == full.nodes == m


# -- the margin leg shot loosely ---------------------------------------------------

@pytest.fixture
def free_domains(monkeypatch):
    """The ``Unwalled`` domain of every free solve."""
    domains = []
    real = spectra.confined_eigenvalue

    def recorded(p, domain, mode, **kwargs):
        if isinstance(domain, shooting.Unwalled):
            domains.append(domain)
        return real(p, domain, mode, **kwargs)
    monkeypatch.setattr(spectra, "confined_eigenvalue", recorded)
    return domains


def _unsplit(monkeypatch):
    """Free solves from here on place no margin split."""
    monkeypatch.setattr(shooting, "damped_margin", lambda rtol: math.inf)


def _free_matching(p, domain, mode):
    if mode.nu is None:
        return shooting.Matching.line(p, domain, mode)
    series = shooting.FrobeniusStart.well(p, mode.nu, mode.h, L=domain.right)
    return shooting.Matching.radial(p.evaluate, mode.nu, mode.h, domain,
                                    series)


def _free_case(p, kind, mode, domains):
    """The box's level and the free problem's domain, margin split placed."""
    box = _box(kind)
    confined = confined_eigenvalue(p, box, mode)
    unconfined_eigenvalue(p, mode, lam0=confined.value, box=box)
    return box, confined, domains[-1]


WALL_STATES = [("line", m, None, h) for m in (0, 1)
               for h in (0.2, 0.1, 0.05, 0.02)] \
    + [("radial", 0, 1.5, h) for h in (0.1, 0.05)]


@pytest.mark.parametrize("kind, m, nu, h", WALL_STATES)
def test_loose_margin_leg_keeps_the_state_at_the_wall(free_domains, kind, m,
                                                      nu, h):
    # The leg out to x_a runs at 1e-6; its errors off the decaying solution
    # reach the wall damped to below rtol.  u'/u there, which the flux
    # step reads, and (w/u)' = Wr(u, w)/u^2 keep the shot's tolerance;
    # w/u itself gains a multiple of u, the lambda-derivative of a
    # renormalisation, at about the loose tolerance.
    p = resolve_potential("x^2 + x^4", kind)
    mode, rtol = ModeSpec(level=m, h=h, nu=nu), _rtol(kind)
    box, confined, free = _free_case(p, kind, mode, free_domains)
    walls = box.as_tuple() if kind == "line" else (None, box.length)
    for end, x_a, wall in zip(free.as_tuple(), free.x_a, walls):
        if wall is not None:
            assert min(end, wall) < x_a < max(end, wall)
    match = _free_matching(p, free, mode)
    split, whole = (m_.shoot(confined.value, rtol, via=walls)
                    for m_ in (match, replace(match, x_a=(None, None))))
    assert split != whole
    for a, b in zip(split, whole):
        if b.via is None:
            continue
        (u, du, w, dw), (u0, du0, w0, dw0) = a.via.y, b.via.y
        assert abs(du / u - du0 / u0) <= 10 * rtol * abs(du0 / u0)
        slope, slope0 = (u * dw - du * w) / (u * u), \
            (u0 * dw0 - du0 * w0) / (u0 * u0)
        assert abs(slope - slope0) <= 10 * rtol * abs(slope0)
        assert abs(w / u - w0 / u0) <= shooting._LOOSE_RTOL * abs(w0 / u0)


# cosh(x) - 1 at m = 1, h = 0.2 is left out: its box lifts the level by
# about a level gap, so the free level comes from the harmonic seed and has
# no summed shift (``unconfined_eigenvalue``).
SPLIT_CASES = [(source, "line", m, None, h)
               for source in ("x^2 + x^4", "x^2", "cosh(x) - 1",
                              "x^2 + 0.1*x^6", "x^2 + 0.3*x^3 + x^4")
               for m in (0, 1) for h in (0.2, 0.1, 0.05)
               if (source, m, h) != ("cosh(x) - 1", 1, 0.2)] \
    + [(source, "radial", 0, 1.5, h)
       for source in ("x^2 + x^4", "x^2", "cosh(x) - 1", "x^2 + 0.1*x^6")
       for h in (0.1, 0.05)]


@pytest.mark.parametrize("source, kind, m, nu, h", SPLIT_CASES)
def test_loose_margin_leg_moves_the_free_level_by_noise(
        monkeypatch, free_solves, source, kind, m, nu, h):
    # Against free shots run at the iterate's tolerance all the way, the
    # level and the shift stay within the free solve's noise bound (plus
    # an ulp of the level), with fewer steps and the same node count.
    p = resolve_potential(source, kind)
    box, mode, rtol = _box(kind), ModeSpec(level=m, h=h, nu=nu), _rtol(kind)
    confined = confined_eigenvalue(p, box, mode)
    estimate = _leading(p, box, mode)

    def free():
        before = shooting.steps_taken()
        pair = unconfined_eigenvalue(p, mode, lam0=confined.value, box=box,
                                     box_shots=confined.shots,
                                     shift_estimate=estimate)
        return pair, shooting.steps_taken() - before, free_solves[-1]

    split, split_steps, _ = free()
    _unsplit(monkeypatch)
    whole, whole_steps, whole_sol = free()
    assert split.offset is not None and whole.offset is not None
    slack = _noise_bound(whole_sol, h, rtol) + math.ulp(whole.value)
    assert abs(split.value - whole.value) <= slack
    assert abs(split.offset.to_float() - whole.offset.to_float()) <= slack
    assert split.nodes == whole.nodes == m
    assert split_steps < whole_steps


@pytest.mark.parametrize("kind, nu", [("line", None), ("radial", 1.5)])
def test_margin_split_leaves_the_starts_where_they_were(monkeypatch,
                                                        free_domains, kind,
                                                        nu):
    # x_a is found from the start inward, after the start is placed: the
    # start points are bit for bit those placed without a split.
    p, mode = resolve_potential("x^2 + x^4", kind), ModeSpec(0, 0.1, nu)
    split = _free_case(p, kind, mode, free_domains)[2]
    _unsplit(monkeypatch)
    whole = _free_case(p, kind, mode, free_domains)[2]
    assert split.as_tuple() == whole.as_tuple()
    assert whole.x_a == (None, None) and split.x_a != whole.x_a


@pytest.mark.parametrize("kind, nu", [("line", None), ("radial", 1.5)])
def test_loose_iterates_and_wall_shots_do_not_split(free_domains, kind, nu):
    # A shot at or above _LOOSE_RTOL has no tighter rest to split off, and
    # the Dirichlet shots of the flux step start at the wall.
    p, mode = resolve_potential("x^2 + x^4", kind), ModeSpec(0, 0.1, nu)
    box, confined, free = _free_case(p, kind, mode, free_domains)
    match = _free_matching(p, free, mode)
    whole = replace(match, x_a=(None, None))
    for tol in (shooting._LOOSE_RTOL, 1e-4):
        assert match.shoot(confined.value, tol) \
            == whole.shoot(confined.value, tol)
    assert match.walled(box).x_a == (None, None)


@pytest.mark.parametrize("kind, nu", [("line", None), ("radial", 1.5)])
def test_split_points_off_the_margin_leg_do_not_split(free_domains, kind,
                                                      nu):
    # x_a must lie strictly between the start and the next point of the
    # shot (the wall it passes, else x_m); anywhere else the shot is the
    # one without a split, bit for bit.
    p, mode = resolve_potential("x^2 + x^4", kind), ModeSpec(0, 0.1, nu)
    box, confined, free = _free_case(p, kind, mode, free_domains)
    match = _free_matching(p, free, mode)
    whole = replace(match, x_a=(None, None))
    lam, rtol, end = confined.value, _rtol(kind), free.right
    wall = box.as_tuple()[1]
    for x_a in (end, 1.1 * end, wall, 0.5 * (wall + match.x_m)):
        moved = replace(match, x_a=(-x_a, x_a) if kind == "line"
                        else (None, x_a))
        via = (-wall, wall) if kind == "line" else (None, wall)
        assert moved.shoot(lam, rtol, via=via) == whole.shoot(lam, rtol,
                                                              via=via)
    assert match.shoot(lam, rtol) != whole.shoot(lam, rtol)


@pytest.mark.parametrize("loose", [0.0, 0.5e-12], ids=["zero", "at-rtol"])
def test_no_split_where_the_loose_tolerance_is_not_looser(
        monkeypatch, free_domains, loose):
    # With _LOOSE_RTOL at or below the free shots' tolerance there is no
    # margin c = ln(_LOOSE_RTOL/rtol)/2 to place (the log is never taken),
    # and a domain that has a split shoots without it.
    p, mode = resolve_potential("x^2 + x^4", "line"), ModeSpec(0, 0.1)
    box, confined, placed = _free_case(p, "line", mode, free_domains)
    monkeypatch.setattr(shooting, "_LOOSE_RTOL", loose)
    assert shooting.damped_margin(0.5e-12) == math.inf
    free = _free_case(p, "line", mode, free_domains)[2]
    assert free.x_a == (None, None)
    assert free.as_tuple() == placed.as_tuple()
    match = _free_matching(p, placed, mode)
    assert match.shoot(confined.value, 0.5e-12) \
        == replace(match, x_a=(None, None)).shoot(confined.value, 0.5e-12)


def test_no_split_where_the_margin_is_no_wider_than_the_damped_one(
        monkeypatch, free_domains):
    # c >= _PHI_MARGIN: the whole margin is needed at full tolerance.
    p, mode = resolve_potential("x^2 + x^4", "line"), ModeSpec(0, 0.1)
    monkeypatch.setattr(spectra, "_PHI_MARGIN",
                        shooting.damped_margin(0.5e-12))
    split = _free_case(p, "line", mode, free_domains)
    _unsplit(monkeypatch)
    whole = _free_case(p, "line", mode, free_domains)
    assert split[2].x_a == (None, None)
    assert split[2] == whole[2]
    assert unconfined_eigenvalue(p, mode, lam0=split[1].value, box=BOX) \
        == unconfined_eigenvalue(p, mode, lam0=whole[1].value, box=BOX)
