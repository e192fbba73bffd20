"""Eigenvalue services: shooting vs finite differences, wall monotonicity,
closed-form anchors, confined hydrogen and the oscillator equivalence.

The frozen reference levels were obtained from the confluent-hypergeometric
boundary condition evaluated at 50-digit precision (Dirichlet roots found by
bisection); agreement is asked at 1e-11, two orders above that oracle's
resolution.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from boxshift import (
    GridError, HydrogenSpec, InvalidPotential, LineBox, ModeSpec,
    PotentialSpec, RadialBox, confined_eigenvalue, fd_oracle, from_expression,
    harmonic, resolve_potential, SeriesError, SolverError, hydrogen_confined,
    quartic, unconfined_eigenvalue,
)
from boxshift import report, shooting, spectra
from boxshift.agmon import AgmonProfile
from boxshift.dsl import EvalError
from boxshift.potentials import v_on_grid
from boxshift.report import run_hydrogen_case, run_shift_case
from boxshift.shooting import (Matching, Unwalled, rhs_calls_taken,
                               steps_taken)
from boxshift.spectra import harmonic_level
from crosschecks import (coulomb_regular, coulomb_sign_changes,
                         exact_coulomb_level, hydrogen_confined_via_oscillator)

BOX = LineBox(-1.0, 1.0)

# x^2 on (-1,1): Dirichlet levels.
LINE_M0_H01 = 0.10003056039514422
LINE_M2_H02 = 1.1990788504622032
# y^2 on (0,1) with the angular term.
RADIAL_NU15_M0_H01 = 0.50310137361682151
RADIAL_NU05_M1_H01 = 0.71863878353254094
# Coulomb -2/x, h=1, in a ball of radius R.
HYDROGEN_LEVELS = {
    (1, 0, 8.0): -0.99995020089148119,
    (1, 0, 14.0): -0.99999999899652826,
    (2, 0, 8.0): -0.16947744271381373,
    (2, 0, 14.0): -0.24803005886358993,
    (2, 1, 8.0): -0.20890013281233365,
    (2, 1, 14.0): -0.24908119598061245,
    # Crowded boxes: the wall moves the level by O(1).  At R=3 for (2, 0),
    # the free E_n stands for the ground state, so Newton moves to its
    # Sturm bracket's points until an iterate stands for the level.  An
    # 8000-point fd_oracle agrees with each to 7e-9.
    (2, 0, 3.0): 2.223369474872948,
    (2, 0, 4.0): 0.8404712634274435,
    (2, 1, 3.0): 0.9625006250533054,
    (2, 1, 4.0): 0.2870541674279169,
}


# -- frozen anchors ---------------------------------------------------------------

def test_line_ground_state_frozen():
    got = confined_eigenvalue(harmonic(), BOX, ModeSpec(level=0, h=0.1))
    assert got.value == pytest.approx(LINE_M0_H01, rel=1e-12)
    assert got.method == "shooting"
    assert got.nodes == 0
    assert got.iterations > 0


def test_dirichlet_newton_stops_without_a_confirming_pair_of_shots():
    # From the harmonic seed 0.1, two steps land within the noise bound of
    # the root, and the quadratic prediction of the third step says so: no
    # third pair of shots is taken only to confirm it.
    got = confined_eigenvalue(harmonic(), BOX, ModeSpec(level=0, h=0.1))
    assert got.iterations == 2
    assert got.value == pytest.approx(LINE_M0_H01, rel=1e-12)


def test_line_second_level_frozen():
    got = confined_eigenvalue(harmonic(), BOX, ModeSpec(level=2, h=0.2)).value
    assert got == pytest.approx(LINE_M2_H02, rel=1e-12)


def test_radial_levels_frozen():
    w = harmonic(kind="radial")
    got = confined_eigenvalue(w, RadialBox(1.0), ModeSpec(level=0, h=0.1, nu=1.5))
    assert got.value == pytest.approx(RADIAL_NU15_M0_H01, rel=1e-12)
    got = confined_eigenvalue(w, RadialBox(1.0), ModeSpec(level=1, h=0.1, nu=0.5))
    assert got.value == pytest.approx(RADIAL_NU05_M1_H01, rel=1e-12)


# -- dual route: shooting against finite differences --------------------------------

@pytest.mark.parametrize("level,h", [(0, 0.15), (1, 0.1), (2, 0.2)])
def test_shooting_agrees_with_fd_on_the_line(level, h):
    p = quartic()
    mode = ModeSpec(level=level, h=h)
    shot = confined_eigenvalue(p, BOX, mode).value
    fd = fd_oracle(p, BOX, mode, grid_n=3000, count=level + 1)[level].value
    assert shot == pytest.approx(fd, rel=2e-9)


def test_shooting_agrees_with_fd_radially():
    w = quartic(kind="radial")
    mode = ModeSpec(level=1, h=0.12, nu=1.5)
    shot = confined_eigenvalue(w, RadialBox(1.0), mode).value
    fd = fd_oracle(w, RadialBox(1.0), mode, grid_n=3000, count=2)[1].value
    assert shot == pytest.approx(fd, rel=2e-9)


def test_fd_oracle_metadata():
    pair = fd_oracle(harmonic(), BOX, ModeSpec(level=0, h=0.1))[0]
    assert pair.method == "finite-difference"
    assert pair.grid_n == 2000


def test_fd_oracle_rejects_tiny_grids():
    with pytest.raises(GridError):
        fd_oracle(harmonic(), BOX, ModeSpec(level=0, h=0.1), grid_n=100)


def test_fd_oracle_rejects_more_levels_than_interior_points():
    # 200 intervals leave 199 interior points: 199 levels need 200 of them
    # (one more level gives the last one's gap).
    with pytest.raises(GridError, match="interior points"):
        fd_oracle(harmonic(), BOX, ModeSpec(level=0, h=0.1),
                  grid_n=200, count=199)


def test_fd_oracle_detects_unresolved_crowding():
    # At h = 0.004 the first 40 levels of the well crowd into [0, 0.33];
    # a 200-point grid cannot separate the top of that stack.
    with pytest.raises(GridError):
        fd_oracle(harmonic(), BOX, ModeSpec(level=0, h=0.004),
                  grid_n=200, count=40)


@pytest.mark.parametrize("kwargs, name", [
    ({"count": -1}, "count"), ({"count": 1.5}, "count"), ({"count": True}, "count"),
    ({"grid_n": 2000.5}, "grid_n"), ({"grid_n": True}, "grid_n"),
    ({"grid_n": "2000"}, "grid_n"),
])
def test_fd_oracle_names_a_bad_argument(kwargs, name):
    # Before, count=-1 reached scipy's select_range check, grid_n=2000.5
    # failed in numpy, and grid_n=True was read as 1.
    with pytest.raises(GridError, match=f"^{name} must be"):
        fd_oracle(harmonic(), BOX, ModeSpec(level=0, h=0.1), **kwargs)


# -- the finite-difference levels: seed grid, inverse iteration, certificates ----------

EPS = sys.float_info.epsilon


def _coulomb(z: float) -> PotentialSpec:
    V = lambda x: -z / x  # noqa: E731
    V.source = f"-{z!r} / x"  # as in hydrogen_confined
    return PotentialSpec("radial", V)


# Each as a function of h: the Coulomb charge scales like h^2, so its
# levels keep the Bohr length 0.1 that the unit box resolves at every h.
FD_PROBLEMS = {
    "harmonic-line": lambda h: (harmonic(), BOX, None),
    "quartic-line": lambda h: (quartic(), BOX, None),
    "cubic-quartic-line": lambda h: (from_expression("x^2 + 0.3*x^3 + x^4"),
                                     LineBox(-1.0, 2.0), None),
    "harmonic-radial": lambda h: (harmonic(kind="radial"), RadialBox(1.0), 1.5),
    "quartic-radial": lambda h: (quartic(kind="radial"), RadialBox(1.0), 0.5),
    "coulomb-radial": lambda h: (_coulomb(20.0 * h * h), RadialBox(1.0), 0.5),
}


def _bisected(diag, off, count):
    return eigh_tridiagonal(diag, np.full(diag.size - 1, off),
                            eigvals_only=True, select="i",
                            select_range=(0, count - 1))


def _gershgorin(diag, off):
    return max(abs(diag.min() - 2 * abs(off)), abs(diag.max() + 2 * abs(off)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=st.sampled_from(sorted(FD_PROBLEMS)),
       h=st.floats(0.02, 0.3), level=st.integers(0, 3))
def test_refined_levels_are_the_bisected_ones_within_the_residual_bound(
        problem, h, level):
    p, domain, nu = FD_PROBLEMS[problem](h)
    matrix = spectra._fd_grids(p, domain, ModeSpec(level, h, nu))
    count = level + 2  # the seed grid's levels: fd_oracle's and one above
    values, _ = spectra._fd_values(*matrix(250), count)
    for n in (2000, 4000):
        diag, off = matrix(n)
        refined = spectra._refined(diag, off, values)
        assert refined is not None  # certified, no fallback
        values, _ = refined
        assert np.all(np.abs(values - _bisected(diag, off, count))
                      <= 4 * EPS * _gershgorin(diag, off))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=st.sampled_from(sorted(FD_PROBLEMS)),
       h=st.floats(0.02, 0.3), level=st.integers(0, 3))
def test_levels_refined_from_interpolated_starts_are_the_bisected_ones(
        problem, h, level):
    # As in fd_oracle: the 2000 grid from the seed grid's values and a
    # linspace start, the 4000 grid from the 2000 grid's values and its
    # vectors interpolated onto the finer grid.
    p, domain, nu = FD_PROBLEMS[problem](h)
    matrix = spectra._fd_grids(p, domain, ModeSpec(level, h, nu))
    count = level + 1
    seeds, _ = spectra._fd_values(*matrix(250), count + 1)
    refined = spectra._refined(*matrix(2000), seeds[:count])
    assert refined is not None
    values, vectors = refined
    assert all(np.isclose(v @ v, 1.0) for v in vectors)
    diag, off = matrix(4000)
    refined = spectra._refined(diag, off, values,
                               [spectra._halved(v) for v in vectors])
    assert refined is not None  # certified, no fallback
    assert np.all(np.abs(refined[0] - _bisected(diag, off, count))
                  <= 4 * EPS * _gershgorin(diag, off))


def test_halved_interpolates_onto_the_points_and_the_midpoints():
    # Interior points 1, 2, 3 of a 4-interval grid; zero at both walls.
    assert np.array_equal(spectra._halved(np.array([2.0, 4.0, 6.0])),
                          [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 3.0])


@pytest.mark.parametrize("seeds", ["next-level", "nan", "repeated"])
def test_a_bad_seed_falls_back_to_bisection_exactly(seeds):
    diag, off = spectra._fd_grids(harmonic(), BOX, ModeSpec(0, 0.1))(2000)
    levels = _bisected(diag, off, 4)
    chosen = {"next-level": levels[1:],
              "nan": np.array([math.nan, *levels[1:3]]),
              "repeated": levels[[1, 1, 2]]}[seeds]
    assert spectra._refined(diag, off, chosen) is None
    values, vectors = spectra._fd_values(diag, off, 3, chosen)
    assert np.array_equal(values, _bisected(diag, off, 3))
    assert vectors is None


@pytest.mark.parametrize("p, domain, mode", [
    (harmonic(), BOX, ModeSpec(1, 0.05)),
    (harmonic(kind="radial"), RadialBox(1.0), ModeSpec(0, 0.05, 1.5)),
], ids=["line", "radial"])
def test_fd_oracle_bisects_only_its_seed_grid(monkeypatch, p, domain, mode):
    # Two harmonic-oracle benchmark cases: of the 250-, 2000- and
    # 4000-interval grids, LAPACK's bisection solves the first alone.
    sizes = []
    real = spectra.eigh_tridiagonal

    def counted(diag, off, **kwargs):
        sizes.append(diag.size)
        return real(diag, off, **kwargs)

    monkeypatch.setattr(spectra, "eigh_tridiagonal", counted)
    fd_oracle(p, domain, mode, count=mode.level + 1)
    assert sizes == [249]


# The harmonic-oracle benchmark's ten cases, as report.run_shift_case
# calls the oracle for each.
ORACLE_CASES = [(harmonic(), BOX, ModeSpec(m, h))
                for m in (0, 1) for h in (0.2, 0.1, 0.05)] \
    + [(harmonic(kind="radial"), RadialBox(1.0), ModeSpec(0, h, nu))
       for nu in (0.5, 1.5) for h in (0.1, 0.05)]


def test_fd_oracle_sweeps_each_fine_level_about_once(monkeypatch):
    # The ten cases refine 13 levels on each working grid.  Started from
    # the coarse grid's vectors, the fine grid's levels take one sweep
    # each but for one or two; refining one level more on each grid, from
    # a linspace start, took 111 sweeps.
    sweeps = []
    real = spectra.dgttrs

    def counted(*args, **kwargs):
        sweeps.append(args[-1].size)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectra, "dgttrs", counted)
    for p, domain, mode in ORACLE_CASES:
        fd_oracle(p, domain, mode, count=mode.level + 1)
    assert len(sweeps) <= 50


def test_fd_oracle_refines_only_the_reported_levels(monkeypatch):
    # The level above the last, for its gap, comes from the seed grid.
    factored = []
    real = spectra.dgttrf

    def counted(dl, d, du):
        factored.append(d.size)
        return real(dl, d, du)

    monkeypatch.setattr(spectra, "dgttrf", counted)
    fd_oracle(harmonic(), BOX, ModeSpec(1, 0.05), count=2)
    assert factored == [1999, 1999, 3999, 3999]


@pytest.mark.parametrize("count, level", [(40, 29), (30, 29)],
                         ids=["below-the-top", "the-top"])
def test_fd_oracle_detects_crowding_with_seeds(count, level):
    # At h = 0.004 a 400-interval grid cannot separate level 29.  Its
    # 50-interval seed grid has count + 1 levels, so the oracle refines
    # only the reported ones; at the top, the seed grid's spacing (1.7e-16,
    # two levels the stencil cannot tell apart) is too narrow to judge, so
    # the level above is refined too, and the gap is the fine grid's.
    assert 400 // spectra._SEED_COARSENING > count + 1
    with pytest.raises(GridError,
                       match=f"separate level {level} .*gap 0.00795"):
        fd_oracle(harmonic(), BOX, ModeSpec(level=0, h=0.004),
                  grid_n=400, count=count)


def test_a_seed_spacing_too_narrow_to_judge_refines_the_level_above(
        monkeypatch):
    # The 25-interval seed grid at h = 0.004 pairs its levels into
    # near-degenerate doublets, so its spacing above level 2 is far below
    # the refinement's move; the 200- and 400-interval grids separate the
    # levels, and refining level 3 on them too gives the gap.
    factored = []
    real = spectra.dgttrf

    def counted(dl, d, du):
        factored.append(d.size)
        return real(dl, d, du)

    monkeypatch.setattr(spectra, "dgttrf", counted)
    levels = fd_oracle(harmonic(), BOX, ModeSpec(level=0, h=0.004),
                       grid_n=200, count=3)
    assert factored == [199] * 3 + [399] * 3 + [199] * 4 + [399] * 4
    assert [pair.value for pair in levels] == pytest.approx(
        [0.004, 0.012, 0.020], rel=1e-3)  # (2m + 1) h, the walls far out


X_GRID = 0.05 + 1.95 * np.arange(1, 2000) / 2000


@pytest.mark.parametrize("v", [harmonic().evaluate, _coulomb(2.0).evaluate],
                         ids=["x * x", "-2.0 / x"])
def test_v_on_the_grid_is_bitwise_v_pointwise(v):
    assert np.array_equal(v_on_grid(v, X_GRID),
                          [v(t) for t in X_GRID])


@pytest.mark.parametrize("text", [
    "x^2 + x^4", "x^2 + 0.3*x^3 + x^4", "x^2.5 + 2^x", "cosh(x) + x^2",
    "exp(-x) * sin(3*x)^2 + cos(x) + sinh(x)",
    "sqrt(x) + log(1 + x) + abs(x - 1)",
])
def test_v_on_the_grid_is_v_pointwise_within_two_ulps(text):
    p = from_expression(text)
    calls = []

    def counted(x):
        calls.append(x)
        return p.evaluate(x)

    counted.source = p.evaluate.source
    grid = v_on_grid(counted, X_GRID)
    assert calls == []  # one evaluation over the array
    pointwise = np.array([p.evaluate(t) for t in X_GRID])
    assert np.all(np.abs(grid - pointwise) <= 2 * np.spacing(np.abs(pointwise)))


def test_v_undefined_on_the_grid_raises_the_pointwise_error():
    p = from_expression("x^2 + sqrt(x)")
    with pytest.raises(EvalError, match=r"^sqrt of a negative value in 'sqrt\(x\)'$"):
        fd_oracle(p, BOX, ModeSpec(level=0, h=0.1))


def test_a_degenerate_minimum_is_solved_from_a_given_seed():
    # x^4 has no harmonic level, so Newton has no level spacing to end on
    # its first full step; from a given seed the level is still found.
    p, mode = from_expression("x^4"), ModeSpec(level=0, h=0.1)
    pair = confined_eigenvalue(p, BOX, mode, lam0=0.05)
    assert pair.nodes == 0
    assert pair.value == pytest.approx(fd_oracle(p, BOX, mode)[0].value,
                                       rel=1e-8)


# -- wall monotonicity ----------------------------------------------------------------

def test_smaller_boxes_push_levels_up():
    mode = ModeSpec(level=0, h=0.1)
    lam = {r: confined_eigenvalue(harmonic(), LineBox(-r, r), mode).value
           for r in (0.8, 1.0, 1.3)}
    assert lam[0.8] > lam[1.0] > lam[1.3] > harmonic_level(harmonic(), mode)


def test_levels_increase_with_index():
    values = [confined_eigenvalue(quartic(), BOX, ModeSpec(level=m, h=0.1)).value
              for m in range(4)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_asymmetric_box_level_sits_between_its_symmetric_bounds():
    mode = ModeSpec(level=0, h=0.1)
    lam = confined_eigenvalue(harmonic(), LineBox(-0.9, 1.4), mode).value
    lo = confined_eigenvalue(harmonic(), LineBox(-1.4, 1.4), mode).value
    hi = confined_eigenvalue(harmonic(), LineBox(-0.9, 0.9), mode).value
    assert lo < lam < hi


# -- unconfined references ---------------------------------------------------------------

def test_unconfined_harmonic_is_closed_form():
    pair = unconfined_eigenvalue(harmonic(), ModeSpec(level=3, h=0.1))
    assert pair.method == "closed-form"
    assert pair.value == 7 * 0.1


def test_unconfined_quartic_matches_big_box_fd():
    mode = ModeSpec(level=0, h=0.1)
    lam = unconfined_eigenvalue(quartic(), mode).value
    fd = fd_oracle(quartic(), LineBox(-4.0, 4.0), mode, grid_n=4000)[0].value
    assert lam == pytest.approx(fd, rel=1e-8)


def test_unconfined_radial_quartic_matches_big_box_fd():
    mode = ModeSpec(level=0, h=0.1, nu=1.5)
    w = quartic(kind="radial")
    lam = unconfined_eigenvalue(w, mode).value
    fd = fd_oracle(w, RadialBox(4.0), mode, grid_n=4000)[0].value
    assert lam == pytest.approx(fd, rel=1e-8)


def test_unconfined_level_lies_below_every_confined_level():
    mode = ModeSpec(level=1, h=0.15)
    free = unconfined_eigenvalue(quartic(), mode).value
    boxed = confined_eigenvalue(quartic(), BOX, mode).value
    assert free < boxed


def test_unconfined_rejects_a_too_shallow_tail():
    # phi stays below 1 on the whole line, short of the 17.5*h target.
    with pytest.raises(SolverError, match="too shallow"):
        unconfined_eigenvalue(from_expression("x^2*exp(-x^2)"),
                              ModeSpec(level=0, h=0.1))


def test_unconfined_rejects_a_level_above_the_barrier_at_its_start():
    # 1 - exp(-x^2) is 1 far out; the radial harmonic seed 2(2m + 1 + nu)h
    # = 1 at nu = 3/2, h = 0.2 leaves no barrier for the decaying start.
    with pytest.raises(SolverError, match="lies above the barrier at the "
                       "decaying start x=4.1285.*not a low-lying one"):
        unconfined_eigenvalue(from_expression("1 - exp(-x^2)", kind="radial"),
                              ModeSpec(level=0, h=0.2, nu=1.5))


@pytest.mark.parametrize("kind, mode", [
    ("line", ModeSpec(level=0, h=0.05)),
    ("radial", ModeSpec(level=0, h=0.05, nu=1.5)),
], ids=["line-m0", "radial-nu1.5"])
def test_unconfined_decaying_starts_sit_where_phi_reaches_the_target(
        monkeypatch, kind, mode):
    p = quartic(kind=kind)
    box = BOX if kind == "line" else RadialBox(1.0)
    lam_d = confined_eigenvalue(p, box, mode).value
    domains = []

    def recorded(p, domain, mode, **kwargs):
        domains.append(domain)
        return confined_eigenvalue(p, domain, mode, **kwargs)

    monkeypatch.setattr(spectra, "confined_eigenvalue", recorded)
    unconfined_eigenvalue(p, mode, lam0=lam_d, box=box)

    [free] = domains
    assert isinstance(free, Unwalled) and free.box == box
    profile = AgmonProfile(p)
    sides = zip(free.as_tuple(), box.as_tuple()) if kind == "line" \
        else [(free.right, box.length)]
    for end, wall in sides:
        target = profile.phi(wall) + spectra._PHI_MARGIN * mode.h
        assert target <= profile.phi(end) <= target * (1.0 + 1e-6)


@pytest.mark.parametrize("kind, mode", [
    ("line", ModeSpec(level=0, h=0.1)),
    ("line", ModeSpec(level=1, h=0.1)),
    ("radial", ModeSpec(level=0, h=0.1, nu=1.5)),
], ids=["line-m0", "line-m1", "radial-nu1.5"])
def test_seeded_free_level_matches_unseeded(kind, mode):
    p = quartic(kind=kind)
    domain = BOX if kind == "line" else RadialBox(1.0)
    seeded = run_shift_case(p, domain, mode).lambda0
    unseeded = unconfined_eigenvalue(p, mode).value
    assert seeded == pytest.approx(unseeded, rel=1e-12)


# -- inward node counts --------------------------------------------------------------------

ASYMMETRIC = "x^2 + 0.3*x^3 + x^4"


def test_wide_asymmetric_box_keeps_the_ground_state_node_free():
    # Outward shots picked up a spurious zero near the far wall of this box.
    p, domain, mode = from_expression(ASYMMETRIC), LineBox(-4.0, 3.5), \
        ModeSpec(level=0, h=0.05)
    pair = confined_eigenvalue(p, domain, mode)
    assert pair.nodes == 0
    oracle = fd_oracle(p, domain, mode)[0].value
    assert pair.value == pytest.approx(oracle, rel=1e-7)


def test_asymmetric_shift_case_finds_the_free_ground_state(monkeypatch):
    # Its unconfined boxes reach out to about (-1.92, 1.82), where outward
    # shots saw the same spurious zero.
    free = []

    def kept(*args, **kwargs):
        free.append(unconfined_eigenvalue(*args, **kwargs))
        return free[-1]

    monkeypatch.setattr(report, "unconfined_eigenvalue", kept)
    run_shift_case(from_expression(ASYMMETRIC), BOX, ModeSpec(level=0, h=0.03))
    assert [pair.nodes for pair in free] == [0]


# -- step counts ----------------------------------------------------------------------------

COUNTED_RUNS = pytest.mark.parametrize("run", [
    lambda: run_shift_case(quartic(), BOX, ModeSpec(level=0, h=0.1)),
    lambda: run_shift_case(quartic(kind="radial"), RadialBox(1.0),
                           ModeSpec(level=0, h=0.1, nu=1.5)),
    lambda: run_hydrogen_case(HydrogenSpec(2, 0, 2.0, 1.0, 8.0)),
], ids=["quartic-line", "quartic-radial", "hydrogen"])


# The counters hold the fused legs' own counts; the tally is taken from the
# same run with V's source hidden, through the checked leg and its DOP853
# views, which must give the same report bit for bit.

@COUNTED_RUNS
def test_diagnostics_count_every_integrator_step(dop853_tally, run):
    fused = run()
    tally = dop853_tally()
    assert repr(run()) == repr(fused)
    assert fused.diagnostics.steps == tally.steps > 0


@COUNTED_RUNS
def test_rhs_calls_counted_for_every_solver(dop853_tally, run):
    # Renormalisation restarts the solver, so one integration spans several.
    before = rhs_calls_taken()
    fused = run()
    calls = rhs_calls_taken() - before
    tally = dop853_tally()
    assert repr(run()) == repr(fused)
    assert calls == sum(solver.nfev for solver in tally.solvers) > 0


@pytest.mark.parametrize("kind,box,mode", [
    ("line", BOX, ModeSpec(level=1, h=0.1)),
    ("radial", RadialBox(1.0), ModeSpec(level=0, h=0.1, nu=1.5)),
], ids=["line-m1", "radial-nu1.5"])
def test_sourceless_potential_gives_the_sourced_bits(kind, box, mode):
    # A plain callable has no source to inline, so every leg of its case
    # runs through the checked leg; the DSL form runs the fused legs.
    # Neither is mirrored, so both shoot the same legs.
    p = replace(from_expression("x^2 + x^4", kind), even=False)
    plain = replace(p, evaluate=lambda x: p.evaluate(x), even=False)

    def bits(r):
        return ([float(v).hex() for v in (
            r.lambda0, r.lambda_confined, r.numeric_shift, r.log_numeric_shift,
            r.predicted_shift, r.log_predicted_shift, r.ratio)],
            r.diagnostics)

    sourced = run_shift_case(p, box, mode)
    assert bits(run_shift_case(plain, box, mode)) == bits(sourced)
    assert sourced.diagnostics.steps > 0


def _fail_last_call(fail_on_call, run):
    """Run once counting integrations, then again with the last one failing;
    return (how far the step counter advanced, steps actually taken)."""
    counted = fail_on_call(0)
    run()
    taken = fail_on_call(len(counted))
    before = steps_taken()
    with pytest.raises(SolverError):
        run()
    assert len(taken) == len(counted)
    return steps_taken() - before, sum(taken)


def test_failed_free_node_count_reports_every_step(monkeypatch, fail_on_call,
                                                   node_counts_reshoot):
    # With the count re-shot, the last integration is the free level's own
    # node count, after the flux-seeded Newton: the counter must hold the
    # Newton's steps as well.
    mode = ModeSpec(level=0, h=0.1)
    lam_d = confined_eigenvalue(quartic(), BOX, mode).value
    failed_on = []
    real = spectra.count_nodes_line

    def watched(p, domain, *args, **kwargs):
        try:
            return real(p, domain, *args, **kwargs)
        except SolverError:
            failed_on.append(domain)
            raise

    monkeypatch.setattr(spectra, "count_nodes_line", watched)
    carried, taken = _fail_last_call(
        fail_on_call,
        lambda: unconfined_eigenvalue(quartic(), mode, lam0=lam_d, box=BOX))
    assert carried == taken
    assert [type(domain) for domain in failed_on] == [Unwalled]


def test_failed_free_solve_reports_the_confined_steps(fail_on_call,
                                                      node_counts_reshoot):
    # The failure is the free level's re-shot node count: a failure in its
    # Newton would move on to the next seed.
    carried, taken = _fail_last_call(
        fail_on_call,
        lambda: run_shift_case(quartic(), BOX, ModeSpec(level=0, h=0.1)))
    assert carried == taken


def test_failed_hydrogen_solve_counts_every_step(fail_on_call, dop853_tally,
                                                 node_counts_reshoot):
    # The counting run and the failing run take the same steps, so the
    # integrator's own tally of both again with V's source hidden covers
    # each of them twice.  The last integration is the re-shot node count,
    # as in the tests above.
    def run():
        return hydrogen_confined(HydrogenSpec(2, 0, 2.0, 1.0, 8.0))

    carried, taken = _fail_last_call(fail_on_call, run)
    assert carried == taken
    tally = dop853_tally()
    assert _fail_last_call(fail_on_call, run) == (carried, taken)
    assert 2 * carried == tally.steps


# -- node counts off Newton's shots ------------------------------------------

@pytest.fixture
def counted_both_ways(monkeypatch):
    """Every node count as (read off Newton's shots, re-shot capped at the
    same lambda, the steps the first took)."""
    counts = []
    real = shooting.count_nodes

    def both(match, lam, rtol, shots=None):
        before = steps_taken()
        read = real(match, lam, rtol, shots)
        steps = steps_taken() - before
        counts.append((read, real(match, lam, rtol), steps))
        return read

    monkeypatch.setattr(shooting, "count_nodes", both)
    return counts


# Levels 0-4 of three wells at h = 0.05, the asymmetric cubic box (no free
# level: V falls without bound on the left), and the radial quartic.
NODE_CASES = [
    *((source, BOX, ModeSpec(level=m, h=0.05), True)
      for source in ("harmonic", "x^2 + x^4", "cosh(x) - 1") for m in range(5)),
    *(("x^2 + x^3", LineBox(-1.2, 0.9), ModeSpec(level=m, h=0.1), False)
      for m in range(5)),
    *(("x^2 + x^4", RadialBox(1.0), ModeSpec(level=m, h=0.1, nu=nu), True)
      for nu in (0.5, 1.5) for m in range(3)),
]


def _agree_without_reshooting(counts):
    assert counts
    for read, reshot, steps in counts:
        assert read == reshot
        assert steps == 0


@pytest.mark.parametrize("source, box, mode, free", NODE_CASES)
def test_node_count_off_newton_shots_matches_a_reshoot(
        counted_both_ways, source, box, mode, free):
    p = resolve_potential(source, box.kind)
    lam_d = confined_eigenvalue(p, box, mode).value
    if free:
        unconfined_eigenvalue(p, mode, lam0=lam_d, box=box)
    _agree_without_reshooting(counted_both_ways)


@pytest.mark.parametrize("n, ell", [(n, ell) for n in (1, 2, 3)
                                    for ell in range(n)])
def test_hydrogen_node_count_off_newton_shots_matches_a_reshoot(
        counted_both_ways, n, ell):
    hydrogen_confined(HydrogenSpec(n=n, ell=ell, z=2.0, h=1.0, r_box=14.0))
    _agree_without_reshooting(counted_both_ways)


# -- wrong-basin rescue ---------------------------------------------------------------------

def _refuse_finite_differences(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("finite differences on the solve path")
    monkeypatch.setattr(spectra, "fd_oracle", refuse)
    monkeypatch.setattr(spectra, "eigh_tridiagonal", refuse)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cubic_box_levels_need_no_finite_differences(monkeypatch, m):
    # The harmonic level stands for another level; Newton's Sturm
    # bracket, not a finite-difference seed, isolates the level.
    p, box, mode = from_expression("x^2 + x^3"), LineBox(-1.2, 0.9), \
        ModeSpec(level=m, h=0.1)
    want = fd_oracle(p, box, mode, count=m + 1)[m].value
    _refuse_finite_differences(monkeypatch)
    got = confined_eigenvalue(p, box, mode)
    assert got.nodes == m
    assert got.value == pytest.approx(want, rel=1e-11)


def test_free_level_above_its_box_level_needs_no_finite_differences(
        monkeypatch):
    # 1 - exp(-x^2) radial, nu = 3/2, m = 1, h = 0.1: the box's level
    # stands for another free level, and Newton's Sturm bracket isolates
    # the one the finite-difference seed gave.
    p = from_expression("1 - exp(-x^2)", kind="radial")
    mode, box = ModeSpec(level=1, h=0.1, nu=1.5), RadialBox(1.0)
    _refuse_finite_differences(monkeypatch)
    confined = confined_eigenvalue(p, box, mode)
    free = unconfined_eigenvalue(p, mode, lam0=confined.value, box=box,
                                 box_shots=confined.shots)
    assert free.nodes == 1
    assert free.value == pytest.approx(0.7377842903306004, rel=1e-12)


@pytest.mark.parametrize("R", [1e-16, 1e-80])
def test_hydrogen_far_inside_the_bohr_radius_needs_no_finite_differences(
        monkeypatch, R):
    # The level lies near (pi h/R)^2, about 1e32 or 1e160 above E_n = -1:
    # Newton from E_n reaches it in one step of about 0.6 of it.
    _refuse_finite_differences(monkeypatch)
    got = hydrogen_confined(HydrogenSpec(1, 0, 2.0, 1.0, R))
    assert got.nodes == 0
    assert got.value == pytest.approx((math.pi / R) ** 2, rel=1e-9)


# Levels Newton missed from its one seed before it held a Sturm bracket,
# each with its node count and its value when the separate Sturm bisection
# still ran to 1e-6 relative (23 to 26 count shots each).
BRACKETED_LEVELS = {
    "x^2-line-m4": (lambda: confined_eigenvalue(
        from_expression("x^2"), BOX, ModeSpec(level=4, h=0.2)),
        4, 2.798530724922882),
    "quartic-line-m3": (lambda: confined_eigenvalue(
        from_expression("x^2 + x^4"), BOX, ModeSpec(level=3, h=0.2)),
        3, 2.0779355598002858),
    "quartic-radial-m3": (lambda: confined_eigenvalue(
        from_expression("x^2 + x^4", kind="radial"), RadialBox(1.0),
        ModeSpec(level=3, h=0.1, nu=1.5)), 3, 2.5426604548388543),
    "hydrogen-3-0-R4": (lambda: hydrogen_confined(
        HydrogenSpec(3, 0, 2.0, 1.0, 4.0)), 2, 3.745404131235387),
    "hydrogen-2-0-R3": (lambda: hydrogen_confined(
        HydrogenSpec(2, 0, 2.0, 1.0, 3.0)), 1, 2.223369474872836),
}


def _coulomb_match(spec):
    """The boxed Coulomb problem of ``spec`` as ``hydrogen_confined`` shoots
    it, with its series start."""
    V = lambda x: -spec.z / x  # noqa: E731
    V.source = f"-{spec.z!r} / x"
    series = shooting.FrobeniusStart.coulomb(
        spec.z, spec.ell, spec.h,
        min(0.1 * min(spec.n, 10) * spec.h ** 2 / spec.z, 0.01 * spec.r_box))
    return Matching.radial(V, spec.nu, spec.h, spec.r_box, series), series


def _bisection_of(case):
    """(match, level, lo, width, top) of ``_bisect_radial`` for a case of
    ``BRACKETED_LEVELS``: a well's bracket from 0, one harmonic spacing
    wide, a Coulomb box's from E_n, max(|E_n|, (pi h/R)^2) wide, below its
    series start's top."""
    if case.startswith("hydrogen"):
        _, n, ell, R = case.split("-")  # hydrogen-n-ell-R<radius>
        spec = HydrogenSpec(int(n), int(ell), 2.0, 1.0, float(R[1:]))
        match, series = _coulomb_match(spec)
        free = spec.energy_unconfined
        return (match, spec.level, free,
                max(abs(free), (math.pi / spec.r_box) ** 2), series.top)
    if case == "quartic-radial-m3":
        p = from_expression("x^2 + x^4", kind="radial")
        match = Matching.radial(p.evaluate, 1.5, 0.1, 1.0,
                                shooting.FrobeniusStart.well(p, 1.5, 0.1,
                                                             L=1.0))
        return match, 3, 0.0, 0.4, math.inf
    p = from_expression("x^2" if case.startswith("x^2-") else "x^2 + x^4")
    level = 4 if case.endswith("m4") else 3
    return Matching.line(p, BOX, ModeSpec(level, 0.2)), level, 0.0, 0.4, \
        math.inf


@pytest.fixture
def count_shots(monkeypatch):
    """The lambdas of every Sturm count shot (``shooting.level_count``)."""
    counted = []
    real = shooting.level_count

    def spy(match, lam, rtol):
        counted.append(lam)
        return real(match, lam, rtol)

    monkeypatch.setattr(shooting, "level_count", spy)
    return counted


@pytest.fixture
def newton_runs(monkeypatch):
    """The Solution of every Newton run the solvers start."""
    runs = []
    for name in ("newton_solve_line", "newton_solve_radial"):
        def spy(*args, real=getattr(spectra, name), **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr(spectra, name, spy)
    return runs


@pytest.mark.parametrize("case", BRACKETED_LEVELS)
def test_sturm_bracket_stops_once_it_holds_the_level_alone(count_shots,
                                                          case):
    # No solver calls the Sturm bisection any more, but it is kept: it
    # stops in at most 12 count shots where N(lo) = m, N(hi) = m + 1 and
    # the bracket spans at most 0.1 max(|lo|, |hi|), so its middle lies
    # within a tenth of the level and counts it or the one below.
    match, level, lo, width, top = _bisection_of(case)
    _, nodes, want = BRACKETED_LEVELS[case]
    mid = spectra._bisect_radial(match, level, lo, width, top)
    assert 0 < len(count_shots) <= 12
    assert abs(mid - want) <= 0.1 * abs(want)
    assert shooting.level_count(match, mid, 1e-6) in (level, level + 1)


@pytest.mark.parametrize("case", BRACKETED_LEVELS)
def test_bracketed_level_takes_one_newton_run(count_shots, newton_runs,
                                              case):
    # Newton holds each iterate inside the level's Sturm bracket, so it
    # reaches the level in its one run, with no separate count shot, where
    # each took a second run from a bisected bracket before.
    solve, nodes, want = BRACKETED_LEVELS[case]
    got = solve()
    assert len(newton_runs) == 1 and count_shots == []
    assert got.nodes == nodes
    assert got.value == pytest.approx(want, rel=1e-12)


def test_level_lifted_past_its_seed_runs_once_per_level(count_shots,
                                                       newton_runs):
    # x^2 on (-1, 1), m = 2, h = 0.2: Newton from lambda_D reached another
    # free level, and the free level took a second run from its Sturm
    # bracket (three runs and 690 steps).  The box and the free level take
    # one run each (399 steps), to the same levels within 1e-12.
    rep = run_shift_case(from_expression("x^2"), BOX, ModeSpec(2, 0.2))
    assert len(newton_runs) == 2 and count_shots == []
    assert rep.lambda_confined == pytest.approx(1.199078850462227, rel=1e-12)
    assert rep.lambda0 == pytest.approx(1.0000000000000202, rel=1e-12)


@pytest.mark.parametrize("n,ell,R", [(2, 0, 2.0), (2, 0, 3.0), (3, 0, 4.0),
                                     (3, 1, 3.0)])
def test_crowded_hydrogen_level_above_zero_matches_the_exact_root(n, ell, R):
    # The box lifts the level above 0, far from E_n, where Newton reaches
    # it inside its Sturm bracket.  Reference: the Dirichlet root of the
    # Coulomb wave F_ell in 60 digits; the worst measured error is 9.9e-14
    # relative, (2,0) at R = 3.
    mpmath = pytest.importorskip("mpmath")
    spec = HydrogenSpec(n=n, ell=ell, z=2.0, h=1.0, r_box=R)
    got = hydrogen_confined(spec)
    assert got.value > 0.0 and got.nodes == spec.level
    exact = exact_coulomb_level(mpmath, spec, got.value)
    assert abs(float((got.value - exact) / exact)) <= 1e-12


@pytest.mark.parametrize("n,ell,R", [
    (4, 0, 2.0), (4, 0, 3.0), (4, 1, 2.0), (3, 0, 2.0), (3, 0, 3.0),
    (3, 1, 2.0), (4, 2, 3.0), (3, 0, 4.0), (4, 0, 4.0), (2, 0, 2.0),
    (2, 0, 3.0)])
def test_crowded_hydrogen_bracket_starts_at_the_box_scale(
        count_shots, newton_runs, n, ell, R):
    # The bracket's open side grows from the box's scale, max(|E_n|,
    # (pi h/R)^2), not from |E_n| (0.0625 for n=4), so Newton's one run
    # reaches these levels (2 to 36) in at most 11 iterations (6 to 11
    # measured; 10 to 15 from |E_n|), with no count shot; the worst error
    # is 7.9e-14 relative.
    mpmath = pytest.importorskip("mpmath")
    spec = HydrogenSpec(n=n, ell=ell, z=2.0, h=1.0, r_box=R)
    got = hydrogen_confined(spec)
    assert count_shots == [] and len(newton_runs) == 1
    assert newton_runs[0].iterations <= 11
    assert got.nodes == spec.level
    exact = exact_coulomb_level(mpmath, spec, got.value)
    assert abs(float((got.value - exact) / exact)) <= 1e-12


@pytest.mark.parametrize("R", [4.0, 6.0, 8.0, 10.0])
@pytest.mark.parametrize("n,ell", [(2, 0), (2, 1), (3, 2)])
def test_crowded_hydrogen_level_takes_one_short_newton_run(newton_runs, n,
                                                          ell, R):
    # Newton from E_n, no longer capped at 0.3 max(|lambda|, |E_n|) per
    # step, takes one run of at most 8 iterations (4 to 7 measured), where
    # the capped run took up to 20, (3,2) at R = 4.  Each level lies within
    # 1e-12 of the exact root (at most 4.5e-13 measured, (2,1) at R = 4).
    # At R = 6 the (2,1) level is E_3 = -1/9 itself: the free 3p state has
    # its node there.
    mpmath = pytest.importorskip("mpmath")
    spec = HydrogenSpec(n=n, ell=ell, z=2.0, h=1.0, r_box=R)
    got = hydrogen_confined(spec)
    assert len(newton_runs) == 1 and newton_runs[0].iterations <= 8
    assert got.nodes == spec.level
    exact = exact_coulomb_level(mpmath, spec, got.value)
    assert abs(float(got.value - exact)) <= 1e-12


@pytest.mark.parametrize("R", [3.0, 4.0, 6.0, 8.0, 10.0])
@pytest.mark.parametrize("n", [3, 4])
def test_crowded_s_level_takes_one_newton_run(newton_runs, n, R):
    # Newton from E_n reached another level in these boxes, and a second
    # run from a bisected Sturm bracket followed ((4,0) at R = 10 spent a
    # 14-iteration, 250-step run on another level first).
    spec = HydrogenSpec(n=n, ell=0, z=2.0, h=1.0, r_box=R)
    got = hydrogen_confined(spec)
    assert len(newton_runs) == 1
    assert got.nodes == spec.level


@pytest.mark.parametrize("n", [40, 50])
def test_high_hydrogen_level_in_a_wide_box_keeps_its_index(n):
    # The series point 0.1*n*h^2/z passed u's first zero, 3.67 h^2/z below
    # lambda = 0, from n = 37 on, and the node count missed that zero: n = 40
    # read E_41 as its level.  It is now capped at h^2/z.
    spec = HydrogenSpec(n=n, ell=0, z=2.0, h=1.0, r_box=200.0 * n)
    got = hydrogen_confined(spec)
    assert got.nodes == spec.level
    assert got.value == pytest.approx(spec.energy_unconfined, rel=1e-10)
    if n == 40:
        # The level lies a rounding above the bracket's floor E_40, and
        # Newton's step lands 4.9e-16 below it: inside, not a bisection.
        assert got.iterations <= 3


# Levels of z=2, h=1, ell=0 in a box of 8: the Dirichlet roots of F_0 in 40
# digits (mpmath.coulombf), each with n - 1 sign changes on (0, 8).
FAST_HYDROGEN_LEVELS = {61: 572.19281642854895064, 100: 1540.3703187292854698,
                        140: 3020.7269878787051269, 172: 4560.3338617963360751}


@pytest.mark.parametrize("n", sorted(FAST_HYDROGEN_LEVELS))
def test_hydrogen_level_far_above_a_fixed_series_start_is_reached(n):
    # Started at x0 = 0.08, where u may vanish before x0 and escape the
    # node count, these levels lay above the start's top and were refused.
    # The start now lies where its top is at least twice the empty box's
    # level, (pi (n + 1/4)/8)^2, above each of them.
    got = hydrogen_confined(HydrogenSpec(n=n, ell=0, z=2.0, h=1.0,
                                         r_box=8.0))
    assert got.nodes == n - 1
    assert got.value == pytest.approx(FAST_HYDROGEN_LEVELS[n], rel=1e-12)


@pytest.mark.parametrize("n", [100, 140, 172])
def test_coulomb_series_refuses_a_level_above_its_top(n):
    # At x0 = 0.08 the start refuses lambda above (3.67/x0 - z)/x0 =
    # 548.4375, where u may vanish before x0: n = 140 read the level with
    # 140 interior nodes, 3064.06, as its own.  So does a bracket with that
    # top.
    spec = HydrogenSpec(n=n, ell=0, z=2.0, h=1.0, r_box=8.0)
    series = shooting.FrobeniusStart.coulomb(spec.z, spec.ell, spec.h, 0.08)
    assert series.top == pytest.approx(548.4375, rel=1e-15)
    with pytest.raises(SeriesError, match="lies above 548.43"):
        series(FAST_HYDROGEN_LEVELS[n])
    V = lambda x: -spec.z / x  # noqa: E731
    V.source = f"-{spec.z!r} / x"
    free = spec.energy_unconfined
    with pytest.raises(SolverError, match=r"lies above lambda=548\.43"):
        shooting.newton_solve_radial(
            V, spec.nu, spec.h, spec.r_box, free, series_start=series,
            rtol=1e-12, lambda_scale=(math.pi / spec.r_box) ** 2,
            bracket=(spec.level, free, series.top))


def test_hydrogen_level_just_below_the_series_start_top_is_reached():
    # Level 57 at R = 8 lies at 517.15, below the top 548.44 of the series
    # start at x0 = 0.08, and past half of it, where the bracket's doubling
    # would overshoot; it stopped at that top instead.  The start now lies
    # where its top is at least 2 (pi (58 + 1/4)/8)^2 = 1047.  Reference:
    # the Dirichlet root of F_0 in 40 digits, 57 sign changes on (0, 8).
    got = hydrogen_confined(HydrogenSpec(n=58, ell=0, z=2.0, h=1.0,
                                         r_box=8.0))
    assert got.nodes == 57
    assert got.value == pytest.approx(517.1514835950042, rel=1e-12)


def _check_exact_hydrogen_level(spec: HydrogenSpec, value: float) -> None:
    """The exact solution regular at the origin counts its own zeros: below
    ``value`` by the tolerance 1e-10 max(|value|, |E_n|), it has level sign
    changes on (0, R), and across the tolerance its wall value changes
    sign, so the exact root lies within the tolerance of ``value``."""
    mpmath = pytest.importorskip("mpmath")
    tol = 1e-10 * max(abs(value), abs(spec.energy_unconfined))
    assert coulomb_sign_changes(mpmath, spec, value - tol,
                                32 * (spec.level + 1)) == spec.level
    with mpmath.workdps(60):
        lo, hi = (coulomb_regular(mpmath, spec, mpmath.mpf(value) + d,
                                  spec.r_box) for d in (-tol, tol))
    assert lo * hi < 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(z=st.sampled_from([1.0, 2.0, 3.0]), h=st.sampled_from([0.5, 1.0]),
       n=st.integers(1, 6), data=st.data(), R=st.floats(0.5, 30.0))
def test_hydrogen_level_is_the_exact_root_with_its_node_count(z, h, n, data,
                                                               R):
    # The series start lies as far out as its Sturm bound allows; a zero
    # before it would escape the node count, and the level found would be
    # the next one, which the exact solution's own count would show.
    spec = HydrogenSpec(n=n, ell=data.draw(st.integers(0, n - 1)), z=z, h=h,
                        r_box=R)
    got = hydrogen_confined(spec)
    assert got.nodes == spec.level
    _check_exact_hydrogen_level(spec, got.value)


@pytest.mark.parametrize("z,h,n,ell,R", [
    (2.0, 0.5, 3, 2, 14.0), (3.0, 0.5, 3, 1, 20.0), (3.0, 1.0, 2, 1, 25.0)])
def test_hydrogen_level_within_noise_of_its_floor_is_reached(z, h, n, ell,
                                                             R):
    # These levels lie within 1e-9 of E_n, the bracket's floor, where a
    # loose shot at E_n counted itself above the level: the bracket closed
    # on E_n and Newton ran out its 50 iterations.  A full shot at E_n now
    # settles it.
    spec = HydrogenSpec(n=n, ell=ell, z=z, h=h, r_box=R)
    got = hydrogen_confined(spec)
    assert got.nodes == spec.level
    _check_exact_hydrogen_level(spec, got.value)


def test_node_check_rescues_a_wrong_basin_start():
    """Starting Newton at the second even level must not be accepted for
    level 0: the iterate's count stands for another level, and Newton's
    Sturm bracket lands it on level 0."""
    mode = ModeSpec(level=0, h=0.1)
    pair = confined_eigenvalue(harmonic(), BOX, mode, lam0=5 * 0.1)
    assert pair.nodes == 0
    assert pair.value == pytest.approx(LINE_M0_H01, rel=1e-10)


def test_kind_mismatch_is_rejected():
    with pytest.raises(InvalidPotential):
        confined_eigenvalue(harmonic(kind="radial"), BOX, ModeSpec(level=0, h=0.1))
    with pytest.raises(InvalidPotential):
        confined_eigenvalue(harmonic(), RadialBox(1.0), ModeSpec(level=0, h=0.1, nu=0.5))


def test_radial_mode_requires_nu():
    with pytest.raises(InvalidPotential):
        confined_eigenvalue(harmonic(kind="radial"), RadialBox(1.0),
                            ModeSpec(level=0, h=0.1))


# -- scaling laws ------------------------------------------------------------------------------

def test_harmonic_box_scaling_covariance():
    """For V = x^2, Dirichlet on (-R, R) at h equals R^2 times the unit-box
    problem at h/R^2 (substitute x -> R y)."""
    R = 1.3
    lam_big = confined_eigenvalue(harmonic(), LineBox(-R, R),
                                  ModeSpec(level=1, h=0.1)).value
    lam_unit = confined_eigenvalue(harmonic(), BOX,
                                   ModeSpec(level=1, h=0.1 / R ** 2)).value
    assert lam_big == pytest.approx(R * R * lam_unit, rel=1e-10)


def test_half_integer_nu_equals_odd_line_sector():
    """At nu = 1/2 the radial problem on (0, L) is the odd sector of the
    line problem on (-L, L): radial level m is line level 2m+1."""
    h = 0.1
    for m in (0, 1):
        radial = confined_eigenvalue(quartic(kind="radial"), RadialBox(1.0),
                                     ModeSpec(level=m, h=h, nu=0.5)).value
        line = confined_eigenvalue(quartic(), BOX,
                                   ModeSpec(level=2 * m + 1, h=h)).value
        assert radial == pytest.approx(line, rel=1e-11)


# -- confined hydrogen --------------------------------------------------------------------------

@pytest.mark.parametrize("n,ell,R", sorted(HYDROGEN_LEVELS))
def test_hydrogen_frozen_levels(n, ell, R):
    spec = HydrogenSpec(n=n, ell=ell, z=2.0, h=1.0, r_box=R)
    got = hydrogen_confined(spec)
    assert got.value == pytest.approx(HYDROGEN_LEVELS[(n, ell, R)], rel=1e-11)
    assert got.nodes == spec.level


@pytest.mark.parametrize("R", [8.0, 10.0, 12.0, 14.0, 20.0])
@pytest.mark.parametrize("n,ell", [(1, 0), (2, 0), (2, 1)])
def test_hydrogen_level_matches_the_exact_hypergeometric_root(n, ell, R):
    # The benchmark's Coulomb boxes and R = 20, against the Dirichlet root
    # of 1F1 in 60 digits.  The worst measured error is 2.48e-14 relative,
    # (2,1) at R = 8; it was 2.50e-14 when Newton still shot its predicted
    # last step to confirm it.
    mpmath = pytest.importorskip("mpmath")
    spec = HydrogenSpec(n=n, ell=ell, z=2.0, h=1.0, r_box=R)
    got = hydrogen_confined(spec).value
    exact = exact_coulomb_level(mpmath, spec, got)
    assert abs(float((got - exact) / exact)) <= 3e-14


def test_hydrogen_seeded_from_the_free_level_runs_no_finite_differences(
        monkeypatch):
    calls = []
    real = spectra.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectra, "eigh_tridiagonal", counted)
    got = hydrogen_confined(HydrogenSpec(2, 0, 2.0, 1.0, 8.0))
    assert got.nodes == 1
    assert calls == []


def test_failed_hydrogen_newton_fails_the_level(monkeypatch):
    """Each level takes one Newton run: where it fails, the level fails,
    with no second run from a Sturm bracket."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        raise SolverError("forced failure")

    monkeypatch.setattr(spectra, "newton_solve_radial", failing)
    with pytest.raises(SolverError, match="could not isolate hydrogen level "
                       "n=2, ell=0 in box 8: forced failure"):
        hydrogen_confined(HydrogenSpec(2, 0, 2.0, 1.0, 8.0))
    assert len(calls) == 1


def test_hydrogen_root_with_a_zero_at_the_wall_counts_one_node():
    # At R = 3 the (2,0) level lies above 0.  Newton from the
    # finite-difference estimate of the box reaches it where u(R) is
    # 1.5e-16 of u'(R): u changed sign in the last step, at a root that
    # rounds onto R.  That zero counts, and the wall rule takes it off
    # again (u(R) and du/dlambda share a sign), so the count is 1.
    mpmath = pytest.importorskip("mpmath")
    spec = HydrogenSpec(2, 0, 2.0, 1.0, 3.0)
    V = lambda x: -spec.z / x  # noqa: E731
    V.source = f"-{spec.z!r} / x"
    fd = fd_oracle(PotentialSpec("radial", V), RadialBox(spec.r_box),
                   ModeSpec(1, spec.h, spec.nu), grid_n=1600, count=3)
    series = shooting.FrobeniusStart.coulomb(
        spec.z, spec.ell, spec.h, min(0.1 * spec.n * spec.h ** 2 / spec.z,
                                      0.01 * spec.r_box))
    args = (V, spec.nu, spec.h, spec.r_box)
    sol = shooting.newton_solve_radial(
        *args, fd[1].value, series_start=series,
        lambda_scale=abs(spec.energy_unconfined))
    assert sol.shots[0].crossings == 2
    assert shooting.count_nodes_radial(*args, sol.lam, series,
                                       shots=sol.shots) == 1
    # The root of the regular Coulomb wave F_0(eta, kR) at lambda > 0, with
    # k = sqrt(lambda)/h and eta = -z/(2 h^2 k): 2.22336947487272743...
    with mpmath.workdps(30):
        def wall_value(lam):
            k = mpmath.sqrt(lam) / spec.h
            return mpmath.coulombf(spec.ell, -spec.z / (2 * spec.h ** 2 * k),
                                   k * spec.r_box)
        exact = mpmath.findroot(wall_value, mpmath.mpf(sol.lam))
    assert abs(float((sol.lam - exact) / exact)) <= 3e-13


@pytest.mark.parametrize("field,value", [
    ("h", math.nan), ("h", math.inf), ("h", 1e-300), ("z", math.nan),
    ("r_box", math.nan), ("r_box", math.inf),
])
def test_hydrogen_spec_rejects_non_finite_and_underflowing_input(field, value):
    args = dict(n=1, ell=0, z=2.0, h=1.0, r_box=8.0)
    args[field] = value
    with pytest.raises(InvalidPotential):
        HydrogenSpec(**args)


def test_hydrogen_wall_always_raises_the_level():
    for (n, ell, R), value in HYDROGEN_LEVELS.items():
        free = HydrogenSpec(n=n, ell=ell, z=2.0, h=1.0, r_box=R).energy_unconfined
        assert value > free


def test_hydrogen_confinement_releases_with_box_size():
    e8 = HYDROGEN_LEVELS[(2, 0, 8.0)]
    e14 = HYDROGEN_LEVELS[(2, 0, 14.0)]
    assert e8 > e14 > -0.25


def test_hydrogen_large_box_recovers_the_free_level():
    spec = HydrogenSpec(n=1, ell=0, z=2.0, h=1.0, r_box=30.0)
    got = hydrogen_confined(spec).value
    assert got == pytest.approx(-1.0, abs=1e-12)


def test_hydrogen_charge_scaling():
    """x -> (2/z) x maps charge z onto charge 2: E scales by z^2/4 and the
    box by z/2, with h untouched."""
    base = hydrogen_confined(HydrogenSpec(n=2, ell=0, z=2.0, h=1.0, r_box=8.0)).value
    scaled = hydrogen_confined(HydrogenSpec(n=2, ell=0, z=4.0, h=1.0, r_box=4.0)).value
    assert scaled == pytest.approx(4.0 * base, rel=1e-10)


@pytest.mark.parametrize("h", [1e-15, 1e-16])
def test_hydrogen_h_scaling(h):
    """x -> h^2 x maps h onto 1: E scales by 1/h^2 and the box by h^2.
    The series coefficients c_n alone overflow a double from h = 1e-15 on,
    so the start must not form them."""
    base = hydrogen_confined(HydrogenSpec(n=1, ell=0, z=2.0, h=1.0, r_box=8.0)).value
    small = hydrogen_confined(
        HydrogenSpec(n=1, ell=0, z=2.0, h=h, r_box=8.0 * h * h)).value
    assert small * h * h == pytest.approx(base, rel=1e-12)


def test_hydrogen_start_below_the_absolute_tolerance():
    """At h = 1e-10 the p-wave series starts near x0^2 ~ 1e-42, far below
    the integrator's atol; the start must be rescaled first, or the shot is
    noise and the level comes out wrong."""
    h = 1e-10
    base = hydrogen_confined(HydrogenSpec(n=2, ell=1, z=2.0, h=1.0, r_box=14.0)).value
    small = hydrogen_confined(
        HydrogenSpec(n=2, ell=1, z=2.0, h=h, r_box=14.0 * h * h)).value
    assert small * h * h == pytest.approx(base, rel=1e-12)


def test_fd_grid_whose_spacing_squared_underflows():
    with pytest.raises(GridError, match="underflows"):
        fd_oracle(harmonic(kind="radial"), RadialBox(1e-160),
                  ModeSpec(level=0, h=1.0, nu=0.5))


@pytest.mark.parametrize("R", [1e-3, 1e-2])
def test_hydrogen_box_inside_the_bohr_radius_is_not_cut_short(R):
    # From E_1 = -1 the level lies about 1e7 (1e5) above: when Newton's
    # steps were capped at 0.3|lambda|, two capped steps with W' unchanged
    # once read as converged, at lambda = -0.4.
    spec = HydrogenSpec(n=1, ell=0, z=2.0, h=1.0, r_box=R)
    got = hydrogen_confined(spec)
    V = lambda x: -2.0 / x  # noqa: E731
    fd = fd_oracle(PotentialSpec("radial", V), RadialBox(R),
                   ModeSpec(level=0, h=1.0, nu=0.5), grid_n=2000)[0].value
    assert got.nodes == 0
    assert got.value == pytest.approx(fd, rel=1e-6)


def test_hydrogen_spec_rejects_a_coulomb_length_below_range():
    HydrogenSpec(n=1, ell=0, z=2.0, h=1.5e-50, r_box=1.0)
    with pytest.raises(InvalidPotential, match="Coulomb length"):
        HydrogenSpec(n=1, ell=0, z=2.0, h=1e-50, r_box=1.0)


def test_hydrogen_oscillator_route_agrees():
    """Change of variables to the radial oscillator: an entirely different
    equation, box and angular parameter must reproduce E_n(R)."""
    for key in ((2, 0, 8.0), (2, 1, 14.0)):
        n, ell, R = key
        spec = HydrogenSpec(n=n, ell=ell, z=2.0, h=1.0, r_box=R)
        direct = hydrogen_confined(spec).value
        mapped = hydrogen_confined_via_oscillator(spec).value
        assert mapped == pytest.approx(direct, rel=1e-7)


def test_hydrogen_spec_validation():
    with pytest.raises(InvalidPotential):
        HydrogenSpec(n=1, ell=1, z=2.0, h=1.0, r_box=8.0)
    with pytest.raises(InvalidPotential):
        HydrogenSpec(n=0, ell=0, z=2.0, h=1.0, r_box=8.0)
    with pytest.raises(InvalidPotential):
        HydrogenSpec(n=1, ell=0, z=-2.0, h=1.0, r_box=8.0)
    with pytest.raises(InvalidPotential):
        HydrogenSpec(n=1, ell=0, z=2.0, h=1.0, r_box=0.0)


def test_hydrogen_spec_derived_quantities():
    spec = HydrogenSpec(n=3, ell=1, z=2.0, h=0.5, r_box=10.0)
    assert spec.level == 1
    assert spec.nu == 1.5
    assert spec.energy_unconfined == pytest.approx(-1.0 / (9 * 0.25), rel=1e-15)


# -- general expressions end to end --------------------------------------------------------------

def test_cosh_well_level_against_fd():
    p = from_expression("cosh(x) - 1")
    mode = ModeSpec(level=0, h=0.1)
    shot = confined_eigenvalue(p, BOX, mode).value
    fd = fd_oracle(p, BOX, mode, grid_n=3000)[0].value
    assert shot == pytest.approx(fd, rel=2e-9)
    # omega = sqrt(1/2) well: the level sits near omega*h, well below x^2's.
    assert shot < confined_eigenvalue(harmonic(), BOX, mode).value


# -- an even well in a symmetric box: one side shot, the other mirrored ---------------

def _outputs(case):
    """A case's numbers, bit for bit, and its Newton iterations."""
    return tuple(float.hex(v) for v in (
        case.lambda0, case.lambda_confined, case.numeric_shift,
        case.log_numeric_shift, case.ratio)) + (case.diagnostics.iterations,)


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("well", [lambda: from_expression("x^2 + x^4"), harmonic],
                         ids=["quartic-dsl", "harmonic"])
def test_mirrored_pair_gives_the_same_case_in_half_the_steps(well, m):
    p, mode = well(), ModeSpec(level=m, h=0.1)
    two_sided = replace(p, even=False)
    assert Matching.line(p, BOX, mode).mirror
    assert not Matching.line(two_sided, BOX, mode).mirror
    mirrored, both = (run_shift_case(q, BOX, mode) for q in (p, two_sided))
    assert _outputs(mirrored) == _outputs(both)
    assert 2 * mirrored.diagnostics.steps == both.diagnostics.steps
    confined = [confined_eigenvalue(q, BOX, mode) for q in (p, two_sided)]
    assert confined[0] == confined[1] and confined[0].nodes == m
    free = [unconfined_eigenvalue(q, mode, lam0=confined[0].value, box=BOX)
            for q in (p, two_sided)]
    assert free[0] == free[1]


@pytest.mark.parametrize("source, box, steps", [
    ("x^2 + x^4", LineBox(-1.0, 2.0), 912),
    ("x^2 + 0.3*x^3 + x^4", BOX, 443),
], ids=["asymmetric-box", "uneven-well"])
def test_asymmetric_problems_shoot_both_sides(source, box, steps):
    p, mode = from_expression(source), ModeSpec(level=0, h=0.1)
    assert not Matching.line(p, box, mode).mirror
    case = run_shift_case(p, box, mode)
    assert case.diagnostics.steps == steps  # both sides, every shot
    assert _outputs(run_shift_case(replace(p, even=False), box, mode)) \
        == _outputs(case)


# -- Coulomb boxes far inside the Bohr radius ------------------------------------------

@pytest.mark.parametrize("r_box", [1e-8, 1e-6, 1e-4])
def test_tiny_coulomb_box_reaches_its_level(r_box):
    """The level sits near (pi h/R)^2, orders of magnitude above the seed
    E_1 = -1, so Newton's first step is far longer than |lambda|: it must
    not stop on one."""
    pair = hydrogen_confined(HydrogenSpec(n=1, ell=0, z=2.0, h=1.0, r_box=r_box))
    V = lambda x: -2.0 / x  # noqa: E731
    fd = fd_oracle(PotentialSpec("radial", V), RadialBox(r_box),
                   ModeSpec(0, 1.0, 0.5))[0].value
    assert pair.nodes == 0
    assert pair.value == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("r_box", [1e-16, 1e-30, 1e-60])
def test_coulomb_box_far_inside_the_bohr_radius_is_a_free_particle_box(r_box):
    """The series start's tiny odd term must not end its sum before -lambda
    enters, or the start reads (x0, 1) whatever lambda is.  Z/R is
    negligible here next to (pi h/R)^2, the lowest level of the empty box."""
    pair = hydrogen_confined(HydrogenSpec(n=1, ell=0, z=2.0, h=1.0, r_box=r_box))
    assert pair.nodes == 0
    assert pair.value == pytest.approx((math.pi / r_box) ** 2, rel=1e-9)
