"""High-level eigenvalue services.

Four ways to an eigenvalue live here, deliberately independent:

* ``confined_eigenvalue`` -- shooting + Newton on the exact Dirichlet
  problem, or on the well without walls (``Unwalled``), with the level
  identity confirmed by an interior node count on Newton's last shots.
* ``unconfined_eigenvalue`` -- the reference level of the problem without
  walls: a root of its Wronskian, whose shots start from the decaying WKB
  state deep in the barrier.  From the confined level of a box, Newton's
  first step is the flux step, so the shift comes out as the sum of the
  steps, with no subtraction.
* ``fd_oracle`` -- a finite-difference discretisation with Richardson
  extrapolation; shares no code with the shooting path and serves as the
  cross-check oracle.  It alone builds matrices: numpy and LAPACK load on
  its first call, imported by the functions that use them.
* ``hydrogen_confined`` -- direct shooting on the Coulomb equation with a
  series start at the origin; no change of variables involved (the tests
  check it against the map onto the radial oscillator, which lives with
  them in ``tests/crosschecks.py``).

Both shooting solvers isolate their level in one Newton run held inside
its Sturm bracket (``shooting.newton``), whose root the node count on its
last shots confirms (``_isolate``).  No solver calls the oracle.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral
from typing import TYPE_CHECKING, Callable, Iterable

from . import shooting
from .agmon import AgmonProfile
from .errors import (BoxshiftError, GridError, InvalidPotential, SeriesError,
                     SolverError)
from .potentials import Domain, LineBox, PotentialSpec, RadialBox, v_on_grid
from .scaled import ScaledValue
from .shooting import (_FIRST_ZERO, FrobeniusStart, Matching, ModeSpec,
                       Unwalled, count_nodes_line, count_nodes_radial,
                       newton_solve_line, newton_solve_radial)

if TYPE_CHECKING:
    import numpy as np

_PHI_MARGIN = 17.5  # in units of h; exp(-2*17.5) ~ 6e-16


@dataclass(frozen=True)
class Eigenpair:
    """An eigenvalue with provenance and solver diagnostics."""

    index_m: int
    value: float
    method: str  # "shooting" | "finite-difference" | "closed-form"
    iterations: int = 0
    grid_n: int | None = None
    nodes: int | None = None
    offset: ScaledValue | None = None  # value - box level, step by step
    # A line box's level, unless the builtin harmonic's: Newton's last
    # shots and the lambda they were shot at (Solution.shots,
    # Solution.shot_at), for the flux step to reuse.
    shots: shooting.ShotsAt | None = field(default=None, compare=False,
                                           repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise SolverError(f"non-finite eigenvalue {self.value!r}")


@dataclass(frozen=True)
class HydrogenSpec:
    """Confined-hydrogen case: level n, angular momentum ell, charge z,
    semiclassical h, box radius r_box."""

    n: int
    ell: int
    z: float
    h: float
    r_box: float

    def __post_init__(self) -> None:
        if self.ell < 0:
            raise InvalidPotential(f"ell must be >= 0, got {self.ell}")
        if self.n < self.ell + 1:
            raise InvalidPotential(
                f"need n >= ell + 1, got n={self.n}, ell={self.ell}")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.z, self.h, self.r_box)):
            raise InvalidPotential(
                "z, h and the box radius must all be positive and finite")
        if self.h * self.h < sys.float_info.min:
            raise InvalidPotential(f"h={self.h:g} is too small: h^2 underflows")
        if self.h * self.h < 1e-100 * self.z:
            # The equation's coefficients grow like (z/h^2)^2; the shooting
            # path overflows from z/h^2 ~ 1e142 on.
            raise InvalidPotential(
                f"h={self.h:g} is too small for z={self.z:g}: the Coulomb "
                "length h^2/z must be at least 1e-100")

    @property
    def level(self) -> int:
        """Radial node count of the (n, ell) state."""
        return self.n - self.ell - 1

    @property
    def nu(self) -> float:
        return self.ell + 0.5

    @property
    def energy_unconfined(self) -> float:
        return -self.z ** 2 / (4.0 * self.n ** 2 * self.h ** 2)


def harmonic_level(p: PotentialSpec, mode: ModeSpec) -> float:
    """Leading-order level of the well: omega*(2m+1)*h on the line,
    2*omega*(2m+1+nu)*h in the radial case."""
    omega = p.curvature_omega
    if mode.nu is None:
        return omega * (2 * mode.level + 1) * mode.h
    return 2.0 * omega * (2 * mode.level + 1 + mode.nu) * mode.h


def harmonic_spacing(p: PotentialSpec, mode: ModeSpec) -> float:
    """The harmonic level spacing: 2*omega*h on the line, 4*omega*h radially."""
    return (2.0 if mode.nu is None else 4.0) * p.curvature_omega * mode.h


# --------------------------------------------------------------------------
# Confined eigenvalues (shooting, node-verified)
# --------------------------------------------------------------------------


def confined_eigenvalue(p: PotentialSpec, domain: Domain | Unwalled,
                        mode: ModeSpec, *, lam0: float | None = None,
                        rtol: float = 1e-12) -> Eigenpair:
    """Eigenvalue of level ``mode.level`` on ``domain``: a Dirichlet box, or
    the well without walls (``Unwalled``), whose ends start decaying.

    Newton starts from ``lam0`` (default: the harmonic approximation),
    which can stand for another level where h is not small, held inside
    the level's Sturm bracket (``shooting.newton``): above 0, below every
    level of a well, and for a free level below V at its decaying starts.
    """
    if domain.kind != p.kind:
        raise InvalidPotential(
            f"potential kind {p.kind!r} on a {domain.kind} domain")
    # A line box's last wall pair is kept for the flux step to reuse, and
    # Newton ends where the pair can still be moved to its root; the builtin
    # harmonic's free level is closed form, so no flux step follows.
    keep = isinstance(domain, LineBox) and p.builtin != "harmonic"
    # Where a step's square is negligible against the harmonic level
    # spacing, Newton's next step would be noise (``shooting.newton``).
    try:
        gap = harmonic_spacing(p, mode)
    except InvalidPotential:  # a degenerate minimum has no harmonic level
        gap = None
    if domain.kind == "line":
        where = f"level {mode.level} on {domain.as_tuple()} (h={mode.h:g})"
        solve = partial(newton_solve_line, p, domain, mode, reused=keep)
        nodes_at = partial(count_nodes_line, p, domain, mode)
    else:
        if mode.nu is None:
            raise InvalidPotential("radial problems need mode.nu")
        where = (f"radial level {mode.level} on {domain.as_tuple()} "
                 f"(h={mode.h:g}, nu={mode.nu:g})")
        end = domain.length if isinstance(domain, RadialBox) else domain
        series = FrobeniusStart.well(p, mode.nu, mode.h,
                                    L=domain.as_tuple()[1])
        args = (p.evaluate, mode.nu, mode.h, end)
        solve = partial(newton_solve_radial, *args, series_start=series)
        nodes_at = partial(count_nodes_radial, *args, series_start=series)

    seed = lam0 if lam0 is not None else harmonic_level(p, mode)
    # A well's levels lie above 0, a free one below V at its starts (a
    # radial free problem's left end, 0, is none).
    top = min(p.evaluate(x) for x in domain.as_tuple() if x) \
        if isinstance(domain, Unwalled) else math.inf
    return _isolate(where, mode.level, partial(
        solve, seed, rtol=rtol, gap=gap, bracket=(mode.level, 0.0, top)),
        partial(nodes_at, rtol=rtol), keep_shots=keep)


def _isolate(where: str, level: int, solve: Callable[[], shooting.Solution],
             nodes_at: Callable[..., int], *,
             keep_shots: bool = False) -> Eigenpair:
    """The root of Newton's one run ``solve`` with ``level`` nodes on its
    last shots, as a shooting Eigenpair that keeps them with
    ``keep_shots``; a start that cannot be formed fails like Newton."""
    try:
        sol = solve()
        if (nodes := nodes_at(sol.lam, shots=sol.shots)) != level:
            raise SolverError(f"converged to a level with {nodes} interior "
                              f"nodes, wanted {level} (lambda={sol.lam!r})")
    except (SeriesError, SolverError) as exc:
        raise SolverError(f"could not isolate {where}: {exc}") from exc
    return Eigenpair(index_m=level, value=sol.lam, method="shooting",
                     iterations=sol.iterations, nodes=nodes, offset=sol.offset,
                     shots=(sol.shot_at, sol.shots) if keep_shots else None)


def _bisect_radial(match: Matching, level: int, lo: float, width: float,
                   top: float = math.inf) -> float:
    """The middle of a bracket that holds level ``level`` of ``match``
    alone, by bisection on the Sturm count N (``shooting.level_count`` at
    1e-6): the upper end starts ``width`` above ``lo``, below the level,
    and doubles its distance from the last end below it, up to just below
    ``top``, where a level still above raises SolverError; halving ends at
    N(lo) = level, N(hi) = level + 1 and hi - lo <= 0.1*max(|lo|, |hi|).
    No solver calls it (Newton holds its own bracket); it stays because
    ``perfbench/probes.py`` patches it."""
    top, hi, n_lo = math.nextafter(top, -math.inf), lo + width, None
    while (n_hi := shooting.level_count(match, min(hi, top), 1e-6)) <= level:
        if hi >= top:
            raise SolverError(f"level {level} lies above lambda={top!r}")
        lo, n_lo, hi = hi, n_hi, hi + 2.0 * (hi - lo)
    hi, mid = min(hi, top), 0.5 * (lo + min(hi, top))
    while lo < mid < hi and ((n_lo, n_hi) != (level, level + 1)
                             or hi - lo > 0.1 * max(abs(lo), abs(hi))):
        n = shooting.level_count(match, mid, 1e-6)
        lo, n_lo, hi, n_hi = (lo, n_lo, mid, n) if n > level \
            else (mid, n, hi, n_hi)
        mid = 0.5 * (lo + hi)
    return mid


# --------------------------------------------------------------------------
# Unconfined reference eigenvalues (decaying ends)
# --------------------------------------------------------------------------


def unconfined_eigenvalue(p: PotentialSpec, mode: ModeSpec, *,
                          rtol: float = 1e-12,
                          lam0: float | None = None,
                          box: Domain | None = None,
                          box_shots: shooting.ShotsAt | None = None,
                          shift_estimate: float | None = None
                          ) -> Eigenpair:
    """Level of the problem without walls.

    For the stock harmonic well this is exact in closed form.  Otherwise
    it is a root of the Wronskian F of the well without walls, solved by
    ``confined_eigenvalue`` on an ``Unwalled`` domain and node-checked on
    its own shots.  Each shot starts from the decaying WKB state where the
    tunnelling distance phi reaches 17.5*h beyond the wall it stands in
    for: ``box``'s wall on that side, or the well bottom without a box.
    That start u'/u = -+sqrt(q) admixes the growing branch by about
    h|V'|/(8 (V - lambda)^(3/2)), at most O(1) wherever q > 0, and the
    barrier out to the wall damps the admixture by exp(-2*17.5) ~ 6e-16
    relative to the wall's effect, the quantity under study: 100 times
    below the tightest integrator tolerance, 1e-13.  A deeper start only
    costs steps.  Radially the shots meet at the harmonic level's turning
    point, V = lambda, where neither runs against a growing branch.

    The same damping lets each start's margin leg, out to x_a where phi
    reaches phi(wall) + c*h (``shooting.damped_margin``), run at 1e-6 and
    the rest at the free shots' own tolerance r (rtol/2 on the line, rtol
    radially): an error made there reaches the wall damped below r.  Both
    points come from ``AgmonProfile.reach``: the start out from the wall,
    x_a in from the start, where phi is known.  phi is the distance at
    energy 0, which overstates the damping exponent for a level near the
    wall's height, here and in the 17.5*h margin.

    With ``box``, ``lam0`` must be the box's Dirichlet level: Newton starts
    there and its first step is the flux step, so the pair's ``offset`` is
    minus the shift lambda_D - lambda_0, at its own relative precision.
    Where the box moved the level by about a level gap, lambda_D stands
    for another level, and Newton leaves it for its Sturm bracket: the
    pair has no ``offset``, and a shift that large is a subtraction.
    Without a box, Newton starts from ``lam0`` (default: the harmonic
    approximation).  ``box_shots``, the box's Eigenpair.shots, lets the
    flux step on the line reuse the Dirichlet pair its Newton shot last
    (``shooting.flux_wronskian``); they must come from a solve at the same
    ``rtol``, since a flux step shot in full reads them as full-precision
    shots.  The flux step ends the
    solve where its size squared is negligible against the harmonic level
    spacing, 2*omega*h on the line and 4*omega*h radially (``newton``).
    ``shift_estimate``, an estimate of lambda_D - lambda_0 such as the
    leading prediction ``report.run_shift_case`` passes, tells in advance
    where the flux step cannot end the solve; there its pair is shot at a
    looser tolerance, and Newton's next iterate corrects what that costs.
    A wrong estimate moves the level by no more than the solve's noise
    bound; None, zero or a non-finite value gives the solve without one.
    """
    if p.builtin == "harmonic":
        return Eigenpair(index_m=mode.level, value=harmonic_level(p, mode),
                         method="closed-form")

    profile = AgmonProfile(p)
    h = mode.h
    level = harmonic_level(p, mode)
    walls = (0.0, 0.0) if box is None else box.as_tuple()

    # The free shots run at rtol/2 on the line (newton_solve_line).
    loose = shooting.damped_margin(0.5 * rtol if mode.nu is None else rtol)

    def end(wall: float, side: float) -> tuple[float, float | None]:
        base = profile.phi(wall)
        x, phi_x = profile.reach(base + _PHI_MARGIN * h, side, abs(wall), base)
        if loose >= _PHI_MARGIN:
            return x, None
        # The margin leg's split: in from x, where phi is known.
        return x, profile.reach(base + loose * h, side, abs(x), phi_x)[0]

    right, right_a = end(walls[1], 1.0)
    if mode.nu is None:
        # An even well in a symmetric box has mirror-image ends, which lets
        # the shooter mirror one side (``Matching.line``).
        if p.even and walls[0] == -walls[1]:
            left, left_a = -right, None if right_a is None else -right_a
        else:
            left, left_a = end(walls[0], -1.0)
        domain = Unwalled(left, right, x_a=(left_a, right_a), box=box,
                          box_level=lam0, box_shots=box_shots,
                          shift_estimate=shift_estimate)
    elif p.evaluate(right) <= level:
        raise SolverError(
            f"lambda={level!r} lies above the barrier at the decaying start "
            f"x={right:g} (h={h:g}): the level is not a low-lying one")
    else:
        from scipy.optimize import brentq  # only a radial free solve needs it

        turning = brentq(lambda x: p.evaluate(x) - level, 0.0, right,
                         xtol=1e-6 * right)
        domain = Unwalled(0.0, right, x_m=turning, x_a=(None, right_a),
                          box=box, box_level=lam0,
                          shift_estimate=shift_estimate)
    return confined_eigenvalue(p, domain, mode, lam0=lam0, rtol=rtol)


# --------------------------------------------------------------------------
# Finite-difference oracle
# --------------------------------------------------------------------------


# LAPACK, through scipy.linalg, which only the oracle calls: each routine is
# imported on its first call, so a cold start that runs no oracle loads no
# scipy.linalg (most of a cold import).  The names stay module attributes,
# looked up at each call, for the tracer and the tests to patch.
def eigh_tridiagonal(*args, **kwargs):
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal(*args, **kwargs)


def dgttrf(*args):
    from scipy.linalg.lapack import dgttrf
    return dgttrf(*args)


def dgttrs(*args):
    from scipy.linalg.lapack import dgttrs
    return dgttrs(*args)


def dstebz(*args):
    from scipy.linalg.lapack import dstebz
    return dstebz(*args)


_SEED_COARSENING = 8  # the seed grid has grid_n // 8 intervals
_SWEEPS = 8  # inverse-iteration sweeps before a grid falls back to bisection
_RESIDUAL = 4.0  # stop at |Tv - lambda v| <= 4 eps |T|, stebz's own tolerance


def _fd_matrix(v: Callable[[float], float], cent: float, a: float, b: float,
               h: float, n: int) -> tuple[np.ndarray, float]:
    """Diagonal and off-diagonal of the 3-point discretisation of
    -h^2 D^2 + V + cent/x^2 on (a, b), Dirichlet both ends, n subintervals."""
    import numpy as np

    dx = (b - a) / n
    if dx * dx == 0.0:
        raise GridError(f"grid spacing {dx:g} is too fine: its square underflows")
    x = a + dx * np.arange(1, n)
    potential = v_on_grid(v, x)
    with np.errstate(all="ignore"):  # a non-finite entry fails in LAPACK
        if cent:
            potential = potential + cent / (x * x)
        return 2.0 * h * h / (dx * dx) + potential, -h * h / (dx * dx)


def _fd_grids(p: PotentialSpec, domain: Domain, mode: ModeSpec
              ) -> Callable[[int], tuple[np.ndarray, float]]:
    """The matrix of ``fd_oracle``'s problem on a grid, by its number of
    intervals: (diagonal, off-diagonal), see ``_fd_matrix``."""
    h = mode.h
    if isinstance(domain, LineBox):
        return partial(_fd_matrix, p.evaluate, 0.0, domain.left, domain.right, h)
    if mode.nu is None:
        raise InvalidPotential("radial finite differences need mode.nu")
    if mode.nu < 0.5:
        warnings.warn(
            f"nu={mode.nu:g} < 0.5: the x^(nu+1/2) behaviour at 0 is too "
            "singular for the plain stencil; oracle accuracy is reduced",
            RuntimeWarning, stacklevel=3)
    cent = h * h * (mode.nu * mode.nu - 0.25)
    return partial(_fd_matrix, p.evaluate, cent, 0.0, domain.length, h)


def _fd_values(diag: np.ndarray, off: float, count: int,
               seeds: np.ndarray | None = None,
               starts: Iterable[np.ndarray] | None = None
               ) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Lowest ``count`` eigenvalues of the symmetric tridiagonal matrix
    with ``diag`` and constant ``off``, with their unit vectors where
    known: from ``seeds``, one per level, by certified inverse iteration
    (``_refined``, from ``starts``), or else by LAPACK's bisection, which
    gives no vectors.  A matrix LAPACK cannot resolve raises ``GridError``,
    like any other grid that cannot be trusted."""
    import numpy as np

    if seeds is not None:
        refined = _refined(diag, off, seeds, starts)
        if refined is not None:
            return refined
    try:
        return eigh_tridiagonal(diag, np.full(diag.size - 1, off),
                                eigvals_only=True, select="i",
                                select_range=(0, count - 1)), None
    except np.linalg.LinAlgError as exc:  # LAPACK's bisection did not converge
        raise GridError(f"finite-difference eigenvalues failed: {exc}") from exc


def _refined(diag: np.ndarray, off: float, seeds: np.ndarray,
             starts: Iterable[np.ndarray] | None = None
             ) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """The lowest ``len(seeds)`` eigenvalues and their unit vectors, each
    by inverse iteration shifted to its seed from its vector in
    ``starts``, taken one at a time (default: one ``linspace`` vector for
    all), or None unless all are certified.

    Each level stops at a residual |Tv - lambda v| <= 4 eps |T|, lambda the
    Rayleigh quotient of the unit vector v, so an eigenvalue lies within
    that residual of lambda (Weyl); |T| is the Gershgorin bound stebz
    uses.  The intervals must be ordered and disjoint, and a Sturm count
    must find exactly ``len(seeds)`` eigenvalues below the top of the last:
    then interval i holds eigenvalue i, whatever the seeds and starts were.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        span = 2.0 * abs(off)
        norm = max(abs(diag.min() - span), abs(diag.max() + span))
        tol = _RESIDUAL * np.finfo(float).eps * norm
        if not math.isfinite(tol):
            return None
        sub = np.full(diag.size - 1, off)
        if starts is None:
            starts = [np.linspace(1.0, 2.0, diag.size)] * len(seeds)
        levels = [_inverse_iteration(diag, sub, seed, start, tol)
                  for seed, start in zip(seeds, starts)]
    if None in levels:
        return None
    values, radii, vectors = zip(*levels)
    values, radii = np.array(values), np.array(radii)
    tops = values + radii
    if np.any(tops[:-1] >= (values - radii)[1:]):
        return None
    # dstebz as a counter: an abstol wider than the spectrum stops it before
    # any bisection, so m = N(top) from a few Sturm sequences.
    m, *_, info = dstebz(diag, sub, 1, -math.inf, tops[-1], 0, 0,
                         2.0 * norm, "E")
    return (values, list(vectors)) if info == 0 and m == len(seeds) else None


def _inverse_iteration(diag: np.ndarray, sub: np.ndarray, seed: float,
                       start: np.ndarray, tol: float
                       ) -> tuple[float, float, np.ndarray] | None:
    """(Rayleigh quotient, residual, unit vector) of the level next to
    ``seed``, from sweeps of one LU factorisation of T - seed; None if a
    pivot is zero, a value is not finite or the residual stays above
    ``tol``.  The ``start`` vector must not be even unless the level is:
    the odd levels of a symmetric box are orthogonal to every even
    vector."""
    dl, d, du, du2, ipiv, info = dgttrf(sub, diag - seed, sub)
    if info != 0:
        return None
    v = start
    for _ in range(_SWEEPS):
        w, info = dgttrs(dl, d, du, du2, ipiv, v)
        size = abs(w).max()
        if info != 0 or not 0.0 < size < math.inf:
            return None
        w /= size  # scaled first, so the norm cannot overflow
        v = w / math.sqrt(w @ w)
        tv = diag * v
        tv[1:] += sub * v[:-1]
        tv[:-1] += sub * v[1:]
        lam = float(v @ tv)
        r = tv - lam * v
        residual = math.sqrt(r @ r)
        if residual <= tol:
            return lam, residual, v
    return None


def _halved(v: np.ndarray) -> np.ndarray:
    """``v``, given on the interior points of a grid, linearly interpolated
    onto the grid of half its spacing: the same points plus the midpoints,
    the Dirichlet ends counted as zeros."""
    import numpy as np

    out = np.empty(2 * v.size + 1)
    out[1::2] = v
    out[0::2] = 0.5 * (np.append(v, 0.0) + np.insert(v, 0, 0.0))
    return out


def fd_oracle(p: PotentialSpec, domain: Domain, mode: ModeSpec,
              grid_n: int = 2000, count: int = 1) -> list[Eigenpair]:
    """Richardson-extrapolated finite-difference eigenvalues, lowest ``count``.

    Entirely independent of the shooting machinery: the 3-point matrices
    of grid_n and 2*grid_n intervals give (4*fine - coarse)/3.  V is
    evaluated once over each grid where it has a ``source``, point by point
    otherwise; the radial x^-2 term is applied directly on the grid.  For
    nu < 0.5 the eigenfunction is too singular at 0 for the 3-point
    stencil and accuracy degrades (warned).

    Each grid costs O(n) per level.  LAPACK's bisection
    (``eigh_tridiagonal``) solves a seed grid of grid_n // 8 intervals for
    count + 1 levels.  Only the ``count`` reported levels are refined on
    the two working grids, by inverse iteration: each of the grid_n grid
    from its seed and one ``linspace`` start, each of the 2*grid_n grid
    from its grid_n value and vector, interpolated onto the finer grid
    (``_halved``), which it mostly matches in one sweep.  A level stops
    only at a residual within 4 eps |T|, the tolerance class of the
    bisection itself, and a Sturm count certifies that it is the level of
    its index.  A grid whose levels fail either certificate is solved by
    bisection instead.  numpy and LAPACK (``scipy.linalg``) load on the
    oracle's first call: nothing else in boxshift needs LAPACK.

    Each level must move between the two grids by less than a quarter of
    its gap to its neighbours: on the fine grid, and above the last from
    the seed grid's spacing there.  Where that spacing is too narrow to
    pass the last level (a seed grid too coarse to tell two levels
    apart), or where there are no seeds (the seed grid is too small or
    fails), both grids solve count + 1 levels, and the fine grid's gap
    above the last decides.
    """
    import numpy as np

    if isinstance(grid_n, bool) or not isinstance(grid_n, Integral):
        raise GridError(f"grid_n must be an integer, got {grid_n!r}")
    if isinstance(count, bool) or not isinstance(count, Integral) or count < 0:
        raise GridError(f"count must be a non-negative integer, got {count!r}")
    if grid_n < 200:
        raise GridError(f"finite-difference grid needs >= 200 points, got {grid_n}")
    if count + 1 > grid_n - 1:  # one level beyond the last, for its gap
        raise GridError(
            f"a grid of {grid_n} intervals has {grid_n - 1} interior points, "
            f"too few for the lowest {count + 1} levels; increase grid_n")
    matrix = _fd_grids(p, domain, mode)
    coarse_matrix = matrix(grid_n)  # first: V undefined on it raises here
    seeds = None
    if 0 < count < grid_n // _SEED_COARSENING - 1:
        try:
            seeds, _ = _fd_values(*matrix(grid_n // _SEED_COARSENING),
                                  count + 1)
        except (BoxshiftError, ArithmeticError, ValueError):
            pass  # the grid_n grid is bisected instead

    def solve(levels: int) -> tuple[np.ndarray, np.ndarray]:
        coarse, vectors = _fd_values(*coarse_matrix, levels,
                                     None if seeds is None else seeds[:levels])
        fine, _ = _fd_values(*matrix(2 * grid_n), levels, coarse,
                             None if vectors is None
                             else map(_halved, vectors))
        return coarse, fine

    if seeds is not None:
        coarse, fine = solve(count)
        above = np.append(np.diff(fine), seeds[count] - seeds[count - 1])
    if seeds is None or abs(coarse[-1] - fine[-1]) > 0.25 * above[-1]:
        # Without seeds, or where the seed grid's spacing is too narrow to
        # pass the last level, the level above it is refined too.
        coarse, fine = solve(count + 1)
        above = np.diff(fine)
    out: list[Eigenpair] = []
    for i in range(count):
        gap = above[i] if i == 0 else min(above[i], above[i - 1])
        if abs(coarse[i] - fine[i]) > 0.25 * gap:
            raise GridError(
                f"grid too coarse to separate level {i} "
                f"(refinement moved it by {abs(coarse[i] - fine[i]):.3g}, "
                f"gap {gap:.3g}); increase grid_n")
        value = (4.0 * fine[i] - coarse[i]) / 3.0
        out.append(Eigenpair(index_m=i, value=float(value),
                             method="finite-difference", grid_n=grid_n))
    return out


# --------------------------------------------------------------------------
# Confined hydrogen
# --------------------------------------------------------------------------


def hydrogen_confined(spec: HydrogenSpec, *, rtol: float = 1e-12) -> Eigenpair:
    """E_n(R): Coulomb level in a Dirichlet box of radius r_box, by shooting.

    Newton starts from the unconfined E_n, inside the level's Sturm
    bracket (``shooting.newton``): above E_n, which the wall only raises,
    and below the series start's top, above which u may vanish before x0
    and escape the node count (``FrobeniusStart.coulomb``).  Its scale is
    max(|E_n|, (pi*h/R)^2), the empty box's level being how far a crowded
    box lifts the level.
    """
    V = lambda x: -spec.z / x  # noqa: E731
    V.source = f"-{spec.z!r} / x"  # inlined by the integrator (see dop853)
    nu, h, L, m = spec.nu, spec.h, spec.r_box, spec.level
    # The series start admits lambda while x0 (z + lambda x0) < 3.67 h^2
    # (``FrobeniusStart.coulomb``).  x0 lies as far out as half that bound
    # admits lam_up = (pi (m + 1 + nu/2) h/R)^2, the empty box's level with
    # the same nu: x0 (z + lam_up x0) = c = 3.67 h^2/2, so top >= 2 lam_up.
    # lam_up lies above the level, which -z/x only lowers, as j_(nu,m+1) <
    # (m + 1 + nu/2) pi; so no zero of u before x0 escapes the node count.
    # The root, 1/(p + hypot(p, q)) with p = z/(2c) and q = sqrt(lam_up/c),
    # in which h cancels, stays finite where lam_up overflows; R/10 caps it.
    p = spec.z / (_FIRST_ZERO * h * h)
    q = math.pi * (m + 1 + 0.5 * nu) / (math.sqrt(0.5 * _FIRST_ZERO) * L)
    x0 = min(1.0 / (p + math.hypot(p, q)), 0.1 * L)
    series = FrobeniusStart.coulomb(spec.z, spec.ell, h, x0)
    free = spec.energy_unconfined
    k = math.pi * h / L  # k * k, the empty box's level: inf where ** raises
    return _isolate(
        f"hydrogen level n={spec.n}, ell={spec.ell} in box {L:g}", m,
        partial(newton_solve_radial, V, nu, h, L, free, series_start=series,
                rtol=rtol, lambda_scale=max(abs(free), k * k),
                bracket=(m, free, series.top)),
        partial(count_nodes_radial, V, nu, h, L, series_start=series,
                rtol=rtol))
