"""High-level eigenvalue services.

Four ways to an eigenvalue live here, deliberately independent:

* ``confined_eigenvalue`` -- shooting + Newton on the exact Dirichlet
  problem, with the level identity confirmed by an interior node count.
* ``unconfined_eigenvalue`` -- the reference level of the problem without
  walls, computed on a Dirichlet box whose walls sit where phi first
  reaches 34.5*h beyond the reference wall's (the wall effect dies like
  exp(-2*phi(wall)/h), so it contributes below 1e-30 of the quantity under
  study), confirmed against a box 1.25 times wider.  Newton starts from the
  caller's nearby level when one is known.
* ``fd_oracle`` -- a finite-difference discretisation with Richardson
  extrapolation; shares no code with the shooting path and serves as the
  cross-check oracle.
* ``hydrogen_confined`` -- direct shooting on the Coulomb equation with a
  series start at the origin; no change of variables involved (the
  oscillator mapping is exercised by tests, not used for ground truth).

Both Dirichlet solvers isolate their level in one loop, ``_isolate``:
Newton from each seed in turn until a root has the level's node count.
Finite-difference seeds are computed only after the first seed fails.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from . import shooting
from .agmon import AgmonProfile
from .errors import GridError, InvalidPotential, SolverError
from .potentials import Domain, LineBox, PotentialSpec, RadialBox, harmonic
from .shooting import (CoulombSeriesStart, ModeSpec, OscillatorSeriesStart,
                       count_nodes_line, count_nodes_radial, newton_solve_line,
                       newton_solve_radial)

_PHI_MARGIN = 34.5  # in units of h; exp(-2*34.5) ~ 1e-30
_EXPANSION_FACTOR = 1.25
_MAX_EXPANSIONS = 40
_WALL_XTOL = 1e-9  # absolute; walls sit at |x| = O(1)


@dataclass(frozen=True)
class Eigenpair:
    """An eigenvalue with provenance and solver diagnostics."""

    index_m: int
    value: float
    method: str  # "shooting" | "finite-difference" | "closed-form"
    iterations: int = 0
    residual_log: float | None = None
    grid_n: int | None = None
    nodes: int | None = None

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
        if self.z <= 0 or self.h <= 0 or self.r_box <= 0:
            raise InvalidPotential("z, h and the box radius must all be positive")

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


# --------------------------------------------------------------------------
# Confined eigenvalues (shooting, node-verified)
# --------------------------------------------------------------------------


def confined_eigenvalue(p: PotentialSpec, domain: Domain, mode: ModeSpec, *,
                        lam0: float | None = None, rtol: float = 1e-12,
                        newton_tol: float = 1e-10,
                        max_iter: int = 50) -> Eigenpair:
    """Dirichlet eigenvalue of level ``mode.level`` on ``domain``.

    Newton starts from ``lam0`` (default: the harmonic approximation); if
    it fails or lands on a level with the wrong interior node count, one
    retry is made from a finite-difference estimate before giving up.  That
    matters when h is not small and levels are crowded.
    """
    if isinstance(domain, LineBox):
        if p.kind != "line":
            raise InvalidPotential(f"potential kind {p.kind!r} on a line domain")
        where = f"level {mode.level} on {domain.as_tuple()} (h={mode.h:g})"
        solve = partial(newton_solve_line, p, domain, mode)
        nodes_at = partial(count_nodes_line, p, domain, mode)
    else:
        if mode.nu is None:
            raise InvalidPotential("radial problems need mode.nu")
        if p.kind != "radial":
            raise InvalidPotential(f"potential kind {p.kind!r} on a radial domain")
        where = (f"radial level {mode.level} on (0, {domain.length:g}) "
                 f"(h={mode.h:g}, nu={mode.nu:g})")
        series = OscillatorSeriesStart(p, mode.nu, mode.h, L=domain.length)
        args = (p.evaluate, mode.nu, mode.h, domain.length)
        solve = partial(newton_solve_radial, *args, series_start=series)
        nodes_at = partial(count_nodes_radial, *args, series_start=series)

    def seeds():
        yield lam0 if lam0 is not None else harmonic_level(p, mode)
        try:
            fd = fd_oracle(p, domain, mode, grid_n=1200, count=mode.level + 1)
        except GridError:
            return
        yield fd[mode.level].value

    return _isolate(where, mode.level, seeds(),
                    partial(solve, rtol=rtol, newton_tol=newton_tol,
                            max_iter=max_iter),
                    partial(nodes_at, rtol=rtol))


def _isolate(where: str, level: int, seeds: Iterable[float],
             solve: Callable[[float], shooting.Solution],
             nodes_at: Callable[[float], int]) -> Eigenpair:
    """Newton from each seed in turn; the first root with ``level`` interior
    nodes, as a shooting Eigenpair.  ``seeds`` is consumed lazily, so a
    fallback seed costs nothing unless every earlier one failed."""
    last_error: Exception | None = None
    for seed in seeds:
        try:
            sol = solve(seed)
        except SolverError as exc:
            last_error = exc
            continue
        nodes = nodes_at(sol.lam)
        if nodes == level:
            return Eigenpair(index_m=level, value=sol.lam, method="shooting",
                             iterations=sol.iterations,
                             residual_log=sol.residual_log, nodes=nodes)
        last_error = SolverError(
            f"converged to a level with {nodes} interior nodes, "
            f"wanted {level} (lambda={sol.lam!r})")
    raise SolverError(f"could not isolate {where}: {last_error}")


# --------------------------------------------------------------------------
# Unconfined reference eigenvalues (auto-expanded box)
# --------------------------------------------------------------------------


def unconfined_eigenvalue(p: PotentialSpec, mode: ModeSpec, *,
                          rtol: float = 1e-12,
                          reference_phi: float = 0.0,
                          lam0: float | None = None) -> Eigenpair:
    """Level of the problem without walls.

    For the stock harmonic well this is exact in closed form.  Otherwise
    the level is solved on Dirichlet boxes whose walls bury their own
    effect: the first box puts each wall at the nearest point where the
    tunnelling distance phi reaches ``reference_phi`` + 34.5*h, which makes
    the wall effect < 1e-30 relative to exp(-2*reference_phi/h), the scale
    of whatever shift the caller is resolving.  Boxes then grow by 1.25
    until two successive ones agree to 1e-13 * max(|lambda|, h); that
    check guards the phi-to-error estimate, which assumes the level sits
    in the well and the box sees only its exponential tail.

    Newton on the first box starts from ``lam0`` (default: the harmonic
    approximation); a caller that knows a nearby level, such as the
    confined level minus its predicted shift, saves most of the
    iterations.  Each later box starts from its predecessor's value.
    """
    if p.builtin == "harmonic":
        return Eigenpair(index_m=mode.level, value=harmonic_level(p, mode),
                         method="closed-form")

    profile = AgmonProfile(p, quadrature_tolerance=1e-12)
    h = mode.h
    target_phi = reference_phi + _PHI_MARGIN * h
    guess = lam0 if lam0 is not None else harmonic_level(p, mode)
    # Where the harmonic approximation omega*x^2/2 of phi reaches the target.
    start = math.sqrt(2.0 * target_phi / max(p.curvature_omega, 1e-6))
    right = _first_wall(profile, target_phi, start, h)
    left = -_first_wall(profile, target_phi, -start, h) if mode.nu is None \
        else 0.0

    lam_prev: float | None = None
    for _ in range(_MAX_EXPANSIONS):
        domain: Domain = LineBox(left, right) if mode.nu is None \
            else RadialBox(right)
        pair = confined_eigenvalue(p, domain, mode, lam0=guess, rtol=rtol)
        if lam_prev is not None and \
                abs(pair.value - lam_prev) <= 1e-13 * max(abs(pair.value), h):
            return pair
        lam_prev = guess = pair.value
        left *= _EXPANSION_FACTOR
        right *= _EXPANSION_FACTOR
    raise SolverError(
        "box expansion did not stabilise the unconfined eigenvalue "
        f"within {_MAX_EXPANSIONS} boxes (h={h:g}); "
        "the potential tail may be too shallow for this h")


def _first_wall(profile: AgmonProfile, target_phi: float, start: float,
                h: float) -> float:
    """|x| of the nearest point on the side of ``start`` where phi reaches
    ``target_phi``: bracketed by growing ``start`` by 1.25, then root-found.

    phi is carried from point to point, one quadrature between them, not
    integrated from the well bottom at each.  The root is found by Newton
    steps in from the bracket's outer end, since |phi'| = sqrt(V) costs one
    evaluation of V; a step that would leave the bracket bisects it.  The
    root is stepped just past the crossing and kept only if phi there,
    integrated in full, is confirmed to reach the target; otherwise the
    bracket's outer end, which is confirmed, serves as the wall.
    """
    inner, phi_inner, outer = 0.0, 0.0, start
    for _ in range(_MAX_EXPANSIONS):
        phi_outer = phi_inner + profile.phi_increment(inner, outer)
        if phi_outer >= target_phi:
            break
        inner, phi_inner, outer = outer, phi_outer, outer * _EXPANSION_FACTOR
    else:
        raise SolverError(
            f"the tunnelling distance stays below {target_phi:g} out to "
            f"|x| = {abs(inner):g} (h={h:g}); "
            "the potential tail may be too shallow for this h")
    lo, hi = sorted((inner, outer))  # phi crosses the target in between
    x, phi_x = outer, phi_outer
    for _ in range(2 * _MAX_EXPANSIONS):  # bisection alone needs about 35
        slope = profile.phi_prime(x)
        step = (phi_x - target_phi) / slope if slope else math.inf
        if abs(step) <= _WALL_XTOL or hi - lo <= _WALL_XTOL:
            break
        x_new = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        phi_x += profile.phi_increment(x, x_new)
        x = x_new
        if (phi_x < target_phi) == (start > 0.0):  # short of the target
            lo = x                                  # on the right side
        else:
            hi = x
    wall = float(x) + math.copysign(2.0 * _WALL_XTOL, start)
    return abs(wall) if profile.phi(wall) >= target_phi else abs(outer)


# --------------------------------------------------------------------------
# Finite-difference oracle
# --------------------------------------------------------------------------


def _fd_values(v_eff: Callable[[float], float], a: float, b: float, h: float,
               count: int, n: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the 3-point discretisation of
    h^2 D^2 + v_eff on (a, b), Dirichlet both ends, n subintervals."""
    dx = (b - a) / n
    x = a + dx * np.arange(1, n)
    diag = 2.0 * h * h / (dx * dx) + np.array([v_eff(t) for t in x])
    off = np.full(n - 2, -h * h / (dx * dx))
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, count - 1))


def fd_oracle(p: PotentialSpec, domain: Domain, mode: ModeSpec,
              grid_n: int = 2000, count: int = 1) -> list[Eigenpair]:
    """Richardson-extrapolated finite-difference eigenvalues, lowest ``count``.

    Entirely independent of the shooting machinery.  The radial x^-2 term
    is applied directly on the grid; for nu < 0.5 the eigenfunction is too
    singular at 0 for the 3-point stencil and accuracy degrades (warned).
    """
    if grid_n < 200:
        raise GridError(f"finite-difference grid needs >= 200 points, got {grid_n}")
    h = mode.h
    if isinstance(domain, LineBox):
        a, b = domain.left, domain.right
        v_eff: Callable[[float], float] = p.evaluate
    else:
        if mode.nu is None:
            raise InvalidPotential("radial finite differences need mode.nu")
        if mode.nu < 0.5:
            warnings.warn(
                f"nu={mode.nu:g} < 0.5: the x^(nu+1/2) behaviour at 0 is too "
                "singular for the plain stencil; oracle accuracy is reduced",
                RuntimeWarning, stacklevel=2)
        a, b = 0.0, domain.length
        cent = h * h * (mode.nu * mode.nu - 0.25)
        v_eff = lambda x: p.evaluate(x) + cent / (x * x)  # noqa: E731

    coarse = _fd_values(v_eff, a, b, h, count + 1, grid_n)
    fine = _fd_values(v_eff, a, b, h, count + 1, 2 * grid_n)
    out: list[Eigenpair] = []
    for i in range(count):
        gap = fine[i + 1] - fine[i]
        if i > 0:
            gap = min(gap, fine[i] - fine[i - 1])
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


def hydrogen_confined(spec: HydrogenSpec, *, rtol: float = 1e-12,
                      newton_tol: float = 1e-10) -> Eigenpair:
    """E_n(R): Coulomb level in a Dirichlet box of radius r_box, by shooting.

    Newton starts from the unconfined E_n.  When the box crowds the turning
    point, E_n can sit in the wrong basin; then Newton retries from a
    finite-difference estimate and, failing that, from sign bisection
    between the neighbouring finite-difference levels.  Each root must
    carry the level's radial node count.
    """
    V = lambda x: -spec.z / x  # noqa: E731
    V.source = f"-{spec.z!r} / x"  # inlined by the integrator (see dop853)
    nu, h, L, m = spec.nu, spec.h, spec.r_box, spec.level
    x0 = min(0.1 * spec.n * h ** 2 / spec.z, 0.01 * L)
    series = CoulombSeriesStart(spec.z, spec.ell, h, x0)

    def seeds():
        yield spec.energy_unconfined
        try:
            fd = [pair.value for pair in fd_oracle(
                PotentialSpec("radial", V), RadialBox(L),
                ModeSpec(m, h, nu), grid_n=1600, count=m + 2)]
        except GridError:
            return
        yield fd[m]
        lo = fd[m - 1] + 0.25 * (fd[m] - fd[m - 1]) if m > 0 \
            else fd[0] - 0.5 * (fd[1] - fd[0])
        hi = fd[m] + 0.75 * (fd[m + 1] - fd[m])
        yield _bisect_radial(V, nu, h, L, series, lo, hi, rtol)

    return _isolate(
        f"hydrogen level n={spec.n}, ell={spec.ell} in box {L:g}", m, seeds(),
        partial(newton_solve_radial, V, nu, h, L, series_start=series,
                rtol=rtol, newton_tol=newton_tol,
                lambda_scale=abs(spec.energy_unconfined)),
        partial(count_nodes_radial, V, nu, h, L, series_start=series,
                rtol=rtol))


def _bisect_radial(V: Callable[[float], float], nu: float, h: float, L: float,
                   series: shooting.SeriesStart, lo: float, hi: float,
                   rtol: float) -> float:
    """Sign-change point of W = -u(L) in lambda on [lo, hi]."""
    match = shooting.Matching.radial(V, nu, h, L, series)

    def sign_at(lam: float) -> int:
        left, right = match.shoot(lam, rtol, with_sensitivity=False)
        return shooting.wronskian(left, right)[0].sign

    s_lo, s_hi = sign_at(lo), sign_at(hi)
    if s_lo == s_hi:
        raise SolverError(
            f"no sign change of the boundary value on [{lo:g}, {hi:g}]")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sign_at(mid) == s_lo:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def hydrogen_confined_via_oscillator(spec: HydrogenSpec, *,
                                     rtol: float = 1e-12,
                                     max_rounds: int = 25) -> Eigenpair:
    """E_n(R) through the quadratic change of variables.

    The z=2 Coulomb problem in a box R is equivalent to a radial harmonic
    problem with angular parameter 2*ell+1 in a box L = sqrt(2R/k), where
    the oscillator eigenvalue is 4k and E = -1/k^2; general z is rescaled
    onto z=2 first.  Since L itself depends on k, the defining condition
    is the scalar root  lambda_osc(L(k)) = 4k.  Plain self-iteration cycles
    once the wall does real work (its derivative passes 1), so the root is
    bracketed and bisected: k = n*h from below -- the Dirichlet wall only
    raises the level -- and an expanding upper bound from above, where the
    shrinking box makes the level grow only sublinearly in k.
    """
    r2 = spec.z * spec.r_box / 2.0  # box radius of the equivalent z=2 problem
    n, ell, h, m = spec.n, spec.ell, spec.h, spec.level
    nu_osc = 2.0 * ell + 1.0
    well = harmonic(kind="radial")
    evals = {"count": 0, "pair": None}

    def mismatch(k: float) -> float:
        L = math.sqrt(2.0 * r2 / k)
        pair = confined_eigenvalue(
            well, RadialBox(L), ModeSpec(level=m, h=h, nu=nu_osc),
            lam0=max(4.0 * k, 4.0 * n * h), rtol=rtol)
        evals["count"] += 1
        evals["pair"] = pair
        return pair.value - 4.0 * k

    k_lo = n * h
    if mismatch(k_lo) <= 0.0:  # wall effect below resolution: free value
        k = k_lo
    else:
        k_hi = 1.5 * k_lo
        for _ in range(max_rounds):
            if mismatch(k_hi) < 0.0:
                break
            k_hi *= 1.5
        else:
            raise SolverError(
                "could not bracket the oscillator-map matching condition "
                f"(n={n}, ell={ell}, box={spec.r_box:g})")
        k = float(brentq(mismatch, k_lo, k_hi, xtol=1e-13 * n * h))
    energy = -(spec.z ** 2 / 4.0) / (k * k)
    pair = evals["pair"]
    return Eigenpair(index_m=m, value=energy, method="shooting",
                     iterations=evals["count"], nodes=pair.nodes)
