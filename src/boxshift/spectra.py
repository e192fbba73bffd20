"""High-level eigenvalue services.

Four ways to an eigenvalue live here, deliberately independent:

* ``confined_eigenvalue`` -- shooting + Newton on the exact Dirichlet
  problem, with the level identity confirmed by an interior node count.
* ``unconfined_eigenvalue`` -- the reference level of the problem without
  walls, computed on an auto-expanded box (the wall effect dies like
  exp(-2*phi(wall)/h), so a box with phi 34.5*h beyond the reference wall
  contributes below 1e-30 of the quantity under study).
* ``fd_oracle`` -- a finite-difference discretisation with Richardson
  extrapolation; shares no code with the shooting path and serves as the
  cross-check oracle.
* ``hydrogen_confined`` -- direct shooting on the Coulomb equation with a
  series start at the origin; no change of variables involved (the
  oscillator mapping is exercised by tests, not used for ground truth).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from . import shooting
from .agmon import AgmonProfile
from .errors import GridError, InvalidPotential, SolverError
from .potentials import Domain, LineBox, PotentialSpec, RadialBox, harmonic
from .shooting import (CoulombSeriesStart, ModeSpec, OscillatorSeriesStart,
                       count_nodes_line, count_nodes_radial, newton_solve_line,
                       newton_solve_radial, shoot_radial)

_PHI_MARGIN = 34.5  # in units of h; exp(-2*34.5) ~ 1e-30
_EXPANSION_FACTOR = 1.25
_MAX_EXPANSIONS = 40


@dataclass(frozen=True)
class Eigenpair:
    """An eigenvalue with provenance and solver diagnostics."""

    index_m: int
    value: float
    method: str  # "shooting" | "finite-difference" | "closed-form"
    iterations: int = 0
    residual_log: float | None = None
    grid_n: int | None = None
    beta: float | None = None
    nodes: int | None = None
    steps: int = 0

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
                        lam0: float | None = None, beta0: float = 0.0,
                        rtol: float = 1e-12, newton_tol: float = 1e-10,
                        max_iter: int = 50, jacobian: str = "refreshed",
                        verify_nodes: bool = True) -> Eigenpair:
    """Dirichlet eigenvalue of level ``mode.level`` on ``domain``.

    The Newton basin is entered from ``lam0`` (default: the harmonic
    approximation); if the converged solution has the wrong interior node
    count, one retry is made from a finite-difference estimate before
    giving up.  This matters when h is not small and levels are crowded.
    """
    if isinstance(domain, LineBox):
        if p.kind != "line":
            raise InvalidPotential(f"potential kind {p.kind!r} on a line domain")
        return _confined_line(p, domain, mode, lam0, beta0, rtol, newton_tol,
                              max_iter, jacobian, verify_nodes)
    if mode.nu is None:
        raise InvalidPotential("radial problems need mode.nu")
    if p.kind != "radial":
        raise InvalidPotential(f"potential kind {p.kind!r} on a radial domain")
    return _confined_radial(p, domain, mode, lam0, rtol, newton_tol,
                            max_iter, jacobian, verify_nodes)


def _confined_line(p: PotentialSpec, domain: LineBox, mode: ModeSpec,
                   lam0: float | None, beta0: float, rtol: float,
                   newton_tol: float, max_iter: int, jacobian: str,
                   verify_nodes: bool) -> Eigenpair:
    guesses = [lam0 if lam0 is not None else harmonic_level(p, mode)]
    last_error: Exception | None = None
    steps = 0  # every attempt's, rejected ones included
    for guess in _with_fd_fallback(guesses, p, domain, mode):
        try:
            sol = newton_solve_line(p, domain, mode, guess, beta0, rtol=rtol,
                                    newton_tol=newton_tol, max_iter=max_iter,
                                    jacobian=jacobian)
        except SolverError as exc:
            steps += exc.steps
            last_error = exc
            continue
        steps += sol.steps
        nodes = None
        if verify_nodes:
            nodes, node_steps = count_nodes_line(p, domain, mode, sol.lam,
                                                 sol.beta, rtol)
            steps += node_steps
            if nodes != mode.level:
                last_error = SolverError(
                    f"converged to a level with {nodes} interior nodes, "
                    f"wanted {mode.level} (lambda={sol.lam!r})")
                continue
        return Eigenpair(index_m=mode.level, value=sol.lam, method="shooting",
                         iterations=sol.iterations, residual_log=sol.residual_log,
                         beta=sol.beta, nodes=nodes, steps=steps)
    raise SolverError(
        f"could not isolate level {mode.level} on {domain.as_tuple()} "
        f"(h={mode.h:g}): {last_error}", steps)


def _confined_radial(p: PotentialSpec, domain: RadialBox, mode: ModeSpec,
                     lam0: float | None, rtol: float, newton_tol: float,
                     max_iter: int, jacobian: str,
                     verify_nodes: bool) -> Eigenpair:
    series = OscillatorSeriesStart(p, mode.nu, mode.h, L=domain.length)
    guesses = [lam0 if lam0 is not None else harmonic_level(p, mode)]
    last_error: Exception | None = None
    steps = 0  # every attempt's, rejected ones included
    for guess in _with_fd_fallback(guesses, p, domain, mode):
        try:
            sol = newton_solve_radial(p.evaluate, mode.nu, mode.h, domain.length,
                                      guess, series, rtol=rtol,
                                      newton_tol=newton_tol, max_iter=max_iter,
                                      jacobian=jacobian)
        except SolverError as exc:
            steps += exc.steps
            last_error = exc
            continue
        steps += sol.steps
        nodes = None
        if verify_nodes:
            nodes, node_steps = count_nodes_radial(p.evaluate, mode.nu, mode.h,
                                                   domain.length, sol.lam,
                                                   series, rtol)
            steps += node_steps
            if nodes != mode.level:
                last_error = SolverError(
                    f"converged to a level with {nodes} interior nodes, "
                    f"wanted {mode.level} (lambda={sol.lam!r})")
                continue
        return Eigenpair(index_m=mode.level, value=sol.lam, method="shooting",
                         iterations=sol.iterations, residual_log=sol.residual_log,
                         nodes=nodes, steps=steps)
    raise SolverError(
        f"could not isolate radial level {mode.level} on (0, {domain.length:g}) "
        f"(h={mode.h:g}, nu={mode.nu:g}): {last_error}", steps)


def _with_fd_fallback(guesses: list[float], p: PotentialSpec, domain: Domain,
                      mode: ModeSpec):
    """Yield the caller's guesses, then one finite-difference estimate."""
    yield from guesses
    try:
        fd = fd_oracle(p, domain, mode, grid_n=1200, count=mode.level + 1)
        yield fd[mode.level].value
    except GridError:
        return


# --------------------------------------------------------------------------
# Unconfined reference eigenvalues (auto-expanded box)
# --------------------------------------------------------------------------


def unconfined_eigenvalue(p: PotentialSpec, mode: ModeSpec, *,
                          rtol: float = 1e-12,
                          reference_phi: float = 0.0,
                          agreement_tol: float | None = None,
                          max_expansions: int = _MAX_EXPANSIONS) -> Eigenpair:
    """Level of the problem without walls.

    For the stock harmonic well this is exact in closed form.  Otherwise
    the Dirichlet box is grown until (a) the tunnelling distance phi at the
    wall exceeds ``reference_phi`` by 34.5*h -- making the wall effect
    < 1e-30 relative to exp(-2*reference_phi/h), the scale of whatever
    shift the caller is resolving -- and (b) two successive boxes agree to
    ``agreement_tol`` (default 1e-13 * max(|lambda|, h)).
    """
    if p.builtin == "harmonic":
        return Eigenpair(index_m=mode.level, value=harmonic_level(p, mode),
                         method="closed-form")

    profile = AgmonProfile(p, quadrature_tolerance=1e-12)
    h = mode.h
    target_phi = reference_phi + _PHI_MARGIN * h

    def far_enough(x: float) -> bool:
        return profile.phi(x) >= target_phi

    lam_prev: float | None = None
    steps = 0  # summed over every box
    guess = harmonic_level(p, mode)
    radius = 2.0 * math.sqrt(max(guess, h)) / max(p.curvature_omega, 1e-6)
    for _ in range(max_expansions):
        radius *= _EXPANSION_FACTOR
        if not far_enough(radius):
            continue
        domain: Domain
        if mode.nu is None:
            left = -radius
            while not far_enough(left):
                left *= _EXPANSION_FACTOR
            domain = LineBox(left, radius)
        else:
            domain = RadialBox(radius)
        pair = confined_eigenvalue(p, domain, mode, lam0=guess, rtol=rtol)
        steps += pair.steps
        if lam_prev is not None:
            tol = agreement_tol if agreement_tol is not None \
                else 1e-13 * max(abs(pair.value), h)
            if abs(pair.value - lam_prev) <= tol:
                return Eigenpair(index_m=mode.level, value=pair.value,
                                 method="shooting", iterations=pair.iterations,
                                 residual_log=pair.residual_log,
                                 nodes=pair.nodes, steps=steps)
        lam_prev = pair.value
        guess = pair.value
    raise SolverError(
        "box expansion did not stabilise the unconfined eigenvalue "
        f"within {max_expansions} doublings (h={h:g}); "
        "the potential tail may be too shallow for this h", steps)


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


def _coulomb_series(spec: HydrogenSpec) -> CoulombSeriesStart:
    x0 = min(0.1 * spec.n * spec.h ** 2 / spec.z, 0.01 * spec.r_box)
    return CoulombSeriesStart(spec.z, spec.ell, spec.h, x0)


def hydrogen_confined(spec: HydrogenSpec, *, rtol: float = 1e-12,
                      newton_tol: float = 1e-10,
                      jacobian: str = "refreshed") -> Eigenpair:
    """E_n(R): Coulomb level in a Dirichlet box of radius r_box, by shooting.

    Starts Newton from a finite-difference estimate (the unconfined E_n can
    sit in the wrong basin when the box crowds the turning point), verifies
    the node count, and falls back to sign bisection between neighbouring
    finite-difference levels if Newton strays.
    """
    V = lambda x: -spec.z / x  # noqa: E731
    nu, h, L, m = spec.nu, spec.h, spec.r_box, spec.level
    series = _coulomb_series(spec)
    scale = abs(spec.energy_unconfined)
    cent = h * h * (nu * nu - 0.25)
    v_eff = lambda x: -spec.z / x + cent / (x * x)  # noqa: E731

    fd = _fd_values(v_eff, 0.0, L, h, m + 2, 1600)
    fd_fine = _fd_values(v_eff, 0.0, L, h, m + 2, 3200)
    guesses = [spec.energy_unconfined, float((4 * fd_fine[m] - fd[m]) / 3.0)]
    # Prefer the FD estimate when it disagrees materially with E_n: the box
    # is then doing real work and E_n is the wrong basin.
    if abs(guesses[1] - guesses[0]) > 1e-3 * scale:
        guesses.reverse()

    last_error: Exception | None = None
    steps = 0  # every attempt's, rejected ones and the rescue included
    for guess in guesses:
        try:
            sol = newton_solve_radial(V, nu, h, L, guess, series, rtol=rtol,
                                      newton_tol=newton_tol,
                                      lambda_scale=scale, jacobian=jacobian)
        except SolverError as exc:
            steps += exc.steps
            last_error = exc
            continue
        nodes, node_steps = count_nodes_radial(V, nu, h, L, sol.lam, series, rtol)
        steps += sol.steps + node_steps
        if nodes == m:
            return Eigenpair(index_m=m, value=sol.lam, method="shooting",
                             iterations=sol.iterations,
                             residual_log=sol.residual_log, nodes=nodes,
                             steps=steps)
        last_error = SolverError(
            f"Newton landed on a level with {nodes} nodes, wanted {m}")

    # Bisection rescue between FD neighbours bracketing the target level.
    lo = float(fd_fine[m - 1] + 0.25 * (fd_fine[m] - fd_fine[m - 1])) if m > 0 \
        else float(fd_fine[0] - 0.5 * (fd_fine[1] - fd_fine[0]))
    hi = float(fd_fine[m] + 0.75 * (fd_fine[m + 1] - fd_fine[m]))
    lam, bisect_steps = _bisect_radial(V, nu, h, L, series, lo, hi, rtol)
    sol = newton_solve_radial(V, nu, h, L, lam, series, rtol=rtol,
                              newton_tol=newton_tol, lambda_scale=scale,
                              jacobian=jacobian)
    nodes, node_steps = count_nodes_radial(V, nu, h, L, sol.lam, series, rtol)
    steps += bisect_steps + sol.steps + node_steps
    if nodes != m:
        raise SolverError(
            f"could not isolate hydrogen level n={spec.n}, ell={spec.ell} "
            f"in box {L:g}: {last_error}", steps)
    return Eigenpair(index_m=m, value=sol.lam, method="shooting",
                     iterations=sol.iterations, residual_log=sol.residual_log,
                     nodes=nodes, steps=steps)


def _bisect_radial(V: Callable[[float], float], nu: float, h: float, L: float,
                   series: shooting.SeriesStart, lo: float, hi: float,
                   rtol: float) -> tuple[float, int]:
    """(sign-change point of u(L) in lambda on [lo, hi], steps taken)."""
    steps = 0

    def sign_at(lam: float) -> int:
        nonlocal steps
        shot = shoot_radial(V, nu, h, L, lam, series, rtol,
                            with_sensitivity=False)
        steps += shot.steps
        return shot.value.sign

    s_lo, s_hi = sign_at(lo), sign_at(hi)
    if s_lo == s_hi:
        raise SolverError(
            f"no sign change of the boundary value on [{lo:g}, {hi:g}]", steps)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sign_at(mid) == s_lo:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi), steps


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
    evals = {"count": 0, "steps": 0, "pair": None}

    def mismatch(k: float) -> float:
        L = math.sqrt(2.0 * r2 / k)
        pair = confined_eigenvalue(
            well, RadialBox(L), ModeSpec(level=m, h=h, nu=nu_osc),
            lam0=max(4.0 * k, 4.0 * n * h), rtol=rtol)
        evals["count"] += 1
        evals["steps"] += pair.steps
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
                     iterations=evals["count"], nodes=pair.nodes,
                     steps=evals["steps"])
