"""The benchmark workloads: fixed case grids driven through the public API.

A workload is a list of jobs; each job is one call into the API that the
command-line handlers use (``report.run_sweep``, ``report.run_shift_case``,
``report.run_hydrogen_sweep``) and yields one or more *cases* (one
potential, box, level and h, or one box radius for Coulomb).  A *pass*
runs every job once.  The seed only permutes the order of the jobs in a
pass and the order of the grid points inside each sweep; the grids
themselves never change, so every pass does the same work.

Why each workload exists, and which layer it is meant to bypass, is
recorded in README.md next to the seed commit's numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from boxshift import report
from boxshift.errors import BoxshiftError
from boxshift.potentials import LineBox, PotentialSpec, RadialBox, resolve_potential
from boxshift.shooting import ModeSpec
from boxshift.spectra import HydrogenSpec

LINE_BOX = LineBox(-1.0, 1.0)
RADIAL_BOX = RadialBox(1.0)


def domain_of(kind: str) -> LineBox | RadialBox:
    return LINE_BOX if kind == "line" else RADIAL_BOX


def shift_case_key(mode: ModeSpec) -> str:
    """Reference key of a ``run_shift_case`` call."""
    if mode.nu is None:
        return f"line m={mode.level} h={mode.h!r}"
    return f"radial nu={mode.nu!r} m={mode.level} h={mode.h!r}"


def hydrogen_case_key(spec: HydrogenSpec) -> str:
    """Reference key of a ``run_hydrogen_case`` call."""
    return f"hydrogen n={spec.n} ell={spec.ell} R={spec.r_box!r}"


@dataclass(frozen=True)
class WellSweep:
    """``run_sweep`` over ``grid`` (h values) for one level."""

    kind: str
    level: int
    nu: float | None
    grid: tuple[float, ...]

    @property
    def key(self) -> str:
        nu = "" if self.nu is None else f" nu={self.nu!r}"
        return f"sweep {self.kind}{nu} m={self.level}"

    @property
    def case_keys(self) -> list[str]:
        return [shift_case_key(ModeSpec(self.level, h, self.nu)) for h in self.grid]

    def run(self, potentials: dict[str, PotentialSpec], rng: random.Random,
            oracle: bool) -> dict[str, float | None]:
        grid = list(self.grid)
        rng.shuffle(grid)
        result = report.run_sweep(potentials[self.kind], domain_of(self.kind),
                                  self.level, self.nu, grid)
        return {self.key: result.empirical_order}

    def warm(self, potentials: dict[str, PotentialSpec]) -> None:
        report.run_shift_case(potentials[self.kind], domain_of(self.kind),
                              ModeSpec(self.level, self.grid[0], self.nu))


@dataclass(frozen=True)
class ShiftCase:
    """One ``run_shift_case`` call."""

    kind: str
    level: int
    nu: float | None
    h: float

    def run(self, potentials: dict[str, PotentialSpec], rng: random.Random,
            oracle: bool) -> dict[str, float | None]:
        try:
            report.run_shift_case(potentials[self.kind], domain_of(self.kind),
                                  ModeSpec(self.level, self.h, self.nu),
                                  oracle=oracle)
        except BoxshiftError:
            pass  # the case log keeps the error; the checks count it
        return {}

    def warm(self, potentials: dict[str, PotentialSpec]) -> None:
        self.run(potentials, random.Random(0), oracle=True)


@dataclass(frozen=True)
class HydrogenSweep:
    """``run_hydrogen_sweep`` over ``grid`` (box radii) for one (n, ell)."""

    n: int
    ell: int
    z: float
    h: float
    grid: tuple[float, ...]

    def run(self, potentials: dict[str, PotentialSpec], rng: random.Random,
            oracle: bool) -> dict[str, float | None]:
        grid = list(self.grid)
        rng.shuffle(grid)
        report.run_hydrogen_sweep(self.n, self.ell, self.z, self.h, grid)
        return {}  # a Coulomb sweep fits no order in h

    def warm(self, potentials: dict[str, PotentialSpec]) -> None:
        report.run_hydrogen_case(HydrogenSpec(self.n, self.ell, self.z, self.h,
                                              self.grid[0]))


@dataclass(frozen=True)
class Workload:
    name: str
    potential: str | None   # text as a CLI user would pass it
    jobs: tuple
    oracle: bool = False

    def resolve(self) -> dict[str, PotentialSpec]:
        """The workload's potentials, one per problem kind it uses."""
        if self.potential is None:
            return {}
        kinds = {job.kind for job in self.jobs}
        return {kind: resolve_potential(self.potential, kind) for kind in sorted(kinds)}

    def run_pass(self, potentials: dict[str, PotentialSpec],
                 rng: random.Random) -> dict[str, float | None]:
        """Run every job once in a seed-chosen order; return sweep orders."""
        jobs = list(self.jobs)
        rng.shuffle(jobs)
        orders: dict[str, float | None] = {}
        for job in jobs:
            orders.update(job.run(potentials, rng, self.oracle))
        return orders

    def warm(self, potentials: dict[str, PotentialSpec]) -> None:
        """One untimed case, so lazy imports and caches settle first."""
        self.jobs[0].warm(potentials)


H_LINE = (0.2, 0.1, 0.05)
H_RADIAL = (0.1, 0.05)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="quartic-boxes",
            potential="x^2 + x^4",
            jobs=(WellSweep("line", 0, None, H_LINE),
                  WellSweep("line", 1, None, H_LINE),
                  WellSweep("radial", 0, 1.5, H_RADIAL)),
        ),
        Workload(
            name="harmonic-oracle",
            potential="harmonic",
            oracle=True,
            jobs=tuple(ShiftCase("line", m, None, h)
                       for m in (0, 1) for h in H_LINE)
            + tuple(ShiftCase("radial", 0, nu, h)
                    for nu in (0.5, 1.5) for h in H_RADIAL),
        ),
        Workload(
            name="coulomb-boxes",
            potential=None,
            jobs=tuple(HydrogenSweep(n, ell, 2.0, 1.0, (8.0, 10.0, 12.0, 14.0))
                       for n, ell in ((1, 0), (2, 0), (2, 1))),
        ),
    )
}
