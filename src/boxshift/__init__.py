"""Dirichlet-confined semiclassical eigenvalues and their tunnelling shifts.

The package solves h^2 u'' = (V - lambda) u on a line interval or, with a
centrifugal term, on a radial box, by high-order shooting with exponential
renormalisation; computes the matching unconfined level; and compares the
difference against leading-order shift predictions built from the Agmon
action and WKB prefactor of the well.
"""

from .agmon import AgmonProfile, agmon_distance
from .asymptotics import (
    ShiftPrediction,
    shift_leading_line,
    shift_leading_radial,
)
from .errors import (
    BoxshiftError,
    GridError,
    InvalidPotential,
    NumericsError,
    QuadratureError,
    SeriesError,
    SolverError,
)
from .potentials import (
    Domain,
    LineBox,
    PotentialSpec,
    RadialBox,
    ValidationReport,
    curvature_at_minimum,
    from_callables,
    from_expression,
    harmonic,
    quartic,
    resolve_potential,
    validate_potential,
)
from .report import (
    ShiftReport,
    SweepResult,
    run_hydrogen_sweep,
    run_shift_case,
    run_sweep,
)
from .scaled import ScaledValue
from .shooting import (
    ModeSpec,
    count_nodes_line,
    count_nodes_radial,
    newton_solve_line,
    newton_solve_radial,
)
from .spectra import (
    Eigenpair,
    HydrogenSpec,
    confined_eigenvalue,
    fd_oracle,
    hydrogen_confined,
    unconfined_eigenvalue,
)

__version__ = "0.1.0"

__all__ = [
    "AgmonProfile",
    "BoxshiftError",
    "Domain",
    "Eigenpair",
    "GridError",
    "HydrogenSpec",
    "InvalidPotential",
    "LineBox",
    "ModeSpec",
    "NumericsError",
    "PotentialSpec",
    "QuadratureError",
    "RadialBox",
    "ScaledValue",
    "SeriesError",
    "ShiftPrediction",
    "ShiftReport",
    "SolverError",
    "SweepResult",
    "ValidationReport",
    "agmon_distance",
    "confined_eigenvalue",
    "count_nodes_line",
    "count_nodes_radial",
    "curvature_at_minimum",
    "fd_oracle",
    "from_callables",
    "from_expression",
    "harmonic",
    "hydrogen_confined",
    "newton_solve_line",
    "newton_solve_radial",
    "quartic",
    "resolve_potential",
    "run_hydrogen_sweep",
    "run_shift_case",
    "run_sweep",
    "shift_leading_line",
    "shift_leading_radial",
    "unconfined_eigenvalue",
    "validate_potential",
]
