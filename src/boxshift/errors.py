"""Exception hierarchy shared across the package.

Two broad families matter to callers: problems with the *input* (bad
potential, malformed expression, unusable domain) and problems that show up
only once the *numerics* run (quadrature that will not converge, Newton
iterations that stall, grids too coarse to trust).  The CLI maps the first
family to exit code 2 and the second to exit code 3.
"""

from __future__ import annotations


class BoxshiftError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPotential(BoxshiftError):
    """The potential or domain violates a documented precondition."""


class NumericsError(BoxshiftError):
    """A numerical routine failed to reach its accuracy or convergence goal."""


class QuadratureError(NumericsError):
    """Adaptive quadrature exhausted its subdivision budget."""


class SeriesError(NumericsError):
    """A local series expansion did not converge at the requested point."""


class SolverError(NumericsError):
    """Shooting/Newton iteration failed (divergence, singular Jacobian, ...).

    The integrator steps of a failed call are counted by
    ``shooting.steps_taken`` like those of any other.
    """


class GridError(NumericsError):
    """A finite-difference grid is too coarse for a reliable answer."""
