"""Potential wells, confinement domains and their validation.

A *line* problem lives on an interval (r-, r+) containing 0; a *radial*
problem lives on (0, L) with an angular parameter handled elsewhere.  In both
cases the potential must form a single nondegenerate well at the origin:

* V(0) = 0 and V'(0) = 0,
* V''(0) > 0,
* V(x) > 0 away from 0 on the working region,
* (radial) V extends to an even function of x.

``validate_potential`` checks these on a sample grid and reports violations
instead of raising, so the CLI can print an honest summary.  The curvature
scale used throughout the package is ``omega = sqrt(V''(0)/2)``; for the
normalised well x**2 this is 1.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from . import dsl
from .errors import InvalidPotential

if TYPE_CHECKING:
    import numpy as np

# Tolerances for the well conditions, in normalised units.
_MINIMUM_TOL = 1e-10
_EVENNESS_TOL = 1e-9


# --------------------------------------------------------------------------
# Domains
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LineBox:
    """Dirichlet interval (left, right) with left < 0 < right."""

    left: float
    right: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.left) and math.isfinite(self.right)):
            raise InvalidPotential("line domain endpoints must be finite")
        if not self.left < 0.0 < self.right:
            raise InvalidPotential(
                f"line domain must straddle the origin, got ({self.left}, {self.right})"
            )

    @property
    def kind(self) -> str:
        return "line"

    def as_tuple(self) -> tuple[float, float]:
        return (self.left, self.right)


@dataclass(frozen=True)
class RadialBox:
    """Dirichlet interval (0, length)."""

    length: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise InvalidPotential(f"radial box length must be positive, got {self.length}")

    @property
    def kind(self) -> str:
        return "radial"

    def as_tuple(self) -> tuple[float, float]:
        return (0.0, self.length)


Domain = LineBox | RadialBox


# --------------------------------------------------------------------------
# Potential wrapper
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialSpec:
    """A potential plus its second derivative, which fixes the curvature.

    ``derivative2`` may be omitted; finite differences with Richardson
    extrapolation fill in (at reduced but documented accuracy).
    ``builtin`` tags library potentials whose closed forms are known exactly
    (e.g. the pure harmonic well), enabling closed-form shortcuts downstream.
    ``even`` records that V(-x) = V(x) holds exactly, as read off the
    expression (``dsl.parity``) or known of a builtin; a line problem on a
    symmetric box then shoots one side and mirrors it (see ``shooting``).
    It is derived from the input, never set by a caller's choice, and stays
    False for plain callables, whose symmetry nothing can confirm.
    """

    kind: str  # "line" | "radial"
    evaluate: Callable[[float], float]
    derivative2: Callable[[float], float] | None = None
    label: str = ""
    builtin: str | None = None
    even: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("line", "radial"):
            raise InvalidPotential(f"potential kind must be 'line' or 'radial', got {self.kind!r}")

    @cached_property
    def curvature_omega(self) -> float:
        """sqrt(V''(0)/2), cached; raises on a degenerate minimum."""
        return curvature_at_minimum(self)

    def slope(self, x: float) -> float:
        """V'(x) by central differences."""
        step = 1e-6 * (1.0 + abs(x))
        return (self.evaluate(x + step) - self.evaluate(x - step)) / (2.0 * step)


def from_expression(text: str, kind: str = "line") -> PotentialSpec:
    """Build a PotentialSpec from DSL source, with a symbolic V''."""
    ast = dsl.parse(text)
    if dsl.contains_division(ast):
        warnings.warn(
            "expression contains a division; evaluation may fail where the "
            "denominator vanishes", RuntimeWarning, stacklevel=2)
    d2 = dsl.differentiate(dsl.differentiate(ast))
    return PotentialSpec(
        kind=kind,
        evaluate=dsl.as_function(ast),
        derivative2=dsl.as_function(d2),
        label=dsl.pretty(ast),
        even=dsl.parity(ast) == dsl.EVEN,
    )


def from_callables(
    evaluate: Callable[[float], float],
    derivative2: Callable[[float], float] | None = None,
    kind: str = "line",
    label: str = "<callable>",
) -> PotentialSpec:
    return PotentialSpec(kind=kind, evaluate=evaluate,
                         derivative2=derivative2, label=label)


# --------------------------------------------------------------------------
# Built-in potentials
# --------------------------------------------------------------------------


def harmonic(kind: str = "line") -> PotentialSpec:
    """The unit well x**2 (curvature omega = 1)."""
    evaluate = lambda x: x * x  # noqa: E731
    evaluate.source = "x * x"  # inlined by the integrator (see dop853)
    return PotentialSpec(
        kind=kind,
        evaluate=evaluate,
        derivative2=lambda x: 2.0,
        label="x^2",
        builtin="harmonic",
        even=True,
    )


def quartic(c: float = 1.0, kind: str = "line") -> PotentialSpec:
    """x**2 + c*x**4; keeps a single well for c >= 0."""
    evaluate = lambda x: x * x + c * x ** 4  # noqa: E731
    evaluate.source = f"x * x + {c!r} * x ** 4"
    return PotentialSpec(
        kind=kind,
        evaluate=evaluate,
        derivative2=lambda x: 2.0 + 12.0 * c * x * x,
        label=f"x^2 + {c:g}*x^4" if c != 1.0 else "x^2 + x^4",
        builtin="quartic",
        even=True,
    )


BUILTIN_FACTORIES: dict[str, Callable[..., PotentialSpec]] = {
    "harmonic": harmonic,
    "quartic": quartic,
}


# --------------------------------------------------------------------------
# V over an array
# --------------------------------------------------------------------------


# DSL sources call math.exp and the like; over an array the same names are
# numpy's ufuncs, gathered on the first array.
@lru_cache(maxsize=None)
def _grid_math() -> SimpleNamespace:
    import numpy as np

    return SimpleNamespace(
        **{name: getattr(np, name) for name in dsl.FUNCTIONS if name != "abs"})


@lru_cache(maxsize=16)
def _grid_code(source: str):
    return compile(source, "<V over an array>", "eval")


def v_on_grid(v: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """V at every point of ``x``.  A potential with a ``source`` (an
    expression in ``x``, see ``dop853``) is evaluated once over the whole
    array; where that raises or gives a value that is not finite, and for
    plain callables, V is called point by point, on Python floats, which
    raises the potential's own error where it is undefined.  Only the FD
    oracle and the node count's step cap call it, so numpy loads with the
    first array they build and never on the scalar paths."""
    import numpy as np

    source = getattr(v, "source", None)
    if source is not None:
        namespace = {"__builtins__": {}, "math": _grid_math(), "abs": np.abs}
        try:
            with np.errstate(all="ignore"):
                values = np.asarray(eval(_grid_code(source), namespace,  # noqa: S307
                                         {"x": x}))
        except (ArithmeticError, TypeError, ValueError):
            values = None  # the pointwise loop below reports the fault
        if values is not None and values.dtype.kind == "f" \
                and np.isfinite(values).all():
            return np.broadcast_to(values, x.shape)
    return np.array([v(t) for t in x.tolist()])


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    assumption: str
    point: float
    observed: float

    def __str__(self) -> str:
        return f"{self.assumption} violated at x={self.point:g} (observed {self.observed:g})"


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)
    curvature_omega: float | None = None

    def summary(self) -> str:
        if self.passed:
            omega = f"{self.curvature_omega:.12g}" if self.curvature_omega else "?"
            return f"potential OK (curvature omega = {omega})"
        lines = ["potential failed validation:"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def validate_potential(p: PotentialSpec, domain: Domain, samples: int = 64) -> ValidationReport:
    """Check the single-well conditions on a grid covering the domain + 50%.

    Deterministic: the same inputs always produce the same report.
    """
    if samples < 16:
        raise ValueError(f"need at least 16 samples, got {samples}")
    if p.kind != domain.kind:
        raise InvalidPotential(
            f"potential kind {p.kind!r} does not match domain kind {domain.kind!r}")

    violations: list[Violation] = []

    def probe(x: float) -> float | None:
        try:
            v = p.evaluate(x)
        except Exception:
            violations.append(Violation("finite-evaluation", x, math.nan))
            return None
        if not math.isfinite(v):
            violations.append(Violation("finite-evaluation", x, v))
            return None
        return v

    # Minimum conditions at the origin (assumption: V(0) = V'(0) = 0).
    v0 = probe(0.0)
    if v0 is not None and abs(v0) > _MINIMUM_TOL:
        violations.append(Violation("zero-at-minimum", 0.0, v0))
    try:
        s0 = p.slope(0.0)
        if abs(s0) > _MINIMUM_TOL:
            violations.append(Violation("flat-at-minimum", 0.0, s0))
    except Exception:
        violations.append(Violation("flat-at-minimum", 0.0, math.nan))

    omega: float | None = None
    try:
        omega = curvature_at_minimum(p)
    except InvalidPotential:
        violations.append(Violation("nondegenerate-minimum", 0.0, 0.0))

    # Positivity away from the origin, on the domain extended by 50%.
    if isinstance(domain, LineBox):
        lo, hi = 1.5 * domain.left, 1.5 * domain.right
    else:
        lo, hi = 0.0, 1.5 * domain.length
    for i in range(samples):
        x = lo + (hi - lo) * (i + 0.5) / samples
        if abs(x) < 1e-12:
            continue
        v = probe(x)
        if v is not None and v <= 0.0:
            violations.append(Violation("positive-away-from-minimum", x, v))

    # Radial potentials must extend evenly through the origin.
    if isinstance(domain, RadialBox):
        for i in range(16):
            x = 1.5 * domain.length * (i + 1) / 16.0
            vp, vm = probe(x), probe(-x)
            if vp is None or vm is None:
                continue
            if abs(vp - vm) > _EVENNESS_TOL * (1.0 + abs(vp)):
                violations.append(Violation("even-extension", x, vp - vm))

    return ValidationReport(passed=not violations,
                            violations=tuple(violations),
                            curvature_omega=omega)


# --------------------------------------------------------------------------
# Curvature
# --------------------------------------------------------------------------


def curvature_at_minimum(p: PotentialSpec) -> float:
    """omega = sqrt(V''(0)/2).

    Uses the supplied second derivative when available, otherwise central
    differences at steps 1e-3, 5e-4, 2.5e-4 with two Richardson levels
    (relative accuracy ~1e-8 for smooth inputs of order-one scale).
    """
    try:
        if p.derivative2 is not None:
            d2 = p.derivative2(0.0)
        else:
            def second_diff(s: float) -> float:
                return (p.evaluate(s) - 2.0 * p.evaluate(0.0) + p.evaluate(-s)) / (s * s)

            a, b, c = second_diff(1e-3), second_diff(5e-4), second_diff(2.5e-4)
            r1, r2 = (4.0 * b - a) / 3.0, (4.0 * c - b) / 3.0
            d2 = (16.0 * r2 - r1) / 15.0
    except InvalidPotential:
        raise
    except Exception as exc:  # singular/undefined curvature at the origin
        raise InvalidPotential(
            f"cannot evaluate V'' at the minimum: {exc}") from exc
    if not math.isfinite(d2) or d2 <= 0.0:
        raise InvalidPotential(
            f"degenerate or invalid minimum: V''(0) = {d2!r} (need > 0)")
    return math.sqrt(d2 / 2.0)


def resolve_potential(text: str, kind: str = "line") -> PotentialSpec:
    """Turn CLI text into a PotentialSpec.

    Accepts a builtin name (``harmonic``), a builtin call (``quartic(0.5)``)
    or a DSL expression (``x^2 + 0.1*x^4``).
    """
    name, args = _split_builtin_call(text)
    if name in BUILTIN_FACTORIES:
        factory = BUILTIN_FACTORIES[name]
        try:
            return factory(*args, kind=kind)
        except TypeError as exc:
            raise InvalidPotential(f"bad arguments for builtin {name!r}: {exc}") from None
    spec = from_expression(text, kind=kind)
    return spec


def _split_builtin_call(text: str) -> tuple[str, tuple[float, ...]]:
    text = text.strip()
    if text in BUILTIN_FACTORIES:
        return text, ()
    m = re.fullmatch(r"([A-Za-z][A-Za-z0-9_-]*)\(([^()]*)\)", text)
    if m and m.group(1) in BUILTIN_FACTORIES:
        raw = [a.strip() for a in m.group(2).split(",") if a.strip()]
        try:
            return m.group(1), tuple(float(a) for a in raw)
        except ValueError as exc:
            raise InvalidPotential(f"bad builtin arguments in {text!r}: {exc}") from None
    return "", ()
