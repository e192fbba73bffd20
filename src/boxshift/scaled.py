"""Overflow-safe scalars for exponentially growing/decaying solutions.

Shooting through a classically forbidden region produces numbers that behave
like exp(S/h) with S/h in the hundreds, far outside what a double can hold.
A :class:`ScaledValue` stores ``mantissa * exp(log_scale)`` with the mantissa
kept in [1, 2) up to sign, so products, sums and magnitude comparisons remain
meaningful at any exponent.  The exact value zero is represented as mantissa
0 with log_scale pinned to 0.

The log scale is a float in natural-log units.  Renormalisation moves powers
of two between mantissa and scale; the mantissa update is exact (ldexp), the
scale update rounds in the last ulp of ``k*ln 2``, which is the best a float
log scale can do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_LN2 = math.log(2.0)

# exp() of anything beyond this over/underflows a double; used by to_float().
_EXP_LIMIT = 709.0


def _canonical(value: float, log_scale: float) -> tuple[float, float]:
    """Split ``value * exp(log_scale)`` into (mantissa in [1,2), log scale)."""
    if value == 0.0:
        return 0.0, 0.0
    if not math.isfinite(value) or not math.isfinite(log_scale):
        raise ValueError(
            f"cannot represent non-finite quantity ({value!r}, {log_scale!r})"
        )
    frac, exp2 = math.frexp(value)  # value = frac * 2**exp2, |frac| in [0.5, 1)
    return frac * 2.0, log_scale + (exp2 - 1) * _LN2


def logaddexp(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without overflow: numpy's scalar formula,
    ``hi + log1p(exp(lo - hi))``, and ``a + log 2`` for equal arguments (so
    two -infs give -inf), with the same float results."""
    if a == b:
        return a + _LN2
    hi, lo = (a, b) if a > b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


@dataclass(frozen=True)
class ScaledValue:
    """A real number ``mantissa * exp(log_scale)`` immune to over/underflow."""

    mantissa: float
    log_scale: float = 0.0

    # -- construction ---------------------------------------------------

    @classmethod
    def of(cls, value: float, log_scale: float = 0.0) -> "ScaledValue":
        """Canonical ScaledValue for ``value * exp(log_scale)``."""
        m, s = _canonical(float(value), float(log_scale))
        return cls(m, s)

    @classmethod
    def zero(cls) -> "ScaledValue":
        return cls(0.0, 0.0)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0.0

    @property
    def sign(self) -> int:
        if self.mantissa > 0.0:
            return 1
        if self.mantissa < 0.0:
            return -1
        return 0

    def log_abs(self) -> float:
        """log |value|; -inf for zero."""
        if self.is_zero:
            return -math.inf
        return self.log_scale + math.log(abs(self.mantissa))

    def to_float(self) -> float:
        """Collapse to a double.

        Saturates to +-inf / 0.0 outside the representable range; callers
        needing the true magnitude should use :meth:`log_abs`.
        """
        if self.is_zero:
            return 0.0
        if self.log_scale > _EXP_LIMIT:
            return math.inf if self.mantissa > 0 else -math.inf
        if self.log_scale < -_EXP_LIMIT - 40.0:
            return 0.0 * self.mantissa
        return self.mantissa * math.exp(self.log_scale)

    def ratio(self, other: "ScaledValue") -> float:
        """self / other as a double (other must be nonzero)."""
        if other.is_zero:
            raise ZeroDivisionError("ratio against exact zero ScaledValue")
        if self.is_zero:
            return 0.0
        d = self.log_scale - other.log_scale
        q = self.mantissa / other.mantissa
        if d < -_EXP_LIMIT:
            return 0.0 * q
        if d > _EXP_LIMIT:
            return math.inf * q
        return q * math.exp(d)

    # -- arithmetic -------------------------------------------------------

    def __neg__(self) -> "ScaledValue":
        return ScaledValue(-self.mantissa, self.log_scale)

    def __abs__(self) -> "ScaledValue":
        return ScaledValue(abs(self.mantissa), self.log_scale)

    def __mul__(self, other: "ScaledValue") -> "ScaledValue":
        if self.is_zero or other.is_zero:
            return ScaledValue.zero()
        m = self.mantissa * other.mantissa  # |m| in [1, 4)
        s = self.log_scale + other.log_scale
        if abs(m) >= 2.0:
            m = math.ldexp(m, -1)
            s += _LN2
        return ScaledValue(m, s)

    def __truediv__(self, other: "ScaledValue") -> "ScaledValue":
        if other.is_zero:
            raise ZeroDivisionError("division by exact zero ScaledValue")
        if self.is_zero:
            return ScaledValue.zero()
        m = self.mantissa / other.mantissa  # |m| in (0.5, 2)
        s = self.log_scale - other.log_scale
        if abs(m) < 1.0:
            m = math.ldexp(m, 1)
            s -= _LN2
        return ScaledValue(m, s)

    def __add__(self, other: "ScaledValue") -> "ScaledValue":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # Work at the scale of the larger operand; the smaller one is folded
        # in through exp() of a non-positive exponent, which cannot overflow.
        if other.log_scale > self.log_scale:
            self, other = other, self
        d = other.log_scale - self.log_scale
        if d < -80.0:  # below double resolution of the mantissa
            return self
        return ScaledValue.of(self.mantissa + other.mantissa * math.exp(d),
                              self.log_scale)

    def __sub__(self, other: "ScaledValue") -> "ScaledValue":
        return self.__add__(-other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_zero:
            return "ScaledValue(0)"
        return f"ScaledValue({self.mantissa:.17g} * e^{self.log_scale:.17g})"
