"""Algebra of the overflow-safe scalar type."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from boxshift import ScaledValue
from boxshift.scaled import logaddexp


finite = st.floats(min_value=-1e300, max_value=1e300,
                   allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-300)
logs = st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False)


def rel_close(a: float, b: float, scale_log: float = 0.0) -> bool:
    """Equality up to the representation's documented accuracy.

    Results pass through exp() of log scales, so the last-ulp error is
    amplified by the size of the exponents involved; ``scale_log`` is the
    largest |log_scale| that entered the computation.
    """
    mag = max(abs(a), abs(b), 1e-300)
    tol = 1e-15 * (6.0 + abs(math.log(mag)) + abs(scale_log))
    return abs(a - b) <= tol * mag


# -- canonical form ---------------------------------------------------------

@given(nonzero, logs)
def test_canonical_mantissa_range(v, s):
    x = ScaledValue.of(v, s)
    assert 1.0 <= abs(x.mantissa) < 2.0


@given(nonzero)
def test_of_to_float_round_trip(v):
    assert rel_close(ScaledValue.of(v).to_float(), v)


def test_zero_is_canonical():
    z = ScaledValue.of(0.0, 123.0)
    assert z.is_zero and z.log_scale == 0.0 and z.sign == 0
    assert z.to_float() == 0.0
    assert z.log_abs() == -math.inf


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        ScaledValue.of(math.inf)
    with pytest.raises(ValueError):
        ScaledValue.of(math.nan)


# -- arithmetic agrees with plain floats when both are representable --------

@given(nonzero, nonzero)
def test_mul_matches_float(a, b):
    got = (ScaledValue.of(a) * ScaledValue.of(b)).to_float()
    want = a * b
    if math.isfinite(want) and abs(want) > 1e-290:
        assert rel_close(got, want, scale_log=abs(math.log(abs(a))) + abs(math.log(abs(b))))


@given(nonzero, nonzero)
def test_div_matches_float(a, b):
    got = (ScaledValue.of(a) / ScaledValue.of(b)).to_float()
    want = a / b
    if math.isfinite(want) and abs(want) > 1e-290:
        assert rel_close(got, want, scale_log=abs(math.log(abs(a))) + abs(math.log(abs(b))))


@given(nonzero, nonzero)
def test_add_matches_float(a, b):
    got = (ScaledValue.of(a) + ScaledValue.of(b)).to_float()
    want = a + b
    # Addition cancels; compare on the scale of the inputs, not the result.
    assert abs(got - want) <= 1e-12 * max(abs(a), abs(b), 1e-300)


@given(nonzero, nonzero)
def test_sub_is_add_of_negation(a, b):
    x, y = ScaledValue.of(a), ScaledValue.of(b)
    d1, d2 = x - y, x + (-y)
    assert d1.mantissa == d2.mantissa and d1.log_scale == d2.log_scale


# -- behaviour far outside double range -------------------------------------

def test_huge_scale_product_and_ratio():
    # e^1000 is not a double, but the ratio of two such values is ~e^0.
    big = ScaledValue.of(3.0, 1000.0)
    bigger = ScaledValue.of(7.0, 1000.0)
    assert big.to_float() == math.inf
    assert rel_close(bigger.ratio(big), 7.0 / 3.0, scale_log=1000.0)
    prod = big * big
    assert prod.log_abs() == pytest.approx(2000.0 + 2.0 * math.log(3.0), rel=1e-14)


def test_tiny_scale_saturates_to_zero():
    tiny = ScaledValue.of(-5.0, -2000.0)
    assert tiny.to_float() == 0.0
    assert tiny.sign == -1
    assert tiny.log_abs() == pytest.approx(-2000.0 + math.log(5.0), rel=1e-14)


def test_ratio_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ScaledValue.of(1.0).ratio(ScaledValue.zero())
    with pytest.raises(ZeroDivisionError):
        ScaledValue.of(1.0) / ScaledValue.zero()


@given(nonzero, logs)
def test_add_ignores_operand_below_mantissa_resolution(v, s):
    x = ScaledValue.of(v, s)
    speck = ScaledValue(1.0, x.log_scale - 200.0)
    y = x + speck
    assert y.mantissa == x.mantissa and y.log_scale == x.log_scale


# -- scalar logaddexp ----------------------------------------------------------

near_overflow = st.floats(min_value=-800.0, max_value=800.0,
                          allow_nan=False, allow_infinity=False)
or_minus_inf = near_overflow | st.just(-math.inf)


@given(or_minus_inf, or_minus_inf)
@example(0.0, 0.0)
@example(-math.inf, -math.inf)
@example(-math.inf, 3.5)
@example(-745.5, -math.inf)
@example(800.0, 800.0)
@example(1e-300, -1e-300)
def test_logaddexp_is_numpys_bit_for_bit(a, b):
    want = float(np.logaddexp(a, b))
    assert logaddexp(a, b) == want and logaddexp(b, a) == want
    assert math.copysign(1.0, logaddexp(a, b)) == math.copysign(1.0, want)


@given(near_overflow)
def test_logaddexp_of_equal_arguments_adds_log_two(a):
    assert logaddexp(a, a) == float(np.logaddexp(a, a)) == a + math.log(2.0)
