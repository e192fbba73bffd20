"""Parser, evaluator, symbolic derivative and error reporting of the
potential expression language."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from boxshift import LineBox, ModeSpec, confined_eigenvalue, from_expression
from boxshift.dsl import (
    Add, Call, Const, Div, EvalError, Mul, ParseError, Pow, Sub, Var,
    MAX_SOURCE_LENGTH, as_function, caret_diagnostic, contains_division,
    differentiate, evaluate, parse, pretty,
)


# -- precedence and shape ----------------------------------------------------

# (source, x, expected value) -- all hand-checkable.
PRECEDENCE_CORPUS = [
    ("1+2*3", 0.0, 7.0),
    ("(1+2)*3", 0.0, 9.0),
    ("2*x+1", 3.0, 7.0),
    ("2^3^2", 0.0, 512.0),          # right-associative
    ("-x^2", 2.0, -4.0),            # unary minus binds looser than ^
    ("(-x)^2", 2.0, 4.0),
    ("2^-2", 0.0, 0.25),
    ("1-2-3", 0.0, -4.0),           # left-associative
    ("12/4/3", 0.0, 1.0),
    ("-2*-3", 0.0, 6.0),
    ("x^2+x^4", 2.0, 20.0),
    ("cosh(x)-1", 0.0, 0.0),
    ("sqrt(abs(x))", -9.0, 3.0),
    ("exp(0)+sin(0)+cos(0)", 1.0, 2.0),
    ("1e2+1.5E-1", 0.0, 100.15),
    (".5*x", 4.0, 2.0),
    ("x*(x-1)*(x+1)", 2.0, 6.0),
    ("2^0.5", 0.0, math.sqrt(2.0)),
]


@pytest.mark.parametrize("source,x,want", PRECEDENCE_CORPUS)
def test_precedence_corpus(source, x, want):
    assert evaluate(parse(source), x) == pytest.approx(want, rel=1e-15)


def test_shapes():
    assert parse("x") == Var()
    assert parse("x+1*2") == Add(Var(), Mul(Const(1.0), Const(2.0)))
    assert parse("x-1-2") == Sub(Sub(Var(), Const(1.0)), Const(2.0))
    assert parse("x^x^2") == Pow(Var(), Pow(Var(), Const(2.0)))
    assert parse("cosh(x)") == Call("cosh", Var())


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2x")


# -- pretty printing round-trips ---------------------------------------------

ROUND_TRIP_CORPUS = [
    "x^2",
    "x^2 + x^4",
    "-(x^2)",
    "2*(x + 1)",
    "x^(2 + x)",
    "(x + 1)/(x + 2)",
    "cosh(x) - 1",
    "1 - (2 - 3)",
    "-x",
    "x/(2*x)",
    "2^3^2",
    "sqrt(x^2 + 1)",
]


@pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
def test_pretty_parse_round_trip(source):
    """pretty() output must reparse to the identical tree, and printing the
    reparsed tree must reproduce the same text (idempotence)."""
    tree = parse(source)
    printed = pretty(tree)
    reparsed = parse(printed)
    assert reparsed == tree
    assert pretty(reparsed) == printed


# A recursive strategy over ASTs: round-tripping random trees catches
# precedence/parenthesisation bugs that hand-picked cases miss.
_leaf = st.one_of(
    st.builds(Var),
    st.builds(Const, st.floats(min_value=0.0, max_value=100.0,
                               allow_nan=False, allow_infinity=False)),
)


def _nodes(inner):
    return st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        st.builds(Div, inner, inner),
        st.builds(Pow, inner, inner),
        st.builds(Call, st.sampled_from(["exp", "sin", "cosh", "sqrt", "abs"]), inner),
    )


_expr = st.recursive(_leaf, _nodes, max_leaves=25)


@given(_expr)
@settings(max_examples=200)
def test_pretty_parse_round_trip_random_trees(tree):
    assert parse(pretty(tree)) == tree


@given(st.text(min_size=0, max_size=40))
@settings(max_examples=300)
def test_parser_is_total(source):
    """Arbitrary input either parses or raises ParseError -- nothing else."""
    try:
        parse(source)
    except ParseError as err:
        assert 0 <= err.offset <= len(source)


@given(_expr, st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@settings(max_examples=200)
def test_evaluator_never_returns_non_finite(tree, x):
    try:
        value = evaluate(tree, x)
    except EvalError:
        return
    assert math.isfinite(value)


# Trees over signed constants: the compiled callable must agree with the
# tree-walking evaluator wherever either succeeds.
_signed_expr = st.recursive(
    st.one_of(
        st.builds(Var),
        st.builds(Const, st.floats(min_value=-100.0, max_value=100.0,
                                   allow_nan=False, allow_infinity=False)),
    ),
    _nodes,
    max_leaves=12,
)


def _outcome(f, x):
    try:
        return f(x)
    except EvalError:
        return EvalError


@given(_signed_expr, st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@example(Pow(Const(-2.0), Const(2.0)), 0.0)
@example(Mul(Pow(Const(-1.5), Const(0.5)), Var()), 1.0)
@example(Pow(Const(-1.0), Div(Const(1.0), Var())), 2.225073858507e-311)  # ** inf
@settings(max_examples=300)
def test_compiled_function_matches_evaluator(tree, x):
    assert _outcome(as_function(tree), x) == _outcome(lambda t: evaluate(tree, t), x)


def test_negative_constant_power_integrates_the_same_potential():
    # (-1)^2 is 1, so the confined level must not move by a single bit.
    box, mode = LineBox(-1.0, 1.0), ModeSpec(level=0, h=0.1)
    signed = confined_eigenvalue(from_expression("x^2 + (-1)^2*x^4"), box, mode)
    plain = confined_eigenvalue(from_expression("x^2 + x^4"), box, mode)
    assert signed.value == plain.value

# -- symbolic differentiation -------------------------------------------------

DERIVATIVE_CORPUS = [
    "x^2",
    "x^3 - 2*x",
    "x^2 + x^4",
    "cosh(x) - 1",
    "sin(x)*cos(x)",
    "exp(x^2/10)",
    "sqrt(x^2 + 1)",
    "x/(x^2 + 4)",
    "log(x^2 + 2)",
    "sinh(x)^2",
    "2^x",
    "x^2.5",
]


@pytest.mark.parametrize("source", DERIVATIVE_CORPUS)
@pytest.mark.parametrize("x", [0.7, 1.3, 2.1])
def test_derivative_matches_central_difference(source, x):
    tree = parse(source)
    d = as_function(differentiate(tree))
    f = as_function(tree)
    step = 1e-5 * (1.0 + abs(x))
    fd = (f(x + step) - f(x - step)) / (2.0 * step)
    assert d(x) == pytest.approx(fd, rel=2e-9, abs=1e-10)


def test_second_derivative_of_quartic():
    d2 = differentiate(differentiate(parse("x^2 + x^4")))
    g = as_function(d2)
    assert g(0.0) == pytest.approx(2.0, rel=1e-15)
    assert g(1.0) == pytest.approx(14.0, rel=1e-15)


def test_derivative_of_abs_at_zero_raises():
    d = differentiate(parse("abs(x)"))
    with pytest.raises(EvalError):
        evaluate(d, 0.0)


# -- evaluation guards ---------------------------------------------------------

def test_log_of_negative_raises_eval_error():
    with pytest.raises(EvalError):
        evaluate(parse("log(x)"), -1.0)


def test_sqrt_of_negative_raises_eval_error():
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(x)"), -4.0)


def test_division_by_zero_raises_eval_error():
    with pytest.raises(EvalError):
        evaluate(parse("1/x"), 0.0)


def test_overflow_raises_eval_error():
    with pytest.raises(EvalError):
        evaluate(parse("exp(x^2)"), 100.0)


def test_as_function_raises_same_errors():
    f = as_function(parse("log(x - 1)"))
    assert f(2.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(EvalError):
        f(0.5)


# -- error reporting -----------------------------------------------------------

def test_parse_error_offset_and_expectation():
    with pytest.raises(ParseError) as info:
        parse("x + * 2")
    assert info.value.offset == 4
    assert info.value.expected  # non-empty


def test_caret_diagnostic_points_at_the_error():
    source = "x^^2"
    with pytest.raises(ParseError) as info:
        parse(source)
    rendered = caret_diagnostic(source, info.value)
    lines = rendered.splitlines()
    assert source in lines[0]
    caret_line = lines[1]
    assert caret_line.index("^") == lines[0].index(source) + info.value.offset


def test_unknown_function_rejected():
    with pytest.raises(ParseError):
        parse("foo(x)")


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        parse("x + y")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError) as info:
        parse("x + 1 )")
    assert info.value.offset == 6


def test_unbalanced_parenthesis_rejected():
    with pytest.raises(ParseError):
        parse("(x + 1")


def test_source_length_cap():
    long = "x" + " + x" * (MAX_SOURCE_LENGTH // 4 + 2)
    assert len(long) > MAX_SOURCE_LENGTH
    with pytest.raises(ParseError):
        parse(long)


def test_empty_source_rejected():
    with pytest.raises(ParseError):
        parse("")


# -- division detection (used for the soft warning on potentials) --------------

def test_contains_division():
    assert contains_division(parse("1/(x + 2)"))
    assert contains_division(parse("exp(x/3)"))
    assert not contains_division(parse("x^2 + x^4"))
    assert not contains_division(parse("x^-2"))  # Pow with negative exponent is not Div
