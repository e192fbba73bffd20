"""Parser, evaluator, symbolic derivative and error reporting of the
potential expression language."""

import ast
import dataclasses
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from boxshift import LineBox, ModeSpec, confined_eigenvalue, from_expression
from boxshift.dsl import (
    Add, Call, Const, Div, EvalError, Mul, ParseError, Pow, Sub, Var,
    EVEN, FUNCTIONS, MAX_DEPTH, MAX_SOURCE_LENGTH, ODD, UNKNOWN, as_function,
    caret_diagnostic, contains_division, differentiate, evaluate, parse,
    parity, pretty,
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
@example(Pow(Div(Const(-14.0), Const(7.712956520652967e-308)), Var()),
         -0.5)  # (-inf) ** -0.5 is 0.0
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


# Shapes whose derivatives deepen fastest, each as a source of nesting
# depth n: chains of + and /, towers of ^ (grouped right, and left with
# parentheses), nested calls and quotients, negations and parentheses.
_DEEP_SHAPES = {
    "sum": lambda n: "+".join(["x^2"] * n),
    "quotient": lambda n: "/".join(["(1+x)"] * (n - 1)),
    "tower": lambda n: "^".join(["x"] * (n + 1)),
    "left tower": lambda n: "(" * (n // 2) + "x" + "^x)" * (n // 2),
    "abs tower": lambda n: "abs(x^" * (n // 2) + "x" + ")" * (n // 2),
    "abs quotients": lambda n: "x/abs(" * (n // 2) + "x" + ")" * (n // 2),
    "abs calls": lambda n: "abs(" * n + "x" + ")" * n,
    "calls": lambda n: "sqrt(1+" * (n // 2) + "x" + ")" * (n // 2),
    "negations": lambda n: "-" * n + "x",
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
}


@pytest.mark.filterwarnings("ignore:expression contains a division")
@pytest.mark.parametrize("shape", sorted(_DEEP_SHAPES))
def test_deepest_accepted_expression_compiles_with_its_derivatives(shape):
    """At the nesting cap V and V'' still compile, and the tree-walking
    evaluator, the compiled code's fallback, still runs on V''."""
    source = _DEEP_SHAPES[shape](MAX_DEPTH)
    assert len(source) <= MAX_SOURCE_LENGTH
    p = from_expression(source)
    second = differentiate(differentiate(parse(source)))
    for x in (0.0, 0.5, 1.3):
        for f in (p.evaluate, p.derivative2, lambda t: evaluate(second, t)):
            try:
                f(x)
            except EvalError:
                pass


@pytest.mark.parametrize("source", [
    "+".join(["x^2"] * 201),       # 800 characters, 200 levels deep
    "*".join(["(1+x^2)"] * 80),
    "-" * 3000 + "x",
    "(" * 500 + "x" + ")" * 500,
    "^".join(["x"] * 1000),
], ids=["sum", "product", "negations", "parentheses", "tower"])
def test_too_deep_expression_is_a_parse_error(source):
    assert len(source) <= MAX_SOURCE_LENGTH
    with pytest.raises(ParseError, match="nested more than"):
        parse(source)


def test_nesting_cap_is_exact():
    parse("-" * MAX_DEPTH + "x")
    with pytest.raises(ParseError) as info:
        parse("-" * (MAX_DEPTH + 1) + "x")
    assert info.value.offset == MAX_DEPTH + 1  # the operand one level too deep
    parse("+".join(["x"] * (MAX_DEPTH + 1)))
    with pytest.raises(ParseError):
        parse("+".join(["x"] * (MAX_DEPTH + 2)))


def _fully_parenthesised(node):
    match node:
        case Const(value):
            return f"({value!r})"
        case Var():
            return "x"
        case Call(func, arg):
            return f"{'abs' if func == 'abs' else 'math.' + func}({_fully_parenthesised(arg)})"
    op = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "**"}[type(node)]
    left, right = (getattr(node, f.name) for f in dataclasses.fields(node))
    return f"({_fully_parenthesised(left)} {op} {_fully_parenthesised(right)})"


@given(_signed_expr)
@settings(max_examples=300)
def test_compiled_source_has_the_trees_shape(tree):
    """The compiled code drops only parentheses Python does not need: it
    parses to the same Python tree as the fully parenthesised form, so it
    computes the same floats."""
    try:
        nodes = (tree, differentiate(tree))
    except ParseError:  # d/dx c^u takes log(c), undefined for c <= 0
        nodes = (tree,)
    for node in nodes:
        want = ast.dump(ast.parse(_fully_parenthesised(node), mode="eval"))
        assert ast.dump(ast.parse(as_function(node).source, mode="eval")) == want


def test_number_beyond_the_float_range_rejected():
    with pytest.raises(ParseError, match="out of range") as info:
        parse("x^2 + 1e999*x^4")
    assert info.value.offset == 6


def test_empty_source_rejected():
    with pytest.raises(ParseError):
        parse("")


# -- division detection (used for the soft warning on potentials) --------------

def test_contains_division():
    assert contains_division(parse("1/(x + 2)"))
    assert contains_division(parse("exp(x/3)"))
    assert not contains_division(parse("x^2 + x^4"))
    assert not contains_division(parse("x^-2"))  # Pow with negative exponent is not Div


# -- parity (decides whether an even line problem may be mirrored) -------------

@pytest.mark.parametrize("source, want", [
    ("x^2 + x^4", EVEN),
    ("cos(x) - 1 + x^2", EVEN),
    ("x*sin(x)", EVEN),
    ("abs(x)^3", EVEN),
    ("x^-2", EVEN),
    ("2^(x^2)", EVEN),
    ("cosh(x^3) - 1", EVEN),
    ("x^3 - sinh(x)/2", ODD),
    ("-x", ODD),
    ("x^2 + 0.3*x^3 + x^4", UNKNOWN),
    ("(x + 1)^2", UNKNOWN),
    ("x^1.5", UNKNOWN),
    ("abs(x)^x", UNKNOWN),
    ("exp(x)", UNKNOWN),
    ("sqrt(x)", UNKNOWN),
])
def test_parity_of_fixed_expressions(source, want):
    assert parity(parse(source)) == want
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a division
        assert from_expression(source).even is (want == EVEN)


# Trees rich in the shapes parity has rules for: integer powers, the
# functions of either parity and constants of both signs.
_parity_expr = st.recursive(
    st.one_of(
        st.builds(Var),
        st.builds(Const, st.integers(-3, 3).map(float)),
        st.builds(Const, st.floats(min_value=-5.0, max_value=5.0,
                                   allow_nan=False)),
    ),
    lambda inner: st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        st.builds(Div, inner, inner),
        st.builds(Pow, inner, st.builds(Const, st.integers(-4, 4).map(float))),
        st.builds(Pow, inner, inner),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), inner),
    ),
    max_leaves=10,
)


@given(_parity_expr, st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@example(Mul(Var(), Call("sin", Var())), 0.7)
@example(Sub(Pow(Var(), Const(3.0)), Call("sinh", Var())), 1.3)
@settings(max_examples=400)
def test_parity_holds_wherever_both_sides_are_defined(tree, x):
    sign = parity(tree)
    if sign == UNKNOWN:
        return
    try:
        plus, minus = evaluate(tree, x), evaluate(tree, -x)
    except EvalError:
        return
    assert abs(minus - sign * plus) <= 1e-14 * max(abs(plus), abs(minus))
