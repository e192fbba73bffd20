"""A tiny expression language for potentials of one variable ``x``.

The grammar supports decimal literals, the variable ``x``, the binary
operators ``+ - * / ^`` (``^`` is right-associative exponentiation), unary
minus, parentheses and calls of a fixed set of functions::

    exp  log  sin  cos  sinh  cosh  sqrt  abs

Binding strength is ``^``  >  unary ``-``  >  ``* /``  >  ``+ -``, so
``-x^2`` means ``-(x^2)``.

Parsing is a hand-written Pratt (precedence-climbing) recursive descent:
every input up to the length cap either yields an AST, at most
``MAX_DEPTH`` levels deep and with finite constants, or a
:class:`ParseError` carrying the byte offset and the set of token kinds that
would have been acceptable.  There is no implicit multiplication.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import BoxshiftError

MAX_SOURCE_LENGTH = 4096
# Deepest nesting parse accepts (see ``_Parser.expr``).  V'' must still
# compile, and CPython allows 200 nested parentheses: the deepest shapes
# measured, x/abs(x/abs(...)) and ^ towers over abs, nest the code of V''
# 3.5 parentheses deep per level, so 40 levels keep it near 140.
MAX_DEPTH = 40

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "sqrt": math.sqrt,
    "abs": abs,
}


class ParseError(BoxshiftError):
    """Syntax error with position and expectation info for caret rendering."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(set(expected)))
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)
        self.message = message


class EvalError(BoxshiftError):
    """Domain error or non-finite result while evaluating an expression."""

    def __init__(self, message: str, subexpression: "Expr | None" = None):
        self.subexpression = subexpression
        if subexpression is not None:
            message = f"{message} in '{pretty(subexpression)}'"
        super().__init__(message)


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """The single free variable ``x``."""


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Const | Var | Add | Sub | Mul | Div | Pow | Call


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPS = set("+-*/^(),")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | one of + - * / ^ ( ) , | "end"
    text: str
    pos: int


def _tokenize(source: str) -> Iterator[_Token]:
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            yield _Token(c, c, i)
            i += 1
            continue
        m = _NUMBER.match(source, i)
        if m:
            yield _Token("number", m.group(), i)
            i = m.end()
            continue
        m = _IDENT.match(source, i)
        if m:
            yield _Token("ident", m.group(), i)
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i,
                         ("number", "identifier", "operator", "'('"))
    yield _Token("end", "", n)


# --------------------------------------------------------------------------
# Pratt parser
# --------------------------------------------------------------------------

# (left, right) binding powers and the node built; right > left gives left
# associativity, right < left gives right associativity (used for ^).
_INFIX = {
    "+": (10, 11, Add),
    "-": (10, 11, Sub),
    "*": (20, 21, Mul),
    "/": (20, 21, Div),
    "^": (32, 31, Pow),
}
_UNARY_MINUS_BP = 25  # between * / and ^


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = list(_tokenize(source))
        self.index = 0
        self.open = 0  # expressions being parsed around the current token

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "end":
            self.index += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {_describe(tok)}", tok.pos, (f"'{kind}'",))
        return self.advance()

    def parse(self) -> Expr:
        node, _ = self.expr(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {_describe(tok)}", tok.pos,
                             ("operator", "end of input"))
        return node

    def expr(self, min_bp: int) -> tuple[Expr, int]:
        """The next expression binding at least ``min_bp``, with its depth:
        the levels of operators, calls, negations and parentheses in it.
        Each recursive call opens one such level, so counting the open ones
        bounds the recursion before it happens."""
        self._check_depth(self.open, self.peek())
        self.open += 1
        node, depth = self._prefix()
        while True:
            tok = self.peek()
            infix = _INFIX.get(tok.kind)
            if infix is None or infix[0] < min_bp:
                self.open -= 1
                return node, depth
            self.advance()
            rhs, rhs_depth = self.expr(infix[1])
            node, depth = infix[2](node, rhs), 1 + max(depth, rhs_depth)
            self._check_depth(depth, tok)

    def _check_depth(self, depth: int, tok: _Token) -> None:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} levels deep",
                             tok.pos)

    def _prefix(self) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "number":
            if not math.isfinite(float(tok.text)):
                raise ParseError(f"number {tok.text} out of range", tok.pos)
            return Const(float(tok.text)), 0
        if tok.kind == "ident":
            if tok.text == "x":
                return Var(), 0
            if tok.text in FUNCTIONS:
                self.expect("(")
                arg, depth = self.expr(0)
                self.expect(")")
                return Call(tok.text, arg), depth + 1
            raise ParseError(f"unknown identifier '{tok.text}'", tok.pos,
                             ("'x'",) + tuple(sorted(FUNCTIONS)))
        if tok.kind == "(":
            node, depth = self.expr(0)
            self.expect(")")
            return node, depth + 1
        if tok.kind == "-":
            operand, depth = self.expr(_UNARY_MINUS_BP)
            if isinstance(operand, Const):
                return Const(-operand.value), depth + 1
            return Mul(Const(-1.0), operand), depth + 1
        raise ParseError(f"unexpected {_describe(tok)}", tok.pos,
                         ("number", "'x'", "function name", "'('", "'-'"))


def _describe(tok: _Token) -> str:
    if tok.kind == "end":
        return "end of input"
    return f"token {tok.text!r}"


def parse(source: str) -> Expr:
    """Parse ``source`` into an AST or raise :class:`ParseError`."""
    if not isinstance(source, str):
        raise TypeError("expression source must be a string")
    if len(source) > MAX_SOURCE_LENGTH:
        raise ParseError(
            f"expression longer than {MAX_SOURCE_LENGTH} characters",
            MAX_SOURCE_LENGTH, ())
    return _Parser(source).parse()


def caret_diagnostic(source: str, err: ParseError) -> str:
    """Two-line rendering of a parse error with a caret under the offset."""
    line = source if len(source) <= 120 else source[:117] + "..."
    offset = min(err.offset, len(line))
    expected = f" (expected {', '.join(err.expected)})" if err.expected else ""
    return f"{line}\n{' ' * offset}^ {err.message}{expected}"


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def evaluate(node: Expr, x: float) -> float:
    """Evaluate with IEEE double semantics; domain errors raise EvalError."""
    result = _eval(node, x)
    if not math.isfinite(result):
        raise EvalError(f"non-finite result {result!r}", node)
    return result


def _eval(node: Expr, x: float) -> float:
    match node:
        case Const(value):
            return value
        case Var():
            return x
        # Float +, -, * and / overflow to inf rather than raise, which
        # evaluate() then reports; only ** and the functions need _guard.
        case Add(a, b):
            return _eval(a, x) + _eval(b, x)
        case Sub(a, b):
            return _eval(a, x) - _eval(b, x)
        case Mul(a, b):
            return _eval(a, x) * _eval(b, x)
        case Div(a, b):
            db = _eval(b, x)
            if db == 0.0:
                raise EvalError("division by zero", node)
            return _eval(a, x) / db
        case Pow(a, b):
            base, expo = _eval(a, x), _eval(b, x)
            if base == 0.0 and expo < 0.0:
                raise EvalError("zero raised to a negative power", node)
            # IEEE pow defines an infinite base for every exponent.
            if -math.inf < base < 0.0 and math.isfinite(expo) \
                    and expo != round(expo):
                raise EvalError("negative base with non-integer exponent", node)
            return _guard(node, lambda: math.pow(base, expo))
        case Call(func, arg):
            v = _eval(arg, x)
            if func == "log" and v <= 0.0:
                raise EvalError("log of a non-positive value", node)
            if func == "sqrt" and v < 0.0:
                raise EvalError("sqrt of a negative value", node)
            return _guard(node, lambda: FUNCTIONS[func](v))
    raise TypeError(f"not an expression node: {node!r}")


def _guard(node: Expr, thunk: Callable[[], float]) -> float:
    try:
        return thunk()
    except EvalError:
        raise
    except (OverflowError, ValueError) as exc:
        raise EvalError(f"evaluation failed ({exc})", node) from None


# --------------------------------------------------------------------------
# Differentiation (with light folding so output stays readable)
# --------------------------------------------------------------------------


def _is_const(node: Expr, value: float | None = None) -> bool:
    return isinstance(node, Const) and (value is None or node.value == value)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    return Pow(a, b)


def differentiate(node: Expr) -> Expr:
    """Symbolic d/dx.

    ``abs`` differentiates to ``u*u' / abs(u)``, which correctly raises a
    division-by-zero EvalError when evaluated at a zero of ``u`` — the
    derivative genuinely does not exist there.

    ``c^u`` with a constant ``c <= 0`` and ``u`` depending on x has no
    derivative in x (it takes log c): a ParseError naming the power.  The
    tree keeps no source positions, so its offset is 0, the whole
    expression.
    """
    match node:
        case Const(_):
            return Const(0.0)
        case Var():
            return Const(1.0)
        case Add(a, b):
            return _add(differentiate(a), differentiate(b))
        case Sub(a, b):
            return _sub(differentiate(a), differentiate(b))
        case Mul(a, b):
            return _add(_mul(differentiate(a), b), _mul(a, differentiate(b)))
        case Div(a, b):
            num = _sub(_mul(differentiate(a), b), _mul(a, differentiate(b)))
            return _div(num, _pow(b, Const(2.0)))
        case Pow(base, expo):
            if isinstance(expo, Const):
                coeff = _mul(Const(expo.value), _pow(base, Const(expo.value - 1.0)))
                return _mul(coeff, differentiate(base))
            if isinstance(base, Const):
                if base.value <= 0.0:
                    raise ParseError(
                        f"cannot differentiate '{pretty(node)}' in x: its "
                        f"constant base {base.value!r} is not positive", 0)
                return _mul(_mul(node, Const(math.log(base.value))),
                            differentiate(expo))
            inner = _add(_mul(differentiate(expo), Call("log", base)),
                         _div(_mul(expo, differentiate(base)), base))
            return _mul(node, inner)
        case Call(func, arg):
            du = differentiate(arg)
            match func:
                case "exp":
                    outer: Expr = Call("exp", arg)
                case "log":
                    return _div(du, arg)
                case "sin":
                    outer = Call("cos", arg)
                case "cos":
                    outer = _mul(Const(-1.0), Call("sin", arg))
                case "sinh":
                    outer = Call("cosh", arg)
                case "cosh":
                    outer = Call("sinh", arg)
                case "sqrt":
                    return _div(du, _mul(Const(2.0), Call("sqrt", arg)))
                case "abs":
                    return _div(_mul(arg, du), Call("abs", arg))
                case _:  # pragma: no cover - parser only emits known names
                    raise ValueError(f"unknown function {func!r}")
            return _mul(outer, du)
    raise TypeError(f"not an expression node: {node!r}")


EVEN, ODD, UNKNOWN = 1, -1, 0
_EVEN_OF_ODD = {"cos", "cosh", "abs"}
_ODD_OF_ODD = {"sin", "sinh"}


def parity(node: Expr) -> int:
    """``EVEN`` if the expression is an even function of x, ``ODD`` if odd,
    ``UNKNOWN`` when these rules cannot tell, conservatively.

    Parities multiply as signs do: a sum keeps a parity both terms share,
    a product or quotient multiplies them, and an integer constant power
    follows the usual rule.  Any other power is even only when base and
    exponent both are.  cos, cosh and abs of an odd argument are even, sin
    and sinh of one odd, and any function of an even argument is even.
    """
    match node:
        case Const(_):
            return EVEN
        case Var():
            return ODD
        case Add(a, b) | Sub(a, b):
            pa = parity(a)
            return pa if pa == parity(b) else UNKNOWN
        case Mul(a, b) | Div(a, b):
            return parity(a) * parity(b)
        case Pow(base, Const(expo)) if float(expo).is_integer():
            pb = parity(base)
            return EVEN if pb == ODD and expo % 2 == 0 else pb
        case Pow(base, expo):
            return EVEN if parity(base) == parity(expo) == EVEN else UNKNOWN
        case Call(func, arg):
            pa = parity(arg)
            if pa == ODD and func in _EVEN_OF_ODD:
                return EVEN
            if pa == ODD and func in _ODD_OF_ODD:
                return ODD
            return EVEN if pa == EVEN else UNKNOWN
    raise TypeError(f"not an expression node: {node!r}")


def contains_division(node: Expr) -> bool:
    """True if any subexpression divides — evaluation may then fail pointwise."""
    match node:
        case Div(_, _):
            return True
        case Add(a, b) | Sub(a, b) | Mul(a, b):
            return contains_division(a) or contains_division(b)
        case Pow(a, b):
            return contains_division(a) or contains_division(b)
        case Call(_, arg):
            return contains_division(arg)
        case _:
            return False


# --------------------------------------------------------------------------
# Printing and compilation
# --------------------------------------------------------------------------

# Binding strengths.  Python ranks its operators the same way, ** above
# unary - above * / above + -, with ** grouping to the right.
_PREC = {"add": 10, "mul": 20, "neg": 25, "pow": 30, "atom": 99}
_OPERATORS = {Add: (" + ", _PREC["add"]), Sub: (" - ", _PREC["add"]),
              Mul: ("*", _PREC["mul"]), Div: ("/", _PREC["mul"]),
              Pow: ("^", _PREC["pow"])}


def pretty(node: Expr) -> str:
    """Reparsable text form; pretty(parse(pretty(t))) == pretty(t)."""
    return _show(node, python=False)[0]


def _show(node: Expr, python: bool) -> tuple[str, int]:
    """``node`` as DSL text, or as Python source if ``python``, with the
    binding strength of its outermost operator.  Parentheses appear only
    where the operands would otherwise group differently, so the Python
    source parses to the tree's own shape and computes the same floats."""
    match node:
        case Const(value):
            text = repr(value) if python else _fmt_float(value)
            if math.copysign(1.0, value) < 0:
                return text, _PREC["neg"]
            return text, _PREC["atom"]
        case Var():
            return "x", _PREC["atom"]
        case Mul(Const(-1.0), operand) if not python:
            text, strength = _show(operand, python)
            if strength < _PREC["neg"] + 1:
                text = f"({text})"
            return "-" + text, _PREC["neg"]
        case Call(func, arg):
            name = f"math.{func}" if python and func != "abs" else func
            return f"{name}({_show(arg, python)[0]})", _PREC["atom"]
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | Pow(a, b):
            symbol, strength = _OPERATORS[type(node)]
            (left, left_strength), (right, right_strength) = \
                _show(a, python), _show(b, python)
            # ^ groups to the right and the others to the left, so an
            # operand of equal strength needs parentheses on the other side.
            grouping = isinstance(node, Pow)
            if left_strength < strength + grouping:
                left = f"({left})"
            if right_strength < strength + (not grouping):
                right = f"({right})"
            if python and grouping:
                symbol = "**"
            return left + symbol + right, strength
    raise TypeError(f"not an expression node: {node!r}")


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def as_function(node: Expr) -> Callable[[float], float]:
    """Compile to a fast callable.

    The generated code runs straight-line Python; on any arithmetic failure
    it falls back to :func:`evaluate` to produce a descriptive EvalError.
    The callable's ``source`` is that code, an expression in ``x``, which
    the integrator inlines (see ``dop853``).
    """
    code, _ = _show(node, python=True)
    namespace = {"math": math, "__builtins__": {}}
    fast = eval(f"lambda x: ({code})", namespace)  # noqa: S307 - closed AST

    def call(x: float) -> float:
        try:
            v = fast(x)
        except Exception:
            return evaluate(node, x)  # raises a descriptive EvalError
        if isinstance(v, complex) or not math.isfinite(v):
            return evaluate(node, x)
        return v

    call.source = code
    return call
