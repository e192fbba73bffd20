"""A tiny expression language for potentials of one variable ``x``.

The grammar supports decimal literals, the variable ``x``, the binary
operators ``+ - * / ^`` (``^`` is right-associative exponentiation), unary
minus, parentheses and calls of a fixed set of functions::

    exp  log  sin  cos  sinh  cosh  sqrt  abs

Binding strength is ``^``  >  unary ``-``  >  ``* /``  >  ``+ -``, so
``-x^2`` means ``-(x^2)``.

Parsing is a hand-written Pratt (precedence-climbing) recursive descent:
every input up to the length cap either yields an AST or a
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

# (left, right) binding powers; right > left gives left associativity,
# right < left gives right associativity (used for ^).
_INFIX_BP = {
    "+": (10, 11),
    "-": (10, 11),
    "*": (20, 21),
    "/": (20, 21),
    "^": (32, 31),
}
_UNARY_MINUS_BP = 25  # between * / and ^


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = list(_tokenize(source))
        self.index = 0

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
        node = self.expr(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {_describe(tok)}", tok.pos,
                             ("operator", "end of input"))
        return node

    def expr(self, min_bp: int) -> Expr:
        node = self._prefix()
        while True:
            tok = self.peek()
            bp = _INFIX_BP.get(tok.kind)
            if bp is None or bp[0] < min_bp:
                return node
            self.advance()
            rhs = self.expr(bp[1])
            node = _make_binary(tok.kind, node, rhs)

    def _prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.kind == "ident":
            if tok.text == "x":
                return Var()
            if tok.text in FUNCTIONS:
                self.expect("(")
                arg = self.expr(0)
                self.expect(")")
                return Call(tok.text, arg)
            raise ParseError(f"unknown identifier '{tok.text}'", tok.pos,
                             ("'x'",) + tuple(sorted(FUNCTIONS)))
        if tok.kind == "(":
            node = self.expr(0)
            self.expect(")")
            return node
        if tok.kind == "-":
            operand = self.expr(_UNARY_MINUS_BP)
            if isinstance(operand, Const):
                return Const(-operand.value)
            return Mul(Const(-1.0), operand)
        raise ParseError(f"unexpected {_describe(tok)}", tok.pos,
                         ("number", "'x'", "function name", "'('", "'-'"))


def _describe(tok: _Token) -> str:
    if tok.kind == "end":
        return "end of input"
    return f"token {tok.text!r}"


def _make_binary(op: str, left: Expr, right: Expr) -> Expr:
    cls = {"+": Add, "-": Sub, "*": Mul, "/": Div, "^": Pow}[op]
    return cls(left, right)


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
        case Add(a, b):
            return _guard(node, lambda: _eval(a, x) + _eval(b, x))
        case Sub(a, b):
            return _guard(node, lambda: _eval(a, x) - _eval(b, x))
        case Mul(a, b):
            return _guard(node, lambda: _eval(a, x) * _eval(b, x))
        case Div(a, b):
            db = _eval(b, x)
            if db == 0.0:
                raise EvalError("division by zero", node)
            return _guard(node, lambda: _eval(a, x) / db)
        case Pow(a, b):
            base, expo = _eval(a, x), _eval(b, x)
            if base == 0.0 and expo < 0.0:
                raise EvalError("zero raised to a negative power", node)
            if base < 0.0 and expo != round(expo):
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

_PREC = {"add": 10, "mul": 20, "neg": 25, "pow": 30, "atom": 99}


def pretty(node: Expr) -> str:
    """Reparsable text form; pretty(parse(pretty(t))) == pretty(t)."""
    return _pp(node, 0)


def _pp(node: Expr, parent_prec: int) -> str:
    match node:
        case Const(value):
            if value < 0 or (value == 0 and math.copysign(1.0, value) < 0):
                text, prec = _fmt_float(value), _PREC["neg"]
            else:
                text, prec = _fmt_float(value), _PREC["atom"]
        case Var():
            text, prec = "x", _PREC["atom"]
        case Mul(Const(-1.0), operand):
            text, prec = "-" + _pp(operand, _PREC["neg"] + 1), _PREC["neg"]
        case Add(a, b):
            text = f"{_pp(a, _PREC['add'])} + {_pp(b, _PREC['add'] + 1)}"
            prec = _PREC["add"]
        case Sub(a, b):
            text = f"{_pp(a, _PREC['add'])} - {_pp(b, _PREC['add'] + 1)}"
            prec = _PREC["add"]
        case Mul(a, b):
            text = f"{_pp(a, _PREC['mul'])}*{_pp(b, _PREC['mul'] + 1)}"
            prec = _PREC["mul"]
        case Div(a, b):
            text = f"{_pp(a, _PREC['mul'])}/{_pp(b, _PREC['mul'] + 1)}"
            prec = _PREC["mul"]
        case Pow(a, b):
            text = f"{_pp(a, _PREC['pow'] + 1)}^{_pp(b, _PREC['pow'])}"
            prec = _PREC["pow"]
        case Call(func, arg):
            text, prec = f"{func}({_pp(arg, 0)})", _PREC["atom"]
        case _:
            raise TypeError(f"not an expression node: {node!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


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
    code = _codegen(node)
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


def _codegen(node: Expr) -> str:
    match node:
        case Const(value):
            return repr(value)
        case Var():
            return "x"
        case Add(a, b):
            return f"({_codegen(a)} + {_codegen(b)})"
        case Sub(a, b):
            return f"({_codegen(a)} - {_codegen(b)})"
        case Mul(a, b):
            return f"({_codegen(a)} * {_codegen(b)})"
        case Div(a, b):
            return f"({_codegen(a)} / {_codegen(b)})"
        case Pow(a, b):
            return f"({_codegen(a)} ** {_codegen(b)})"
        case Call(func, arg):
            fn = "abs" if func == "abs" else f"math.{func}"
            return f"{fn}({_codegen(arg)})"
    raise TypeError(f"not an expression node: {node!r}")
