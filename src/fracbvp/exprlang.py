"""Arithmetic expression language for problem-file data.

Problem files supply boundary weights h(t) and right-hand sides
f(t, u1, u2, u3, u4) as plain text.  The grammar is deliberately tiny:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' args ')' | '(' expr ')'

Variables are t, u1..u4; builtins are exp, sqrt, abs, log, pow; named
constants are pi and e.  Precedence is ^ above unary minus above * and /
above + and -, so "-t^2" parses as -(t^2).

Two evaluators are provided: a strict scalar tree-walker (every domain
error raised with context, nothing silently NaN) and a compiler to a
vectorized numpy closure for the solver hot path.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Const", "Unary", "Binary", "Call",
    "ExprError", "ExprSyntaxError", "ExprNameError", "ExprEvalError",
    "parse", "eval_expr", "compile_expr", "to_source", "free_variables",
]

VARIABLES = ("t", "u1", "u2", "u3", "u4")
CONSTANTS = {"pi": math.pi, "e": math.e}
BUILTINS = {"exp": 1, "sqrt": 1, "abs": 1, "log": 1, "pow": 2}


class ExprError(ValueError):
    """Base class for everything this module raises on bad input."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")
        self.offset = offset
        self.expected = expected


class ExprNameError(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(
            f"unknown identifier {name!r} at offset {offset}; variables are "
            f"{', '.join(VARIABLES)}, functions are {', '.join(sorted(BUILTINS))}, "
            f"constants are {', '.join(sorted(CONSTANTS))}")
        self.name = name
        self.offset = offset


class ExprEvalError(ExprError):
    pass


# --- AST -----------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # only '-'
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Num | Var | Const | Unary | Binary | Call


# --- Tokenizer -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | one of '+-*/^(),' | 'end'
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stray = source[pos:].lstrip()
            if not stray:
                break
            raise ExprSyntaxError(f"unexpected character {stray[0]!r}",
                                  len(source) - len(stray))
        if m.lastgroup == "op":
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        else:
            tokens.append(_Token(m.lastgroup, m.group(m.lastgroup),
                                 m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


# --- Pratt parser --------------------------------------------------------

_BINARY_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
# Right-associativity of ^: its right operand is parsed with a binding
# power one below its own, so another ^ keeps binding.
_BINARY_RBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 29}
_UNARY_BP = 25  # between */ and ^, so -t^2 == -(t^2) but -t*2 == (-t)*2


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"unexpected {tok.text or 'end of input'!r}",
                                  tok.offset, expected=(kind,))
        return self.advance()

    def parse_expr(self, min_bp: int = 0) -> Expr:
        node = self.parse_prefix()
        while True:
            tok = self.peek()
            lbp = _BINARY_LBP.get(tok.kind, -1)
            if lbp <= min_bp:
                break
            self.advance()
            right = self.parse_expr(_BINARY_RBP[tok.kind])
            node = Binary(tok.kind, node, right)
        return node

    def parse_prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "-":
            return Unary("-", self.parse_expr(_UNARY_BP))
        if tok.kind == "(":
            inner = self.parse_expr(0)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            name = tok.text
            if self.peek().kind == "(":
                if name not in BUILTINS:
                    raise ExprNameError(name, tok.offset)
                self.advance()
                args = [self.parse_expr(0)]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_expr(0))
                self.expect(")")
                arity = BUILTINS[name]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{name} takes {arity} argument(s), got {len(args)}",
                        tok.offset)
                return Call(name, tuple(args))
            if name in VARIABLES:
                return Var(name)
            if name in CONSTANTS:
                return Const(name)
            if name in BUILTINS:
                raise ExprSyntaxError(f"function {name!r} needs arguments",
                                      tok.offset, expected=("(",))
            raise ExprNameError(name, tok.offset)
        raise ExprSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.offset,
            expected=("number", "identifier", "(", "-"))


def parse(source: str) -> Expr:
    """Parse source text into an AST; whitespace-insensitive."""
    p = _Parser(source)
    node = p.parse_expr(0)
    trailing = p.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"trailing input {trailing.text!r}",
                              trailing.offset, expected=("end of input",))
    return node


# --- Scalar evaluation ---------------------------------------------------

def _scalar_pow(base: float, exponent: float) -> float:
    if base < 0 and exponent != int(exponent):
        raise ExprEvalError(
            f"negative base {base!r} with non-integer exponent {exponent!r}")
    if base == 0 and exponent < 0:
        raise ExprEvalError("zero base with negative exponent")
    return base ** exponent


def eval_expr(e: Expr, env: Mapping[str, float]) -> float:
    """Strict scalar evaluation; every domain problem is raised."""
    try:
        return _eval(e, env)
    except OverflowError as exc:
        raise ExprEvalError(f"overflow while evaluating {to_source(e)}") from exc


def _eval(e: Expr, env: Mapping[str, float]) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise ExprEvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Unary):
        return -_eval(e.operand, env)
    if isinstance(e, Binary):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise ExprEvalError(f"division by zero in {to_source(e)}")
            return a / b
        return _scalar_pow(a, b)
    if isinstance(e, Call):
        args = [_eval(a, env) for a in e.args]
        if e.fn == "exp":
            return math.exp(args[0])
        if e.fn == "sqrt":
            if args[0] < 0:
                raise ExprEvalError(f"sqrt of negative value {args[0]!r}")
            return math.sqrt(args[0])
        if e.fn == "abs":
            return abs(args[0])
        if e.fn == "log":
            if args[0] <= 0:
                raise ExprEvalError(f"log of non-positive value {args[0]!r}")
            return math.log(args[0])
        return _scalar_pow(args[0], args[1])  # pow
    raise TypeError(f"not an Expr node: {e!r}")


# --- Vectorized compilation ----------------------------------------------

def _compile(e: Expr) -> Callable[[Mapping[str, np.ndarray]], np.ndarray]:
    if isinstance(e, Num):
        v = e.value
        return lambda env: v
    if isinstance(e, Const):
        v = CONSTANTS[e.name]
        return lambda env: v
    if isinstance(e, Var):
        name = e.name
        return lambda env: env[name]
    if isinstance(e, Unary):
        f = _compile(e.operand)
        return lambda env: -f(env)
    if isinstance(e, Binary):
        fl = _compile(e.left)
        fr = _compile(e.right)
        op = e.op
        if op == "+":
            return lambda env: fl(env) + fr(env)
        if op == "-":
            return lambda env: fl(env) - fr(env)
        if op == "*":
            return lambda env: fl(env) * fr(env)
        if op == "/":
            return lambda env: fl(env) / fr(env)
        return lambda env: fl(env) ** fr(env)
    if isinstance(e, Call):
        parts = tuple(_compile(a) for a in e.args)
        fn = e.fn
        if fn == "exp":
            return lambda env: np.exp(parts[0](env))
        if fn == "sqrt":
            return lambda env: np.sqrt(parts[0](env))
        if fn == "abs":
            return lambda env: np.abs(parts[0](env))
        if fn == "log":
            return lambda env: np.log(parts[0](env))
        return lambda env: parts[0](env) ** parts[1](env)
    raise TypeError(f"not an Expr node: {e!r}")


def compile_expr(e: Expr, variables: tuple[str, ...] = VARIABLES
                 ) -> Callable[..., np.ndarray]:
    """Compile to a vectorized function of positional ndarray arguments.

    The compiled function evaluates with numpy semantics (intermediate
    overflow to inf / 0 underflow allowed) but checks the final result:
    non-finite output for finite input raises ExprEvalError, so domain
    mistakes cannot leak NaN into a solver run.
    """
    body = _compile(e)
    src = to_source(e)

    def fn(*args: np.ndarray) -> np.ndarray:
        if len(args) != len(variables):
            raise TypeError(f"expected {len(variables)} arguments "
                            f"({', '.join(variables)}), got {len(args)}")
        env = dict(zip(variables, (np.asarray(a, dtype=float) for a in args)))
        with np.errstate(all="ignore"):
            out = np.asarray(body(env), dtype=float)
        out = np.broadcast_to(out, np.broadcast_shapes(
            *(np.shape(a) for a in args))) if out.shape == () else out
        bad = ~np.isfinite(out)
        if np.any(bad):
            idx = int(np.argmax(bad))
            first = env[variables[0]]
            try:
                where = float(first.flat[idx] if first.ndim else first)
            except (IndexError, TypeError):
                where = float("nan")
            raise ExprEvalError(
                f"non-finite value from {src!r} at sample index {idx} "
                f"({variables[0]}={where!r})")
        return out

    fn.source = src  # type: ignore[attr-defined]
    return fn


# --- Pretty printing -----------------------------------------------------

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30, "neg": 25}


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary):
        return _PREC["neg"]
    return 100


def to_source(e: Expr) -> str:
    """Render an AST back to parseable text with minimal parentheses."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Var, Const)):
        return e.name
    if isinstance(e, Unary):
        inner = to_source(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Binary):
        lhs = to_source(e.left)
        rhs = to_source(e.right)
        p = _PREC[e.op]
        # Left child needs parens when looser; equal precedence is fine on
        # the left for left-associative ops but not for ^ (right-assoc).
        if _prec(e.left) < p or (e.op == "^" and _prec(e.left) == p):
            lhs = f"({lhs})"
        if _prec(e.right) < p or (e.op in ("-", "/") and _prec(e.right) == p) \
                or (e.op == "*" and isinstance(e.right, Binary) and e.right.op == "/"):
            rhs = f"({rhs})"
        return f"{lhs}{e.op}{rhs}" if e.op == "^" else f"{lhs} {e.op} {rhs}"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(to_source(a) for a in e.args)})"
    raise TypeError(f"not an Expr node: {e!r}")


def free_variables(e: Expr) -> frozenset[str]:
    """The set of variable names occurring in the expression."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (Num, Const)):
        return frozenset()
    if isinstance(e, Unary):
        return free_variables(e.operand)
    if isinstance(e, Binary):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Call):
        out: frozenset[str] = frozenset()
        for a in e.args:
            out |= free_variables(a)
        return out
    raise TypeError(f"not an Expr node: {e!r}")
