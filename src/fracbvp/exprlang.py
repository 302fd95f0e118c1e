"""Arithmetic expression language for problem-file data.

Problem files supply boundary weights h(t) and right-hand sides
f(t, u1, u2, u3, u4) as plain text.  The grammar is Python's expression
syntax restricted to + - * /, unary minus, numbers, names and calls,
with ^ for power; ast.parse reads it.  Variables are t, u1..u4;
builtins are exp, sqrt, abs, log, pow; named constants are pi and e.
As in Python, "-t^2" parses as -(t^2) and "-t*2" as (-t)*2.

A tree's leaves are Num, Var and Const; every operation is an Op, named
by an operator of the grammar, "neg" (unary minus) or a builtin.

One evaluator serves every use: compile_expr turns a tree into a
vectorized numpy closure, called on sample arrays by the solver and the
checks, and with no variables at all for the constant expressions of
problem files.  It can also bind variables to fixed arrays (the solver
binds t to its quadrature points).  Every subtree that reads constants
and bound variables alone is evaluated once, at compile time.
Everything, constants included, follows numpy semantics: intermediate
overflow to inf and underflow to 0 are allowed (so 1/exp(1000) is 0.0),
and only a non-finite final result is an error.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Const", "Op",
    "ExprError", "ExprSyntaxError", "ExprNameError", "ExprEvalError",
    "parse", "compile_expr", "to_source", "free_variables",
]

VARIABLES = ("t", "u1", "u2", "u3", "u4")
_F64 = np.dtype(float)
CONSTANTS = {"pi": math.pi, "e": math.e}
BUILTINS = {"exp": 1, "sqrt": 1, "abs": 1, "log": 1, "pow": 2}


class ExprError(ValueError):
    """Base class for everything this module raises on bad input."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ExprNameError(ExprError):
    def __init__(self, name: str, offset: int | None,
                 variables: tuple[str, ...] = VARIABLES):
        where = "" if offset is None else f" at offset {offset}"
        super().__init__(
            f"unknown identifier {name!r}{where}; variables are "
            f"{', '.join(variables) or 'none'}, functions are "
            f"{', '.join(sorted(BUILTINS))}, "
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
class Op:
    op: str  # one of + - * / ^, "neg" (unary minus) or a builtin's name
    args: tuple["Expr", ...]


Expr = Num | Var | Const | Op


# --- Parser --------------------------------------------------------------

# Refused before ast.parse reads the text: a character the grammar does
# not spell, Python's ** (the grammar writes ^) and a trailing comma.
_REFUSED = re.compile(r"[^\sA-Za-z0-9_.+\-*/^(),]|\*\*|,(?=\s*\))")
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.Pow: "^"}
# Half the interpreter's default recursion limit: each walk over a tree
# (build, _compile, to_source, evaluation) takes one frame per level.
_MAX_DEPTH = 500


def parse(text: str) -> Expr:
    """Parse text into an AST; errors carry 0-based offsets into text."""
    if bad := _REFUSED.search(text):
        raise ExprSyntaxError(f"unexpected {bad.group()!r}", bad.start())
    body = re.sub(r"\s", " ", text).lstrip()
    # where[i]: the offset in text of character i of the string parsed.
    where = [len(text) - len(body) + i for i, c in enumerate(body)
             for _ in range(1 + (c == "^"))] + [len(text)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a literal such as 1if
            root = ast.parse(body.replace("^", "**"), mode="eval").body
    except SyntaxError as exc:  # exc.offset counts from 1, or is 0 or None
        at = where[max(0, min(exc.offset or 0, len(where)) - 1)]
        # Python's advice on a number it refuses (an 0o prefix; a digit
        # limit, given with no offset: the longest integer) fits no grammar.
        numbers = [(len(m[0]), m.start()) for m in _NUMBER.finditer(text) if (
            m.start() <= at < m.end() if exc.offset else m[0].isdigit())]
        if numbers and not exc.msg.startswith("invalid syntax"):
            exc.msg, at = "bad number", max(numbers)[1]
        raise ExprSyntaxError(exc.msg, at) from None
    except (RecursionError, MemoryError):  # the parser's own depth limits
        raise ExprSyntaxError("nested too deeply", 0) from None

    def build(node: ast.expr, depth: int) -> Expr:
        at = where[node.col_offset]
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"tree deeper than {_MAX_DEPTH} levels", at)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return Op(_BINARY[type(node.op)], (build(node.left, depth + 1),
                                               build(node.right, depth + 1)))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Op("neg", (build(node.operand, depth + 1),))
        literal = text[at:where[node.end_col_offset]]
        if isinstance(node, ast.Constant) and _NUMBER.fullmatch(literal):
            return Num(float(literal))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name not in BUILTINS:
                raise ExprNameError(name, at)
            # map: one frame per level, as above.
            args = tuple(map(build, node.args, [depth + 1] * len(node.args)))
            if len(args) != BUILTINS[name]:
                raise ExprSyntaxError(f"{name} takes {BUILTINS[name]} "
                                      f"argument(s), got {len(args)}", at)
            return Op(name, args)
        if isinstance(node, ast.Name):
            if node.id in VARIABLES:
                return Var(node.id)
            if node.id in CONSTANTS:
                return Const(node.id)
            if node.id in BUILTINS:
                raise ExprSyntaxError(f"function {node.id!r} needs arguments",
                                      at)
            raise ExprNameError(node.id, at)
        raise ExprSyntaxError(f"unsupported expression {literal!r}", at)

    return build(root, 1)


# --- Vectorized compilation ----------------------------------------------

# Every operation of the grammar, by its Op name.
_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": operator.pow, "neg": operator.neg,
               "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs, "log": np.log,
               "pow": operator.pow}


def _operands(e: Expr) -> tuple[Callable | None, tuple[Expr, ...]]:
    """e's operation and operand subtrees; a leaf has no operation."""
    if isinstance(e, Op):
        return _OPERATIONS[e.op], e.args
    if isinstance(e, (Num, Var, Const)):
        return None, ()
    raise TypeError(f"not an Expr node: {e!r}")


def _compile(e: Expr, bound: Mapping[str, np.ndarray]
             ) -> np.ndarray | np.float64 | Callable[..., np.ndarray]:
    """e's value, computed here once and read-only, when e reads bound
    variables alone or none (numpy scalars for constants, so 1/0 is inf,
    not a ZeroDivisionError); otherwise e's closure over an environment."""
    if isinstance(e, Var):
        name = e.name
        return bound[name] if name in bound else (lambda env: env[name])
    op, args = _operands(e)
    if op is None:
        return np.float64(e.value if isinstance(e, Num) else CONSTANTS[e.name])
    # map: one frame per level of the tree; a comprehension takes two.
    parts = list(map(_compile, args, [bound] * len(args)))
    if not any(map(callable, parts)):  # under compile_expr's errstate
        v = op(*parts)
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
        return v
    fs = [p if callable(p) else (lambda env, p=p: p) for p in parts]
    f, g = fs[0], fs[-1]
    if len(fs) == 1:
        return lambda env: op(f(env))
    return lambda env: op(f(env), g(env))


def compile_expr(e: Expr, variables: tuple[str, ...] = VARIABLES, *,
                 bind: Mapping[str, np.ndarray] | None = None
                 ) -> Callable[..., np.ndarray]:
    """Compile to a vectorized function of positional ndarray arguments.

    The compiled function evaluates with numpy semantics (intermediate
    overflow to inf / 0 underflow allowed) but checks the final result:
    non-finite output for finite input raises ExprEvalError, so domain
    mistakes cannot leak NaN into a solver run.  A variable of the tree
    outside `variables` raises ExprNameError here; with no variables the
    function takes no arguments and returns a 0-d array.

    `bind` fixes some of `variables` to arrays (copied, read-only); the
    function takes the others, in order.  Subtrees over constants and
    bound variables alone are evaluated here, once, by the same numpy
    operations a call would run, so results are bit for bit those of an
    evaluation per call; the check runs per call.
    """
    bound = {k: np.array(v, dtype=float) for k, v in (bind or {}).items()}
    for a in bound.values():
        a.setflags(write=False)
    if unbound := (free_variables(e) | bound.keys()) - set(variables):
        raise ExprNameError(min(unbound), None, variables)
    with np.errstate(all="ignore"):
        value = _compile(e, bound)
    body = value if callable(value) else (lambda env: value)
    params = tuple(v for v in variables if v not in bound)

    def fn(*args: np.ndarray) -> np.ndarray:
        if len(args) != len(params):
            raise TypeError(f"expected {len(params)} arguments "
                            f"({', '.join(params)}), got {len(args)}")
        env = dict(bound)
        env.update(zip(params, (
            a if type(a) is np.ndarray and a.dtype is _F64
            else np.asarray(a, dtype=float) for a in args)))
        with np.errstate(all="ignore"):
            out = np.asarray(body(env), dtype=float)
            total = out.sum()
        out = np.broadcast_to(out, np.broadcast_shapes(
            *(np.shape(a) for a in env.values()))) if out.shape == () else out
        # Every term is finite when the sum is; an overflowing sum of
        # finite terms is told apart term by term.
        if not math.isfinite(total) and not np.isfinite(out).all():
            bad, where = ~np.isfinite(out), ""
            if variables:
                idx = int(np.argmax(bad))
                first = env[variables[0]]
                try:
                    x = float(first.flat[idx] if first.ndim else first)
                except IndexError:
                    x = float("nan")
                where = f" at sample index {idx} ({variables[0]}={x!r})"
            raise ExprEvalError(
                f"non-finite value from {to_source(e)!r}{where}")
        return out

    return fn


# --- Pretty printing -----------------------------------------------------

# Binding power of each operator; a leaf or a call binds tightest.
_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30, "neg": 25}


def _prec(e: Expr) -> int:
    return _PREC.get(getattr(e, "op", None), 100)


def to_source(e: Expr) -> str:
    """Render an AST back to parseable text with minimal parentheses."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Var, Const)):
        return e.name
    kids = _operands(e)[1]
    # list(map(...)) takes one frame per level; a generator, three.
    args = list(map(to_source, kids))
    if e.op not in _PREC:
        return f"{e.op}({', '.join(args)})"
    p = _PREC[e.op]
    if e.op == "neg":
        return f"-({args[0]})" if _prec(kids[0]) < p else f"-{args[0]}"
    lhs, rhs = args
    left, right = kids
    # A child of equal precedence keeps its parentheses on the side the
    # parser would not group it: the right of a left-associative operator
    # (t + (u1 + u2) is not (t + u1) + u2 in floating point), the left of
    # ^ (right-associative).
    if _prec(left) < p or (e.op == "^" and _prec(left) == p):
        lhs = f"({lhs})"
    if _prec(right) < p or (e.op != "^" and _prec(right) == p):
        rhs = f"({rhs})"
    return f"{lhs}{e.op}{rhs}" if e.op == "^" else f"{lhs} {e.op} {rhs}"


def free_variables(e: Expr) -> frozenset[str]:
    """The set of variable names occurring in the expression."""
    nodes = [e]
    for node in nodes:  # a walk by levels: nodes grows as it goes
        nodes += _operands(node)[1]
    return frozenset(n.name for n in nodes if isinstance(n, Var))
