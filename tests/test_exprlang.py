"""Expression language: parsing, the strict scalar evaluator, the
vectorized compiler, printing, and variable discovery."""

import math

import numpy as np
import pytest

from fracbvp import compile_expr, eval_expr, parse, to_source
from fracbvp.exprlang import (
    ExprEvalError,
    ExprNameError,
    ExprSyntaxError,
    free_variables,
)


def ev(src, **env):
    return eval_expr(parse(src), env)


def test_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("(2+3)*4") == 20.0
    assert ev("2*3^2") == 18.0
    assert ev("1/2/2") == 0.25          # / is left-associative
    assert ev("8-3-2") == 3.0           # - is left-associative
    assert ev("2^3^2") == 512.0         # ^ is right-associative
    assert ev("-t^2", t=3.0) == -9.0    # unary minus below ^
    assert ev("(-t)^2", t=3.0) == 9.0


def test_constants_and_builtins():
    assert ev("pi") == math.pi
    assert ev("e") == math.e
    assert ev("exp(1)") == math.e
    assert ev("sqrt(t^3)", t=4.0) == 8.0
    assert ev("abs(-3)") == 3.0
    assert abs(ev("log(e)") - 1.0) < 1e-15
    assert ev("pow(2, 10)") == 1024.0


def test_numbers():
    assert ev("1e-3") == 1e-3
    assert ev(".5") == 0.5
    assert ev("2.5E2") == 250.0


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("2 + * 3")
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("exp(2")
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("1 2")


def test_unknown_names():
    with pytest.raises(ExprNameError) as exc:
        parse("2 * x")
    assert exc.value.name == "x"
    assert exc.value.offset == 4
    with pytest.raises(ExprNameError):
        parse("sin(t)")


def test_arity_checked_at_parse_time():
    with pytest.raises(ExprSyntaxError):
        parse("pow(2)")
    with pytest.raises(ExprSyntaxError):
        parse("exp(1, 2)")


def test_scalar_domain_errors():
    with pytest.raises(ExprEvalError, match="division by zero"):
        ev("1/t", t=0.0)
    with pytest.raises(ExprEvalError, match="sqrt of negative"):
        ev("sqrt(t)", t=-1.0)
    with pytest.raises(ExprEvalError, match="log of non-positive"):
        ev("log(t)", t=0.0)
    with pytest.raises(ExprEvalError, match="negative base"):
        ev("t^0.5", t=-2.0)
    with pytest.raises(ExprEvalError, match="unbound variable"):
        ev("u1 + 1")


def test_compiled_matches_scalar(rng):
    sources = (
        "2/(10+t)^2 + exp(-2*t)*u1/(1+sqrt(t^3))",
        "t*abs(u3)/(5*(3+t^2)^2) - u4/7 + pi",
        "sqrt(u2+5) * log(1+t) + pow(u1+3, 0.25)",
    )
    t = rng.uniform(0.01, 10.0, size=64)
    us = [rng.uniform(0.0, 5.0, size=64) for _ in range(4)]
    for src in sources:
        tree = parse(src)
        fn = compile_expr(tree)
        got = fn(t, *us)
        want = np.array([
            eval_expr(tree, {"t": t[i], "u1": us[0][i], "u2": us[1][i],
                             "u3": us[2][i], "u4": us[3][i]})
            for i in range(t.size)])
        assert np.allclose(got, want, rtol=1e-14, atol=0.0), src


def test_compiled_rejects_nonfinite_output():
    fn = compile_expr(parse("1/t"))
    with pytest.raises(ExprEvalError, match="non-finite"):
        fn(np.array([1.0, 0.0, 2.0]), *(np.zeros(3),) * 4)


def test_compiled_arity_and_source():
    fn = compile_expr(parse("t + u1"))
    assert fn.source == "t + u1"
    with pytest.raises(TypeError):
        fn(np.ones(3))


def test_to_source_round_trip(rng):
    sources = (
        "-t^2 + (u1 - u2) - (u3 - u4)",
        "2^3^2 * (1+t)/(2*u1+1)/4",
        "pow(t, 1.5) - sqrt(abs(u2 - u1))",
        "-(t + 1) * -(u1 + 2)",
    )
    env = {"t": 1.7, "u1": 2.3, "u2": 0.9, "u3": 4.1, "u4": 0.2}
    for src in sources:
        tree = parse(src)
        printed = to_source(tree)
        again = parse(printed)
        assert eval_expr(tree, env) == eval_expr(again, env), printed
        assert to_source(again) == printed  # canonical after one pass


def test_free_variables():
    assert free_variables(parse("pi + 4")) == frozenset()
    assert free_variables(parse("t*u3 - u1")) == {"t", "u1", "u3"}
    assert free_variables(parse("exp(-t)*(u1+u2+u3+u4)")) == {
        "t", "u1", "u2", "u3", "u4"}
