"""Expression language: parsing, the vectorized compiler, printing, and
variable discovery.

It also keeps the hand-written tokenizer and Pratt parser that parse
replaced (_reference_parse, at the end), as the oracle of its trees."""

import math
import random
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fracbvp.exprlang as exprlang
from fracbvp import compile_expr, parse, to_source
from fracbvp.exprlang import (
    BUILTINS,
    CONSTANTS,
    VARIABLES,
    Const,
    Expr,
    ExprError,
    ExprEvalError,
    ExprNameError,
    ExprSyntaxError,
    Num,
    Op,
    Var,
    free_variables,
)


def ev(src, **env):
    """Compiled evaluation at one point, the variables bound by keyword."""
    return float(compile_expr(parse(src), tuple(env))(*env.values()))


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


def test_offsets_count_in_the_original_text():
    # ast.parse reads each ^ as **, after leading blanks are dropped and
    # line breaks made spaces; offsets still count characters of the text.
    for text, offset in (("t^2 + x", 6), ("\n  t^u1^2 * x", 12),
                         ("t # note", 2), ("2**3", 1), ("exp(t,)", 5),
                         ("1 + pow(t^2)", 4), ("-" * 600 + "t", 500)):
        with pytest.raises(ExprError) as exc:
            parse(text)
        assert exc.value.offset == offset, text


def test_arity_checked_at_parse_time():
    with pytest.raises(ExprSyntaxError):
        parse("pow(2)")
    with pytest.raises(ExprSyntaxError):
        parse("exp(1, 2)")


def test_domain_errors():
    for src, t in (("1/t", 0.0), ("sqrt(t)", -1.0), ("log(t)", 0.0),
                   ("t^0.5", -2.0)):
        with pytest.raises(ExprEvalError, match=r"non-finite .* \(t="):
            ev(src, t=t)
    # Constant expressions take the same path, with no variables.
    for src in ("1/0", "10^400", "(-8)^(1/3)", "log(0)", "sqrt(-1)"):
        with pytest.raises(ExprEvalError, match="non-finite"):
            ev(src)
    # Numpy semantics: an intermediate overflow that the result absorbs
    # is not an error.
    assert ev("1/exp(1000)") == 0.0


def test_variables_outside_the_signature_fail_at_compile_time():
    with pytest.raises(ExprNameError, match="'u1'; variables are t,"):
        compile_expr(parse("u1 + 1"), ("t",))
    with pytest.raises(ExprNameError, match="variables are none"):
        compile_expr(parse("t"), ())


def test_compiled_matches_numpy(rng):
    # Hand-written numpy twins of the sources; they share no code with
    # the parser or the compiler.
    cases = (
        ("2/(10+t)^2 + exp(-2*t)*u1/(1+sqrt(t^3))",
         lambda t, u1, u2, u3, u4:
         2 / (10 + t) ** 2 + np.exp(-2 * t) * u1 / (1 + np.sqrt(t ** 3))),
        ("t*abs(u3)/(5*(3+t^2)^2) - u4/7 + pi",
         lambda t, u1, u2, u3, u4:
         t * np.abs(u3) / (5 * (3 + t ** 2) ** 2) - u4 / 7 + np.pi),
        ("sqrt(u2+5) * log(1+t) + pow(u1+3, 0.25)",
         lambda t, u1, u2, u3, u4:
         np.sqrt(u2 + 5) * np.log(1 + t) + (u1 + 3) ** 0.25),
    )
    t = rng.uniform(0.01, 10.0, size=64)
    us = [rng.uniform(0.0, 5.0, size=64) for _ in range(4)]
    for src, reference in cases:
        got = compile_expr(parse(src))(t, *us)
        want = reference(t, *us)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0), src


def test_compiled_rejects_nonfinite_output():
    fn = compile_expr(parse("1/t"))
    with pytest.raises(ExprEvalError, match="non-finite"):
        fn(np.array([1.0, 0.0, 2.0]), *(np.zeros(3),) * 4)


def test_compiled_arity_and_source(monkeypatch):
    """The source is rendered only for an error message: a compile and a
    finite evaluation never call to_source, and a non-finite result
    still quotes the rendered expression."""
    def refuse(e):
        raise AssertionError("to_source called")

    tree = parse("t + u1 / (t - 1)")
    with monkeypatch.context() as m:
        m.setattr(exprlang, "to_source", refuse)
        fn = compile_expr(tree, ("t", "u1"))
        assert fn(np.array([2.0, 3.0]), np.ones(2)).tolist() == [3.0, 3.5]
    assert not hasattr(fn, "source")
    with pytest.raises(ExprEvalError,
                       match=re.escape("from 't + u1 / (t - 1.0)' at sample "
                                       "index 1 (t=1.0)")):
        fn(np.array([2.0, 1.0]), np.ones(2))
    with pytest.raises(TypeError):
        fn(np.ones(3))


def test_to_source_round_trip(rng):
    sources = (
        "-t^2 + (u1 - u2) - (u3 - u4)",
        "2^3^2 * (1+t)/(2*u1+1)/4",
        "pow(t, 1.5) - sqrt(abs(u2 - u1))",
        "-(t + 1) * -(u1 + 2)",
    )
    env = (1.7, 2.3, 0.9, 4.1, 0.2)
    for src in sources:
        tree = parse(src)
        printed = to_source(tree)
        again = parse(printed)
        assert compile_expr(tree)(*env) == compile_expr(again)(*env), printed
        assert to_source(again) == printed  # canonical after one pass


# Every tree the parser can produce: finite nonnegative literals (a
# minus sign parses as Op "neg"), the variables and named constants, and
# the builtins with their arities.
_leaves = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Num),
    st.sampled_from(VARIABLES).map(Var),
    st.sampled_from(sorted(CONSTANTS)).map(Const))


def _extend(children):
    return st.one_of(
        children.map(lambda x: Op("neg", (x,))),
        st.builds(Op, st.sampled_from("+-*/^"), st.tuples(children, children)),
        st.sampled_from(sorted(BUILTINS.items())).flatmap(
            lambda fn_n: st.tuples(*[children] * fn_n[1]).map(
                lambda args: Op(fn_n[0], args))))


@given(st.recursive(_leaves, _extend, max_leaves=12))
def test_to_source_reparses_to_the_same_tree(tree):
    assert parse(to_source(tree)) == tree


def test_to_source_keeps_right_nested_grouping():
    assert to_source(parse("t + (u1 + u2)")) == "t + (u1 + u2)"
    assert to_source(parse("t * (u1 * u2)")) == "t * (u1 * u2)"
    assert to_source(parse("(t + u1) + u2")) == "t + u1 + u2"


def test_free_variables():
    assert free_variables(parse("pi + 4")) == frozenset()
    assert free_variables(parse("t*u3 - u1")) == {"t", "u1", "u3"}
    assert free_variables(parse("exp(-t)*(u1+u2+u3+u4)")) == {
        "t", "u1", "u2", "u3", "u4"}


@given(st.recursive(_leaves, _extend, max_leaves=12),
       st.lists(st.floats(min_value=0.0, max_value=1e16), max_size=6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_binding_t_changes_no_bit_and_no_error(tree, ts, seed):
    t = np.array([0.0, 9.999999999999998e15, 1e16, *ts])
    us = np.random.default_rng(seed).uniform(-10.0, 10.0, (4, t.size))
    outcomes = []
    for fn, args in ((compile_expr(tree), (t, *us)),
                     (compile_expr(tree, bind={"t": t}), tuple(us))):
        try:
            outcomes.append(fn(*args))
        except ExprEvalError as exc:
            outcomes.append(str(exc))
    unbound, bound = outcomes
    if isinstance(unbound, str) or isinstance(bound, str):
        assert unbound == bound
    else:
        assert unbound.shape == bound.shape
        assert unbound.tobytes() == bound.tobytes()


def test_bound_t_only_tree_is_one_frozen_array():
    # The forcing of the solver tests' forcing-only problem.
    t = np.array([0.0, 0.5, 3.0, 1e16])
    us = (np.zeros(t.size),) * 4
    fn = compile_expr(parse("exp(-t)"), bind={"t": t})
    first = fn(*us)
    assert not first.flags.writeable
    assert np.array_equal(fn(*us), first)
    assert np.array_equal(first, np.exp(-t))
    assert t.flags.writeable  # the caller's array is copied, not frozen
    # Binding evaluates under numpy's error state, so a t-only part that
    # overflows warns nothing; the call then fails as the unbound one.
    t = np.array([1.0, -1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn = compile_expr(parse("exp(-t)"), bind={"t": t})
    with pytest.raises(ExprEvalError, match=r"index 1 \(t=-1000\.0\)$"):
        fn(*(np.zeros(2),) * 4)


def test_bound_compile_walks_the_tree_once(monkeypatch):
    # One compile walk returns each node's value or closure, with no
    # free-variable set per node; the names are checked by one
    # free_variables walk of the whole tree: a bound compile of a
    # 400-term sum asks free_variables at most once, not once per node.
    from fracbvp import exprlang

    calls = []
    real = exprlang.free_variables
    monkeypatch.setattr(exprlang, "free_variables",
                        lambda e: calls.append(e) or real(e))
    tree = parse("+".join(["t*u1"] * 400))
    t, u1 = np.linspace(0.0, 2.0, 7), np.linspace(-1.0, 1.0, 7)
    fn = compile_expr(tree, ("t", "u1"), bind={"t": t})
    assert len(calls) <= 1
    assert fn(u1).tobytes() == compile_expr(tree, ("t", "u1"))(t, u1).tobytes()


def test_free_variables_compiles_nothing(monkeypatch):
    # A plain walk, with no recursion, even on a tree as deep as parse
    # allows.
    from fracbvp import exprlang

    def no_compile(*args):
        raise AssertionError("free_variables compiled")

    monkeypatch.setattr(exprlang, "_compile", no_compile)
    # u2 * -...-t: the product, 498 minus signs and t are 500 levels.
    tree = parse("u2 * " + "-" * 498 + "t")
    with pytest.raises(ExprSyntaxError, match="deeper than 500"):
        parse("u2 * " + "-" * 499 + "t")
    assert free_variables(tree) == {"t", "u2"}


def test_constant_subtrees_are_evaluated_once_at_compile_time(monkeypatch):
    from fracbvp import exprlang

    calls = []
    monkeypatch.setitem(exprlang._OPERATIONS, "^",
                        lambda a, b: calls.append(1) or a ** b)
    fn = compile_expr(parse("t * (1 + 2)^0.5"), ("t",))
    assert len(calls) == 1
    t = np.array([0.0, 0.3, 1.0, 7.5, 1e300])
    out = fn(t)
    assert len(calls) == 1
    # The bits of an evaluation per call, by the same numpy scalars.
    want = t * (np.float64(1.0) + np.float64(2.0)) ** np.float64(0.5)
    assert out.tobytes() == want.tobytes()


def test_number_literals_python_refuses_are_bad_numbers():
    # Python's messages would advise an 0o prefix or a larger digit
    # limit, neither of which the grammar takes.
    for text, offset in (("01", 0), ("t + " + "7" * 4301, 4),
                         ("2.5 + " + "1" * 4500 + ".5 + " + "3" * 4301,
                          4511)):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        message = str(exc.value)
        assert message == f"bad number at offset {offset}"
        assert "0o" not in message and "set_int_max_str_digits" not in message
    # A well-formed number in the wrong place keeps Python's message.
    for text in ("1 2", "pow(1 2, 3)"):
        with pytest.raises(ExprSyntaxError, match="^invalid syntax"):
            parse(text)


def test_bind_names_checked_and_arity_shrinks():
    with pytest.raises(ExprNameError, match="'x'"):
        compile_expr(parse("t"), ("t",), bind={"x": np.ones(2)})
    fn = compile_expr(parse("t + u1"), bind={"t": np.ones(3)})
    with pytest.raises(TypeError, match=r"expected 4 arguments \(u1, u2"):
        fn(np.ones(3))


# The grammar's tokens and a few whole calls, then Python-only
# constructs: parse must refuse each of those as the reference does,
# whatever surrounds it.
_TOKENS = ("1", "2.5", ".5", "1e3", "2E-2", "0", "t", "u1", "u4", "pi", "e",
           "exp", "pow", "sqrt", "x", "+", "-", "*", "/", "^", "(", ")", ",",
           " ", "\n", "exp(t)", "pow(u1, 2)", "abs(-t)")
_PYTHON_ONLY = ("**", "#", "exp(t,)", "1_0", "0x1", "1j", "True",
                "t if t else t", "[t]", "t.real", "not t", "t<1", "\n  ")
# The one divergence this alphabet can spell: Python refuses a
# leading-zero integer such as 01, which the reference reads as 1.0.
_LEADING_ZERO = re.compile(r"(?<![\w.])0[0-9]")


def _parsed(parser, text):
    """parser's tree of text, or ExprError when it refuses the text."""
    try:
        return parser(text)
    except ExprError:
        return ExprError


def test_parse_agrees_with_the_reference_parser():
    rnd = random.Random(20260825)
    weights = [8] * len(_TOKENS) + [1] * len(_PYTHON_ONLY)
    trees = 0
    for _ in range(20_000):
        text = "".join(rnd.choices(_TOKENS + _PYTHON_ONLY, weights,
                                   k=rnd.randint(1, 9)))
        got = _parsed(parse, text)
        want = _parsed(_reference_parse, text)
        assert got == want or (got is ExprError
                               and _LEADING_ZERO.search(text)), text
        trees += got is not ExprError
    assert trees > 1_000  # the alphabet spells enough valid expressions


# --- The reference parser --------------------------------------------------

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
                                  tok.offset)
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
            node = Op(tok.kind, (node, right))
        return node

    def parse_prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "-":
            return Op("neg", (self.parse_expr(_UNARY_BP),))
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
                return Op(name, tuple(args))
            if name in VARIABLES:
                return Var(name)
            if name in CONSTANTS:
                return Const(name)
            if name in BUILTINS:
                raise ExprSyntaxError(f"function {name!r} needs arguments",
                                      tok.offset)
            raise ExprNameError(name, tok.offset)
        raise ExprSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.offset)


def _reference_parse(source: str) -> Expr:
    """Parse source text into an AST; whitespace-insensitive."""
    p = _Parser(source)
    node = p.parse_expr(0)
    trailing = p.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"trailing input {trailing.text!r}",
                              trailing.offset)
    return node
