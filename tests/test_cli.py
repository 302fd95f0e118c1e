"""Problem-file loader, canonical formatter, and the command-line entry
point with its exit-code contract:

    0  solved / all hypotheses hold
    2  a hypothesis fails or no scheme is licensed
    3  iteration budget exhausted before the tolerance
    4  unusable input (file, flags, expressions)
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_exprlang import _extend, _leaves

import fracbvp
import fracbvp.solver as solver_mod
from fracbvp import (
    ContractionRatioWarning,
    MonotonicityError,
    ProblemFileError,
    format_problem,
    load_problem,
    packaged_problem_names,
    resolve_problem,
    to_source,
)
from fracbvp.cli import _json, _read, main
from fracbvp.exprlang import VARIABLES, Var
from fracbvp.problem import CONSTANT_NAMES

_LIPS = "\n".join(f"b{i}{k} = exp(-t)" for i in (1, 2) for k in range(1, 5))

MINIMAL = f"""
[orders]
alpha1 = 2.5
alpha2 = 1.5

[rhs]
f1 = exp(-t)
f2 = exp(-2*t)

[lipschitz]
{_LIPS}
"""


def _strict_json(text):
    """json.loads that rejects the non-standard Infinity and NaN tokens."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def _with(extra):
    return MINIMAL + "\n" + extra


def test_load_minimal():
    lp = load_problem(MINIMAL, origin="tiny.prob")
    assert lp.spec.alpha1.q == 2.5
    assert lp.spec.alpha2.q == 1.5
    assert lp.spec.h1 is None and lp.spec.h2 is None
    assert lp.spec.monotone is False
    assert lp.spec.name == "tiny"
    assert lp.solver.n == 64
    assert lp.solver.scheme == "auto"
    assert lp.solver.tol is None
    assert lp.expected == {}


def test_missing_required_section():
    with pytest.raises(ProblemFileError, match=r"\[orders\] is missing"):
        load_problem("[rhs]\nf1 = t\nf2 = t\n")


def test_missing_rhs_key():
    text = MINIMAL.replace("f2 = exp(-2*t)\n", "")
    with pytest.raises(ProblemFileError, match=r"\[rhs\] is missing.*f2"):
        load_problem(text)


def test_alpha_ranges_enforced():
    with pytest.raises(ProblemFileError, match=r"alpha1.*\(2, 3\]"):
        load_problem(MINIMAL.replace("alpha1 = 2.5", "alpha1 = 1.9"))
    with pytest.raises(ProblemFileError, match=r"alpha2.*\(1, 2\]"):
        load_problem(MINIMAL.replace("alpha2 = 1.5", "alpha2 = 2.5"))


def test_unknown_section_rejected():
    with pytest.raises(ProblemFileError, match=r"unknown section \[extras\]"):
        load_problem(_with("[extras]\nx = 1\n"))


def test_unknown_key_rejected():
    with pytest.raises(ProblemFileError, match=r"unknown key.*alpha3"):
        load_problem(MINIMAL.replace("alpha2 = 1.5",
                                     "alpha2 = 1.5\nalpha3 = 0.5"))


def test_keys_outside_sections_rejected():
    with pytest.raises(ProblemFileError, match="outside any section"):
        load_problem("[DEFAULT]\nstray = 1\n" + MINIMAL)
    with pytest.raises(ProblemFileError, match="bad INI syntax"):
        load_problem("stray = 1\n" + MINIMAL)


def test_ini_syntax_error():
    with pytest.raises(ProblemFileError, match="bad INI syntax"):
        load_problem("[orders\nalpha1 = 2.5\n")


def test_expression_errors_carry_location():
    with pytest.raises(ProblemFileError, match=r"\[rhs\] f1"):
        load_problem(MINIMAL.replace("f1 = exp(-t)", "f1 = exp(-t"))
    # Boundary weights may only mention t.
    with pytest.raises(ProblemFileError, match=r"\[boundary\] h1.*allowed"):
        load_problem(_with("[boundary]\nh1 = exp(-t)*u1\n"))


def test_growth_needs_every_key():
    block = "[growth]\na10 = exp(-t)\nlambda1 = 0.1, 0.2, 0.3, 0.4\n"
    with pytest.raises(ProblemFileError, match=r"\[growth\] is missing"):
        load_problem(_with(block))


def test_exponent_lists_need_four_entries():
    rows = "\n".join(f"a{i}{k} = exp(-t)" for i in (1, 2) for k in range(5))
    block = (f"[growth]\n{rows}\nlambda1 = 0.1, 0.2\n"
             f"lambda2 = 0.1, 0.2, 0.3, 0.4\n")
    with pytest.raises(ProblemFileError, match="4 comma-separated"):
        load_problem(_with(block))


def test_bool_parsing():
    for word in ("true", "Yes", "ON", "1"):
        lp = load_problem(MINIMAL.replace(
            "f2 = exp(-2*t)", f"f2 = exp(-2*t)\nmonotone = {word}"))
        assert lp.spec.monotone is True
    with pytest.raises(ProblemFileError, match="monotone"):
        load_problem(MINIMAL.replace(
            "f2 = exp(-2*t)", "f2 = exp(-2*t)\nmonotone = maybe"))


def test_boundary_annotations_require_weight():
    with pytest.raises(ProblemFileError, match="h1_decay"):
        load_problem(_with("[boundary]\nh1_decay = 1.0\n"))


def test_expected_accepts_constant_expressions():
    lp = load_problem(_with("[expected]\ntau2 = pi/8000\nL = 4.03638\n"))
    assert lp.expected["tau2"] == pytest.approx(math.pi / 8000.0)
    assert lp.expected["L"] == 4.03638
    with pytest.raises(ProblemFileError, match=r"unknown key.*zeta"):
        load_problem(_with("[expected]\nzeta = 1\n"))
    with pytest.raises(ProblemFileError, match=r"\[expected\] tau1"):
        load_problem(_with("[expected]\ntau1 = pi/t\n"))


def test_solver_section_validation():
    assert load_problem(_with(
        "[solver]\nn = 48\ntheta = 4.0\ntol = 5e-4\nmax_iter = 77\n"
        "scheme = contraction\n")).solver.max_iter == 77
    for bad, msg in (
            ("n = 8", "at least 16"),
            ("scheme = downhill", "monotone or contraction"),
            ("interp = linear", r"unknown key.*interp"),
            ("tol = -1e-4", "must be positive"),
            ("tol = inf", "must be positive and finite"),
            ("max_iter = 0", "at least 1")):
        with pytest.raises(ProblemFileError, match=msg):
            load_problem(_with(f"[solver]\n{bad}\n"))


def test_packaged_problems_present():
    assert packaged_problem_names() == ("lipschitz", "sublinear")


def test_resolve_by_name_and_path(tmp_path):
    by_name = resolve_problem("sublinear")
    with_ext = resolve_problem("sublinear.prob")
    assert by_name.sections == with_ext.sections
    p = tmp_path / "local.prob"
    p.write_text(MINIMAL)
    lp = resolve_problem(str(p))
    assert lp.spec.name == "local"
    with pytest.raises(ProblemFileError, match="packaged"):
        resolve_problem("no-such-problem")


def test_format_is_canonical(sublinear_lp, lipschitz_lp):
    for lp in (sublinear_lp, lipschitz_lp, load_problem(MINIMAL)):
        once = format_problem(lp)
        again = format_problem(load_problem(once, origin=lp.origin))
        assert once == again
        assert once.lstrip().startswith("[orders]")


def test_format_normalizes_values():
    text = _with("[solver]\nn = 48\n[expected]\ntau2 = pi/8000\n")
    out = format_problem(load_problem(text))
    assert "tau2 = 0.00039269908169872416" in out
    assert "n = 48" in out
    assert "f2 = exp(-2.0 * t)" in out


def _numbers(lo, hi):
    """Float texts in (lo, hi], written as repr or with 3 digits."""
    return st.builds(lambda x, fmt: fmt(x),
                     st.floats(lo, hi, exclude_min=True),
                     st.sampled_from([repr, "{:.3g}".format])
                     ).filter(lambda text: lo < float(text) <= hi)


def _exprs(variables):
    """Expression texts over `variables`, from test_exprlang's trees."""
    leaves = _leaves.filter(lambda e: not isinstance(e, Var)
                            or e.name in variables)
    return st.recursive(leaves, _extend, max_leaves=6).map(to_source)


_T_EXPRS, _STATE_EXPRS = _exprs(("t",)), _exprs(VARIABLES)


@st.composite
def _problem_texts(draw):
    """A valid problem file: each optional section and key drawn or not,
    the keys of each section in random order."""
    sections = {"orders": {"alpha1": draw(_numbers(2.0, 3.0)),
                           "alpha2": draw(_numbers(1.0, 2.0))},
                "rhs": {f"f{i}": draw(_STATE_EXPRS) for i in (1, 2)}}
    if draw(st.booleans()):
        sections["rhs"]["monotone"] = draw(st.sampled_from(
            ["true", "No", "ON", "0"]))
    boundary = {}
    for h in ("h1", "h2"):
        if draw(st.booleans()):
            boundary[h] = draw(_T_EXPRS)
            for key, lo in (("_exponent", -1.0), ("_decay", 0.0)):
                if draw(st.booleans()):
                    boundary[h + key] = draw(_numbers(lo, 5.0))
    if draw(st.booleans()):
        sections["boundary"] = boundary
    growth, lipschitz = draw(st.sampled_from(
        [(True, False), (False, True), (True, True)]))
    if growth:
        sections["growth"] = {f"a{i}{k}": draw(_T_EXPRS)
                              for i in (1, 2) for k in range(5)}
        for key in ("lambda1", "lambda2"):
            sections["growth"][key] = ", ".join(
                draw(st.lists(_numbers(0.0, 1.0), min_size=4, max_size=4)))
    if lipschitz:
        sections["lipschitz"] = {f"b{i}{k}": draw(_T_EXPRS)
                                 for i in (1, 2) for k in range(1, 5)}
    solver = {"n": str(draw(st.integers(16, 512))),
              "theta": draw(_numbers(0.0, 50.0)),
              "tol": draw(_numbers(0.0, 1.0)),
              "max_iter": str(draw(st.integers(1, 10_000))),
              "scheme": draw(st.sampled_from(["auto", "Monotone",
                                              "contraction"]))}
    sections["solver"] = {k: v for k, v in solver.items()
                          if draw(st.booleans())}
    names = draw(st.lists(st.sampled_from(CONSTANT_NAMES), unique=True,
                          max_size=4))
    sections["expected"] = {k: draw(st.one_of(
        _numbers(-10.0, 10.0), st.sampled_from(["pi/40", "1/3", "e^2"])))
        for k in names}
    lines = []
    for section in draw(st.permutations(list(sections))):
        lines.append(f"[{section}]")
        keys = draw(st.permutations(list(sections[section])))
        lines += [f"{key} = {sections[section][key]}" for key in keys]
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=40)
@given(_problem_texts())
def test_format_is_idempotent_on_random_problems(text):
    lp = load_problem(text)
    once = format_problem(lp)
    again = load_problem(once)
    assert format_problem(again) == once
    assert again.sections == lp.sections
    assert again.solver == lp.solver
    assert again.expected == lp.expected


@pytest.mark.parametrize("edits, error", [
    # Sections are read in schema order, whatever the file's order.
    ([("alpha1 = 2.5", "alpha1 = 1.9"), ("[orders]", "[boundary]\n"
                                         "h1 = exp(-t\n[orders]")],
     r"^\[orders\] alpha1: must lie in \(2, 3\], got 1\.9$"),
    # Both orders are parsed before either range is checked.
    ([("alpha1 = 2.5", "alpha1 = 1.9"), ("alpha2 = 1.5", "alpha2 = t")],
     r"^\[orders\] alpha2: unknown variable"),
    # Keys in schema order: f1 before f2, wherever they stand.
    ([("f1 = exp(-t)\nf2 = exp(-2*t)", "f2 = exp(-2*t\nf1 = u9")],
     r"^\[rhs\] f1: bad expression"),
    # [solver] keys are parsed in file order, then range-checked.
    ([("[lipschitz]", "[solver]\nmax_iter = 0\nn = many\ntol = x\n"
                      "[lipschitz]")], r"^\[solver\] n: not an integer"),
    ([("[lipschitz]", "[solver]\ntol = -1\nn = 8\n[lipschitz]")],
     r"^\[solver\] n: needs at least 16"),
    # A boundary annotation without its weight, before any later key.
    ([("[lipschitz]", "[boundary]\nh2 = exp(-t\nh1_decay = 0\n"
                      "[lipschitz]")],
     r"^\[boundary\] h1: h1_exponent/h1_decay make no sense without h1$"),
    # A missing key in [growth] before any of its values is parsed.
    ([("[lipschitz]", "[growth]\na10 = exp(-t\n[lipschitz]")],
     r"^\[growth\] is missing key\(s\): \['a11', "),
], ids=["sections", "orders", "rhs", "solver-parse", "solver-range",
        "boundary", "growth"])
def test_first_fault_in_schema_order_is_reported(edits, error):
    text = MINIMAL
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    with pytest.raises(ProblemFileError, match=error):
        load_problem(text)


# -- the executable ------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "check" in capsys.readouterr().out


def test_usage_errors_exit_four(capsys):
    assert main(["check", "sublinear", "--wat"]) == 4
    assert main(["check", "sublinear", "--grid-n", "32"]) == 4
    assert main(["kernel-dump", "sublinear", "--seed", "1"]) == 4
    assert main(["solve", "sublinear", "--interp", "pchip"]) == 4
    assert main(["frobnicate"]) == 4
    assert main([]) == 4


def test_missing_problem_exits_four(capsys):
    assert main(["check", "no-such-problem"]) == 4
    assert "packaged" in capsys.readouterr().err


def test_broken_file_exits_four(tmp_path, capsys):
    p = tmp_path / "broken.prob"
    p.write_text(MINIMAL.replace("alpha1 = 2.5", "alpha1 = nine"))
    assert main(["check", str(p)]) == 4
    assert "alpha1" in capsys.readouterr().err


def test_check_passes_on_packaged(capsys):
    assert main(["check", "sublinear"]) == 0
    out = capsys.readouterr().out
    assert "H1 pass" in out
    assert "H4 pass" in out
    assert "result: all applicable hypotheses hold" in out


def test_check_reports_declared_mismatch(capsys):
    assert main(["check", "lipschitz"]) == 0
    out = capsys.readouterr().out
    assert "declared-value mismatch: tau2" in out


def test_check_json(capsys):
    assert main(["check", "lipschitz", "--json"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["m"] == pytest.approx(0.985740294457121, abs=1e-9)
    assert [d["name"] for d in doc["discrepancies"]] == ["tau2"]


def test_check_fails_on_vanishing_forcing(tmp_path, capsys):
    p = tmp_path / "zero.prob"
    p.write_text(MINIMAL.replace("f1 = exp(-t)", "f1 = u1"))
    assert main(["check", str(p)]) == 2
    out = capsys.readouterr().out
    assert "H1 FAIL" in out
    assert "result: FAILED: H1" in out


def test_solve_refuses_unlicensed_scheme(capsys):
    assert main(["solve", "sublinear", "--scheme", "contraction"]) == 2
    err = capsys.readouterr().err
    assert "no scheme is licensed" in err
    assert "no Lipschitz data" in err


def test_solve_contraction_json(capsys):
    code = main(["solve", "lipschitz", "--json",
                 "--grid-n", "32", "--tol", "1e-3"])
    doc = _strict_json(capsys.readouterr().out)
    assert code == 0
    assert doc["scheme"] == "contraction"
    assert doc["converged"] is True
    assert doc["config"]["grid_n"] == 32
    assert len(doc["solution"]["t"]) == 32
    assert len(doc["solution"]["u"]) == 32
    assert doc["verification"]["error_bound"]["ok"] is True
    assert doc["trace"]["diffs"]
    assert doc["hypothesis"]["passed"] is True


def test_solve_monotone_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["solve", "sublinear", "--tol", "1e-4",
                 "--out", str(out_dir)])
    assert code == 0
    names = sorted(f.name for f in out_dir.iterdir())
    assert names == ["solution-lower.csv", "solution-upper.csv",
                     "trace-lower.csv", "trace-upper.csv",
                     "verification.json"]
    text = (out_dir / "solution-lower.csv").read_text()
    assert text.startswith("# problem: sublinear\n")
    rows = [line for line in text.splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == "t,u,v,du,dv"
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert data.shape == (64, 5)
    assert np.all(data[:, 1:] >= 0.0)  # the lower solution is nonnegative
    ver = _strict_json((out_dir / "verification.json").read_text())
    assert ver["ordering"]["ok"] is True
    assert ver["config"]["scheme"] == "monotone"
    summary = capsys.readouterr().out
    assert "sandwich gap" in summary


def test_solve_without_boundary_section(tmp_path, capsys):
    # Omitting [boundary] is legal: the conditions become
    # D^(alpha-1)u(inf) = 0, and their residuals must still be reported.
    # The rows decay to subnormal values, where the PCHIP slope
    # weights overflow; the reconstruction must keep that quiet (the
    # suite turns RuntimeWarning into an error).
    p = tmp_path / "free.prob"
    # Scaled Lipschitz bounds put the contraction modulus below 1.
    p.write_text(MINIMAL.replace(_LIPS, _LIPS.replace("= exp", "= 0.1*exp")))
    code = main(["solve", str(p), "--json", "--grid-n", "32",
                 "--tol", "1e-3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    ver = doc["verification"]
    assert math.isfinite(ver["bc_residual_1"])
    assert math.isfinite(ver["bc_residual_2"])


@pytest.mark.parametrize("old, new", [
    ("f1 = 2/", "f1 = log(t-1) + 2/"),
    ("h1 = t", "h1 = log(t-1)*t"),
    ("a10 = 2/(10+t)^2", "a10 = log(t-1)"),
    ("f2 = 1/", "f2 = sqrt(1-u1) + 1/"),
], ids=["forcing", "weight", "envelope", "forcing-state"])
@pytest.mark.parametrize("command", ["check", "solve"])
def test_non_finite_expression_exits_four(tmp_path, capsys, command, old,
                                          new):
    text = (Path(fracbvp.__file__).parent / "problems"
            / "sublinear.prob").read_text()
    assert old in text
    p = tmp_path / "bad.prob"
    p.write_text(text.replace(old, new, 1))
    size = ["--grid-n", "32"] if command == "solve" else []
    assert main([command, str(p), *size]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite value" in err


@pytest.mark.parametrize("old, new", [
    ("alpha1 = 2.5", "alpha1 = 1/0"),
    ("alpha1 = 2.5", "alpha1 = (-8)^(1/3)"),
    ("h1_decay = 1\n", "h1_decay = log(0)\n"),
    ("scheme = monotone", "scheme = monotone\ntheta = 10^400"),
    ("a24 = pi", "a24 = pi\nm = sqrt(-1)"),
    # Literals that float() reads must meet the same check.
    ("L = 4.03638", "L = nan"),
    ("gamma_alpha1 = 1.32934", "gamma_alpha1 = inf"),
    ("h1_decay = 1\n", "h1_decay = inf\n"),
    ("lambda1 = 0.1, 0.3", "lambda1 = nan, 0.3"),
], ids=["division", "complex-root", "log", "overflow", "sqrt",
        "literal-nan", "literal-inf", "literal-decay", "literal-exponent"])
def test_non_finite_constant_exits_four(tmp_path, capsys, old, new):
    text = (Path(fracbvp.__file__).parent / "problems"
            / "sublinear.prob").read_text()
    assert old in text
    p = tmp_path / "bad.prob"
    p.write_text(text.replace(old, new, 1))
    assert main(["check", str(p)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a constant" in err
    assert "non-finite value" in err


# check and kernel-dump run at the quadrature tolerance and H4 sample
# count that solve uses (--tol is solve's iteration tolerance), so they
# refuse these flags as unrecognized, whatever the value.
_SOLVE_ONLY_FLAGS = [
    ["check", "sublinear", "--tol", "-1"],
    ["check", "sublinear", "--samples", "-1"],
    ["check", "sublinear", "--samples", "0"],
    ["kernel-dump", "sublinear", "--tol", "0"],
    ["check", "sublinear", "--tol", "inf"],
    ["kernel-dump", "sublinear", "--tol", "inf"],
]


@pytest.mark.parametrize("argv", [
    ["solve", "lipschitz", "--max-iter", "0"],
    ["solve", "lipschitz", "--theta", "0"],
    ["solve", "lipschitz", "--theta", "-1"],
    ["solve", "lipschitz", "--theta", "inf"],
    ["solve", "lipschitz", "--tol", "-1"],
    ["solve", "lipschitz", "--tol", "nan"],
    ["solve", "lipschitz", "--grid-n", "8"],
    ["check", "sublinear", "--seed", "-1"],
    ["solve", "sublinear", "--seed", "-1"],
    ["kernel-dump", "sublinear", "--points", "-3"],
    ["kernel-dump", "sublinear", "--points", "0"],
    ["solve", "lipschitz", "--tol", "inf", "--grid-n", "16"],
    ["kernel-dump", "sublinear", "--t-max", "inf", "--points", "3"],
    *_SOLVE_ONLY_FLAGS,
], ids=" ".join)
def test_bad_flag_values_exit_four(capsys, argv):
    assert main(argv) == 4
    err = capsys.readouterr().err
    if argv in _SOLVE_ONLY_FLAGS:
        assert err.endswith("error: unrecognized arguments: "
                            + " ".join(argv[2:]) + "\n")
    else:
        assert err.startswith("error: ")


def test_solve_iteration_budget_exit(capsys):
    code = main(["solve", "lipschitz", "--grid-n", "32",
                 "--tol", "1e-9", "--max-iter", "2"])
    assert code == 3
    assert "not converged in 2 steps" in capsys.readouterr().out


def test_solve_reports_a_broken_chain_ordering(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise MonotonicityError("iteration 3: row u_w breaks the chain "
                                "ordering")

    monkeypatch.setattr(solver_mod, "monotone_solve", broken)
    assert main(["solve", "sublinear", "--grid-n", "16"]) == 2
    err = capsys.readouterr().err
    assert err == ("scheme guarantee broke mid-run: iteration 3: row u_w "
                   "breaks the chain ordering\n")


def test_solve_with_a_kinked_weight_exits_three(tmp_path, capsys):
    # The boundary integral G cannot reach its tolerance across the kink
    # of |t-1|; the run must say so instead of exiting 0 with a G off by
    # more than the tolerance it claims.  test_kernels bounds the work.
    text = (Path(fracbvp.__file__).parent / "problems"
            / "sublinear.prob").read_text()
    kinked = text.replace("h2 = t^(-0.5)*exp(-2*t)\n",
                          "h2 = t^(-0.5)*exp(-2*t)*abs(t-1)\n")
    assert kinked != text
    p = tmp_path / "kinked.prob"
    p.write_text(kinked)
    assert main(["solve", str(p), "--grid-n", "32"]) == 3
    err = capsys.readouterr().err
    assert "quadrature did not converge in boundary integral G" in err


def test_negative_boundary_weight_fails_h1_before_any_solve(
        tmp_path, capsys, monkeypatch):
    # Lambda1 = -1 is below Gamma(alpha1), so only the sampled sign of h1
    # can catch this weight; the G cut and the chain ordering need h >= 0.
    text = (Path(fracbvp.__file__).parent / "problems"
            / "sublinear.prob").read_text()
    neg = text.replace("h1 = t^(-1.5)*exp(-t)\n", "h1 = -t^(-1.5)*exp(-t)\n")
    neg = neg.replace("\nlambda1 = 1\n", "\n")
    assert neg.count("-t^(-1.5)") == 1 and "lambda1 = 1\n" not in neg
    p = tmp_path / "negative.prob"
    p.write_text(neg)
    assert main(["check", str(p)]) == 2
    out = capsys.readouterr().out
    assert "H1 FAIL" in out and "h1 is negative at t=0.0001" in out

    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a failed H1")

    monkeypatch.setattr(solver_mod, "monotone_solve", no_solve)
    assert main(["solve", str(p), "--grid-n", "32"]) == 2
    err = capsys.readouterr().err
    assert "no scheme is licensed" in err and "h1 is negative" in err


def test_json_writer_writes_non_finite_as_null():
    doc = {"a": [math.inf, -math.inf, math.nan, 1.5, np.float64(0.1)],
           "b": (2, None, "x"), "c": {"d": np.float64(math.inf)}}
    assert _strict_json(_json(doc)) == {
        "a": [None, None, None, 1.5, 0.1], "b": [2, None, "x"],
        "c": {"d": None}}
    assert _json({"v": 0.1}) == json.dumps({"v": 0.1}, indent=2)


def _packaged_without_expected(name, edits):
    """Packaged problem `name` minus its [expected] section, with each
    (old, new) pair of `edits` replaced exactly once."""
    text = (Path(fracbvp.__file__).parent / "problems"
            / f"{name}.prob").read_text()
    text = text[:text.index("\n[expected]")] + "\n"
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


_H4_FLOATS = (r"f1 decreases between ordered states at t=\d\.\d+: "
              r"\d\.\d+ > \d\.\d+ for lo=\[")

# Case -> (packaged problem, edits, runs).  Each run is (command, extra
# arguments, exit code, regex its stdout plus stderr must match); solves
# run with --grid-n 16 under the file's scheme unless extra says else.
_EDGE_CASES = {
    # Integer orders take rl_derivative's integer-order branch in the
    # ODE spot-check.
    "integer-orders": ("sublinear", [("alpha1 = 2.5", "alpha1 = 3"),
                                     ("alpha2 = 1.5", "alpha2 = 2")], [
        ("check", [], 0, "all applicable hypotheses hold"),
        ("solve", [], 0, r"monotone scheme, n=16"),
    ]),
    "growth-exponent-1": ("sublinear", [("lambda1 = 0.1,", "lambda1 = 1,")], [
        ("check", [], 0, "growth exponent 1.0 >= 1"),
        ("solve", [], 2, r"licensed\n  no invariant-ball radius "
                         r"\(see report notes\)\n$"),
        ("solve", ["--scheme", "auto"], 2,
         r"licensed\n  monotone: no invariant-ball radius \(see report "
         r"notes\)\n  contraction: no Lipschitz data\n$"),
    ]),
    # Lambda1 = 2 int_0^inf exp(-t) dt = 2 > Gamma(2.5) = 1.33.
    "lambda1-above-gamma": ("sublinear", [("h1 = t^", "h1 = 2*t^")], [
        ("check", [], 2, r"H1 FAIL"),
        ("solve", [], 2, r"H1 fails \(Lambda1=2 is not below "
                         r"Gamma\(alpha1\)=1\.329340388\)"),
        ("kernel-dump", ["--points", "3"], 2, "kernels do not exist"),
        # L1 = 1/(Gamma(alpha1) - Lambda1) is infinite: JSON has no inf.
        ("check", ["--json"], 2, r'"L1": null,\n  "L2": [0-9.]+,\n'
                                 r'  "L": null,'),
        ("solve", ["--json"], 2, r'"refused": \[\n    "H1 fails'),
    ]),
    "m-above-1": ("lipschitz", [("b24 = 1/(20*(1+t^2))", "b24 = 10/(1+t^2)"),
                                ("abs(u4)/(20*(1+t^2))",
                                 "10*abs(u4)/(1+t^2)")], [
        ("check", [], 0, r"m = 64\.07"),
        ("solve", [], 2, r"licensed\n  m=64\.0719 is not below 1\n$"),
    ]),
    "h2-fails": ("sublinear", [("a13 = 2*t", "a13 = -2*t")], [
        ("check", [], 2, r"H2 FAIL.*\n      a13 is negative at t=0\.001\n"),
        ("solve", [], 2, r"licensed\n  H2 fails \(a13 is negative at "
                         r"t=0\.001\)\n$"),
    ]),
    "h3-fails": ("lipschitz", [("b11 = exp", "b11 = -exp")], [
        ("check", [], 2, r"H3 FAIL.*\n      b11 is negative at t=0\.001\n"),
        ("solve", [], 2, r"licensed\n  H3 fails \(b11 is negative at "
                         r"t=0\.001\)\n$"),
        # Without a passing H3 the b*'s bound nothing: no m, no r.
        ("check", ["--json"], 2, r'"m": null,\n  "R": null,\n  "r": null,'),
    ]),
    # sigma1 + alpha1 - 1 = -1: h1 t^(alpha1-1) is not integrable at 0.
    "h1-exponent-too-steep": ("sublinear", [("h1_exponent = -1.5",
                                             "h1_exponent = -2.5")], [
        ("check", [], 2, r"H1 FAIL.*\n      h1_exponent=-2\.5 is not above "
                         r"-alpha1=-2\.5, so Lambda1 diverges\n"),
        ("solve", [], 2, r"licensed\n  H1 fails \(h1_exponent=-2\.5 is not "
                         r"above -alpha1=-2\.5, so Lambda1 diverges\)\n$"),
        ("kernel-dump", ["--points", "3"], 2, r"^kernels do not exist: "
         r"h1_exponent=-2\.5 is not above -alpha1=-2\.5, so Lambda1 "
         r"diverges\n$"),
        ("check", ["--json"], 2, r'"lambda1": null,'),
    ]),
    # An algebraic-decay weight with no h1_decay hint: Lambda1 =
    # int_0^inf t^(-1.5) t^1.5 (1+t)^(-3) dt = 1/2.
    "algebraic-decay-weight": ("sublinear", [
            ("h1 = t^(-1.5)*exp(-t)", "h1 = t^(-1.5)/(1+t)^3"),
            ("h1_decay = 1\n", "")], [
        ("check", [], 0, r"lambda1 = 0\.49999999999\d*\n(.|\n)*"
                         r"all applicable hypotheses hold"),
        ("solve", ["--grid-n", "32"], 0,
         r"monotone scheme, n=32(.|\n)*boundary residuals 1\.6\d*e-03, "
         r"3\.8\d*e-03"),
    ]),
    # Lambda1 = 1.3293 sits 4.0e-5 below Gamma(2.5): every hypothesis
    # holds, but L1 and R are huge, and the report says why.
    "lambda1-near-gamma": ("sublinear", [
            ("h1 = t^(-1.5)*exp(-t)", "h1 = 1.3293*t^(-1.5)*exp(-t)")], [
        ("check", [], 0, r"L1 = 24759\.71\d*\n(.|\n)*R = 1922004974\d{5}\.\d*"
                         r"\n(.|\n)*note: Gamma\(alpha1\) - Lambda1 = 4\.039e-05 "
                         r"is below 1e-3\*Gamma\(alpha1\), so L1 = 24759\.7\n"
                         r"result: all applicable hypotheses hold"),
        ("check", ["--json"], 0, r'"notes": \[\s*"Gamma\(alpha1\) - Lambda1 '
                                 r'= 4\.039e-05 [^"]*L1 = 24759\.7"\s*\]'),
        ("solve", [], 0, r"monotone scheme, n=16(.|\n)*after 40 steps(.|\n)*"
                         r"after 43 steps(.|\n)*boundary residuals "
                         r"5\.657e-03, 7\.064e-03"),
    ]),
    # The report's constants of a section are the jobs of one batch; a
    # failing job is reported as if the integrals ran one by one.
    "envelope-a14-diverges": ("sublinear", [
            ("a14 = 1/(1+t^2)", "a14 = 1/(1+t)")], [
        ("check", [], 2, r"H2 FAIL.*\n      quadrature did not converge in "
                         r"envelope integral a14 \(value=41\.58883083359671, "
                         r"error_estimate=6\.931e-01\)\n  H4 pass"),
    ]),
    "envelopes-a11-and-a24-diverge": ("sublinear", [
            ("a11 = exp(-t)/(1+sqrt(t^3))^0.1", "a11 = 1/(1+t)"),
            ("a24 = 2/(1+t^2)", "a24 = 2/(1+t)")], [
        ("check", [], 2, r"H2 FAIL.*\n      quadrature did not converge in "
                         r"envelope integral a11 \(value=3406\.580331937682, "
                         r"error_estimate=3\.371e\+02\)\n  H4 pass"),
    ]),
    "forcing-tau1-diverges": ("lipschitz", [
            ("f1 = 2/(10+t)^2", "f1 = 2/(10+t)")], [
        ("check", [], 2, r"H3 FAIL.*\n      quadrature did not converge in "
                         r"forcing integral tau1 \(value=78\.57249148120532, "
                         r"error_estimate=1\.386e\+00\)\nconstants:"),
    ]),
    # a24 is not finite on (0.004, 0.005), which holds its first
    # quadrature node and no point of the sign check: the earlier a11
    # still decides (exit 2).  a11 not finite below t = 0.001, where its
    # refinement goes, decides with its own error (exit 4).
    "a24-not-finite-after-a11-diverges": ("sublinear", [
            ("a11 = exp(-t)/(1+sqrt(t^3))^0.1", "a11 = 1/(1+t)"),
            ("a24 = 2/(1+t^2)",
             "a24 = 2/(1+t^2) + 0*sqrt((t - 0.004)*(t - 0.005))")], [
        ("check", [], 2, r"H2 FAIL.*\n      quadrature did not converge in "
                         r"envelope integral a11 \(value=3406\.580331937682, "
                         r"error_estimate=3\.371e\+02\)\n  H4 pass"),
    ]),
    "a11-not-finite-before-a24-diverges": ("sublinear", [
            ("a11 = exp(-t)/(1+sqrt(t^3))^0.1",
             "a11 = exp(-t) + 0*sqrt(t - 0.001)"),
            ("a24 = 2/(1+t^2)", "a24 = 2/(1+t)")], [
        ("check", [], 4, r"^error: non-finite value from 'exp\(-t\) \+ 0\.0 \* "
                         r"sqrt\(t - 0\.001\)' at sample index 24 "
                         r"\(t=0\.0005762301797900236\)\n$"),
    ]),
    "h4-fails": ("sublinear", [("f1 = 2/(10+t)^2",
                                "f1 = 2/(10+t)^2 - exp(-t)*abs(u1)/2")], [
        ("check", [], 2, r"H4 FAIL.*\n      " + _H4_FLOATS),
        ("solve", [], 2, r"licensed\n  H4 fails \(" + _H4_FLOATS),
    ]),
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_edge_case_exit_codes_and_reasons(tmp_path, capsys, case):
    name, edits, runs = _EDGE_CASES[case]
    p = tmp_path / f"{case}.prob"
    p.write_text(_packaged_without_expected(name, edits))
    for command, extra, code, pattern in runs:
        if command == "solve":
            extra = ["--grid-n", "16", *extra]
        assert main([command, str(p), *extra]) == code, (command, extra)
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert re.search(pattern, text), (command, extra, text)
        assert "np.float64" not in text
        if "--json" in extra:
            _strict_json(captured.out)


def test_contraction_iterate_overflow_breaks_the_scheme(tmp_path, capsys):
    # check licenses the file (H3 holds as declared), but b24 = 1/20
    # understates the coefficient 2 of |u4|: the iterates grow until f2
    # is not finite.  That breaks the scheme's guarantee (exit 2), like
    # a broken chain ordering, not an unreadable input (exit 4).
    p = tmp_path / "blowup.prob"
    p.write_text(_packaged_without_expected(
        "lipschitz", [("abs(u4)/(20*(1+t^2))", "2*abs(u4)/(1+t^2)")]))
    assert main(["check", str(p)]) == 0
    capsys.readouterr()
    with pytest.warns(ContractionRatioWarning):
        assert main(["solve", str(p), "--grid-n", "16"]) == 2
    err = capsys.readouterr().err
    assert re.match(r"scheme guarantee broke mid-run: iteration \d+: "
                    r"non-finite value from ", err), err


def test_solve_spotchecks_only_points_inside_the_grid(capsys):
    # theta 0.01 puts t_N at 1.877, below the spot-check point 2.0.
    code = main(["solve", "lipschitz", "--json", "--grid-n", "16",
                 "--theta", "0.01"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["converged"] is True
    ver = doc["verification"]
    assert ver["details"]["spot_points"] == [0.5, 1.0]
    assert sorted({e["t"] for e in ver["ode_residuals"]}) == [0.5, 1.0]


def test_kernel_dump_csv(capsys):
    code = main(["kernel-dump", "sublinear", "--points", "4",
                 "--t-min", "0.5", "--t-max", "2.0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == ("t,s,k1,k1_bound,k2,k2_bound,"
                       "kstar1,kstar1_bound,kstar2,kstar2_bound")
    assert len(body) == 1 + 16
    data = np.array([[float(x) for x in r.split(",")] for r in body[1:]])
    t, s = data[:, 0], data[:, 1]
    assert t.min() == pytest.approx(0.5) and t.max() == pytest.approx(2.0)
    for col in (2, 4, 6, 8):
        vals, bound = data[:, col], data[:, col + 1]
        assert np.all(vals >= 0.0)
        assert np.all(vals <= bound * (1.0 + 1e-12))


def test_kernel_dump_json_and_file(tmp_path, capsys):
    target = tmp_path / "kernels.json"
    code = main(["kernel-dump", "lipschitz", "--points", "4",
                 "--json", "--out", str(target)])
    assert code == 0
    doc = _strict_json(target.read_text())
    assert len(doc["t"]) == 4
    assert len(doc["k1"]) == 4 and len(doc["k1"][0]) == 4


def test_loads_share_parsed_values(tmp_path, capsys):
    """_read keeps the parsed values of recent texts: a second load of a
    text gives the same canonical form and report, a malformed value
    fails the same way on every load (a raised error is never kept), and
    the cache is bounded."""
    assert _read.cache_info().maxsize is not None
    path = tmp_path / "sub.prob"
    path.write_text((Path(fracbvp.__file__).parent / "problems"
                     / "sublinear.prob").read_text())
    loads = [load_problem(path.read_text()) for _ in range(2)]
    assert format_problem(loads[0]) == format_problem(loads[1])
    docs = []
    for _ in range(2):
        assert main(["check", str(path), "--json"]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]

    bad = MINIMAL.replace("f2 = exp(-2*t)", "f2 = exp(-2*t")
    errors, misses = [], []
    for _ in range(3):
        with pytest.raises(ProblemFileError) as exc:
            load_problem(bad)
        errors.append(str(exc.value))
        misses.append(_read.cache_info().misses)
    assert errors[0] == errors[1] == errors[2]
    assert "[rhs] f2: bad expression" in errors[0]
    # Each later load reads every key before f2 from the cache, and
    # reads f2 again.
    assert misses[2] - misses[1] == misses[1] - misses[0] == 1


def test_solve_compiles_each_forcing_once_unbound(monkeypatch):
    """A solve compiles f1 and f2 unbound once each, for every check
    that evaluates them, plus once each bound to the operator's points."""
    import fracbvp.verify  # noqa: F401  (solve imports it; bind it now)
    calls = []
    real = fracbvp.exprlang.compile_expr

    def counting(e, variables=VARIABLES, *, bind=None):
        if variables == VARIABLES:
            calls.append((to_source(e), bind is not None))
        return real(e, variables, bind=bind)

    for name, mod in list(sys.modules.items()):
        if name.startswith("fracbvp") and hasattr(mod, "compile_expr"):
            monkeypatch.setattr(mod, "compile_expr", counting)
    assert main(["solve", "sublinear", "--grid-n", "32"]) == 0
    spec = resolve_problem("sublinear").spec
    forcings = {to_source(spec.f1), to_source(spec.f2)}
    assert sorted(calls) == sorted(
        (f, bound) for f in forcings for bound in (False, True))
