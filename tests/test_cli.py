"""Problem-file loader and the command-line entry point with its
exit-code contract:

    0  solved / all hypotheses hold
    2  a hypothesis fails or no scheme is licensed
    3  iteration budget exhausted before the tolerance
    4  unusable input (file, flags, expressions)
"""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_exprlang import _extend, _leaves
from test_outside_users import _drop_seconds

import fracbvp
import fracbvp.solver as solver_mod
from fracbvp import (
    MonotonicityError,
    ProblemFileError,
    load_problem,
    packaged_problem_names,
    parse,
    resolve_problem,
    to_source,
)
from fracbvp.cli import _json, _read, _table, main
from fracbvp.exprlang import VARIABLES, ExprError, Var
from fracbvp.problem import _H4_SAMPLES, CONSTANT_NAMES

# The directory holding the fracbvp package the suite imports, which the
# fresh interpreters below run.
_ROOT = str(Path(fracbvp.__file__).resolve().parent.parent)
_BOTH = str(Path(__file__).parent / "data" / "both.prob")

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
            ("tol = inf", "bad expression: unknown identifier 'inf'"),
            ("tol = 1e999", "must be positive and finite, got inf"),
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


_T_SAMPLE = np.geomspace(1e-3, 1e3, 25)


def _functions(spec):
    """Every weight and coefficient function of a spec, in a fixed order."""
    fns = [h for h in (spec.h1, spec.h2) if h is not None]
    if spec.growth is not None:
        fns += [*spec.growth.a1, *spec.growth.a2]
    if spec.lipschitz is not None:
        fns += [*spec.lipschitz.b1, *spec.lipschitz.b2]
    return fns


def _on_sample(fn):
    """fn's values on _T_SAMPLE as bytes, or its error's message."""
    try:
        return fn(_T_SAMPLE).tobytes()
    except ExprError as exc:
        return str(exc)


@settings(deadline=None, max_examples=40)
@given(_problem_texts())
def test_loads_are_deterministic_on_random_problems(text):
    """Two loads of one text, each parsing and compiling afresh, agree
    on every value bit for bit."""
    loads = []
    for _ in range(2):
        _read.cache_clear()
        loads.append(load_problem(text))
    a, b = loads
    assert (a.solver, a.expected, a.sections) == (b.solver, b.expected,
                                                  b.sections)
    assert (a.spec.f1, a.spec.f2) == (b.spec.f1, b.spec.f2)
    assert (a.spec.alpha1, a.spec.alpha2, a.spec.monotone) == (
        b.spec.alpha1, b.spec.alpha2, b.spec.monotone)
    if a.spec.growth is not None:
        assert (a.spec.growth.lam1, a.spec.growth.lam2) == (
            b.spec.growth.lam1, b.spec.growth.lam2)
    fa, fb = _functions(a.spec), _functions(b.spec)
    assert len(fa) == len(fb)
    for x, y in zip(fa, fb):
        assert replace(x, fn=None) == replace(y, fn=None)
        assert _on_sample(x.fn) == _on_sample(y.fn)


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


def test_solve_refuses_a_theta_whose_plan_leaves_float_range(tmp_path,
                                                             capsys):
    # theta = 1e-300 puts t_1/4^7 where s^(alpha_1 - 1) underflows to 0:
    # the chains once "converged" on that grid, and the flag and the
    # [solver] key are refused alike, each under its own name.
    p = tmp_path / "free.prob"
    text = MINIMAL.replace(_LIPS, _LIPS.replace("= exp", "= 0.1*exp"))
    p.write_text(text)
    assert main(["solve", str(p), "--grid-n", "16", "--theta", "1e-300"]) == 4
    assert capsys.readouterr().err.startswith("error: --theta: ")
    p.write_text(text + "\n[solver]\nn = 16\ntheta = 1e-300\n")
    assert main(["solve", str(p)]) == 4
    assert capsys.readouterr().err.startswith("error: [solver] theta: ")


@pytest.mark.parametrize("argv", [
    # h1 ~ t^(-1.5) overflows at the plan's smallest point s, 3e-209.
    ["sublinear", "--grid-n", "16", "--theta", "1e-200"],
    # Both ends of the band where the cubic reconstruction of the rows
    # overflowed (1/h^3), once "converged" with a numpy warning.
    ["sublinear", "--grid-n", "16", "--theta", "1e-145"],
    ["lipschitz", "--grid-n", "64", "--theta", "1e-195"],
    # Node gaps whose cube overflows, and product weights that do.
    ["sublinear", "--grid-n", "16", "--theta", "1e110"],
    ["sublinear", "--grid-n", "16", "--theta", "1e150"],
    # Grid.make's nodes underflow to 0.
    ["sublinear", "--grid-n", "16", "--theta", "5e-324"],
    ["lipschitz", "--grid-n", "16", "--theta", "1e-300"],
    ["sublinear", "--grid-n", "16", "--theta", "1e-150"],
], ids=" ".join)
def test_solve_names_theta_for_a_plan_out_of_float_range(capsys, argv):
    assert main(["solve", *argv]) == 4
    assert capsys.readouterr().err.startswith(
        f"error: --theta: {float(argv[-1])!r} on an n={argv[2]} grid: ")


def test_solve_runs_at_both_ends_of_the_theta_range(capsys):
    # At n = 16 the plan holds theta from about 3e-101 to 4e100.  Past
    # t_N the reconstruction of the rows is flat, so its cubic is never
    # taken far beyond the last node gap.
    for theta in ("1e-100", "1e100"):
        assert main(["solve", "sublinear", "--grid-n", "16", "--theta",
                     theta, "--json"]) == 0
        ver = json.loads(capsys.readouterr().out)["verification"]
        assert math.isfinite(ver["bc_residual_1"])
        assert math.isfinite(ver["bc_residual_2"])


def test_spot_entries_below_the_first_node_are_flagged(capsys):
    # theta 1e100 puts t_1 at 5.3e97, above every spot-check point: the
    # rows there hold only the anchor at 0 and t_1.
    assert main(["solve", "sublinear", "--grid-n", "16", "--theta",
                 "1e100", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)["verification"][
        "ode_residuals"]
    assert len(entries) == 6
    for e in entries:
        assert e["low_confidence"] is True
        assert e["note"].startswith("t lies below the first grid node t_1 = ")


def test_solve_formats_output_files_only_for_out(monkeypatch, capsys,
                                                 tmp_path):
    calls = []
    monkeypatch.setattr(fracbvp.cli, "_table", lambda h, c, real=_table:
                        calls.append("table") or real(h, c))
    monkeypatch.setattr(fracbvp.cli, "_json", lambda doc, real=_json:
                        calls.append("json") or real(doc))
    assert main(["solve", "sublinear", "--grid-n", "16"]) == 0
    assert calls == []
    assert main(["solve", "sublinear", "--grid-n", "16",
                 "--out", str(tmp_path)]) == 0
    assert sorted(calls) == ["json"] + ["table"] * 4
    assert len(list(tmp_path.iterdir())) == 5


def _csv_cells(text: str) -> tuple[list[str], dict[str, list[str]]]:
    """The `# ` header lines and the columns of one written table."""
    lines = text.split("\n")
    assert lines.pop() == ""  # every line ends in \n
    header = [line for line in lines if line.startswith("# ")]
    names, *rows = lines[len(header):]
    return header, dict(zip(names.split(","),
                            map(list, zip(*(r.split(",") for r in rows)))))


def test_solve_out_tables_are_the_json_document(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "sublinear", "--grid-n", "16", "--json",
                 "--out", str(out)]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert not any(b"\r" in f.read_bytes() for f in out.iterdir())
    want_header = [f"# {k}: {v!r}" if isinstance(v, float) else f"# {k}: {v}"
                   for k, v in doc["config"].items()]
    for chain in ("lower", "upper"):
        header, cols = _csv_cells(
            (out / f"solution-{chain}.csv").read_text())
        assert header == want_header
        assert cols == {k: list(map(repr, v))
                        for k, v in doc[chain]["solution"].items()}
        header, cols = _csv_cells((out / f"trace-{chain}.csv").read_text())
        trace = doc[chain]["trace"]
        assert header == want_header
        assert cols == {
            "iteration": [str(k) for k in range(len(trace["norms"]))],
            "norm": list(map(repr, trace["norms"])),
            **{col: [""] + list(map(repr, trace[key])) for col, key in (
                ("diff", "diffs"), ("violations", "violations"),
                ("seconds", "seconds"))}}


def test_kernel_dump_text_is_its_json_in_long_format(tmp_path, capsys):
    argv = ["kernel-dump", "sublinear", "--points", "4"]
    assert main([*argv, "--json"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert main(argv) == 0
    text = capsys.readouterr().out
    _, cols = _csv_cells(text)
    pairs = [(i, j) for i in range(4) for j in range(4)]
    assert cols["t"] == [repr(doc["t"][i]) for i, _ in pairs]
    assert cols["s"] == [repr(doc["s"][j]) for _, j in pairs]
    for k in ("k1", "k2", "kstar1", "kstar2"):
        assert cols[k] == [repr(doc[k][i][j]) for i, j in pairs]
    for k in ("k1_bound", "k2_bound"):
        assert cols[k] == [repr(doc[k][i]) for i, _ in pairs]
    for k in ("kstar1_bound", "kstar2_bound"):
        assert cols[k] == [repr(doc[k])] * 16
    assert main([*argv, "--out", str(tmp_path / "k.csv")]) == 0
    assert (tmp_path / "k.csv").read_text() == text


def test_state_expressions_skip_the_free_variable_walk(monkeypatch):
    # parse emits Var only for names in VARIABLES, so f1 and f2 have no
    # free variable to refuse; expr(t) keys and constants keep the check.
    import fracbvp.cli as cli_mod
    seen, real = [], cli_mod.free_variables
    monkeypatch.setattr(cli_mod, "free_variables",
                        lambda e: seen.append(to_source(e)) or real(e))
    _read.cache_clear()
    lp = load_problem((Path(fracbvp.__file__).parent / "problems"
                       / "sublinear.prob").read_text())
    assert not {to_source(lp.spec.f1), to_source(lp.spec.f2)} & set(seen)
    assert all(to_source(parse(text)) in seen
               for key, text in lp.sections["growth"].items() if key[0] == "a")
    with pytest.raises(ProblemFileError, match=r"unknown variable.*u1"):
        load_problem(_with("[growth]\n" + "\n".join(
            f"a{i}{k} = u1" for i in (1, 2) for k in range(5))
            + "\nlambda1 = 1, 1, 1, 1\nlambda2 = 1, 1, 1, 1\n"))


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


_NON_FINITE = "not a constant: non-finite value"
_NOT_A_NUMBER = "bad expression: unknown identifier"


@pytest.mark.parametrize("old, new, why", [
    ("alpha1 = 2.5", "alpha1 = 1/0", _NON_FINITE),
    ("alpha1 = 2.5", "alpha1 = (-8)^(1/3)", _NON_FINITE),
    ("h1_decay = 1\n", "h1_decay = log(0)\n", _NON_FINITE),
    ("scheme = monotone", "scheme = monotone\ntheta = 10^400", _NON_FINITE),
    ("a24 = pi", "a24 = pi\nm = sqrt(-1)", _NON_FINITE),
    # Numbers are read by the expression grammar, which spells no nan or
    # inf; a literal that overflows meets the evaluator's check.
    ("L = 4.03638", "L = nan", _NOT_A_NUMBER),
    ("gamma_alpha1 = 1.32934", "gamma_alpha1 = inf", _NOT_A_NUMBER),
    ("h1_decay = 1\n", "h1_decay = inf\n", _NOT_A_NUMBER),
    ("lambda1 = 0.1, 0.3", "lambda1 = nan, 0.3", _NOT_A_NUMBER),
    ("L = 4.03638", "L = 1e999", _NON_FINITE),
    ("lambda1 = 0.1, 0.3", "lambda1 = 1e999, 0.3", _NON_FINITE),
], ids=["division", "complex-root", "log", "overflow", "sqrt",
        "literal-nan", "literal-inf", "literal-decay", "literal-exponent",
        "literal-overflow", "literal-overflow-exponent"])
def test_non_finite_constant_exits_four(tmp_path, capsys, old, new, why):
    text = (Path(fracbvp.__file__).parent / "problems"
            / "sublinear.prob").read_text()
    assert old in text
    p = tmp_path / "bad.prob"
    p.write_text(text.replace(old, new, 1))
    assert main(["check", str(p)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err


@pytest.mark.parametrize("old, new, key", [
    ("L = 4.03638", "L = 4.036_38", "[expected] L"),
    ("alpha1 = 2.5", "alpha1 = \u0662.\u0665", "[orders] alpha1"),
    ("alpha1 = 2.5", "alpha1 = 2_5e-1", "[orders] alpha1"),
    ("alpha1 = 2.5", "alpha1 = 2_5e-1*1", "[orders] alpha1"),
    ("scheme = monotone", "scheme = monotone\nn = \u0661\u0666",
     "[solver] n"),
    ("scheme = monotone", "scheme = monotone\nn = 1_6", "[solver] n"),
], ids=["underscore", "arabic-indic", "underscore-exponent",
        "underscore-in-expression", "integer-arabic-indic",
        "integer-underscore"])
def test_numbers_follow_the_expression_grammar(tmp_path, capsys, old, new,
                                               key):
    # float() and int() read these literals; the grammar (ASCII digits,
    # no _) does not, and every number in a problem file is read by it.
    text = (Path(fracbvp.__file__).parent / "problems"
            / "sublinear.prob").read_text()
    assert old in text
    p = tmp_path / "bad.prob"
    p.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main(["check", str(p)]) == 4
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


@pytest.mark.parametrize("old, new, key, variables", [
    ("alpha1 = 2.5", "alpha1 = Infinity", "[orders] alpha1", "none"),
    ("lambda1 = 0.1, 0.3", "lambda1 = 0.1, x", "[growth] lambda1", "none"),
    ("a14 = 1/(1+t^2)", "a14 = 1/(1+x^2)", "[growth] a14", "t"),
    ("f2 = 1/(20+t)^3", "f2 = 1/(20+x)^3", "[rhs] f2",
     ", ".join(VARIABLES)),
], ids=["constant", "exponents", "expr-t", "expr"])
def test_an_unknown_name_lists_the_variables_of_its_key(
        tmp_path, capsys, old, new, key, variables):
    text = (Path(fracbvp.__file__).parent / "problems"
            / "sublinear.prob").read_text()
    assert old in text
    p = tmp_path / "bad.prob"
    p.write_text(text.replace(old, new, 1))
    assert main(["check", str(p)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: bad expression: unknown "
                          f"identifier ")
    assert f"; variables are {variables}, functions are " in err


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
    ["check", "sublinear", "--tol", "1e-9"],
]
# H4 reads one fixed point set, so no subcommand takes a seed.
_UNRECOGNIZED = [*_SOLVE_ONLY_FLAGS,
                 ["check", "sublinear", "--seed", "1"],
                 ["solve", "sublinear", "--seed", "1"]]


@pytest.mark.parametrize("argv", [
    ["solve", "lipschitz", "--max-iter", "0"],
    ["solve", "lipschitz", "--theta", "0"],
    ["solve", "lipschitz", "--theta", "-1"],
    ["solve", "lipschitz", "--theta", "inf"],
    ["solve", "lipschitz", "--tol", "-1"],
    ["solve", "lipschitz", "--tol", "nan"],
    ["solve", "lipschitz", "--grid-n", "8"],
    ["kernel-dump", "sublinear", "--points", "-3"],
    ["kernel-dump", "sublinear", "--points", "0"],
    ["solve", "lipschitz", "--tol", "inf", "--grid-n", "16"],
    ["kernel-dump", "sublinear", "--t-max", "inf", "--points", "3"],
    ["kernel-dump", "sublinear", "--t-max", "1e300", "--points", "3"],
    ["solve", "sublinear", "--grid-n", "16", "--theta", "1e300"],
    *_UNRECOGNIZED,
    # Paths that cannot be read or written, under a scratch directory
    # {tmp} that holds a regular file, a UTF-16 file and a directory
    # named like a problem file: the error names the path.
    ["check", "{tmp}"],
    ["check", "{tmp}/not-a-file.prob"],
    ["check", "{tmp}/utf16.prob"],
    # Names longer than a file name may be, as a path and with .prob.
    ["check", "{tmp}/" + "x" * 256],
    ["check", "x" * 252],
    ["solve", "sublinear", "--grid-n", "16", "--out", "{tmp}/file"],
    ["kernel-dump", "sublinear", "--points", "3", "--out",
     "{tmp}/missing/x.csv"],
], ids=" ".join)
def test_bad_flag_values_exit_four(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    (tmp_path / "utf16.prob").write_bytes(MINIMAL.encode("utf-16"))
    (tmp_path / "not-a-file.prob").mkdir()
    path = next((a.format(tmp=tmp_path) for a in argv if "{tmp}" in a), None)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 4
    err = capsys.readouterr().err
    if argv in _UNRECOGNIZED:
        assert err.endswith("error: unrecognized arguments: "
                            + " ".join(argv[2:]) + "\n")
    else:
        assert err.startswith("error: ")
    if path is not None:
        assert path in err, err
    elif argv[0] == "solve" and argv not in _UNRECOGNIZED:
        # A solve flag out of range is named as the flag, not as the
        # [solver] key it overrides.
        flag = re.match(r"error: (--[a-z-]+): ", err)
        assert flag and flag[1] in argv, err


def test_a_utf8_byte_order_mark_is_read_past(tmp_path, capsys):
    # An editor may write the UTF-8 byte order mark in front of the file;
    # the INI text starts after it.
    packaged = Path(fracbvp.__file__).parent / "problems" / "lipschitz.prob"
    marked = tmp_path / "lipschitz.prob"
    marked.write_bytes(b"\xef\xbb\xbf" + packaged.read_bytes())
    docs = []
    for path in (packaged, marked):
        assert main(["check", str(path), "--json"]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]


def test_solve_makes_out_before_any_work(tmp_path, monkeypatch, capsys):
    # An --out that cannot be a directory is found before the report,
    # the kernels and the chains run.
    def no_work(*args, **kwargs):
        raise AssertionError("the solve ran before --out was made")

    monkeypatch.setattr(fracbvp.cli, "build_report", no_work)
    path = tmp_path / "file"
    path.write_text("")
    assert main(["solve", "sublinear", "--grid-n", "128",
                 "--out", str(path)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: [Errno 17] File exists: '{path}'\n"
    # A directory that can be made stays made, even when the run is
    # refused before it writes anything.
    monkeypatch.undo()
    refused = tmp_path / "refused"
    assert main(["solve", "sublinear", "--scheme", "contraction",
                 "--out", str(refused)]) == 2
    assert refused.is_dir() and not list(refused.iterdir())


@pytest.mark.parametrize("argv", [
    ["solve", "sublinear", "--grid-n", "16", "--out", ""],
    ["kernel-dump", "sublinear", "--out", ""],
], ids=["solve", "kernel-dump"])
def test_an_empty_out_exits_four(monkeypatch, capsys, argv):
    # An empty --out names no path: it is refused before the problem is
    # read, not taken as absent (no table on stdout, no unwritten files).
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran with an empty --out")

    monkeypatch.setattr(fracbvp.cli, "resolve_problem", no_work)
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"fracbvp {argv[0]}: error: argument --out: must "
                        f"name a path, got ''\n")


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 9.31 GiB for an array with shape (100000, 100000) "
     "and data type float64",
     "error: Unable to allocate 9.31 GiB for an array with shape (100000, "
     "100000) and data type float64\n"),
    ("", "error: MemoryError\n"),
])
def test_a_failed_allocation_exits_four(monkeypatch, capsys, message, line):
    def too_big(self, t, s):
        raise MemoryError(message)

    monkeypatch.setattr(fracbvp.cli.KernelSet, "k_grid", too_big)
    assert main(["kernel-dump", "sublinear", "--points", "3"]) == 4
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("argv, pattern", [
    # The ODE spot-check's half-line tails evaluate 8 doublings at a
    # time, in one batch per equation with no warning filter.
    (["sublinear", "--grid-n", "128"], r"monotone scheme, n=128"),
    (["lipschitz", "--grid-n", "32"], r"contraction scheme, n=32"),
    (["lipschitz", "--grid-n", "128"], r"contraction scheme, n=128"),
    # A problem that licenses both schemes runs under each of them.
    ([_BOTH, "--grid-n", "32", "--scheme", "monotone"],
     r"monotone scheme, n=32(.|\n)*ordering holds"),
    ([_BOTH, "--grid-n", "32", "--scheme", "contraction"],
     r"contraction scheme, n=32(.|\n)*geometric bound holds"),
], ids=["sublinear-128", "lipschitz-32", "lipschitz-128", "both-monotone",
        "both-contraction"])
def test_solves_converge_without_a_warning(capsys, argv, pattern):
    assert main(["solve", *argv]) == 0
    out = capsys.readouterr().out
    assert re.search(pattern, out), out
    assert "fixed-point residual" in out


@pytest.mark.parametrize("argv", [
    ["check", "sublinear", "--json"],
    ["solve", "lipschitz", "--grid-n", "32", "--json"],
], ids=" ".join)
def test_json_documents_are_strict(capsys, argv):
    assert main(argv) == 0
    assert _strict_json(capsys.readouterr().out)


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


_SUBLINEAR_BOUNDARY = """[boundary]
h1 = t^(-1.5)*exp(-t)
h1_exponent = -1.5
h1_decay = 1
h2 = t^(-0.5)*exp(-2*t)
h2_exponent = -0.5
h2_decay = 2

"""
_SUBLINEAR_F1 = ("f1 = 2/(10+t)^2 + exp(-t)*abs(u1)^0.1/(1+sqrt(t^3))^0.1 + "
                 "exp(-2*t)*abs(u2)^0.3/(1+sqrt(t))^0.3 + "
                 "2*t*abs(u3)^0.2/(3+t^2)^2 + abs(u4)^0.4/(1+t^2)\n")

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
        ("solve", ["--grid-n", "32"], 0, r"monotone scheme, n=32"),
    ]),
    # The lowest orders, alpha_i - 1 just above 0, without boundary
    # weights: the plan's product weights on the singular panels.
    "orders-2.01-1.01-no-boundary": ("sublinear", [
            ("alpha1 = 2.5", "alpha1 = 2.01"), ("alpha2 = 1.5", "alpha2 = 1.01"),
            (_SUBLINEAR_BOUNDARY, "")], [
        ("solve", ["--grid-n", "32"], 0, r"monotone scheme, n=32(.|\n)*"
                                         r"ordering holds"),
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
        ("check", [], 2, r"H2 FAIL.*\n      a13 is negative at t=0\.0001\n"),
        ("solve", [], 2, r"licensed\n  H2 fails \(a13 is negative at "
                         r"t=0\.0001\)\n$"),
    ]),
    # Coefficients negative only below t = 0.0005: the sign checks read
    # the same 64 points on [1e-4, 1e4] as H1's weights.
    "h2-negative-below-0.0005": ("sublinear", [
            ("a10 = 2/(10+t)^2", "a10 = (t - 0.0005)*exp(-t)")], [
        ("check", [], 2, r"H2 FAIL.*\n      a10 is negative at t=0\.0001\n"),
    ]),
    "h3-negative-below-0.0005": ("lipschitz", [
            ("b11 = exp(-20*t)/(1+sqrt(t^3))",
             "b11 = (t - 0.0005)*exp(-20*t)/(1+sqrt(t^3))"),
            ("exp(-20*t)*abs(u1)/(1+sqrt(t^3))",
             "(t - 0.0005)*exp(-20*t)*abs(u1)/(1+sqrt(t^3))")], [
        ("check", [], 2, r"H3 FAIL.*\n      b11 is negative at t=0\.0001\n"),
    ]),
    "h3-fails": ("lipschitz", [("b11 = exp", "b11 = -exp")], [
        ("check", [], 2, r"H3 FAIL.*\n      b11 is negative at t=0\.0001\n"),
        ("solve", [], 2, r"licensed\n  H3 fails \(b11 is negative at "
                         r"t=0\.0001\)\n$"),
        # Without a passing H3 the b*'s bound nothing: no m, no r.
        ("check", ["--json"], 2, r'"m": null,\n  "R": null,\n  "r": null,'),
    ]),
    # sigma1 + alpha1 - 1 = -1: h1 t^(alpha1-1) is not integrable at 0.
    # A weight negative everywhere: Lambda1 = -1 is below Gamma(alpha1),
    # but the kernels would break their own bound columns.
    "h1-negative": ("sublinear", [("h1 = t^", "h1 = -t^")], [
        ("check", [], 2, r"H1 FAIL.*\n      h1 is negative at t=0\.0001\n"),
        ("kernel-dump", ["--points", "3"], 2,
         r"^kernels do not exist: h1 is negative at t=0\.0001\n$"),
    ]),
    # h1_exponent = 0 declares h1 regular at 0, which it is not: Lambda1's
    # quadrature does not converge, and H1 fails with its reason.
    "h1-exponent-0": ("sublinear", [("h1_exponent = -1.5",
                                     "h1_exponent = 0")], [
        ("check", [], 2, r"H1 FAIL.*\n      Lambda1 did not converge: "),
        ("solve", [], 2, r"licensed\n  H1 fails \(Lambda1 did not converge: "),
        ("kernel-dump", ["--points", "3"], 2, r"^kernels do not exist: "
         r"Lambda1 did not converge: quadrature did not converge in Lambda "
         r"integral \(alpha=2\.5\)"),
    ]),
    # A forcing that vanishes at the zero state fails H1, but the kernels
    # exist: kernel-dump tabulates them.
    "f1-vanishes": ("sublinear", [("f1 = 2/(10+t)^2 + ", "f1 = ")], [
        ("check", [], 2, r"f1\(t,0,0,0,0\) vanishes at all 64 log-spaced "
                         r"sample points\n"),
        ("kernel-dump", ["--points", "3"], 0, r"^# problem: f1-vanishes\n"),
    ]),
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
    # A true but loose decay hint: h1 decays like exp(-t), and the hint
    # says only exp(-t/1000).  The hint sets how far the tail walk runs
    # at least, never where the head ends, so Lambda1 stays 1; a hint
    # near the float floor needs no overflowing power of t.
    "h1-decay-1e-3": ("sublinear", [("h1_decay = 1\n", "h1_decay = 1e-3\n")], [
        ("check", [], 0, r"lambda1 = (0\.99999999999\d*|1\.0)\n(.|\n)*"
                         r"R = 32009\.41\d*\n(.|\n)*"
                         r"all applicable hypotheses hold"),
        ("solve", ["--grid-n", "32"], 0,
         r"monotone scheme, n=32(.|\n)*ordering holds"),
    ]),
    "h1-decay-1e-290": ("sublinear", [("h1_decay = 1\n",
                                       "h1_decay = 1e-290\n")], [
        ("check", [], 0, r"lambda1 = (0\.99999999999\d*|1\.0)\n(.|\n)*"
                         r"all applicable hypotheses hold"),
    ]),
    # Mass near t = 50 only, Lambda1 = 1.0000750028133205 (scipy's quad):
    # the hint keeps the walk from stopping at 4, before the mass.
    "h1-late-mass-with-hint": ("sublinear", [
            ("h1 = t^(-1.5)*exp(-t)", "h1 = exp(-(t-50)^2)/50^1.5/sqrt(pi)"),
            ("h1_exponent = -1.5", "h1_exponent = 0")], [
        ("check", [], 0, r"lambda1 = 1\.0000750028133\d*\n(.|\n)*"
                         r"all applicable hypotheses hold"),
    ]),
    # The same mass without a hint: the first panels of the doublings
    # ahead, fetched with [1, 2]'s, keep the walk going to the mass.
    "h1-late-mass-no-hint": ("sublinear", [
            ("h1 = t^(-1.5)*exp(-t)", "h1 = exp(-(t-50)^2)/50^1.5/sqrt(pi)"),
            ("h1_exponent = -1.5", "h1_exponent = 0"),
            ("h1_decay = 1\n", "")], [
        ("check", [], 0, r"lambda1 = 1\.0000750028133\d*\n(.|\n)*"
                         r"all applicable hypotheses hold"),
    ]),
    # An envelope integral takes no hint: a10's mass near t = 50 is sqrt(pi).
    "a10-late-mass": ("sublinear", [("a10 = 2/(10+t)^2",
                                     "a10 = exp(-(t-50)^2)")], [
        ("check", [], 0, r"\n  a10 = 1\.77245385090\d*\n"),
    ]),
    # Mass near t = 1000, beyond 256 T0 after an empty stretch, still
    # needs the hint: h1_decay = 0.01 walks on to 4500.
    "h1-far-mass-with-hint": ("sublinear", [
            ("h1 = t^(-1.5)*exp(-t)",
             "h1 = exp(-(t-1000)^2)/1000^1.5/sqrt(pi)"),
            ("h1_exponent = -1.5", "h1_exponent = 0"),
            ("h1_decay = 1\n", "h1_decay = 0.01\n")], [
        ("check", [], 0, r"lambda1 = 1\.00000018750001\d*\n(.|\n)*"
                         r"all applicable hypotheses hold"),
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
    # a24 is not finite on (0.0046, 0.0047), which holds its first
    # quadrature node (0.00461) and no point of the sign check: the
    # earlier a11 still decides (exit 2).  a11 not finite on (0.0011,
    # 0.0012), which holds a node of its refinement (0.00115) and no
    # point of the sign check, decides with its own error (exit 4).
    "a24-not-finite-after-a11-diverges": ("sublinear", [
            ("a11 = exp(-t)/(1+sqrt(t^3))^0.1", "a11 = 1/(1+t)"),
            ("a24 = 2/(1+t^2)",
             "a24 = 2/(1+t^2) + 0*sqrt((t - 0.0046)*(t - 0.0047))")], [
        ("check", [], 2, r"H2 FAIL.*\n      quadrature did not converge in "
                         r"envelope integral a11 \(value=3406\.580331937682, "
                         r"error_estimate=3\.371e\+02\)\n  H4 pass"),
    ]),
    "a11-not-finite-before-a24-diverges": ("sublinear", [
            ("a11 = exp(-t)/(1+sqrt(t^3))^0.1",
             "a11 = exp(-t) + 0*sqrt((t - 0.0011)*(t - 0.0012))"),
            ("a24 = 2/(1+t^2)", "a24 = 2/(1+t)")], [
        ("check", [], 4, r"^error: non-finite value from 'exp\(-t\) \+ 0\.0 \* "
                         r"sqrt\(\(t - 0\.0011\) \* \(t - 0\.0012\)\)' at "
                         r"sample index 24 \(t=0\.0011524603595800473\)\n$"),
    ]),
    # Trees too deep for the recursive walks over them, and parentheses
    # past Python's nesting limit, are refused as bad expressions.
    "f1-600-terms": ("sublinear", [("f1 = ", "f1 = " + "t + " * 595)], [
        ("check", [], 4, r"^error: \[rhs\] f1: bad expression: tree deeper "
                         r"than 500 levels at offset 0\n$"),
        ("solve", [], 4, r"^error: \[rhs\] f1: bad expression: tree deeper "
                         r"than 500 levels at offset 0\n$"),
    ]),
    "f1-600-exp-terms": ("sublinear", [
            (_SUBLINEAR_F1, "f1 = " + " + ".join(["exp(-t)"] * 600) + "\n")], [
        ("check", [], 4, r"^error: \[rhs\] f1: bad expression: tree deeper "
                         r"than 500 levels at offset 0\n$"),
    ]),
    # Python 3.11 refuses this one in ast.parse itself.
    "f1-3000-minus-signs": ("sublinear", [("f1 = ",
                                           "f1 = " + "-" * 3000 + "1 + ")], [
        ("check", [], 4, r"^error: \[rhs\] f1: bad expression: (nested too "
                         r"deeply|tree deeper than 500 levels) at offset "
                         r"\d+\n$"),
    ]),
    "f1-250-nested-parentheses": ("sublinear", [
            ("f1 = ", "f1 = " + "(" * 250 + "1" + ")" * 250 + " + ")], [
        ("check", [], 4, r"^error: \[rhs\] f1: bad expression: .+ at offset "
                         r"\d+\n$"),
    ]),
    # Python refuses a leading-zero integer; its advice (an 0o prefix)
    # does not fit the grammar, so the error says only where the number is.
    "h2-leading-zero": ("sublinear", [("h2 = t^", "h2 = 01*t^")], [
        ("check", [], 4, r"^error: \[boundary\] h2: bad expression: bad "
                         r"number at offset 0\n$"),
    ]),
    # (5 L a*_11)^(1/(1 - 0.995)) is past float range: R is left out and
    # the monotone scheme is blocked.
    "growth-exponent-0.995": ("sublinear", [("lambda1 = 0.1,",
                                             "lambda1 = 0.995,")], [
        ("check", [], 0, r"note: R is too large for a float: the term of "
                         r"slot a11 overflows\nresult: all applicable "
                         r"hypotheses hold"),
        ("check", ["--json"], 0, r'"R": null,'),
        ("solve", [], 2, r"licensed\n  no invariant-ball radius "
                         r"\(see report notes\)\n$"),
    ]),
    # R = 1.8e306 is a float, but R t^(alpha1-1)/(1+t^(alpha1-1)) at the
    # nodes is not: the dominating start breaks the scheme.
    "growth-exponent-0.9947": ("sublinear", [("lambda1 = 0.1,",
                                              "lambda1 = 0.9947,")], [
        ("check", [], 0, r"R = 1\.8\d*e\+306\n"),
        ("solve", [], 2, r"^scheme guarantee broke mid-run: dominating "
                         r"start with R=1\.8\d*e\+306: solution rows "
                         r"must be finite\n$"),
    ]),
    # A finite upper start whose interpolated states overflow: the
    # forcing's finiteness check breaks the scheme at the first step,
    # with no RuntimeWarning from the operator's arithmetic.
    "growth-exponent-0.9944": ("sublinear", [("lambda1 = 0.1,",
                                              "lambda1 = 0.9944,")], [
        ("solve", [], 2, r"^scheme guarantee broke mid-run: iteration 1: "
                         r"non-finite value from "),
    ]),
    "h4-fails": ("sublinear", [("f1 = 2/(10+t)^2",
                                "f1 = 2/(10+t)^2 - exp(-t)*abs(u1)/2")], [
        ("check", [], 2, r"H4 FAIL.*\n      " + _H4_FLOATS),
        ("solve", [], 2, r"licensed\n  H4 fails \(" + _H4_FLOATS),
    ]),
    # h1 = t^(-1.5) e^(-t) is 1e450 at t = 1e-300, where G's tabulation
    # meets it: the range is at fault, not the weight.
    "kernel-dump-t-beyond-the-weight": ("lipschitz", [], [
        ("kernel-dump", ["--points", "2", "--t-min", "1e-300", "--t-max",
                         "1e-299"], 4,
         r"^error: kernels are not finite for t in \[1e-300, 1e-299\]; "
         r"narrow --t-min/--t-max\n$"),
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
    # The ratio warning that precedes the break is a line on stderr, not
    # a RuntimeWarning, which tier 1 would raise.
    assert main(["check", str(p)]) == 0
    capsys.readouterr()
    assert main(["solve", str(p), "--grid-n", "16"]) == 2
    err = capsys.readouterr().err
    assert re.match(r"warning: difference ratios exceeded m \+ 0\.05 .*\n"
                    r"scheme guarantee broke mid-run: iteration \d+: "
                    r"non-finite value from ", err), err


def test_the_ratio_warning_is_in_the_json_trace(tmp_path, capsys):
    # The understated b24 of the overflow case above breaks m's promise
    # within 5 steps: the unconverged run prints the warning on stderr
    # and records it in its --json trace.
    p = tmp_path / "blowup.prob"
    p.write_text(_packaged_without_expected(
        "lipschitz", [("abs(u4)/(20*(1+t^2))", "2*abs(u4)/(1+t^2)")]))
    assert main(["solve", str(p), "--grid-n", "16", "--max-iter", "5",
                 "--json"]) == 3
    captured = capsys.readouterr()
    doc = _strict_json(captured.out)
    [w] = doc["trace"]["warnings"]
    assert w.startswith("difference ratios exceeded m + 0.05 = ")
    assert captured.err == f"warning: {w}\n"


_DEFECT_A = ("lipschitz", [("abs(u4)/(20*(1+t^2))", "2*abs(u4)/(1+t^2)")])


@pytest.mark.parametrize("problem, edits, key", [
    (*_DEFECT_A, "trace"),
    ("sublinear", [("lambda1 = 0.1,", "lambda1 = 0.9944,")], "upper"),
    ("sublinear", [("lambda1 = 0.1,", "lambda1 = 0.9947,")], None),
], ids=["contraction-overflow", "upper-chain-step", "dominating-start"])
def test_a_broken_run_prints_its_json_document(tmp_path, capsys, problem,
                                               edits, key):
    # A run that breaks mid-run keeps its exit code and stderr under
    # --json, and prints what it has: the breaking chain's trace up to
    # the break under its usual key, none for the dominating start.
    p = tmp_path / "broken.prob"
    p.write_text(_packaged_without_expected(problem, edits))
    assert main(["solve", str(p), "--grid-n", "16"]) == 2
    plain = capsys.readouterr()
    assert plain.out == ""
    assert main(["solve", str(p), "--grid-n", "16", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == plain.err
    doc = _strict_json(captured.out)
    assert list(doc) == ["problem", "scheme", "config", "converged",
                         "hypothesis", "broke"] + ([key] if key else [])
    assert doc["converged"] is False
    assert plain.err.splitlines()[-1] \
        == f"scheme guarantee broke mid-run: {doc['broke']}"
    if key == "trace":
        tr = doc["trace"]
        assert tr["scheme"] == "contraction" and not tr["converged"]
        assert doc["broke"].startswith(f"iteration {len(tr['diffs']) + 1}: ")
        [w] = tr["warnings"]
        assert plain.err == (f"warning: {w}\nscheme guarantee broke "
                             f"mid-run: {doc['broke']}\n")
    elif key == "upper":
        assert list(doc["upper"]) == ["trace"]
        assert doc["upper"]["trace"]["direction"] == "upper"
        assert doc["upper"]["trace"]["diffs"] == []


def test_verification_json_lists_the_run_warnings(tmp_path, capsys):
    p = tmp_path / "blowup.prob"
    p.write_text(_packaged_without_expected(*_DEFECT_A))
    out_dir = tmp_path / "run"
    assert main(["solve", str(p), "--grid-n", "16", "--max-iter", "5",
                 "--out", str(out_dir)]) == 3
    err = capsys.readouterr().err
    ver = _strict_json((out_dir / "verification.json").read_text())
    assert list(ver)[-1] == "warnings"
    [w] = ver["warnings"]
    assert w.startswith("difference ratios exceeded m + 0.05 = ")
    assert err == f"warning: {w}\n"


def test_a_state_free_forcing_solves_with_m_0(tmp_path, capsys):
    # With every b_ik = 0 the contraction modulus is 0: one step reaches
    # the fixed point, and the geometric bound holds with m = 0.
    text = _packaged_without_expected("lipschitz", [])
    text = re.sub(r"(?m)^f1 = .*", "f1 = 2/(10+t)^2", text)
    text = re.sub(r"(?m)^f2 = .*", "f2 = 1/(20+t)^3", text)
    p = tmp_path / "m0.prob"
    p.write_text(re.sub(r"(?m)^(b[12][1-4]) = .*", r"\1 = 0", text))
    assert main(["check", str(p)]) == 0
    assert "\n  m = 0.0\n" in capsys.readouterr().out
    assert main(["solve", str(p), "--grid-n", "16"]) == 0
    out = capsys.readouterr().out
    assert "m=0.0\niteration: a-posteriori bound" in out
    assert "<= tol after 1 steps\nerror-bound audit: geometric bound holds" \
        in out


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


def test_kernel_dump_is_the_same_twice_in_one_process(capsys):
    # Nothing a first dump computes changes what a second one prints.
    docs = []
    for _ in range(2):
        assert main(["kernel-dump", "sublinear", "--points", "6",
                     "--json"]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]


def _command(*argv: str) -> list[str]:
    return [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracbvp",
            *argv]


_ENV = {**os.environ, "PYTHONPATH": _ROOT}


def _fracbvp(*argv: str) -> subprocess.CompletedProcess:
    """One command in a fresh interpreter."""
    return subprocess.run(_command(*argv), capture_output=True, text=True,
                          timeout=300, env=_ENV)


@pytest.mark.parametrize("argv, code", [
    (["kernel-dump", "sublinear", "--json"], 0),
    (["solve", "sublinear", "--grid-n", "16", "--max-iter", "1", "--json"], 3),
])
def test_a_closed_stdout_keeps_the_exit_code(argv, code):
    """A reader gone before the first write (a pipe into `head -c 0`)
    costs neither a traceback nor the command's own exit code."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(_command(*argv), stdout=write_end,
                             stderr=subprocess.PIPE, text=True, timeout=300,
                             env=_ENV)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (code, "")


def test_a_reader_gone_mid_document_costs_nothing(capsys):
    """A reader that closes the pipe after 100 bytes (`| head -c 100`)
    of a document far longer than a pipe holds: no traceback, exit 0."""
    assert main(["kernel-dump", "sublinear", "--json"]) == 0
    assert len(capsys.readouterr().out) > 2 ** 17
    proc = subprocess.Popen(_command("kernel-dump", "sublinear", "--json"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_ENV)
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    finally:
        proc.kill()
    assert len(head) == 100
    assert (code, err) == (0, b"")


def test_two_fresh_solves_give_the_same_output(tmp_path):
    """Two processes print one document once timings are dropped, and
    write the same solution rows byte for byte."""
    runs = [_fracbvp("solve", "sublinear", "--grid-n", "64", "--json")
            for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    first, second = (_drop_seconds(json.loads(r.stdout)) for r in runs)
    assert first == second
    for out in ("a", "b"):
        run = _fracbvp("solve", "sublinear", "--grid-n", "32", "--out",
                       str(tmp_path / out))
        assert run.returncode == 0, run.stderr
    names = sorted(p.name for p in (tmp_path / "a").glob("solution*.csv"))
    assert names == ["solution-lower.csv", "solution-upper.csv"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name


def test_a_second_check_in_one_process_prints_the_first_document():
    # A fresh interpreter, so that the first check computes H2's
    # coefficient integrals and the second reads them from the memo.
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-c", """
import contextlib, io, json
from fracbvp.cli import main
docs = []
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["check", "sublinear", "--json"])
    docs.append([code, out.getvalue()])
print(json.dumps(docs))
"""], capture_output=True, text=True, timeout=300, env=_ENV)
    assert run.returncode == 0, run.stderr
    first, second = json.loads(run.stdout)
    assert first[0] == 0 and _strict_json(first[1])
    assert second == first


def test_solve_out_tables_end_lines_in_newline_alone(tmp_path):
    assert main(["solve", "lipschitz", "--grid-n", "16", "--out",
                 str(tmp_path)]) == 0
    files = list(tmp_path.iterdir())
    assert len(files) == 3
    assert not any(b"\r" in f.read_bytes() for f in files)


def test_loads_share_parsed_values(tmp_path, capsys):
    """_read keeps the parsed values of recent texts: a second load of a
    text shares them and gives the same report, a malformed value fails
    the same way on every load (a raised error is never kept), and the
    cache is bounded."""
    assert _read.cache_info().maxsize is not None
    path = tmp_path / "sub.prob"
    path.write_text((Path(fracbvp.__file__).parent / "problems"
                     / "sublinear.prob").read_text())
    loads = [load_problem(path.read_text()) for _ in range(2)]
    a, b = (lp.spec for lp in loads)
    assert a.f1 is b.f1 and a.f2 is b.f2
    # Each weight is rebuilt around its shared function.
    assert (a.h1, a.h2, a.growth) == (b.h1, b.h2, b.growth)
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
    that evaluates them (H4 included), plus once each bound to the
    operator's points."""
    import fracbvp.verify  # noqa: F401  (solve imports it; bind it now)
    calls = []
    real = fracbvp.exprlang.compile_expr

    def counting(e, variables=VARIABLES, *, bind=None):
        if variables == VARIABLES:
            assert bind is None or np.size(bind["t"]) != _H4_SAMPLES
            calls.append((to_source(e), "unbound" if bind is None
                          else "points"))
        return real(e, variables, bind=bind)

    for name, mod in list(sys.modules.items()):
        if name.startswith("fracbvp") and hasattr(mod, "compile_expr"):
            monkeypatch.setattr(mod, "compile_expr", counting)
    assert main(["solve", "sublinear", "--grid-n", "32"]) == 0
    spec = resolve_problem("sublinear").spec
    forcings = {to_source(spec.f1), to_source(spec.f2)}
    assert sorted(calls) == sorted(
        (f, bound) for f in forcings for bound in ("unbound", "points"))
