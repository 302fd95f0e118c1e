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
from pathlib import Path

import numpy as np
import pytest

import fracbvp
import fracbvp.solver as solver_mod
from fracbvp import (
    MonotonicityError,
    ProblemFileError,
    format_problem,
    load_problem,
    packaged_problem_names,
    resolve_problem,
)
from fracbvp.cli import main

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
    doc = json.loads(capsys.readouterr().out)
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
    doc = json.loads(capsys.readouterr().out)
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
    ver = json.loads((out_dir / "verification.json").read_text())
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


@pytest.mark.parametrize("argv", [
    ["solve", "lipschitz", "--max-iter", "0"],
    ["solve", "lipschitz", "--theta", "0"],
    ["solve", "lipschitz", "--theta", "-1"],
    ["solve", "lipschitz", "--theta", "inf"],
    ["solve", "lipschitz", "--tol", "-1"],
    ["solve", "lipschitz", "--tol", "nan"],
    ["solve", "lipschitz", "--grid-n", "8"],
    ["check", "sublinear", "--tol", "-1"],
    ["check", "sublinear", "--samples", "-1"],
    ["check", "sublinear", "--samples", "0"],
    ["check", "sublinear", "--seed", "-1"],
    ["solve", "sublinear", "--seed", "-1"],
    ["kernel-dump", "sublinear", "--points", "-3"],
    ["kernel-dump", "sublinear", "--points", "0"],
    ["kernel-dump", "sublinear", "--tol", "0"],
    ["check", "sublinear", "--tol", "inf"],
    ["kernel-dump", "sublinear", "--tol", "inf"],
    ["solve", "lipschitz", "--tol", "inf", "--grid-n", "16"],
    ["kernel-dump", "sublinear", "--t-max", "inf", "--points", "3"],
], ids=" ".join)
def test_bad_flag_values_exit_four(capsys, argv):
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("error: ")


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
    doc = json.loads(target.read_text())
    assert len(doc["t"]) == 4
    assert len(doc["k1"]) == 4 and len(doc["k1"][0]) == 4
