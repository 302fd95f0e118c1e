"""Hypothesis checks and derived scheme constants.

The two packaged problems have coefficient envelopes chosen so every
derived constant has a closed form; those closed forms are the oracles
here.  Tolerances are tighter than the quadrature default by a couple of
orders to catch regressions early.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import _reference_halfline

from fracbvp import (
    FracOrder,
    GrowthData,
    Integrand,
    LipschitzData,
    ProblemSpec,
    build_report,
    check_h1,
    check_h4,
    gamma,
)
from fracbvp import problem as problem_mod
from fracbvp.cli import load_problem
from fracbvp.exprlang import compile_expr, parse
from fracbvp.quad import DEFAULT_TOL

GA1 = gamma(2.5)
GA2 = gamma(1.5)


def test_boundary_couplings(report_sublinear):
    lam1, lam2 = report_sublinear.lam
    assert abs(lam1 - 1.0) < 1e-9
    assert abs(lam2 - 0.5) < 1e-9


def test_sup_constants(report_sublinear, report_lipschitz):
    for rep in (report_sublinear, report_lipschitz):
        l1, l2 = rep.L_pair
        assert l1 == pytest.approx(1.0 / (GA1 - 1.0), abs=1e-9)
        assert l2 == pytest.approx(1.0 / (GA2 - 0.5), abs=1e-9)
        assert rep.L == pytest.approx(GA1 / (GA1 - 1.0), abs=1e-9)
        assert rep.L == pytest.approx(4.036372203023192, abs=1e-9)


def test_growth_envelope_integrals(report_sublinear):
    want1 = (0.2, 1.0, 0.5, 1.0 / 3.0, math.pi / 2.0)
    want2 = (1.0 / 800.0, 1.0 / 3.0, 0.25, 1.0 / 3.0, math.pi)
    got1, got2 = report_sublinear.a_star
    for got, want in ((got1, want1), (got2, want2)):
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-8, (got, want)


def test_lipschitz_integrals(report_lipschitz):
    want1 = (1.0 / 20.0, 1.0 / 15.0, 1.0 / 30.0, 1.0 / 20.0)
    want2 = (1.0 / 18.0, 1.0 / 16.0, 1.0 / 21.0, math.pi / 40.0)
    got1, got2 = report_lipschitz.b_star
    for got, want in ((got1, want1), (got2, want2)):
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-8, (got, want)


def test_forcing_integrals(report_lipschitz):
    tau1, tau2 = report_lipschitz.tau
    assert abs(tau1 - 0.2) < 1e-9        # int 2/(10+t)^2 = 2/10
    assert abs(tau2 - 1.0 / 800.0) < 1e-9  # int 1/(20+t)^3 = 1/(2*400)


@pytest.mark.parametrize("name", ["sublinear", "lipschitz"])
def test_batched_constants_equal_one_integral_references(request, name):
    # build_report integrates each section's constants as the jobs of one
    # batch; each must be bit for bit the unbatched one-integral route
    # (conftest's oracle) on its own weighted coefficient.
    p = request.getfixturevalue(name)
    rep = request.getfixturevalue(f"report_{name}")
    weights = (None, p.alpha1.q - 1.0, p.alpha2.q - 1.0, None, None)

    def reference(c, k, power):
        w = weights[k]
        fn = c.fn if w is None or power == 0.0 else (
            lambda t: np.asarray(c.fn(t)) * (1.0 + t ** w) ** power)
        return _reference_halfline(replace(c, fn=fn), DEFAULT_TOL).value

    pairs = []
    if p.growth is not None:
        g = p.growth
        for i, (row, lams) in enumerate(((g.a1, g.lam1), (g.a2, g.lam2))):
            pairs += [(rep.a_star[i][k], reference(c, k, (0.0, *lams)[k]))
                      for k, c in enumerate(row)]
    if p.lipschitz is not None:
        b = p.lipschitz
        for i, row in enumerate((b.b1, b.b2)):
            pairs += [(rep.b_star[i][k - 1], reference(c, k, 1.0))
                      for k, c in enumerate(row, start=1)]
        for i, f in enumerate((p.f1, p.f2)):
            f0 = compile_expr(f)
            tau = Integrand(lambda t, f0=f0: np.abs(np.asarray(
                f0(t, *[np.zeros_like(t)] * 4))))
            pairs.append((rep.tau[i], reference(tau, 0, 0.0)))
    assert len(pairs) == 10
    assert [got for got, _ in pairs] == [want for _, want in pairs]


def test_contraction_modulus_value(report_lipschitz):
    column = max(sum(report_lipschitz.b_star[0]),
                 sum(report_lipschitz.b_star[1]))
    assert report_lipschitz.m == pytest.approx(
        report_lipschitz.L * column, rel=1e-12)
    assert report_lipschitz.m == pytest.approx(0.985740294457121, abs=1e-9)
    assert report_lipschitz.m < 1.0


def test_ball_radii(report_sublinear, report_lipschitz):
    # Dominant slot of R: exponent 0.6 on the pi-weighted envelope.
    want_R = (5.0 * report_sublinear.L * math.pi) ** 2.5
    assert report_sublinear.R == pytest.approx(want_R, rel=1e-9)
    rep = report_lipschitz
    assert rep.r == pytest.approx(
        rep.L * max(rep.tau) / (1.0 - rep.m), rel=1e-12)


def test_verdict_sets(report_sublinear, report_lipschitz):
    assert set(report_sublinear.verdicts) == {"H1", "H2", "H4"}
    assert set(report_lipschitz.verdicts) == {"H1", "H3"}
    assert report_sublinear.passed
    assert report_lipschitz.passed
    # H4 is settled with the growth data: lipschitz has none, so H4 does
    # not run and nothing else blocks the monotone scheme.
    assert not any("claim" in n for n in report_lipschitz.notes)
    assert report_lipschitz.blockers["monotone"] == ("no growth data",)


def test_declared_value_mismatch_is_flagged(report_lipschitz):
    # The packaged file declares tau2 = pi/8000 on purpose; the computed
    # forcing integral is 1/800 and the report must say so.
    names = [d.name for d in report_lipschitz.discrepancies]
    assert names == ["tau2"]
    d = report_lipschitz.discrepancies[0]
    assert d.computed == pytest.approx(1.0 / 800.0, abs=1e-9)
    assert d.expected == pytest.approx(math.pi / 8000.0, abs=1e-12)
    assert d.difference == pytest.approx(1.0 / 800.0 - math.pi / 8000.0,
                                         abs=1e-9)


def test_matching_declarations_stay_silent(report_sublinear):
    assert report_sublinear.discrepancies == ()


def test_unknown_expected_name_rejected(sublinear):
    with pytest.raises(ValueError, match="unknown expected-constant"):
        build_report(sublinear, expected={"a99": 1.0})


def _tiny_problem(f1_src, f2_src):
    one = Integrand(lambda t: np.exp(-t), decay_hint=1.0)
    growth = GrowthData(a1=(one,) * 5, a2=(one,) * 5,
                        lam1=(0.5,) * 4, lam2=(0.5,) * 4)
    return ProblemSpec(
        alpha1=FracOrder(2.5), alpha2=FracOrder(1.5), h1=None, h2=None,
        f1=parse(f1_src), f2=parse(f2_src), growth=growth)


def test_h4_catches_decreasing_rhs():
    p = _tiny_problem("1/(1+t) + 1/(1+u1)", "exp(-t)")
    verdict = check_h4(p)
    assert not verdict.passed
    assert "decreases between ordered states" in verdict.reason
    assert "np.float64" not in verdict.reason


def test_h4_catches_negative_rhs():
    p = _tiny_problem("u1 - 5", "exp(-t)")
    verdict = check_h4(p)
    assert not verdict.passed
    assert "negative" in verdict.reason
    assert "np.float64" not in verdict.reason


def test_h4_passes_clean_rhs():
    p = _tiny_problem("exp(-t) * (1 + u1 + u3)", "exp(-2*t) * (2 + u2)")
    verdict = check_h4(p)
    assert verdict.passed, verdict.reason


_PROVED = ("proved f1, f2 >= 0 and nondecreasing in the state for "
           "t >= 0, u >= 0")


@pytest.mark.parametrize("name", ["sublinear", "both.prob"])
def test_h4_proves_the_monotone_forcings_without_sampling(monkeypatch, name):
    """sublinear's powers below 1 and both.prob's sqrt(1 + abs(u_k))
    are proved, on the whole cone, and no sample is drawn."""
    def refuse():
        raise AssertionError("H4 sampled a proved problem")

    monkeypatch.setattr(problem_mod, "_h4_draws", refuse)
    spec = load_problem(_texts(name)).spec
    assert check_h4(spec) == problem_mod.Verdict(True, _PROVED)
    assert build_report(spec).verdicts["H4"].reason == _PROVED


@pytest.mark.parametrize("f1", [
    "1/(1+t) + 1/(1+u1)", "u1 - 5",
    "2/(10+t)^2 + abs(u1)^0.1 - exp(-t)*abs(u2)/1000",
    # Infinite at t = 0, so the proof abstains; the samples miss t = 0
    # and pass it.
    "t^(-0.5) + u1", "1/t + u1"])
def test_h4_samples_where_the_proof_abstains(f1):
    verdict = check_h4(_tiny_problem(f1, "exp(-t)"))
    assert "proved" not in verdict.reason
    assert verdict.passed == f1.endswith("+ u1"), verdict.reason


def test_h4_draws_its_samples_once():
    """H4 reads one fixed point set: built once per process, shared by
    every problem the proof abstains on, read only, ordered, and inside
    [0, _H4_BOX).  A proved problem draws nothing."""
    problem_mod._h4_draws.cache_clear()
    clean = _tiny_problem("exp(-t) * (1 + u1 + u3)", "exp(-2*t) * (2 + u2)")
    bad = _tiny_problem("u1 - 5", "exp(-t)")
    decreasing = _tiny_problem("1/(1+t) + 1/(1+u1)", "exp(-t)")
    first = [check_h4(p) for p in (clean, bad, decreasing)]
    info = problem_mod._h4_draws.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    problem_mod._h4_draws.cache_clear()
    assert [check_h4(p) for p in (clean, bad, decreasing)] == first
    t, lo, hi = problem_mod._h4_draws()
    assert not any(a.flags.writeable for a in (t, lo, hi))
    assert t.shape == (10_000,) and lo.shape == hi.shape == (4, 10_000)
    assert np.all(lo <= hi)
    for a in (t, lo, hi):
        assert 0.0 <= a.min() and a.max() < 10.0


def test_h1_rejects_vanishing_forcing():
    p = _tiny_problem("u1", "exp(-t)")
    verdict, _ = check_h1(p)
    assert not verdict.passed
    assert "vanishes" in verdict.reason


def test_h1_rejects_strong_coupling():
    strong = Integrand(lambda t: 1.4 * t**-1.5 * np.exp(-t),
                       endpoint_exponent=-1.5, decay_hint=1.0)
    p = _tiny_problem("exp(-t)", "exp(-t)")
    p = ProblemSpec(alpha1=p.alpha1, alpha2=p.alpha2, h1=strong, h2=None,
                    f1=p.f1, f2=p.f2, growth=p.growth)
    verdict, lam = check_h1(p)
    assert not verdict.passed
    assert "Lambda1" in verdict.reason
    assert lam[0] == pytest.approx(1.4, abs=1e-8)


def test_radius_R_needs_sublinear_exponents():
    one = Integrand(lambda t: np.exp(-t), decay_hint=1.0)
    growth = GrowthData(a1=(one,) * 5, a2=(one,) * 5,
                        lam1=(0.5, 1.0, 0.5, 0.5), lam2=(0.5,) * 4)
    p = ProblemSpec(alpha1=FracOrder(2.5), alpha2=FracOrder(1.5),
                    h1=None, h2=None, f1=parse("exp(-t)"),
                    f2=parse("exp(-t)"), growth=growth)
    rep = build_report(p)
    assert rep.R is None
    assert "growth exponent 1.0 >= 1 is outside the supported sublinear " \
           "regime" in rep.notes


def test_scheme_constants_need_their_data(report_sublinear,
                                          report_lipschitz):
    assert report_sublinear.m is None and report_sublinear.r is None
    assert report_lipschitz.R is None


def test_growth_data_validation():
    one = Integrand(lambda t: np.exp(-t))
    with pytest.raises(ValueError, match="exactly 5"):
        GrowthData(a1=(one,) * 4, a2=(one,) * 5,
                   lam1=(0.5,) * 4, lam2=(0.5,) * 4)
    with pytest.raises(ValueError, match=">= 0"):
        GrowthData(a1=(one,) * 5, a2=(one,) * 5,
                   lam1=(0.5, 0.5, 0.5, -0.1), lam2=(0.5,) * 4)
    with pytest.raises(ValueError, match="exactly 4"):
        LipschitzData(b1=(one,) * 3, b2=(one,) * 4)


def test_problem_needs_some_data():
    with pytest.raises(ValueError, match="neither growth nor Lipschitz"):
        ProblemSpec(alpha1=FracOrder(2.5), alpha2=FracOrder(1.5),
                    h1=None, h2=None, f1=parse("exp(-t)"),
                    f2=parse("exp(-t)"))


def test_report_json_round_trip(report_sublinear):
    doc = json.loads(json.dumps(report_sublinear.to_dict()))
    assert doc["lambda1"] == pytest.approx(1.0, abs=1e-9)
    assert doc["verdicts"]["H1"]["passed"] is True
    assert isinstance(doc["notes"], list)
    assert doc["discrepancies"] == []
    assert "seed" not in doc and "samples" not in doc


# -- the coefficient-integral memo ---------------------------------------

_DATA = Path(__file__).parent / "data"


def _texts(name):
    return (_DATA / name if name.endswith(".prob") else
            Path(problem_mod.__file__).parent / "problems" / f"{name}.prob"
            ).read_text()


def _coefficient_jobs(monkeypatch):
    """The labels of the envelope-integral jobs integrate_each is asked
    for, as a list that later reports append to."""
    labels, real = [], problem_mod.integrate_each

    def spy(named, *args):
        labels.extend(label for label, _ in named
                      if label.startswith("envelope integral"))
        return real(named, *args)

    monkeypatch.setattr(problem_mod, "integrate_each", spy)
    return labels


@pytest.mark.parametrize("name", ["sublinear", "lipschitz", "both.prob"])
def test_warm_report_equals_cold_report_bit_for_bit(name, monkeypatch):
    """A report that reads every coefficient integral from the memo is
    the report a cleared memo gives, to the last bit."""
    spec = load_problem(_texts(name)).spec
    problem_mod._COEF_MEMO.clear()
    labels = _coefficient_jobs(monkeypatch)
    cold = build_report(spec)
    asked = len(labels)
    warm = build_report(spec)
    assert asked > 0 and len(labels) == asked  # the warm report asks none
    problem_mod._COEF_MEMO.clear()
    assert repr(build_report(spec).to_dict()) == repr(cold.to_dict()) \
        == repr(warm.to_dict())


def test_changed_coefficient_text_misses_the_memo(monkeypatch):
    text = _texts("sublinear")
    base = build_report(load_problem(text).spec).a_star[0][0]
    labels = _coefficient_jobs(monkeypatch)
    scaled = load_problem(text.replace(
        "a10 = 2/(10+t)^2", "a10 = 1.5*(2/(10+t)^2)")).spec
    report = build_report(scaled)
    assert labels == ["envelope integral a10"]
    assert report.a_star[0][0] == pytest.approx(1.5 * base, rel=1e-13)
    assert report.a_star[0][1:] == build_report(
        load_problem(text).spec).a_star[0][1:]


def test_a_failed_integral_is_not_memoized(tmp_path, capsys):
    """A divergent envelope leaves nothing in the memo, so a second check
    in the same process integrates it again and prints the same H2
    failure."""
    from fracbvp.cli import main
    p = tmp_path / "a14.prob"
    text = _texts("sublinear")
    p.write_text(text[:text.index("\n[expected]")].replace(
        "a14 = 1/(1+t^2)", "a14 = 1/(1+t)") + "\n")
    outs = []
    for _ in range(2):
        assert main(["check", str(p)]) == 2
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "quadrature did not converge in envelope integral a14" in outs[0]
    a14 = load_problem(p.read_text()).spec.growth.a1[4]
    assert not any(key[0] is a14 for key in problem_mod._COEF_MEMO)


def test_the_memo_keeps_its_bound_and_the_latest_entries(monkeypatch):
    monkeypatch.setattr(problem_mod, "_COEF_MEMO_SIZE", 12)
    problem_mod._COEF_MEMO.clear()
    text = _texts("sublinear")
    for c in (1.25, 1.5, 1.75, 2.0):
        spec = load_problem(text.replace(
            "a10 = 2/(10+t)^2", f"a10 = {c}*(2/(10+t)^2)")).spec
        build_report(spec)
        assert len(problem_mod._COEF_MEMO) <= 12
    # The last report's ten coefficients are the ten most recent entries.
    recent = [key[0] for key in problem_mod._COEF_MEMO][-10:]
    assert set(recent) == {*spec.growth.a1, *spec.growth.a2}
    problem_mod._COEF_MEMO.clear()

