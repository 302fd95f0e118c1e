"""Green's kernel layer: the boundary coupling constant, the boundary
integral G (batched, checked against per-point quadrature), the
assembled kernels, and their sharp bounds."""

import importlib
import math
import pkgutil
from dataclasses import FrozenInstanceError, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracbvp
import fracbvp.kernels as kernels_mod
from fracbvp import (FracOrder, Integrand, IntegralOperator, KernelSet,
                     QuadratureError, compute_lambda, gamma,
                     integrate_halfline, kernel_representation)
from fracbvp.cli import load_problem, main
from fracbvp.problem import build_report
from fracbvp.quad import DEFAULT_TOL


def test_lambda_closed_forms(sublinear):
    # h1 weight t^(alpha1-1) collapses to e^(-t): Lambda_1 = 1.
    assert abs(compute_lambda(sublinear.h1, sublinear.alpha1).value - 1.0) < 1e-10
    # h2 weight t^(alpha2-1) collapses to e^(-2t): Lambda_2 = 1/2.
    assert abs(compute_lambda(sublinear.h2, sublinear.alpha2).value - 0.5) < 1e-10


def test_build_populates_constants(kernels):
    ks1, ks2 = kernels
    assert abs(ks1.gamma_alpha - gamma(2.5)) < 1e-14
    assert abs(ks2.gamma_alpha - gamma(1.5)) < 1e-14
    assert abs(ks1.denom - (ks1.gamma_alpha - 1.0)) < 1e-10
    assert abs(ks2.denom - (ks2.gamma_alpha - 0.5)) < 1e-10


def test_build_rejects_strong_coupling():
    # Scaling h1 by 1.4 pushes Lambda to 1.4 > Gamma(2.5) ~ 1.329.
    strong = Integrand(lambda t: 1.4 * t**-1.5 * np.exp(-t),
                       endpoint_exponent=-1.5, decay_hint=1.0)
    with pytest.raises(ValueError, match="boundary coupling too strong"):
        KernelSet.build(FracOrder(2.5), strong)


def test_no_boundary_degenerates_cleanly():
    ks = KernelSet.build(FracOrder(2.5), None)
    assert ks.lam == 0.0
    assert ks.g_many(np.array([3.0]))[0] == 0.0
    assert ks.k(1.0, 0.5) == ks.k1_grid(1.0, 0.5)
    assert ks.kstar_grid(0.5, 1.0) == 1.0
    assert ks.kstar_grid(1.0, 0.5) == 0.0


@pytest.mark.parametrize("alpha", [2.5, 1.5])
def test_kernel_representation_keeps_the_forcings_trouble_spots(alpha):
    """The oracle's K1 part against scipy for a forcing singular at 0 and
    a kinked one.  Its convolution part once dropped y's endpoint
    exponent and returned -inf for y = s^(-1/2) e^(-s)."""
    from scipy.integrate import quad

    ks = KernelSet.build(FracOrder(alpha), None)
    singular = Integrand(lambda s: s ** -0.5 * np.exp(-s),
                         endpoint_exponent=-0.5, decay_hint=1.0)
    kinked = Integrand(lambda s: np.exp(-s) * np.abs(s - 1.0), kinks=(1.0,),
                       decay_hint=1.0)
    for t in (0.7, 3.0):
        # int_0^inf y and int_0^t (t-s)^(alpha-1) y(s) ds, piece by piece.
        decay = lambda s: np.exp(-s)  # noqa: E731
        total = (quad(decay, 0.0, 1.0, weight="alg", wvar=(-0.5, 0.0))[0]
                 + quad(singular.fn, 1.0, np.inf)[0])
        conv = quad(decay, 0.0, t, weight="alg", wvar=(-0.5, alpha - 1.0))[0]
        want = (t ** (alpha - 1.0) * total - conv) / ks.gamma_alpha
        got = kernel_representation(ks, singular, t, tol=1e-11)
        assert got == pytest.approx(want, rel=1e-9), (t, got, want)

        total = (quad(kinked.fn, 0.0, 1.0)[0]
                 + quad(kinked.fn, 1.0, np.inf)[0])
        # Below the kink only when t > 1; the weight sits at s = t.
        head = 0.0 if t <= 1.0 else quad(
            lambda s: kinked.fn(s) * (t - s) ** (alpha - 1.0), 0.0, 1.0)[0]
        conv = head + quad(kinked.fn, 1.0 if t > 1.0 else 0.0, t,
                           weight="alg", wvar=(0.0, alpha - 1.0))[0]
        want = (t ** (alpha - 1.0) * total - conv) / ks.gamma_alpha
        got = kernel_representation(ks, kinked, t, tol=1e-11)
        assert got == pytest.approx(want, rel=1e-9), (t, got, want)


def test_k1_closed_form(kernels):
    ks1, _ = kernels
    a = ks1.alpha.q
    ga = ks1.gamma_alpha
    # s >= t: the reduced kernel is t^(a-1)/Gamma(a), constant in s.
    for s in (5.0, 2.0):
        assert ks1.k1_grid(2.0, s) == pytest.approx(2.0 ** (a - 1) / ga,
                                                    rel=1e-14)
    # s < t subtracts the translated power.
    want = (2.0 ** (a - 1) - 1.0 ** (a - 1)) / ga
    assert ks1.k1_grid(2.0, 1.0) == pytest.approx(want, rel=1e-14)
    assert ks1.k1_grid(2.0, 0.0) == 0.0


def test_scalar_and_grid_paths_agree(kernels, rng):
    """k, the one-point view the acceptance tests call, matches k_grid."""
    ts = rng.uniform(0.05, 20.0, size=12)
    ss = rng.uniform(0.0, 30.0, size=12)
    T, S = np.meshgrid(ts, ss, indexing="ij")
    for ks in kernels:
        K = ks.k_grid(T, S)
        for i in range(ts.size):
            for j in range(ss.size):
                assert K[i, j] == pytest.approx(
                    ks.k(ts[i], ss[j]), rel=1e-13, abs=1e-15)


def test_g_is_a_saturating_ramp(kernels):
    """G starts at 0, never decreases, and approaches Lambda/Gamma(alpha)."""
    ss = np.concatenate(([0.0], np.geomspace(1e-3, 60.0, 40)))
    for ks in kernels:
        g = ks.g_many(ss)
        cap = ks.lam / ks.gamma_alpha
        assert g[0] == 0.0
        assert np.all(g >= 0.0)
        # Slack: each point carries its own quadrature error (~1e-10 abs).
        assert np.all(np.diff(g) >= -5e-10)
        assert np.all(g <= cap + 5e-10)
        # By s = 60 the boundary weight has fully decayed.
        assert g[-1] == pytest.approx(cap, abs=1e-10)


@settings(deadline=None, max_examples=20)
@given(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=30),
       st.integers(0, 5), st.sampled_from([0, 1]))
def test_g_is_a_nondecreasing_ramp_on_random_batches(kernels, exps, dups,
                                                     eq):
    """On a fresh KernelSet, any batch of s (log-uniform in [1e-6, 1e6],
    with 0 and repeats) gives G nondecreasing in s and inside
    [0, Lambda/Gamma(alpha)], both within 10 tol."""
    s = 10.0 ** np.array(exps)
    s = np.concatenate(([0.0], s, s[:dups]))
    ks = KernelSet.build(kernels[eq].alpha, kernels[eq].h)
    g = ks.g_many(s)[np.argsort(s, kind="stable")]
    slack = 10.0 * DEFAULT_TOL
    assert np.all(np.diff(g) >= -slack)
    assert np.all(g >= -slack) and np.all(g <= ks.lam / ks.gamma_alpha + slack)


def _fresh(ks):
    """Same constants as ks, no reach."""
    return KernelSet(alpha=ks.alpha, h=ks.h, lam=ks.lam,
                     gamma_alpha=ks.gamma_alpha)


def _deficit_per_point(ks, s):
    """D(s) = int_0^inf h(s+x) x^(alpha-1) dx by one adaptive half-line
    quadrature, with a panel cut at x = s."""
    a, h = ks.alpha.q, ks.h
    res = integrate_halfline(
        Integrand(lambda x: h.fn(s + x) * x ** (a - 1.0), kinks=(s,),
                  endpoint_exponent=a - 1.0, decay_hint=h.decay_hint),
        DEFAULT_TOL)
    assert res.converged
    return res.value


def _g_points(rng):
    """40 points: 0, duplicates, and s from 1e-9 to the plan's 1.6e16."""
    return np.concatenate(([0.0, 0.0, 1e-9, 1.6e16, 1.0, 1.0],
                           np.geomspace(1e-9, 1.6e16, 24),
                           rng.uniform(0.0, 40.0, size=8), [2.5, 2.5]))


def test_g_batch_matches_per_point_quadrature(kernels, rng):
    pts = _g_points(rng)
    for ks in kernels:
        ks = _fresh(ks)
        got = ks.g_many(pts)
        want = np.array([0.0 if s == 0.0 else
                         (ks.lam - _deficit_per_point(ks, s)) / ks.gamma_alpha
                         for s in pts])
        assert np.max(np.abs(got - want)) <= 1e-10


def test_g_memo_is_stable(kernels, rng):
    """G depends on the set of points in a batch, not on their order,
    shape or repeats: bit for bit."""
    pts = _g_points(rng)
    for ks in kernels:
        ks = _fresh(ks)
        got = ks.g_many(pts)
        assert np.array_equal(ks.g_many(pts), got)
        perm = rng.permutation(pts.size)
        assert np.array_equal(ks.g_many(pts[perm]), got[perm])
        assert np.array_equal(ks.g_many(pts.reshape(4, 10)),
                              got.reshape(4, 10))


def test_g_batch_raises_when_tol_is_not_met(kernels, monkeypatch):
    ks = _fresh(kernels[0])
    # Below the trapezoid's rounding floor.
    monkeypatch.setattr(kernels_mod, "DEFAULT_TOL", 1e-16)
    with pytest.raises(QuadratureError, match="boundary integral G") as exc:
        ks.g_many(np.array([0.5, 2.0, 7.0]))
    res = exc.value.result
    assert not res.converged
    assert res.error_estimate > 1e-16
    assert res.evaluations > 0


# G of the sublinear kernels (h1 = t^-1.5 e^-t with alpha 2.5, h2 =
# t^-0.5 e^-2t with alpha 1.5) to 30 digits, from mpmath:
#
#     from mpmath import mp, mpf, quad, exp, gamma, inf
#     mp.dps = 40
#     def G(s, a, h):
#         s = mpf(s)
#         lam = quad(lambda t: h(t) * t**(a - 1), [0, 1, inf])
#         d = quad(lambda x: h(s + x) * x**(a - 1),
#                  [0, s, 1, inf] if s < 1 else [0, 1, s, inf])
#         return (lam - d) / gamma(a)
#     h1 = lambda t: t**mpf(-1.5) * exp(-t)
#     h2 = lambda t: t**mpf(-0.5) * exp(-2*t)
#     for s in ("1e-9", "1e-3", "0.038", "1", "7", "40"):
#         print(s, mp.nstr(G(s, mpf(2.5), h1), 30),
#               mp.nstr(G(s, mpf(1.5), h2), 30))
#
# mp.dps = 60 prints the same digits.
_G_MPMATH = {
    1e-9: (2.31682698296299621222357261826e-8,
           1.23214476533637006144958137665e-8),
    1e-3: (0.00758201742938432130958356382586,
           0.00452475920256793700392412063512),
    0.038: (0.134706318820066486516107652734,
            0.0924823784393118940928966137576),
    1.0: (0.673038894196277667633950803888,
          0.526646681999994444395339284535),
    7.0: (0.752220208973401585985789796108,
          0.564189477716679473801610316407),
    40.0: (0.75225277806367504924873462422,
           0.564189583547756286948079451561),
}


def test_g_matches_mpmath(kernels):
    s = np.array(list(_G_MPMATH))
    for i, ks in enumerate(kernels):
        want = np.array([v[i] for v in _G_MPMATH.values()])
        assert np.max(np.abs(_fresh(ks).g_many(s) - want)) <= 1e-15


def test_kinked_weight_fails_within_bounded_work():
    # The kink of |t-1| sits at a different u for every s, so the
    # trapezoid rule falls to second order and cannot reach tol; it
    # must say so after at most six halvings.
    h = Integrand(lambda t: t ** -0.5 * np.exp(-2 * t) * np.abs(t - 1),
                  endpoint_exponent=-0.5, decay_hint=2.0)
    ks = KernelSet.build(FracOrder(1.5), h)
    s = np.geomspace(1e-3, 40.0, 50)
    with pytest.raises(QuadratureError, match="boundary integral G") as exc:
        ks.g_many(s)
    res = exc.value.result
    assert not res.converged
    assert type(res.error_estimate) is float
    assert res.error_estimate > 1e3 * DEFAULT_TOL
    # Step 1/64 over u in [-40, log 90 - log 1e-3], x cut at Lambda's
    # reach 90: 52 * 64 + 1 nodes (89 * 64 + 1 with the 2^60 cut).
    assert 0 < res.evaluations <= 52 * 64 + 1


def test_g_batch_raises_on_non_finite_values():
    h = Integrand(lambda t: np.where(t < 3.0, np.exp(-t), np.nan))
    ks = KernelSet(alpha=FracOrder(2.5), h=h, lam=1.0,
                   gamma_alpha=gamma(2.5))
    with pytest.raises(QuadratureError):
        ks.g_many(np.array([0.5, 2.0]))


def test_operator_build_tabulates_g_once_per_equation(
        sublinear, kernels, grid64, monkeypatch):
    calls = {"halfline": 0, "trapezoid": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels_mod, "integrate_halfline",
                        counting("halfline", kernels_mod.integrate_halfline))
    monkeypatch.setattr(kernels_mod, "halving_trapezoid",
                        counting("trapezoid", kernels_mod.halving_trapezoid))
    ks1, ks2 = (_fresh(ks) for ks in kernels)
    IntegralOperator(sublinear, ks1, ks2, grid64)
    assert calls == {"halfline": 0, "trapezoid": 2}
    IntegralOperator(sublinear, ks1, ks2, grid64)
    assert calls == {"halfline": 0, "trapezoid": 2}


def test_solve_integrates_each_lambda_once(monkeypatch, capsys):
    # The hypothesis report and both kernel sets ask for Lambda_1 and
    # Lambda_2 with the same weight, order and tolerance; compute_lambda's
    # cache answers the second request.  G takes no integrate_halfline.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = kernels_mod.integrate_halfline
    monkeypatch.setattr(kernels_mod, "integrate_halfline", counting)
    # Earlier loads of the same weights may have filled the cache.
    compute_lambda.cache_clear()
    assert main(["solve", "sublinear", "--grid-n", "32"]) == 0
    assert len(calls) == 2


def test_lambda_memo_keys_on_the_weight_text():
    # Every load of a weight text shares its compiled fn (cli._read), so
    # the cache, which knows a weight by its value, hits on loads after
    # the first.  A different h1 text misses.
    text = (resources.files("fracbvp") / "problems"
            / "sublinear.prob").read_text()
    compute_lambda.cache_clear()
    specs = [load_problem(text).spec for _ in range(3)]
    for spec in specs:
        build_report(spec)
    info = compute_lambda.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    got = [[compute_lambda(h, a) for h, a in
            ((s.h1, s.alpha1), (s.h2, s.alpha2))] for s in specs]
    assert got[0] == got[1] == got[2]
    other = load_problem(text.replace("h1 = t^(-1.5)*exp(-t)",
                                      "h1 = 0.5*t^(-1.5)*exp(-t)")).spec
    half = compute_lambda(other.h1, other.alpha1)
    assert compute_lambda.cache_info().misses == 3
    assert half.value == pytest.approx(0.5 * got[0][0].value, rel=1e-10)


def test_kernel_sets_are_values(sublinear):
    # Frozen, and equal builds are equal and hash equal, so the caches
    # keyed on kernel sets (_plan, _boundary_weighted_integral) share
    # their entries.
    ks = KernelSet.build(sublinear.alpha1, sublinear.h1)
    with pytest.raises(FrozenInstanceError):
        ks.lam = 0.5
    again = KernelSet.build(sublinear.alpha1, sublinear.h1)
    assert again is not ks and again == ks and hash(again) == hash(ks)
    assert replace(ks, reach=math.inf) != ks
    assert KernelSet.build(sublinear.alpha2, sublinear.h2) != ks


def test_every_lru_cache_is_bounded():
    """Every lru_cache of the package has a finite maxsize (README, "What
    is computed once and kept")."""
    found = {}
    for info in pkgutil.iter_modules(fracbvp.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"fracbvp.{info.name}")
        for obj in vars(mod).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for fn in (obj, *members):
                fn = getattr(fn, "__func__", fn)
                if hasattr(fn, "cache_parameters"):
                    found[fn.__qualname__] = fn.cache_parameters()["maxsize"]
    assert {"compute_lambda", "_boundary_weighted_integral", "_plan",
            "_read", "_h4_draws"} <= set(found)
    assert all(size is not None for size in found.values()), found


def test_bounds_are_sharp_but_never_crossed(kernels):
    ts = np.geomspace(1e-3, 100.0, 30)
    ss = np.geomspace(1e-3, 100.0, 30)
    T, S = np.meshgrid(ts, ss, indexing="ij")
    for ks in kernels:
        kb = ks.k_bound(ts)[:, None]
        K = ks.k_grid(T, S)
        assert np.all(K >= 0.0)
        assert np.all(K <= kb * (1.0 + 1e-12))
        # Sharp: at large s the kernel reaches within 1e-6 of the bound.
        assert K[:, -1] == pytest.approx(kb[:, 0], rel=1e-6)
        Kst = ks.kstar_grid(T, S)
        sb = ks.kstar_bound()
        assert np.all(Kst >= 0.0)
        assert np.all(Kst <= sb * (1.0 + 1e-12))
        assert Kst.max() == pytest.approx(sb, rel=1e-6)


def test_k_bound_formula(kernels):
    for ks in kernels:
        a = ks.alpha.q
        for t in (0.1, 1.0, 7.0):
            assert ks.k_bound(t) == pytest.approx(
                t ** (a - 1.0) / ks.denom, rel=1e-13)
        assert ks.kstar_bound() == pytest.approx(
            ks.gamma_alpha / ks.denom, rel=1e-13)


def _trapezoid_columns(monkeypatch):
    """Wrap halving_trapezoid; returns the list of (columns, hi, error
    estimate) of every call."""
    seen = []
    orig = kernels_mod.halving_trapezoid

    def wrapper(f, lo, hi, tol, rate, *args):
        value, res = orig(f, lo, hi, tol, rate, *args)
        seen.append((value.size, hi, res.error_estimate))
        return value, res

    monkeypatch.setattr(kernels_mod, "halving_trapezoid", wrapper)
    return seen


def test_g_is_cut_at_lambdas_reach(sublinear, monkeypatch):
    # Lambda's half-line doubling stops at 180 for h1 (decay 1) and at 90
    # for h2 (decay 2); points at or beyond that reach are Lambda/Gamma
    # with no trapezoid column, and the rest are cut at x = reach.
    seen = _trapezoid_columns(monkeypatch)
    for h, alpha, reach in ((sublinear.h1, sublinear.alpha1, 180.0),
                            (sublinear.h2, sublinear.alpha2, 90.0)):
        ks = KernelSet.build(alpha, h)
        assert ks.reach == reach and 0.0 < ks.reach_err < 1e-12
        s = np.array([0.5, 7.0, reach - 1e-9, reach, 250.0, 1.6e16])
        g = ks.g_many(s)
        assert g[3:].tolist() == [ks.lam / ks.gamma_alpha] * 3
        columns, hi, err = seen.pop()
        assert columns == 3
        assert hi == math.log(reach) - math.log(0.5)
        assert err >= ks.reach_err


def test_g_cut_at_reach_matches_mpmath(sublinear):
    s = np.array(list(_G_MPMATH))
    for i, (h, alpha) in enumerate(((sublinear.h1, sublinear.alpha1),
                                    (sublinear.h2, sublinear.alpha2))):
        want = np.array([v[i] for v in _G_MPMATH.values()])
        got = KernelSet.build(alpha, h).g_many(s)
        assert np.max(np.abs(got - want)) <= 1e-15


def test_directly_constructed_kernel_set_keeps_the_2_to_60_cut(
        kernels, rng, monkeypatch):
    # No Lambda result, no reach: every new point gets a column and x
    # runs to 2^60, with no tail term added to the estimate.
    seen = _trapezoid_columns(monkeypatch)
    pts = _g_points(rng)
    for ks in kernels:
        fresh = _fresh(ks)
        assert (fresh.reach, fresh.reach_err) == (math.inf, 0.0)
        fresh.g_many(pts)
        columns, hi, _ = seen.pop()
        assert columns == np.unique(pts[pts > 0.0]).size
        assert hi == 60.0 * math.log(2.0) - math.log(1e-9)


def test_g_batch_raises_when_tol_is_not_met_after_the_cut(kernels,
                                                         monkeypatch):
    ks = KernelSet.build(kernels[0].alpha, kernels[0].h)
    monkeypatch.setattr(kernels_mod, "DEFAULT_TOL", 1e-16)
    with pytest.raises(QuadratureError, match="boundary integral G"):
        ks.g_many(np.array([0.5, 2.0, 7.0, 200.0]))
