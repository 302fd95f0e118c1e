"""Green's kernel layer: the boundary coupling constant, the memoized
boundary integral G (batched, checked against per-point quadrature), the
assembled kernels, and their sharp bounds."""

import math

import numpy as np
import pytest

import fracbvp.kernels as kernels_mod
from fracbvp import (FracOrder, Integrand, IntegralOperator, KernelSet,
                     QuadratureError, compute_lambda, gamma,
                     integrate_halfline)
from fracbvp.cli import main


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


def _fresh(ks, **kw):
    """Same constants as ks, empty memo."""
    return KernelSet(alpha=ks.alpha, h=ks.h, lam=ks.lam,
                     gamma_alpha=ks.gamma_alpha, **kw)


def _deficit_per_point(ks, s):
    """D(s) = int_0^inf h(s+x) x^(alpha-1) dx by one adaptive half-line
    quadrature, with a panel cut at x = s."""
    a, h = ks.alpha.q, ks.h
    res = integrate_halfline(
        Integrand(lambda x: h.fn(s + x) * x ** (a - 1.0), kinks=(s,),
                  endpoint_exponent=a - 1.0, decay_hint=h.decay_hint),
        ks.tol)
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
    """After the first batch, G is served by the memo: bit for bit, in
    any order and shape."""
    pts = _g_points(rng)
    for ks in kernels:
        ks = _fresh(ks)
        got = ks.g_many(pts)
        assert np.array_equal(ks.g_many(pts), got)
        perm = rng.permutation(pts.size)
        assert np.array_equal(ks.g_many(pts[perm]), got[perm])
        assert np.array_equal(ks.g_many(pts.reshape(4, 10)),
                              got.reshape(4, 10))
        # One-point batches land elsewhere within tol (at s = 1e-9, for
        # one); the memo returns the first values.
        assert [ks.g_many(np.array([s]))[0] for s in pts] == got.tolist()


def test_g_batch_raises_when_tol_is_not_met(kernels):
    ks = _fresh(kernels[0], tol=1e-16)  # below the trapezoid's rounding floor
    with pytest.raises(QuadratureError, match="boundary integral G") as exc:
        ks.g_many(np.array([0.5, 2.0, 7.0]))
    res = exc.value.result
    assert not res.converged
    assert res.error_estimate > ks.tol
    assert res.evaluations > 0
    assert ks._g_memo == {}


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
    # must say so after at most six halvings, with nothing memoized.
    h = Integrand(lambda t: t ** -0.5 * np.exp(-2 * t) * np.abs(t - 1),
                  endpoint_exponent=-0.5, decay_hint=2.0)
    ks = KernelSet.build(FracOrder(1.5), h)
    s = np.geomspace(1e-3, 40.0, 50)
    with pytest.raises(QuadratureError, match="boundary integral G") as exc:
        ks.g_many(s)
    res = exc.value.result
    assert not res.converged
    assert type(res.error_estimate) is float
    assert res.error_estimate > 1e3 * ks.tol
    # Step 1/64 over u in [-40, log 90 - log 1e-3], x cut at Lambda's
    # reach 90: 52 * 64 + 1 nodes (89 * 64 + 1 with the 2^60 cut).
    assert 0 < res.evaluations <= 52 * 64 + 1
    assert ks._g_memo == {}


def test_g_batch_raises_on_non_finite_values():
    h = Integrand(lambda t: np.where(t < 3.0, np.exp(-t), np.nan))
    ks = KernelSet(alpha=FracOrder(2.5), h=h, lam=1.0,
                   gamma_alpha=gamma(2.5))
    with pytest.raises(QuadratureError):
        ks.g_many(np.array([0.5, 2.0]))
    assert ks._g_memo == {}


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
    assert main(["solve", "sublinear", "--grid-n", "32"]) == 0
    assert len(calls) == 2


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
        # Every point is in the memo; none costs another pass.
        ks.g_many(s)
        assert seen == []


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


def test_g_batch_raises_when_tol_is_not_met_after_the_cut(kernels):
    ks = KernelSet.build(kernels[0].alpha, kernels[0].h)
    ks.tol = 1e-16
    with pytest.raises(QuadratureError, match="boundary integral G"):
        ks.g_many(np.array([0.5, 2.0, 7.0, 200.0]))
    assert ks._g_memo == {}
