"""Quadrature layer: finite panels, kink handling, endpoint power
substitution, and the doubling half-line driver."""

import math

import numpy as np
import pytest
from conftest import (_reference_finite, _reference_halfline,
                      _reference_panel)

from fracbvp import Integrand, QuadratureError, integrate_finite, integrate_halfline
from fracbvp import quad
from fracbvp.quad import require_converged


def test_polynomial_is_exact():
    # Degree 9 is far below the panel rule's exactness degree, so the
    # very first panel should already land at machine precision.
    f = Integrand(lambda t: 7.0 * t**9 - 3.0 * t**4 + t - 2.0)
    got = integrate_finite(f, 0.0, 2.0)
    want = 7.0 * 2.0**10 / 10 - 3.0 * 2.0**5 / 5 + 2.0 - 4.0
    assert got.converged
    assert abs(got.value - want) < 1e-12 * abs(want)


def test_smooth_transcendental():
    f = Integrand(lambda t: np.exp(-t) * np.sin(t))
    got = integrate_finite(f, 0.0, 10.0, tol=1e-12)
    want = 0.5 * (1.0 - math.exp(-10.0) * (math.sin(10.0) + math.cos(10.0)))
    assert abs(got.value - want) < 1e-12


def test_kink_declared_splits_panel():
    c = 0.3
    f = Integrand(lambda t: np.abs(t - c), kinks=(c,))
    got = integrate_finite(f, 0.0, 1.0, tol=1e-13)
    want = c**2 / 2 + (1.0 - c) ** 2 / 2
    assert got.converged
    assert abs(got.value - want) < 1e-13


def test_endpoint_exponent_removes_singularity():
    """t^(-1/2) integrates to 2 on [0,1] once the exponent is declared."""
    f = Integrand(lambda t: t**-0.5, endpoint_exponent=-0.5)
    got = integrate_finite(f, 0.0, 1.0, tol=1e-12)
    assert got.converged
    assert abs(got.value - 2.0) < 1e-11


def test_endpoint_exponent_only_applies_at_zero():
    f = Integrand(lambda t: t**-0.5, endpoint_exponent=-0.5)
    got = integrate_finite(f, 1.0, 4.0, tol=1e-12)
    assert abs(got.value - 2.0) < 1e-11  # 2*sqrt(4) - 2*sqrt(1)


def test_nonintegrable_endpoint_rejected():
    f = Integrand(lambda t: 1.0 / t, endpoint_exponent=-1.0)
    with pytest.raises(ValueError, match="diverges at 0"):
        integrate_finite(f, 0.0, 1.0)
    # Same description away from zero is fine.
    got = integrate_finite(f, 1.0, math.e)
    assert abs(got.value - 1.0) < 1e-12


def test_bad_interval_rejected():
    f = Integrand(lambda t: t)
    with pytest.raises(ValueError, match="need a < b"):
        integrate_finite(f, 1.0, 1.0)


def test_integrand_validation():
    with pytest.raises(ValueError):
        Integrand(lambda t: t, kinks=(2.0, 1.0))  # must be sorted
    with pytest.raises(ValueError):
        Integrand(lambda t: t, decay_hint=-1.0)


def test_halfline_exponential():
    got = integrate_halfline(Integrand(lambda t: np.exp(-t), decay_hint=1.0))
    assert got.converged
    assert abs(got.value - 1.0) < 1e-12
    assert got.error_estimate < 1e-9


def test_halfline_polynomial_decay():
    # No decay hint: the doubling tail has to find pi/2 on its own.
    got = integrate_halfline(Integrand(lambda t: 1.0 / (1.0 + t * t)),
                             tol=1e-9)
    assert got.converged
    assert abs(got.value - math.pi / 2) < 1e-8


def test_halfline_singular_head_with_decay():
    got = integrate_halfline(
        Integrand(lambda t: t**-0.5 * np.exp(-2.0 * t),
                  endpoint_exponent=-0.5, decay_hint=2.0))
    assert got.converged
    assert abs(got.value - math.sqrt(math.pi / 2.0)) < 1e-10


def test_halfline_flags_divergence():
    res = integrate_halfline(Integrand(lambda t: 1.0 / (1.0 + t)), tol=1e-8)
    assert not res.converged
    with pytest.raises(QuadratureError) as exc:
        require_converged(res, "divergence probe")
    assert exc.value.result is res


def test_require_converged_passthrough():
    res = integrate_halfline(Integrand(lambda t: np.exp(-t), decay_hint=1.0))
    assert require_converged(res, "ok") is res


def test_truncation_point_respects_decay_hint():
    slow = integrate_halfline(Integrand(lambda t: np.exp(-0.1 * t),
                                        decay_hint=0.1))
    assert slow.converged
    assert abs(slow.value - 10.0) < 1e-9
    assert slow.truncation_point >= 450.0  # 45 e-foldings of the hint


# -- the batched panel engine ---------------------------------------------

# (driver, integrand, tol, converges): kinks, endpoint exponents, decay
# hints, an undeclared oscillation that exhausts the panel budget, and a
# divergent tail.
_ENGINE_CASES = [
    ("finite", Integrand(lambda t: np.abs(np.sin(7.0 * t) - 0.3),
                         kinks=(math.asin(0.3) / 7.0,)), 1e-13, True),
    ("finite", Integrand(lambda t: t**-0.7 * np.cos(3.0 * t) * np.log1p(t),
                         endpoint_exponent=0.3), 1e-12, True),
    ("finite", Integrand(lambda t: np.sin(1.0 / t) * t**0.25), 1e-14, False),
    ("halfline", Integrand(lambda t: np.exp(-0.7 * t) * np.sin(t) ** 2
                           * t**-0.5, endpoint_exponent=0.5,
                           decay_hint=0.7), 1e-11, True),
    ("halfline", Integrand(lambda t: np.abs(t - 2.0) / (1.0 + t**3),
                           kinks=(0.5, 2.0)), 1e-10, True),
    ("halfline", Integrand(lambda t: 1.0 / (1.0 + t)), 1e-8, False),
    ("finite", Integrand(lambda t: np.abs(np.cos(5.0 * t)) * t**-0.5,
                         kinks=tuple((k + 0.5) * math.pi / 5.0
                                     for k in range(5)),
                         endpoint_exponent=-0.5), 1e-12, True),
    ("halfline", Integrand(lambda t: t**0.5 * np.exp(-t) / (1.0 + t),
                           endpoint_exponent=0.5), 1e-12, True),
]


@pytest.mark.parametrize("kind, f, tol, converges", _ENGINE_CASES,
                         ids=[f"{c[0]}{i}" for i, c in
                              enumerate(_ENGINE_CASES)])
def test_batched_engine_matches_three_call_reference(kind, f, tol,
                                                     converges):
    """Batched first panels, pieces accepted on them and pieces refined
    in lockstep change no bit of any result: every QuadResult field
    equals that of the one-piece-at-a-time reference."""
    if kind == "finite":
        got = integrate_finite(f, 0.0, math.pi, tol)
        want = _reference_finite(f, 0.0, math.pi, tol)
    else:
        got, want = integrate_halfline(f, tol), _reference_halfline(f, tol)
    assert want.converged is converges
    assert got == want


def test_batch_jobs_each_match_their_one_job_result():
    # Jobs with different intervals, kinks and exponents share every
    # integrand call, and each result is that of its job alone.
    calls = []

    def fn(x, job):
        calls.append(np.size(x))
        c = np.array([1.0, 2.0, 3.0, 4.0])[job]
        return np.abs(np.sin(c * x) - 0.2) * x ** -0.5 + np.cos(9.0 * x)

    jobs = [(0.0, 2.0, (0.5, 1.0), -0.5), (0.0, 1.5, (), -0.5),
            (0.5, 3.0, (1.0, 2.5), 0.0), (0.0, 4.0, (2.0,), 0.5)]
    got = quad.integrate_batch(fn, jobs, 1e-12)
    assert calls[0] == 36 * 9 and len(calls) < 1 + sum(
        (r.evaluations // 36 - 1) // 2 for r in got)
    for j, (a, b, kinks, sigma) in enumerate(jobs):
        f = Integrand(lambda x, j=j: fn(x, j), kinks=kinks,
                      endpoint_exponent=sigma)
        assert got[j] == _reference_finite(f, a, b, 1e-12)


def test_batch_mixes_finite_and_halfline_jobs():
    # Finite and half-line jobs share integrand calls: kinks, endpoint
    # exponents, a decay hint and a divergent tail that walks all 60
    # doublings.  Each result is that of its one-job reference, in fewer
    # calls than the jobs take one at a time.
    cases = [
        (Integrand(lambda t: np.abs(np.sin(3.0 * t) - 0.2) * t ** -0.5,
                   kinks=(math.asin(0.2) / 3.0,), endpoint_exponent=-0.5),
         0.0, 2.0),
        (Integrand(lambda t: np.exp(-0.7 * t) * np.sin(t) ** 2 * t ** -0.5,
                   endpoint_exponent=0.5, decay_hint=0.7), 0.0, math.inf),
        (Integrand(lambda t: 1.0 / (1.0 + t)), 0.0, math.inf),
        (Integrand(lambda t: np.exp(-t) * np.cos(9.0 * t)), 0.5, 3.0),
        (Integrand(lambda t: np.abs(t - 2.0) / (1.0 + t**3),
                   kinks=(0.5, 2.0)), 0.0, math.inf),
    ]
    calls = []

    def fn(x, job):
        calls.append(x.size)
        out = np.empty_like(x)
        for j in np.unique(job).tolist():
            out[job == j] = cases[j][0].fn(x[job == j])
        return out

    jobs = [(a, b, f.kinks, f.endpoint_exponent)
            + ((f.decay_hint,) if b == math.inf else ()) for f, a, b in cases]
    got = quad.integrate_batch(fn, jobs, 1e-10)
    batch_calls, one_job_calls = len(calls), 0
    for (f, a, b), res in zip(cases, got):
        counted = Integrand(lambda t, f=f: calls.append(t.size) or f.fn(t),
                            f.kinks, f.endpoint_exponent, f.decay_hint)
        calls.clear()
        if b == math.inf:
            assert res == _reference_halfline(f, 1e-10)
            assert res == integrate_halfline(counted, 1e-10)
        else:
            assert res == _reference_finite(f, a, b, 1e-10)
            assert res == integrate_finite(counted, a, b, 1e-10)
        one_job_calls += len(calls)
    assert not got[2].converged and got[2].truncation_point == 2.0 ** 60
    assert all(r.converged for r in got[:2] + got[3:])
    assert batch_calls < one_job_calls, (batch_calls, one_job_calls)


def test_batched_panels_match_reference_on_arbitrary_bounds():
    # Bisection trees from dyadic-friendly endpoints rarely expose a
    # changed node formula; unrelated random bounds do.
    rng = np.random.default_rng(5)
    lo = rng.uniform(0.0, 3.0, 40)
    bounds = list(zip(lo.tolist(), (lo + rng.uniform(1e-6, 2.0, 40)).tolist()))
    fn = lambda t: np.exp(np.sin(5.0 * t)) / (1.0 + t * t)  # noqa: E731
    want = [_reference_panel(fn, a, b)[:2] for a, b in bounds]
    val, err = quad._estimate(fn, *np.array(bounds).T)
    assert list(zip(val.tolist(), err.tolist())) == want


def test_one_integrand_call_per_refinement_step():
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return np.exp(-t) * np.cos(40.0 * t)

    res = integrate_finite(Integrand(counted), 0.0, 2.0, tol=1e-12)
    assert res.converged and res.evaluations > 36
    splits = (res.evaluations // 36 - 1) // 2
    assert len(sizes) == 1 + splits
    assert sizes == [36] + [72] * splits


@pytest.mark.parametrize("exponent", [0.0, 0.5])
def test_one_integrand_call_for_every_plain_piece_first_panel(exponent):
    # k kinks make k + 1 pieces.  The first panels of all of them, the
    # power-substituted one included, share one call; after that, each
    # round of splits is one call of 72 points per piece still refining.
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return (np.abs(np.sin(3.0 * t)) + np.cos(25.0 * t)) * t ** exponent

    kinks = tuple(k * math.pi / 3.0 for k in (1, 2, 3))
    f = Integrand(counted, kinks=kinks, endpoint_exponent=exponent)
    res = integrate_finite(f, 0.0, 4.0, tol=1e-12)
    assert res.converged
    assert sizes[0] == 36 * 4
    assert all(s % 72 == 0 and s <= 72 * 4 for s in sizes[1:])
    assert max(sizes[1:]) > 72  # splits of several pieces shared a call
    assert res.evaluations == sum(sizes)


def test_tail_first_panels_arrive_eight_doublings_per_call():
    # A divergent tail walks all 60 doublings: its first panels come in
    # calls of 8 doublings (7 * 8 + 4), between the 72-point splits.
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return 1.0 / (1.0 + t)

    res = integrate_halfline(Integrand(counted), tol=1e-8)
    assert not res.converged and res.truncation_point == 2.0 ** 60
    assert [s for s in sizes if s != 72] == [36] + [36 * 8] * 7 + [36 * 4]
    # A walk that stops early still counts only the doublings it used.
    sizes.clear()
    f = Integrand(lambda t: counted(t) ** 3)
    res = integrate_halfline(f, tol=1e-9)
    assert [s for s in sizes if s != 72][1:] == [36 * 8] * (
        math.ceil(math.log2(res.truncation_point) / 8))
    assert res.converged and res == _reference_halfline(f, 1e-9)


def test_head_splits_and_first_tail_chunk_share_a_call():
    # A half-line job's doublings walk beside its head's pieces: the
    # head's first split and the first panels of 8 doublings are one call.
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return (2.0 + np.cos(25.0 * t)) * np.exp(-t)

    f = Integrand(counted)
    res = integrate_halfline(f, tol=1e-10)
    assert sizes[:2] == [36, 72 + 36 * 8]
    assert res.converged and res == _reference_halfline(f, 1e-10)


def test_batch_results_are_the_one_job_results_bit_for_bit():
    """Jobs accepted on their first estimate, jobs that refine, half-line
    jobs and an identically zero integrand share one batch; each result,
    the sign of a zero value included, is that of its job alone."""
    cases = [
        (Integrand(lambda t: np.exp(-t)), 0.0, 1.0),
        (Integrand(lambda t: 3.0 * t ** 2 - t, kinks=(0.25, 0.5)), 0.0, 1.0),
        (Integrand(lambda t: np.exp(-t) * np.cos(40.0 * t)), 0.0, 2.0),
        (Integrand(lambda t: np.abs(np.cos(5.0 * t)) * t ** -0.5,
                   kinks=tuple((k + 0.5) * math.pi / 5.0 for k in range(5)),
                   endpoint_exponent=-0.5), 0.0, math.pi),
        (Integrand(lambda t: -0.0 * t), 0.5, 2.0),
        (Integrand(lambda t: np.abs(np.sin(7.0 * t)) * np.exp(-0.1 * t),
                   kinks=tuple(k * math.pi / 7.0 for k in range(1, 21))),
         0.0, 9.5),
        (Integrand(lambda t: np.exp(-t), decay_hint=1.0), 0.0, math.inf),
        (Integrand(lambda t: np.exp(-0.7 * t) * np.sin(t) ** 2 * t ** -0.5,
                   endpoint_exponent=0.5, decay_hint=0.7), 0.0, math.inf),
        (Integrand(lambda t: -0.0 * t), 0.0, math.inf),
        (Integrand(lambda t: 1.0 / (1.0 + t)), 0.0, math.inf),
        # Mass that starts late, with no hint: [1, 32] holds ~0, and the
        # first panels ahead in the first chunk keep the walk going.
        (Integrand(lambda t: np.exp(-(t - 50.0) ** 2)), 0.0, math.inf),
    ]

    def fn(x, job):
        out = np.empty_like(x)
        for j in set(job.tolist()):
            out[job == j] = cases[j][0].fn(x[job == j])
        return out

    jobs = [(a, b, f.kinks, f.endpoint_exponent)
            + ((f.decay_hint,) if b == math.inf else ()) for f, a, b in cases]
    got = quad.integrate_batch(fn, jobs, 1e-11)
    for (f, a, b), res in zip(cases, got):
        if b == math.inf:
            one, ref = (integrate_halfline(f, 1e-11),
                        _reference_halfline(f, 1e-11))
        else:
            one, ref = (integrate_finite(f, a, b, 1e-11),
                        _reference_finite(f, a, b, 1e-11))
        assert res == one == ref
        assert math.copysign(1.0, res.value) == math.copysign(1.0, one.value)
    first, refined = got[0].evaluations, got[2].evaluations
    assert first == 36 and refined > 36 and got[1].evaluations == 3 * 36
    assert [math.copysign(1.0, got[j].value) for j in (4, 8)] == [1.0, 1.0]
    assert got[4].value == got[8].value == 0.0
    assert not got[9].converged and all(r.converged for r in got[:9])
    assert got[10].converged
    assert got[10].value == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_rl_integral_kinks_match_the_bisection_route(monkeypatch):
    """One search over all stencil points finds the kinks in (0, x/2) and
    in (x/2, x) that two bisections per point find, kinks that sit on x/2
    or x, or at or below 0, included."""
    from bisect import bisect_left, bisect_right

    from fracbvp import Grid, fracops
    seen, real = [], fracops.integrate_batch
    monkeypatch.setattr(fracops, "integrate_batch", lambda fn, jobs, tol:
                        seen.append(jobs) or real(fn, jobs, tol))
    g = lambda s: np.exp(-s)  # noqa: E731
    grid_kinks = tuple(Grid.make(64).nodes.tolist())
    edge_kinks = (-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5, 3.0)
    for kinks, ts, q in ((grid_kinks, (0.5, 1.0, 2.0), 1.5),
                         (grid_kinks, (0.5, 1.0, 2.0), 0.5),
                         (edge_kinks, (0.5, 1.0, 3.0, 0.0), 0.5)):
        seen.clear()
        if kinks is edge_kinks:
            fracops.rl_integral(g, q, list(ts), kinks=kinks)
        else:  # the spot-check's route: every stencil point in one batch
            fracops.rl_derivative(g, 2.0 + q, list(ts), kinks=kinks,
                                  g_exponent=1.0 + q)
        (jobs,) = seen
        for lower, upper in zip(jobs[::2], jobs[1::2]):
            half = lower[1]
            x = 2.0 * half
            assert list(lower[2]) == list(kinks[bisect_right(kinks, 0.0):
                                                bisect_left(kinks, half)])
            assert upper[2] == [x - k for k in reversed(kinks[bisect_right(
                kinks, half):bisect_left(kinks, x)])]
        # Two jobs per nonzero point: t = 0 has none.
        assert len(jobs) == 6 if kinks is edge_kinks else len(jobs) > 6
