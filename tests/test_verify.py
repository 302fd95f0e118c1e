"""After-the-fact verification: residual measurements on returned
solutions and the two scheme audits, including hand-built failing traces
to prove the audits can actually fail."""

import json
import math

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracbvp import (
    FracOrder,
    Grid,
    IterationTrace,
    SolutionPair,
    build_report,
    contract_solve,
    diff_norm,
    error_bound_audit,
    norm_pair,
    ordering_audit,
    resolve_problem,
    verify_pair,
)
from fracbvp.verify import (AuditResult, boundary_residual,
                            ode_residual_spotcheck)


def test_monotone_solution_verifies(sublinear, op_sublinear, monotone_runs):
    final, _ = monotone_runs["lower"]
    rep = verify_pair(sublinear, final, op_sublinear)
    assert rep.fixed_point_residual < 5e-5
    assert rep.bc_residual_1 < 5e-3
    assert rep.bc_residual_2 < 5e-3
    assert len(rep.ode_residuals) == 6  # two equations, three points
    for entry in rep.ode_residuals:
        assert np.isfinite(entry["residual"])
        assert entry["residual"] <= 0.05 * (1.0 + abs(entry["forcing"])), entry


def test_contraction_solution_verifies(lipschitz, op_lipschitz,
                                       contraction_run):
    final, _ = contraction_run
    rep = verify_pair(lipschitz, final, op_lipschitz)
    assert rep.fixed_point_residual < 5e-6
    assert rep.bc_residual_1 < 5e-3
    assert rep.bc_residual_2 < 5e-3
    for entry in rep.ode_residuals:
        assert entry["residual"] <= 0.01 * (1.0 + abs(entry["forcing"])), entry


def test_boundary_residual_separates_equations(lipschitz, contraction_run):
    final, _ = contraction_run
    r1, r2 = boundary_residual(lipschitz, final)
    assert 0.0 <= r1 < 5e-3
    assert 0.0 <= r2 < 5e-3


def test_spotcheck_rejects_out_of_range(sublinear, monotone_runs):
    final, _ = monotone_runs["lower"]
    with pytest.raises(ValueError, match="outside"):
        ode_residual_spotcheck(sublinear, final, points=(0.0,))
    with pytest.raises(ValueError, match="outside"):
        ode_residual_spotcheck(sublinear, final,
                               points=(final.grid.t_max * 2.0,))


def test_ordering_audit_passes_real_run(monotone_runs):
    res = ordering_audit(monotone_runs["lower"][1], monotone_runs["upper"][1])
    assert res.ok, res.message
    assert res.worst_excess <= 0.0
    assert res.checked > 10_000
    assert res.slack == pytest.approx(1e-7)  # 10x the loop quadrature tol


def test_ordering_audit_requires_both_directions(monotone_runs):
    low = monotone_runs["lower"][1]
    with pytest.raises(ValueError, match="lower and one upper"):
        ordering_audit(low, low)


def _trace(scheme, direction, pairs, *, m=None, quad_tol=1e-8):
    tr = IterationTrace(scheme=scheme, tol=1e-6, quad_tol=quad_tol,
                        direction=direction, m=m)
    tr.iterates.extend(pairs)
    tr.norms.extend(norm_pair(sp) for sp in pairs)
    for a, b in zip(pairs, pairs[1:]):
        tr.diffs.append(float(np.max(np.abs(a.u_w - b.u_w))))
        tr.violations.append(0)
        tr.seconds.append(0.0)
    return tr


def test_ordering_audit_catches_backslide(grid64):
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    const = lambda v: SolutionPair.constant(grid64, a1, a2, v)
    lower = _trace("monotone", "lower", [const(0.0), const(1.0), const(0.4)])
    upper = _trace("monotone", "upper", [const(5.0), const(4.0)])
    res = ordering_audit(lower, upper)
    assert not res.ok
    assert res.worst_excess == pytest.approx(0.6, abs=1e-6)
    assert "lower chain step" in res.message


def test_ordering_audit_catches_crossing(grid64):
    # Lower iterate 1 peaks at row dv, node 9, above upper iterate 2:
    # the audit names the two iterates that attain the per-node max and
    # min there.
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    const = lambda v: SolutionPair.constant(grid64, a1, a2, v)
    spike = np.ones((4, grid64.n))
    spike[3, 9] = 4.5
    lower = _trace("monotone", "lower", [
        const(0.0), SolutionPair(grid64, a1, a2, spike), const(3.0)])
    upper = _trace("monotone", "upper", [const(5.0), const(4.0), const(2.0)])
    res = ordering_audit(lower, upper)
    assert not res.ok
    assert res.worst_excess == pytest.approx(2.5, abs=1e-6)
    assert "tightest at cross-chain gap between lower iterate 1 and upper " \
        "iterate 2, row dv, node 9 (" in res.message


def test_error_bound_audit_passes_real_run(contraction_run,
                                           report_lipschitz):
    _, trace = contraction_run
    res = error_bound_audit(trace, m=report_lipschitz.m)
    assert res.ok, res.message
    n = trace.n_steps
    assert res.checked == n * (n - 1) // 2
    assert "vs reference" not in res.message


def test_error_bound_audit_rejects_wrong_inputs(monotone_runs,
                                                contraction_run):
    with pytest.raises(ValueError, match="contraction trace"):
        error_bound_audit(monotone_runs["lower"][1])
    _, trace = contraction_run
    with pytest.raises(ValueError, match="in \\[0, 1\\)"):
        error_bound_audit(trace, m=1.5)


def test_error_bound_audit_takes_m_0(grid64):
    # m = 0 promises the fixed point after one step: a trace that stays
    # put holds, and one that moves again breaks the bound by the move.
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    const = lambda v: SolutionPair.constant(grid64, a1, a2, v)
    still = _trace("contraction", None, [const(1.0), const(0.5), const(0.5)],
                   m=0.0)
    res = error_bound_audit(still)
    assert res.ok, res.message
    assert res.checked == 1
    moved = _trace("contraction", None, [const(1.0), const(0.5), const(0.4)],
                   m=0.0)
    res = error_bound_audit(moved)
    assert not res.ok
    assert res.worst_excess == pytest.approx(0.1, abs=1e-6)


def test_error_bound_audit_catches_slow_convergence(grid64):
    # Halving steps are far slower than the promised m = 1e-6, so the
    # geometric bound is violated from the very first iterate.
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    const = lambda v: SolutionPair.constant(grid64, a1, a2, v)
    pairs = [const(1.0), const(0.5), const(0.25), const(0.125)]
    trace = _trace("contraction", None, pairs, m=1e-6)
    res = error_bound_audit(trace)
    assert not res.ok
    assert res.worst_excess > 0.1


def _scanned_error_bound_audit(trace, m):
    """error_bound_audit as a scan over the pairs of iterates, one
    diff_norm each: the oracle for the stacked audit."""
    slack = 10.0 * trace.quad_tol * (1.0 + max(trace.norms))
    its = trace.iterates
    d1 = trace.diffs[0]
    gain = 1.0 / (1.0 - m)
    worst, where, checked = -math.inf, "", 0
    for n in range(1, len(its)):
        for j in range(n + 1, len(its)):
            lhs = diff_norm(its[j], its[n])
            bound = m ** n * (1.0 - m ** (j - n)) * gain * d1 + slack
            checked += 1
            if lhs - bound > worst:
                worst, where = lhs - bound, f"iterates {n} and {j}"
    ok = worst <= 0.0
    message = (f"geometric bound {'holds' if ok else 'broken'} over "
               f"{checked} comparisons; " + (
                   f"tightest at {where}: excess {worst:.3e}" if checked
                   else "one step leaves no pair of iterates to compare"))
    return AuditResult("error_bound", ok, float(worst), checked, slack,
                       message)


def _two_family_ok(trace, m):
    """The audit's verdict when it also checked every iterate n >= 1
    against the final iterate K, within m^n/(1-m) d_1 plus K's own
    a-posteriori bound d_K m/(1-m) and the slack: the reference family
    that the pairs (n, K) imply."""
    slack = 10.0 * trace.quad_tol * (1.0 + max(trace.norms))
    its = trace.iterates
    gain = 1.0 / (1.0 - m)
    allowance = slack + trace.diffs[-1] * m * gain
    reference_ok = all(
        diff_norm(its[n], its[-1]) - (m ** n * gain * trace.diffs[0]
                                      + allowance) <= 0.0
        for n in range(1, len(its)))
    return reference_ok and _scanned_error_bound_audit(trace, m).ok


def test_error_bound_audit_is_the_scan(grid64, rng, contraction_run,
                                       report_lipschitz):
    _, trace = contraction_run
    m = report_lipschitz.m
    assert error_bound_audit(trace, m=m) \
        == _scanned_error_bound_audit(trace, m)
    # Repeated iterates tie many comparisons; random ones break the bound.
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    const = lambda v: SolutionPair.constant(grid64, a1, a2, v)
    for pairs in ([const(1.0), const(0.5), const(0.5), const(0.5)],
                  [const(1.0), const(1.0)],
                  [SolutionPair(grid64, a1, a2, rng.uniform(size=(4, 64)))
                   for _ in range(7)]):
        for m in (1e-6, 0.5):
            tr = _trace("contraction", None, pairs, m=m)
            assert error_bound_audit(tr) == _scanned_error_bound_audit(tr, m)


def test_error_bound_audit_of_one_step_compares_nothing(grid64):
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    one = _trace("contraction", None, [
        SolutionPair.constant(grid64, a1, a2, v) for v in (0.0, 3.0)], m=0.5)
    res = error_bound_audit(one)
    assert (res.ok, res.checked, res.worst_excess) == (True, 0, -math.inf)
    assert res.message == ("geometric bound holds over 0 comparisons; one "
                           "step leaves no pair of iterates to compare")


def test_error_bound_audit_drops_the_self_comparison(kernels):
    # both.prob's contraction run at n = 32 stops after 5 steps.  Its
    # tightest comparison was the final iterate against itself; the
    # audit now reports the tightest of the 10 pairs.
    lp = resolve_problem(str(Path(__file__).parent / "data" / "both.prob"))
    m = build_report(lp.spec, expected=lp.expected).m
    _, trace = contract_solve(lp.spec, *kernels, Grid.make(32), m=m)
    assert trace.n_steps == 5
    res = error_bound_audit(trace)
    assert res.ok and res.checked == 10
    assert "vs reference" not in res.message
    its, slack = trace.iterates, res.slack
    excesses = {(n, j): diff_norm(its[j], its[n]) - (
        m ** n * (1.0 - m ** (j - n)) / (1.0 - m) * trace.diffs[0] + slack)
        for n in range(1, 6) for j in range(n + 1, 6)}
    assert res.worst_excess == pytest.approx(max(excesses.values()),
                                             rel=1e-12)
    n, j = max(excesses, key=excesses.get)
    assert f"tightest at iterates {n} and {j}: " in res.message


@settings(max_examples=200, deadline=None)
@given(m=st.floats(0.0, 0.99), steps=st.integers(1, 12),
       noise=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_error_bound_audit_keeps_the_two_family_verdict(m, steps, noise,
                                                        seed):
    # Contraction-like traces: step k has norm about m^k, scaled by a
    # random factor in [1 - noise, 1 + noise], in a random direction.
    # Dropping the reference family never changes the verdict.
    rng = np.random.default_rng(seed)
    grid = Grid.make(16)
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    stack = np.zeros((4, grid.n))
    pairs = [SolutionPair(grid, a1, a2, stack)]
    for k in range(steps):
        step = rng.uniform(-1.0, 1.0, (4, grid.n))
        step *= m ** k * rng.uniform(1.0 - noise, 1.0 + noise) \
            / np.abs(step).max()
        stack = stack + step
        pairs.append(SolutionPair(grid, a1, a2, stack))
    tr = IterationTrace(scheme="contraction", tol=1e-6, quad_tol=1e-8, m=m,
                        iterates=pairs, norms=[norm_pair(p) for p in pairs],
                        diffs=[diff_norm(a, b)
                               for a, b in zip(pairs, pairs[1:])])
    assert error_bound_audit(tr).ok == _two_family_ok(tr, m)


def test_verification_report_json(sublinear, op_sublinear, monotone_runs,
                                  contraction_run, report_lipschitz):
    final, _ = monotone_runs["lower"]
    rep = verify_pair(sublinear, final, op_sublinear)
    rep.ordering = ordering_audit(monotone_runs["lower"][1],
                                  monotone_runs["upper"][1])
    doc = json.loads(json.dumps(rep.to_dict()))
    assert set(doc) == {"fixed_point_residual", "bc_residual_1",
                        "bc_residual_2", "ode_residuals", "ordering",
                        "error_bound", "details"}
    assert doc["ordering"]["ok"] is True
    assert doc["error_bound"] is None
    assert doc["details"]["grid_n"] == 64


def test_rl_integral_with_declared_nodes_matches_scipy(contraction_run):
    """rl_integral with the grid nodes declared agrees with QUADPACK
    given the same breakpoints, on the reconstructed rows the ODE
    spot-check differentiates.  On the upper half scipy integrates in
    y = (t-s)^q, which removes the kernel's endpoint singularity."""
    from scipy.integrate import quad

    from fracbvp import gamma, rl_integral
    from fracbvp.verify import _psi_interpolant

    sp, _ = contraction_run
    nodes = sp.grid.nodes
    kinks = tuple(nodes.tolist())
    for row_w, row_d, alpha in ((sp.u_w, sp.du, sp.alpha1),
                                (sp.v_w, sp.dv, sp.alpha2)):
        u = _psi_interpolant(nodes, row_w, row_d, alpha)
        q = math.ceil(alpha.q) - alpha.q
        for t in (0.5, 1.0, 1.37, 2.0):
            got = rl_integral(u, q, t, tol=1e-12, g_exponent=alpha.q - 1.0,
                              kinks=kinks)
            half = 0.5 * t
            lo, _ = quad(lambda s: (t - s) ** (q - 1.0) * float(u(s)),
                         0.0, half, points=nodes[nodes < half],
                         epsabs=1e-13, epsrel=1e-13, limit=2000)
            upper = nodes[(nodes > half) & (nodes < t)]
            hi, _ = quad(lambda y: float(u(t - y ** (1.0 / q))) / q,
                         0.0, half ** q, points=(t - upper) ** q,
                         epsabs=1e-13, epsrel=1e-13, limit=2000)
            want = (lo + hi) / gamma(q)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (alpha, t)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_spotcheck_matches_the_scalar_route(monkeypatch, n, kernels,
                                            sublinear, lipschitz,
                                            report_lipschitz):
    """Every stencil point of every level in one batch leaves each
    spot-check entry as the one-point-at-a-time route gives it."""
    import fracbvp.verify as verify_mod
    from fracbvp import Grid, IntegralOperator, contract_solve, monotone_solve
    from test_fracops import _each_t, _reference_rl_derivative

    ks1, ks2 = kernels
    grid = Grid.make(n)
    sp_sub, _ = monotone_solve(
        sublinear, ks1, ks2, grid, "lower", tol=1e-5,
        operator=IntegralOperator(sublinear, ks1, ks2, grid))
    sp_lip, _ = contract_solve(
        lipschitz, ks1, ks2, grid, tol=1e-4, m=report_lipschitz.m,
        operator=IntegralOperator(lipschitz, ks1, ks2, grid))
    for p, sp in ((sublinear, sp_sub), (lipschitz, sp_lip)):
        got = ode_residual_spotcheck(p, sp)
        with monkeypatch.context() as m:
            m.setattr(verify_mod, "rl_derivative",
                      _each_t(_reference_rl_derivative))
            want = ode_residual_spotcheck(p, sp)
        assert len(got) == 6 and repr(got) == repr(want)


def test_spotcheck_is_one_rl_derivative_per_equation(monkeypatch, sublinear,
                                                     monotone_runs):
    import fracbvp.verify as verify_mod
    final, _ = monotone_runs["lower"]
    real, calls = verify_mod.rl_derivative, []

    def counted(*args, **kw):
        calls.append(args[2])
        return real(*args, **kw)

    monkeypatch.setattr(verify_mod, "rl_derivative", counted)
    # Every point is checked before any derivative is taken.
    with pytest.raises(ValueError, match="outside"):
        ode_residual_spotcheck(sublinear, final,
                               points=(0.5, final.grid.t_max * 2.0))
    assert calls == []
    got = ode_residual_spotcheck(sublinear, final)
    assert calls == [verify_mod._SPOT_POINTS] * 2
    assert [(e["t"], e["equation"]) for e in got] \
        == [(t, eq) for t in verify_mod._SPOT_POINTS for eq in (1, 2)]
