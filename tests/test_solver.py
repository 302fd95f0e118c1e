"""Discretized integral operator and the two iteration schemes.

The operator has two independent representations of the same object: the
assembled panel quadrature used inside iterations, and the adaptive
kernel/derivative quadratures built directly from the kernel formulas.
The oracle tests here compare the two on a forcing-only problem, where
one operator application already is the exact image.
"""

import json

import numpy as np
import pytest

from fracbvp import (
    ContractionRatioWarning,
    FracOrder,
    Grid,
    Integrand,
    IntegralOperator,
    LipschitzData,
    MonotonicityError,
    ProblemSpec,
    SolutionPair,
    contract_solve,
    derivative_representation,
    diff_norm,
    kernel_representation,
    monotone_solve,
    norm_pair,
)
from fracbvp.exprlang import parse
from fracbvp.solver import _enforce_ordering, _gauss_jacobi
from fracbvp.verify import _flat_pchip


def test_grid_make():
    g = Grid.make(64)
    assert g.n == 64
    assert g.theta == 5.0
    assert np.all(np.diff(g.nodes) > 0.0)
    assert g.nodes[0] > 0.0
    assert g.t_max == pytest.approx(14384.353310464809, abs=1e-6)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.make(8)  # too coarse for the tail panels to mean anything
    with pytest.raises(ValueError):
        Grid(nodes=np.linspace(1.0, 0.0, 32), theta=5.0)
    with pytest.raises(ValueError):
        Grid(nodes=np.linspace(0.0, 1.0, 32), theta=5.0)  # t=0 is not usable


def test_solution_pair_constructors(grid64):
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    z = SolutionPair.zeros(grid64, a1, a2)
    assert norm_pair(z) == 0.0
    c = SolutionPair.constant(grid64, a1, a2, 2.5)
    assert norm_pair(c) == 2.5
    up = SolutionPair.upper_start(grid64, a1, a2, 7.0, 1.3, 0.9)
    t = grid64.nodes
    assert np.allclose(up.u(), 7.0 * t**1.5, rtol=1e-13)
    assert np.allclose(up.v(), 7.0 * t**0.5, rtol=1e-13)
    assert np.all(up.du == 1.3 * 7.0)
    assert np.all(up.dv == 0.9 * 7.0)


def test_solution_pair_shape_checked(grid64):
    with pytest.raises(ValueError, match="must match the grid"):
        SolutionPair(grid64, FracOrder(2.5), FracOrder(1.5),
                     u_w=np.zeros(3), v_w=np.zeros(grid64.n),
                     du=np.zeros(grid64.n), dv=np.zeros(grid64.n))


def test_norms(grid64):
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    a = SolutionPair.constant(grid64, a1, a2, 1.0)
    b = SolutionPair.constant(grid64, a1, a2, -0.5)
    assert norm_pair(b) == 0.5
    assert diff_norm(a, b) == 1.5


def test_csv_layout(grid64):
    sp = SolutionPair.constant(grid64, FracOrder(2.5), FracOrder(1.5), 1.0)
    lines = sp.to_csv().strip().splitlines()
    assert lines[0] == "t,u,v,du,dv"
    assert len(lines) == grid64.n + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == pytest.approx(grid64.nodes[0])


@pytest.fixture(scope="module")
def forcing_only(sublinear, kernels, grid64):
    """A problem whose right-hand sides ignore the state: one operator
    application from anywhere is the exact fixed point, and both rows
    have closed adaptive-quadrature counterparts."""
    zero = Integrand(lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    p = ProblemSpec(
        alpha1=sublinear.alpha1, alpha2=sublinear.alpha2,
        h1=sublinear.h1, h2=sublinear.h2,
        f1=parse("exp(-t)"), f2=parse("2*exp(-2*t)"),
        lipschitz=LipschitzData(b1=(zero,) * 4, b2=(zero,) * 4))
    ks1, ks2 = kernels
    op = IntegralOperator(p, ks1, ks2, grid64)
    image = op.apply(SolutionPair.zeros(grid64, ks1.alpha, ks2.alpha))
    return p, op, image


def test_operator_matches_kernel_quadrature(forcing_only, kernels, grid64):
    """Panel-assembled u and v rows against the adaptive kernel integral."""
    _, _, image = forcing_only
    ks1, ks2 = kernels
    f1 = Integrand(lambda s: np.exp(-s), decay_hint=1.0)
    f2 = Integrand(lambda s: 2.0 * np.exp(-2.0 * s), decay_hint=2.0)
    u, v = image.u(), image.v()
    for j in (0, 5, 15, 25, 35, 42):
        t = float(grid64.nodes[j])
        if t > 10.0:
            continue
        want_u = kernel_representation(ks1, f1, t, tol=1e-12)
        want_v = kernel_representation(ks2, f2, t, tol=1e-12)
        assert abs(u[j] - want_u) <= 1e-7 * (1.0 + abs(want_u)), (j, t)
        assert abs(v[j] - want_v) <= 1e-7 * (1.0 + abs(want_v)), (j, t)


def test_operator_matches_derivative_quadrature(forcing_only, kernels,
                                                grid64):
    """The derivative rows stay well-conditioned even at huge t, so the
    two routes must agree across the whole grid."""
    _, _, image = forcing_only
    ks1, ks2 = kernels
    f1 = Integrand(lambda s: np.exp(-s), decay_hint=1.0)
    f2 = Integrand(lambda s: 2.0 * np.exp(-2.0 * s), decay_hint=2.0)
    for j in (0, 10, 30, 50, 63):
        t = float(grid64.nodes[j])
        want_du = derivative_representation(ks1, f1, t, tol=1e-12)
        want_dv = derivative_representation(ks2, f2, t, tol=1e-12)
        assert abs(image.du[j] - want_du) <= 1e-8 * (1.0 + abs(want_du))
        assert abs(image.dv[j] - want_dv) <= 1e-8 * (1.0 + abs(want_dv))


def test_forcing_only_is_idempotent(forcing_only):
    _, op, image = forcing_only
    again = op.apply(image)
    assert diff_norm(again, image) == 0.0


def test_apply_is_deterministic(forcing_only, grid64, kernels):
    _, op, image = forcing_only
    ks1, ks2 = kernels
    z = SolutionPair.zeros(grid64, ks1.alpha, ks2.alpha)
    a = op.apply(z)
    b = op.apply(z)
    assert diff_norm(a, b) == 0.0


def _scipy_flat_pchip(xp, fp):
    """The reference: scipy's PchipInterpolator, extended flat."""
    from scipy.interpolate import PchipInterpolator
    with np.errstate(over="ignore", divide="ignore"):
        pch = PchipInterpolator(xp, fp, extrapolate=False)

    def fn(s):
        out = np.where(s <= xp[0], fp[0], pch(s))
        return np.where(s >= xp[-1], fp[-1], out)

    return fn


def _pchip_rows(rng):
    """(xp, fp) pairs: decaying rows, sign changes, flat runs, and rows
    that decay to subnormal values."""
    for k in range(240):
        xp = np.unique(np.concatenate(
            ([0.0], rng.uniform(0.0, 30.0, rng.integers(2, 70)))))
        if k % 4 == 0:
            fp = rng.uniform(0.1, 3.0) * np.exp(-rng.uniform(0.1, 2.0) * xp)
        elif k % 4 == 1:
            fp = rng.normal(size=xp.size)
        elif k % 4 == 2:
            fp = np.repeat(rng.normal(size=xp.size),
                           rng.integers(1, 5, xp.size))[:xp.size]
        else:
            fp = 1e-280 * np.exp(-rng.uniform(20.0, 40.0) * xp)
        yield xp, fp


def test_flat_pchip_is_scipy_pchip_bit_for_bit(rng):
    n = 0
    for xp, fp in _pchip_rows(rng):
        s = np.concatenate((xp, rng.uniform(-1.0, 32.0, 100)))
        assert np.array_equal(_flat_pchip(xp, fp)(s),
                              _scipy_flat_pchip(xp, fp)(s))
        n += 1
    assert n >= 200


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 1.9])
def test_gauss_jacobi_matches_scipy(a):
    from scipy.special import roots_jacobi
    x, w = _gauss_jacobi(12, a)
    xs, ws = roots_jacobi(12, a, 0.0)
    assert np.max(np.abs(x - xs)) <= 1e-15
    assert np.max(np.abs(w / ws - 1.0)) <= 1e-13


def test_operator_rejects_unknown_interp(lipschitz, kernels, grid64):
    ks1, ks2 = kernels
    with pytest.raises(ValueError, match="interp"):
        IntegralOperator(lipschitz, ks1, ks2, grid64, interp="cubic")


def test_monotone_direction_validated(sublinear, kernels, grid64,
                                      op_sublinear):
    ks1, ks2 = kernels
    with pytest.raises(ValueError, match="direction"):
        monotone_solve(sublinear, ks1, ks2, grid64, "sideways",
                       operator=op_sublinear)
    with pytest.raises(ValueError, match=r"build_report\(p\)\.R"):
        monotone_solve(sublinear, ks1, ks2, grid64, "upper",
                       operator=op_sublinear)


def test_monotone_nonconvergence_reported(sublinear, kernels, grid64,
                                          op_sublinear, report_sublinear):
    ks1, ks2 = kernels
    _, trace = monotone_solve(sublinear, ks1, ks2, grid64, "lower",
                              tol=1e-12, max_iter=2, operator=op_sublinear)
    assert not trace.converged
    assert "not converged in 2 steps" in trace.message
    assert trace.n_steps == 2


def test_contract_requires_modulus_below_one(lipschitz, kernels, grid64):
    ks1, ks2 = kernels
    with pytest.raises(ValueError, match="not below 1"):
        contract_solve(lipschitz, ks1, ks2, grid64, m=1.0)


def test_contract_warns_on_broken_ratio_promise(lipschitz, kernels, grid64,
                                                op_lipschitz):
    # m = 0.01 promises ratios ~0.06; the true operator contracts at
    # ~0.23, so the promise is detectably broken after three steps.
    ks1, ks2 = kernels
    with pytest.warns(ContractionRatioWarning):
        _, trace = contract_solve(lipschitz, ks1, ks2, grid64, tol=1e-13,
                                  max_iter=8, m=0.01, operator=op_lipschitz)
    assert not trace.converged


def test_enforce_ordering_clips_dust(grid64):
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    prev = SolutionPair.constant(grid64, a1, a2, 1.0)
    dip = SolutionPair.constant(grid64, a1, a2, 1.0 - 1e-9)
    clipped, count = _enforce_ordering(prev, dip, 1.0, slack=1e-7, step=1)
    assert count == 4 * grid64.n
    assert norm_pair(clipped) == 1.0
    assert diff_norm(clipped, prev) == 0.0


def test_enforce_ordering_raises_on_real_breaks(grid64):
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    prev = SolutionPair.constant(grid64, a1, a2, 1.0)
    drop = SolutionPair.zeros(grid64, a1, a2)
    with pytest.raises(MonotonicityError,
                       match="breaks the chain ordering") as exc:
        _enforce_ordering(prev, drop, 1.0, slack=1e-7, step=3)
    # t prints as a plain float, not as numpy's np.float64(...).
    assert f"at node 0 (t={float(grid64.nodes[0])!r}) by" in str(exc.value)
    # The same pair is fine for the descending chain.
    clipped, count = _enforce_ordering(prev, drop, -1.0, slack=1e-7, step=3)
    assert count == 0
    assert norm_pair(clipped) == 0.0


def test_trace_csv_and_json(monotone_runs):
    _, trace = monotone_runs["lower"]
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "iteration,norm,diff,violations,seconds"
    assert len(lines) == trace.n_steps + 2  # header + start + steps
    doc = json.loads(json.dumps(trace.to_dict()))
    assert doc["scheme"] == "monotone"
    assert doc["direction"] == "lower"
    assert doc["converged"] is True
    assert len(doc["diffs"]) == trace.n_steps


def test_contraction_stop_rule(contraction_run, report_lipschitz):
    final, trace = contraction_run
    assert trace.converged
    m = report_lipschitz.m
    assert trace.diffs[-1] * m / (1.0 - m) <= trace.tol
    # And the step before was not yet good enough, so we stopped exactly
    # when the a-posteriori bound first allowed it.
    assert trace.diffs[-2] * m / (1.0 - m) > trace.tol
