"""Discretized integral operator and the two iteration schemes.

The operator has two independent representations of the same object: the
assembled panel quadrature used inside iterations, and the adaptive
kernel/derivative quadratures built directly from the kernel formulas.
The oracle tests here compare the two on a forcing-only problem, where
one operator application already is the exact image.
"""

import gc
import json
import re
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fracbvp import (
    FracOrder,
    Grid,
    Integrand,
    IntegralOperator,
    IterationTrace,
    KernelSet,
    LipschitzData,
    MonotonicityError,
    ProblemSpec,
    SolutionPair,
    build_report,
    contract_solve,
    derivative_representation,
    diff_norm,
    kernel_representation,
    monotone_solve,
    norm_pair,
    ordering_audit,
    resolve_problem,
)
from fracbvp import solver as solver_mod
from fracbvp import verify as verify_mod
from fracbvp.cli import _table, _trace_columns
from fracbvp.exprlang import compile_expr, parse
from fracbvp.quad import _gl
from fracbvp.solver import _PANEL_POINTS, _enforce_ordering, _product_weights
from fracbvp.verify import _flat_pchip


def test_grid_make():
    g = Grid.make(64)
    assert g.n == 64
    assert np.all(np.diff(g.nodes) > 0.0)
    assert g.nodes[0] > 0.0
    assert g.t_max == pytest.approx(14384.353310464809, abs=1e-6)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.make(8)  # too coarse for the tail panels to mean anything
    with pytest.raises(ValueError):
        Grid(nodes=np.linspace(1.0, 0.0, 32))
    with pytest.raises(ValueError):
        Grid(nodes=np.linspace(0.0, 1.0, 32))  # t=0 is not usable
    with pytest.raises(ValueError):
        Grid(nodes=np.append(np.linspace(1.0, 2.0, 31), np.inf))


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
    # The one constructor takes the (4, n) stack; a stack short of a row
    # or of a node, or one with a value that is not finite, is refused.
    a1, a2, n = FracOrder(2.5), FracOrder(1.5), grid64.n
    for shape in ((3, n), (4, n - 1)):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"the stack must match the grid: (4, {n}), got {shape}")):
            SolutionPair(grid64, a1, a2, np.zeros(shape))
    for r, bad in ((0, np.nan), (3, np.inf), (2, -np.inf)):
        stack = np.zeros((4, n))
        stack[r, 5] = bad
        with pytest.raises(ValueError,
                           match="^solution rows must be finite$"):
            SolutionPair(grid64, a1, a2, stack)


def test_norms(grid64):
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    a = SolutionPair.constant(grid64, a1, a2, 1.0)
    b = SolutionPair.constant(grid64, a1, a2, -0.5)
    assert norm_pair(b) == 0.5
    assert diff_norm(a, b) == 1.5


def test_csv_layout(grid64):
    sp = SolutionPair.constant(grid64, FracOrder(2.5), FracOrder(1.5), 1.0)
    lines = _table((), sp.to_dict()).strip().splitlines()
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


@pytest.mark.parametrize("a", np.linspace(0.0, 2.0, 21)[1:])
def test_product_weights_integrate_the_kink_exactly(a):
    """On the panel touching t_j the plan weighs F at its own
    Gauss-Legendre points by weights for (1-x)^a, a = alpha - 1 in
    (0, 2]: positive, and exact on every Legendre polynomial P_p the
    points can resolve (p < 8), measured against QUADPACK's algebraic
    weight rule."""
    from scipy.integrate import quad
    from scipy.special import eval_legendre
    x, _ = _gl(_PANEL_POINTS)
    w = _product_weights(_PANEL_POINTS, a)
    assert np.all(w > 0.0)
    mass = 2.0 ** (a + 1.0) / (a + 1.0)  # int (1-x)^a; bounds |moments|

    def exact(fn):  # QAWS: modified Clenshaw-Curtis, exact on polynomials
        return quad(fn, -1.0, 1.0, weight="alg", wvar=(0.0, a))[0]

    for p in range(_PANEL_POINTS):
        got = w @ eval_legendre(p, x)
        assert abs(got - exact(lambda y: eval_legendre(p, y))) <= 1e-13 * mass
    # A smooth non-polynomial: the error is exp's Legendre tail beyond
    # degree 7, about 2e-11 of the mass at worst on this grid of a.
    assert abs(w @ np.exp(x) - exact(np.exp)) <= 1e-9 * mass


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("case", [
    "sublinear", "lipschitz", (3.0, 2.0, True), (2.01, 1.01, False)],
    ids=["sublinear", "lipschitz", "orders-3-2", "orders-2.01-1.01-no-h"])
def test_every_node_row_weighs_f_by_nonnegative_coefficients(request,
                                                             case, n):
    """Each equation's u and du rows are linear in F at the plan's
    points; every coefficient of that map is >= 0, at the packaged
    problems' orders and at both ends of the problem files' ranges (the
    second without boundary weights)."""
    if isinstance(case, str):
        p = request.getfixturevalue(case)
        orders, weights = (p.alpha1, p.alpha2), (p.h1, p.h2)
    else:
        p = request.getfixturevalue("sublinear")
        orders = (FracOrder(case[0]), FracOrder(case[1]))
        weights = (p.h1, p.h2) if case[2] else (None, None)
    kss = [KernelSet.build(a, h) for a, h in zip(orders, weights)]
    plan = solver_mod._Plan(*kss, Grid.make(n).nodes)
    unit = np.eye(plan.s.size)
    # F_1 = F_2 = e: row k of the (4, n) rows is row k's coefficient.
    coef = np.array([plan.assemble(np.stack((e, e))) for e in unit])
    assert np.all(coef >= 0.0), np.count_nonzero(coef < 0.0, axis=(0, 2))


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
    # ~0.23, so the promise is detectably broken after three steps.  The
    # run records it once, in its trace, and issues no Python warning.
    ks1, ks2 = kernels
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, trace = contract_solve(lipschitz, ks1, ks2, grid64, tol=1e-13,
                                  max_iter=8, m=0.01, operator=op_lipschitz)
    assert caught == []
    assert len(trace.warnings) == 1
    assert trace.warnings[0].startswith(
        "difference ratios exceeded m + 0.05 = 0.0600 for 3 consecutive")
    assert trace.to_dict()["warnings"] == trace.warnings
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


_ROWS = ("u_w", "du", "v_w", "dv")


# The per-row step bookkeeping that the stacked SolutionPair replaced,
# kept as the oracle for the stacked route.
def _per_row_enforce_ordering(prev, new, sign, slack, step):
    rows = []
    count = 0
    for name, pr, nr in zip(_ROWS, prev.rows(), new.rows()):
        deficit = sign * (pr - nr)
        worst = float(np.max(deficit))
        if worst > slack:
            j = int(np.argmax(deficit))
            raise MonotonicityError(
                f"iteration {step}: row {name} breaks the chain ordering at "
                f"node {j} (t={float(prev.grid.nodes[j])!r}) by {worst:.3e}, "
                f"beyond the quadrature slack {slack:.3e}")
        bad = deficit > 0.0
        count += int(np.count_nonzero(bad))
        rows.append(np.where(bad, pr, nr))
    clipped = SolutionPair(prev.grid, prev.alpha1, prev.alpha2,
                           np.array(rows))
    return clipped, count


def _per_row_norm_pair(sp):
    return max(float(np.max(np.abs(r))) for r in sp.rows())


def _per_row_diff_norm(a, b):
    return max(float(np.max(np.abs(x - y)))
               for x, y in zip(a.rows(), b.rows()))


def _ordered_pairs(grid, rng, slack):
    """(prev, new, sign) with new on the required side of prev, then
    dust (dips within slack, clipped), exact ties, and breaks: one row,
    or two rows whose later one breaks deeper."""
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    n = grid.n
    for k in range(240):
        sign = 1.0 if k % 2 else -1.0
        prev = rng.uniform(0.0, 10.0, (4, n))
        new = prev + sign * rng.uniform(0.0, 1.0, (4, n))
        kind = k % 6
        if kind >= 1:
            dust = rng.uniform(size=(4, n)) < 0.2
            new[dust] = (prev - sign * rng.uniform(0.0, slack, (4, n)))[dust]
        if kind >= 2:
            ties = rng.uniform(size=(4, n)) < 0.1
            new[ties] = prev[ties]
        if kind == 4:
            r, j = rng.integers(4), rng.integers(n)
            new[r, j] = prev[r, j] - sign * rng.uniform(2.0, 5.0) * slack
        if kind == 5:
            r1, r2 = np.sort(rng.choice(4, size=2, replace=False))
            j1, j2 = rng.integers(n, size=2)
            new[r1, j1] = prev[r1, j1] - sign * 2.0 * slack
            new[r2, j2] = prev[r2, j2] - sign * 50.0 * slack
        yield (SolutionPair(grid, a1, a2, prev),
               SolutionPair(grid, a1, a2, new), sign)


def test_stacked_bookkeeping_is_the_per_row_route(rng):
    grid = Grid.make(16)
    slack = 1e-7
    raised = 0
    for step, (prev, new, sign) in enumerate(
            _ordered_pairs(grid, rng, slack)):
        assert diff_norm(new, prev) == _per_row_diff_norm(new, prev)
        assert norm_pair(new) == _per_row_norm_pair(new)
        try:
            want = _per_row_enforce_ordering(prev, new, sign, slack, step)
        except MonotonicityError as exc:
            with pytest.raises(MonotonicityError) as got:
                _enforce_ordering(prev, new, sign, slack, step)
            assert str(got.value) == str(exc)
            raised += 1
            continue
        got = _enforce_ordering(prev, new, sign, slack, step)
        assert got[1] == want[1]
        _assert_same_rows(got[0], want[0], step)
        assert norm_pair(got[0]) == _per_row_norm_pair(want[0])
        assert diff_norm(got[0], prev) == _per_row_diff_norm(want[0], prev)
    assert raised == 80


def test_enforce_ordering_names_the_first_broken_row(grid64):
    # du and dv both break; dv by more.  The error names du at its own
    # worst node, as the rows are checked in the order u_w, du, v_w, dv.
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    prev = SolutionPair.constant(grid64, a1, a2, 1.0)
    du, dv = np.ones(grid64.n), np.ones(grid64.n)
    du[7], dv[3] = 0.5, 0.0
    new = SolutionPair(grid64, a1, a2, np.array([prev.u_w, du, prev.v_w, dv]))
    with pytest.raises(MonotonicityError) as exc:
        _enforce_ordering(prev, new, 1.0, slack=1e-7, step=2)
    assert str(exc.value).startswith("iteration 2: row du breaks the chain "
                                     "ordering at node 7 (")
    assert "by 5.000e-01" in str(exc.value)


@pytest.mark.parametrize("climb", ["zero", "u_w only"])
def test_ordering_audit_ties_match_the_per_row_stack(monkeypatch, grid64,
                                                     climb):
    # All climbs zero, or zero in every row but u_w: the flat argmax
    # picks the first zero, so the row order decides the message.
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    start = SolutionPair.constant(grid64, a1, a2, 1.0)
    u_w = start.u_w + (climb != "zero")
    step = SolutionPair(grid64, a1, a2,
                        np.array([u_w, start.du, start.v_w, start.dv]))
    lower, upper = (IterationTrace(scheme="monotone", tol=1e-6,
                                   quad_tol=1e-8, direction=d,
                                   iterates=its) for d, its in
                    (("lower", [start, step]),
                     ("upper", [SolutionPair.constant(grid64, a1, a2, v)
                                for v in (9.0, 8.0)])))
    got = ordering_audit(lower, upper).message
    row = "du" if climb == "u_w only" else "u_w"
    assert f"tightest at lower chain step 1, row {row}, node 0 " in got
    monkeypatch.setattr(verify_mod, "_stack", lambda tr: np.stack(
        [np.stack(it.rows()) for it in tr.iterates]))
    assert ordering_audit(lower, upper).message == got


def test_solution_pair_rows_are_views_of_one_read_only_stack(grid64, rng):
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    given = rng.normal(size=(4, grid64.n))
    sp = SolutionPair(grid64, a1, a2, given)
    # The constructor takes the stack as given and makes it read-only.
    assert sp.stack is given
    assert not given.flags.writeable
    z = SolutionPair.zeros(grid64, a1, a2)
    for pair in (sp, _enforce_ordering(z, sp, -1.0, 100.0, 1)[0]):
        assert pair.stack.shape == (4, grid64.n)
        assert pair.stack.flags.c_contiguous
        assert not pair.stack.flags.writeable
        for k, name in enumerate(_ROWS):
            row = getattr(pair, name)
            assert np.shares_memory(row, pair.stack)
            assert np.array_equal(row, pair.stack[k])
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0
        assert all(np.shares_memory(r, pair.stack) for r in pair.rows())


def test_applied_pair_is_a_read_only_stack(forcing_only):
    _, _, image = forcing_only
    assert image.stack.flags.c_contiguous
    assert not image.stack.flags.writeable
    assert all(np.shares_memory(r, image.stack) for r in image.rows())


def test_solution_pair_csv_and_dict_columns(grid64, rng):
    a1, a2 = FracOrder(2.5), FracOrder(1.5)
    rows = dict(zip(_ROWS, rng.uniform(size=(4, grid64.n))))
    sp = SolutionPair(grid64, a1, a2, np.array(list(rows.values())))
    t = grid64.nodes
    want = {"t": t, "u": rows["u_w"] * (1.0 + t ** 1.5),
            "v": rows["v_w"] * (1.0 + t ** 0.5),
            "du": rows["du"], "dv": rows["dv"]}
    assert sp.to_dict() == {k: v.tolist() for k, v in want.items()}
    lines = ["t,u,v,du,dv"] + [",".join(repr(float(x)) for x in row)
                               for row in zip(*want.values())]
    assert _table((), sp.to_dict()) == "\n".join(lines) + "\n"


def test_apply_rejects_a_non_finite_image(sublinear, kernels, grid64):
    # Finite forcing values whose tail integral overflows: f's own check
    # passes, the assembled rows do not.
    ks1, ks2 = kernels
    zero = Integrand(lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    p = ProblemSpec(
        alpha1=sublinear.alpha1, alpha2=sublinear.alpha2,
        h1=sublinear.h1, h2=sublinear.h2,
        f1=parse("exp(-t)"), f2=parse("1e300"),
        lipschitz=LipschitzData(b1=(zero,) * 4, b2=(zero,) * 4))
    op = IntegralOperator(p, ks1, ks2, grid64)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="^solution rows must be finite$"):
        op.apply(SolutionPair.zeros(grid64, ks1.alpha, ks2.alpha))


def test_trace_csv_and_json(monotone_runs):
    _, trace = monotone_runs["lower"]
    lines = _table((), _trace_columns(trace.to_dict())).strip().splitlines()
    assert lines[0] == "iteration,norm,diff,violations,seconds"
    assert len(lines) == trace.n_steps + 2  # header + start + steps
    doc = json.loads(json.dumps(trace.to_dict()))
    assert doc["scheme"] == "monotone"
    assert doc["direction"] == "lower"
    assert doc["converged"] is True
    assert len(doc["diffs"]) == trace.n_steps


def test_trace_dict_is_its_fields_but_iterates(monotone_runs):
    # Keyword-only fields in the JSON document's order; an attribute set
    # from outside stays out of the document.
    _, trace = monotone_runs["lower"]
    names = [f.name for f in fields(IterationTrace)]
    assert names[-1] == "iterates"
    assert list(trace.to_dict()) == names[:-1]
    copy = replace(trace)
    copy.extra = 1
    assert copy.to_dict() == trace.to_dict()
    with pytest.raises(TypeError):
        IterationTrace("monotone", 1e-5, 1e-8)


def test_contraction_stop_rule(contraction_run, report_lipschitz):
    final, trace = contraction_run
    assert trace.converged
    m = report_lipschitz.m
    assert trace.diffs[-1] * m / (1.0 - m) <= trace.tol
    # And the step before was not yet good enough, so we stopped exactly
    # when the a-posteriori bound first allowed it.
    assert trace.diffs[-2] * m / (1.0 - m) > trace.tol


class _InterpRoute(IntegralOperator):
    """The operator with its states taken the plain way on every apply:
    np.interp on [0, t_1..t_N] (weighted rows, anchored at 0) and on
    t_1..t_N (derivative rows), the weights 1 + s^(alpha-1) recomputed,
    and the forcing compiled unbound on each equation's points; each
    equation's rows come from F one equation at a time, by _assemble.
    It shares only the quadrature plan's arrays with the operator."""

    def __init__(self, p, ks1, ks2, grid):
        super().__init__(p, ks1, ks2, grid)
        self.unbound = (compile_expr(p.f1), compile_expr(p.f2))
        self.kss = (ks1, ks2)

    def _assemble(self, k, vals):
        """Equation k's node rows (weighted u row, derivative row) from
        F at the plan's points s."""
        plan, ks = self.plan, self.kss[k]
        wf = plan.w * vals
        psums = np.add.reduceat(wf, plan.panel_starts)
        right = psums[::-1].cumsum()[::-1]
        a_total = float(right[0])
        c_total = float(np.dot(wf, plan.g_at_s[k]))
        remainder = right[plan.first_right_panel]
        p = plan.kmat[k] @ vals[:plan.n_left_points]
        ga, t_pow = ks.gamma_alpha, plan.t_pow[k]
        boundary = c_total / ks.denom
        u = (t_pow * a_total - p) / ga + t_pow * boundary
        du = remainder + ga * boundary
        return u / (1.0 + t_pow), du

    def apply(self, sp):
        t = self.grid.nodes
        t0 = np.concatenate(([0.0], t))
        rows, s = [], self.plan.s
        for k, f in enumerate(self.unbound):
            u, v = (np.interp(s, t0, np.concatenate(([0.0], row)))
                    * (1.0 + s ** (alpha.q - 1.0)) for row, alpha
                    in ((sp.u_w, self.alpha1), (sp.v_w, self.alpha2)))
            vals = f(s, u, v, np.interp(s, t, sp.du), np.interp(s, t, sp.dv))
            rows += self._assemble(k, vals)
        return SolutionPair(self.grid, self.alpha1, self.alpha2,
                            np.array(rows))


def _assert_same_rows(a, b, what):
    for name, x, y in zip(("u_w", "du", "v_w", "dv"), a.rows(), b.rows()):
        assert np.array_equal(x, y), (what, name)


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("name, radius", [("sublinear", "R"),
                                          ("lipschitz", "r")])
def test_apply_and_solves_are_the_interp_route_bit_for_bit(
        request, kernels, name, radius, n):
    p = request.getfixturevalue(name)
    report = request.getfixturevalue(f"report_{name}")
    ks1, ks2 = kernels
    grid = Grid.make(n)
    op = IntegralOperator(p, ks1, ks2, grid)
    oracle = _InterpRoute(p, ks1, ks2, grid)
    upper = SolutionPair.upper_start(grid, ks1.alpha, ks2.alpha,
                                     getattr(report, radius),
                                     ks1.gamma_alpha, ks2.gamma_alpha)
    # Two random pairs between 0 and the upper start, the first below
    # the second.
    scales = np.sort(np.random.default_rng(n).uniform(size=(2, 4, n)),
                     axis=0)
    inputs = [SolutionPair.zeros(grid, ks1.alpha, ks2.alpha), upper] + [
        SolutionPair(grid, ks1.alpha, ks2.alpha, c * upper.stack)
        for c in scales]
    for k, sp in enumerate(inputs):
        _assert_same_rows(op.apply(sp), oracle.apply(sp), k)
    if name == "sublinear":
        for direction in ("lower", "upper"):
            got, want = (monotone_solve(p, ks1, ks2, grid, direction,
                                        radius=report.R, operator=o)
                         for o in (op, oracle))
            _assert_same_rows(got[0], want[0], direction)
            assert got[1].diffs == want[1].diffs
    else:
        got, want = (contract_solve(p, ks1, ks2, grid, m=report.m,
                                    operator=o) for o in (op, oracle))
        _assert_same_rows(got[0], want[0], "contraction")
        assert got[1].diffs == want[1].diffs


def test_forcings_are_evaluated_once_per_apply(monkeypatch, sublinear,
                                                kernels, grid64):
    """The per-layer trace counts forcing evaluations by wrapping the
    callables that solver.compile_expr returns, as bench/tracing.py
    does; an apply must evaluate both forcings in one call of the one
    callable, which returns them stacked."""
    compile_original = solver_mod.compile_expr
    points = []

    def counting_compile(*args, **kwargs):
        fn = compile_original(*args, **kwargs)

        def counted(*xs):
            points.append(np.size(xs[0]))
            return fn(*xs)
        return counted

    monkeypatch.setattr(solver_mod, "compile_expr", counting_compile)
    ks1, ks2 = kernels
    op = IntegralOperator(sublinear, ks1, ks2, grid64)
    _, trace = monotone_solve(sublinear, ks1, ks2, grid64, "lower",
                              operator=op)
    assert trace.n_steps > 0
    assert len(points) == trace.n_steps
    # Both equations read the plan's points: 8 per panel, 111 panels.
    assert points == [op.plan.s.size] * trace.n_steps == [888] * len(points)


def test_kernel_sets_keep_the_plan_of_their_grid(monkeypatch, sublinear):
    """_plan keeps the plan of the latest kernel sets and nodes, keyed
    on their values: later operators on equal kernel sets and nodes
    share that one plan object, build none and tabulate no G, and apply
    bit for bit as an operator with a newly built plan does."""
    plans, g_calls = [], []
    real_plan, real_g = solver_mod._Plan, KernelSet.g_many

    def counting_plan(ks1, ks2, nodes):
        plans.append((ks1, ks2, nodes.size))
        return real_plan(ks1, ks2, nodes)

    def counting_g(self, s):
        g_calls.append(np.size(s))
        return real_g(self, s)

    def fresh():
        return (KernelSet.build(sublinear.alpha1, sublinear.h1),
                KernelSet.build(sublinear.alpha2, sublinear.h2))

    ks1, ks2 = fresh()
    grid = Grid.make(64)
    first = IntegralOperator(sublinear, ks1, ks2, grid)
    monkeypatch.setattr(solver_mod, "_Plan", counting_plan)
    monkeypatch.setattr(KernelSet, "g_many", counting_g)
    # The same kernel sets or equal builds, on the same grid or on a
    # grid built apart with equal nodes.
    for pair in ((ks1, ks2), fresh()):
        for g in (grid, Grid(nodes=grid.nodes.copy())):
            assert IntegralOperator(sublinear, *pair, g).plan is first.plan
    assert plans == [] and g_calls == []

    monkeypatch.setattr(solver_mod, "_Plan", real_plan)
    monkeypatch.setattr(KernelSet, "g_many", real_g)
    solver_mod._plan.cache_clear()
    other = IntegralOperator(sublinear, *fresh(), grid)
    sp = SolutionPair.upper_start(grid, ks1.alpha, ks2.alpha, 0.3,
                                  ks1.gamma_alpha, ks2.gamma_alpha)
    assert np.array_equal(first.apply(sp).stack, other.apply(sp).stack)
    assert other.plan is not first.plan

    # Other nodes, or another kernel set, build their own plan; the
    # cache keeps one, so going back to a grid builds it again.
    monkeypatch.setattr(solver_mod, "_Plan", counting_plan)
    ks3 = replace(ks1, reach_err=ks1.reach_err + 1e-12)
    IntegralOperator(sublinear, ks3, ks2, grid)
    assert plans == [(ks3, ks2, 64)]
    IntegralOperator(sublinear, ks1, ks2, Grid.make(32))
    IntegralOperator(sublinear, ks1, ks2, Grid.make(64, theta=2.0))
    IntegralOperator(sublinear, ks1, ks2, grid)
    assert plans[1:] == [(ks1, ks2, n) for n in (32, 64, 64)]


def test_both_equations_read_one_set_of_plan_points(monkeypatch, sublinear,
                                                    kernels, grid64):
    """The plan writes its points down once: f_1 and f_2 are compiled
    as one pair, bound to plan.s itself."""
    bound = []
    compile_original = solver_mod.compile_expr

    def recording_compile(expr, bind):
        bound.append((expr, bind["t"]))
        return compile_original(expr, bind=bind)

    monkeypatch.setattr(solver_mod, "compile_expr", recording_compile)
    plan = IntegralOperator(sublinear, *kernels, grid64).plan
    [(trees, t)] = bound
    assert trees == (sublinear.f1, sublinear.f2) and t is plan.s


def test_every_plan_array_is_read_only(sublinear, kernels, grid64):
    plan = IntegralOperator(sublinear, *kernels, grid64).plan
    arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 13
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


@pytest.mark.parametrize("alpha, weight, theta, need", [
    # The plan's smallest point, about 1e-109, puts h1 ~ t^(-2.9) beyond
    # range: the plan says so before G evaluates h1 there.
    (3.0, "0.1*t^(-2.9)*exp(-t)", 1e-100, "each weight's s^sigma_i finite"),
    # An order past the problem files' range: s^4 overflows in the tail.
    (5.0, None, 1e100, "s and s^(alpha_i - 1) finite and positive"),
])
def test_plan_refuses_what_floating_point_cannot_hold(sublinear, alpha,
                                                      weight, theta, need):
    # Grid's gap rule accepts both grids.
    h1 = weight and Integrand(compile_expr(parse(weight), ("t",)),
                              endpoint_exponent=-2.9)
    ks1 = KernelSet.build(FracOrder(alpha), h1)
    ks2 = KernelSet.build(sublinear.alpha2, sublinear.h2)
    with pytest.raises(solver_mod.GridError) as exc:
        IntegralOperator(sublinear, ks1, ks2, Grid.make(16, theta=theta))
    assert str(exc.value).startswith(f"the quadrature plan needs {need}")


def test_a_kept_plan_holds_no_reference_to_its_kernel_set(sublinear):
    """_plan is bounded: once maxsize other plans are built, a dropped
    pair of kernel sets and its plan are freed by reference counting
    alone."""
    maxsize = solver_mod._plan.cache_parameters()["maxsize"]
    assert maxsize == 1
    solver_mod._plan.cache_clear()
    gc.disable()
    try:
        ks = KernelSet.build(sublinear.alpha1, sublinear.h1)
        ks2 = KernelSet.build(sublinear.alpha2, sublinear.h2)
        plan = solver_mod._plan(ks, ks2, Grid.make(16).nodes.tobytes())
        gone = weakref.ref(ks), weakref.ref(plan)
        del ks, plan
        for n in range(16, 16 + maxsize):
            assert [r() is None for r in gone] == [False, False]
            solver_mod._plan(ks2, ks2, Grid.make(n + 1).nodes.tobytes())
        assert [r() for r in gone] == [None, None]
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def both():
    """A problem that licenses both schemes, with its report."""
    lp = resolve_problem(str(Path(__file__).parent / "data" / "both.prob"))
    return lp.spec, build_report(lp.spec, expected=lp.expected)


def test_both_schemes_are_licensed(both):
    _, rep = both
    assert rep.passed and rep.discrepancies == ()
    assert (rep.m, rep.R, rep.r) == pytest.approx((0.49287, 2.5125, 3.0832),
                                                  abs=5e-5)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_contraction_fixed_point_lies_in_the_monotone_enclosure(both, kernels,
                                                                n):
    # both.prob keeps the packaged problems' orders and weights, so their
    # kernel pair serves it.  1e-7 is the chains' ordering slack.
    p, rep = both
    ks1, ks2 = kernels
    grid = Grid.make(n)
    op = IntegralOperator(p, ks1, ks2, grid)
    lower, lo_trace = monotone_solve(p, ks1, ks2, grid, "lower", operator=op)
    upper, up_trace = monotone_solve(p, ks1, ks2, grid, "upper",
                                     radius=rep.R, operator=op)
    fixed, trace = contract_solve(p, ks1, ks2, grid, tol=1e-12, m=rep.m,
                                  operator=op)
    assert lo_trace.converged and up_trace.converged and trace.converged
    assert np.all(lower.stack - 1e-7 <= fixed.stack)
    assert np.all(fixed.stack <= upper.stack + 1e-7)
