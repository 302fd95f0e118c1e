"""Command-line front end: problem files, hypothesis checks, solves,
kernel dumps.

A problem file is an INI document describing one coupled two-equation
system.  Sections and keys:

    [orders]      alpha1 (in (2, 3]), alpha2 (in (1, 2])
    [boundary]    h1, h2          boundary weight expressions in t
                  h1_exponent     algebraic behavior of h1 at 0 (h1 ~ t^sigma)
                  h1_decay        exponential decay rate of h1 (optional)
                  (h2_* likewise; omit h_i for an uncoupled condition)
    [rhs]         f1, f2          forcing expressions in t, u1, u2, u3, u4
                  monotone        true if both are nondecreasing in the state
    [growth]      a10..a14, a20..a24   envelope coefficient expressions in t
                  lambda1, lambda2     four comma-separated exponents each
    [solver]      n, theta, tol, max_iter, scheme
    [expected]    any derived-constant name -> externally stated value,
                  checked against the computed value and flagged on
                  disagreement (values may be constant expressions, for
                  example pi/40)

    [lipschitz]   b11..b14, b21..b24   Lipschitz coefficient expressions in t

u1, u2 are the two unknowns, u3, u4 their derivatives of orders
alpha1 - 1 and alpha2 - 1.  Growth and Lipschitz coefficients must be
regular at 0; only the boundary weights may carry an algebraic
singularity, declared through the *_exponent keys.  Unknown sections or
keys are rejected.

Exit codes: 0 success; 2 a required hypothesis fails (or a scheme
guarantee breaks mid-run); 3 iteration or quadrature non-convergence;
4 unreadable input (bad file, bad INI, bad expression, bad flag).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .exprlang import (VARIABLES, Expr, ExprError, Num, compile_expr,
                       free_variables, parse, to_source)
from .fracops import FracOrder
from .kernels import KernelSet
from .problem import (GrowthData, HypothesisReport, LipschitzData,
                      ProblemSpec, build_report)
from .quad import DEFAULT_TOL, Integrand, QuadratureError

__all__ = [
    "ProblemFileError", "SolverConfig", "LoadedProblem", "load_problem",
    "resolve_problem", "format_problem", "packaged_problem_names", "main",
    "EXIT_OK", "EXIT_HYPOTHESIS", "EXIT_NO_CONVERGENCE", "EXIT_PARSE",
]

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PARSE = 4


class ProblemFileError(ValueError):
    """The problem file (or a command-line override) cannot be used."""


# -- problem file loading ----------------------------------------------

_GROWTH_KEYS = tuple(f"a{i}{k}" for i in (1, 2) for k in range(5))
_LIPSCHITZ_KEYS = tuple(f"b{i}{k}" for i in (1, 2) for k in range(1, 5))

# Every section with its keys, both in the order format_problem writes.
_SECTIONS: dict[str, tuple[str, ...]] = {
    "orders": ("alpha1", "alpha2"),
    "boundary": ("h1", "h1_exponent", "h1_decay",
                 "h2", "h2_exponent", "h2_decay"),
    "rhs": ("f1", "f2", "monotone"),
    "growth": _GROWTH_KEYS + ("lambda1", "lambda2"),
    "lipschitz": _LIPSCHITZ_KEYS,
    "solver": ("n", "theta", "tol", "max_iter", "scheme"),
    "expected": tuple(sorted(
        ("lambda1", "lambda2", "gamma_alpha1", "gamma_alpha2",
         "L1", "L2", "L", "m", "R", "r", "tau1", "tau2")
        + _GROWTH_KEYS + _LIPSCHITZ_KEYS)),
}


@dataclass(frozen=True)
class SolverConfig:
    """Resolved [solver] section; tol and max_iter default per scheme.

    The range checks run on every construction, so [solver] keys and
    command-line overrides (applied with dataclasses.replace) share them.
    """

    n: int = 64
    theta: float = 5.0
    tol: float | None = None
    max_iter: int | None = None
    scheme: str = "auto"
    # Always "linear"; kept because bench/sweep_worker.py reads it.
    interp: str = "linear"

    def __post_init__(self) -> None:
        if self.n < 16:
            raise _fail("solver", "n", f"needs at least 16, got {self.n}")
        if not 0.0 < self.theta < math.inf:
            raise _fail("solver", "theta",
                        f"must be positive and finite, got {self.theta}")
        if self.tol is not None and not 0.0 < self.tol < math.inf:
            raise _fail("solver", "tol",
                        f"must be positive and finite, got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise _fail("solver", "max_iter",
                        f"must be at least 1, got {self.max_iter}")
        if self.scheme not in ("auto", "monotone", "contraction"):
            raise _fail("solver", "scheme", f"must be auto, monotone or "
                        f"contraction, got {self.scheme!r}")


@dataclass(frozen=True)
class LoadedProblem:
    """A parsed problem file: the ProblemSpec plus everything around it.

    sections holds the normalized text of every key (expressions
    reprinted from their parse trees, numbers from their float values),
    which is what format_problem writes back out.
    """

    spec: ProblemSpec
    solver: SolverConfig
    expected: dict[str, float]
    sections: dict[str, dict[str, str]]
    origin: str = ""


def _fail(section: str, key: str, why: str) -> ProblemFileError:
    return ProblemFileError(f"[{section}] {key}: {why}")


def _parse_expr(section: str, key: str, text: str,
                allowed: tuple[str, ...]) -> Expr:
    try:
        ast = parse(text)
    except ExprError as exc:
        raise _fail(section, key, f"bad expression: {exc}") from exc
    extra = free_variables(ast) - set(allowed)
    if extra:
        raise _fail(section, key,
                    f"unknown variable(s) {sorted(extra)}; allowed here: "
                    f"{', '.join(allowed) if allowed else 'none'}")
    return ast


def _parse_number(section: str, key: str, text: str) -> float:
    # A literal goes through the evaluator too, which rejects nan and inf;
    # [solver] passes them on to SolverConfig, whose range check names them.
    try:
        ast: Expr = Num(float(text))
    except ValueError:
        ast = _parse_expr(section, key, text, ())
    if section == "solver" and isinstance(ast, Num):
        return ast.value
    try:
        return float(compile_expr(ast, ())())
    except ExprError as exc:
        raise _fail(section, key, f"not a constant: {exc}") from exc


def _parse_int(section: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise _fail(section, key, f"not an integer: {text!r}") from exc


def _parse_bool(section: str, key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise _fail(section, key, f"not a boolean: {text!r}")


def _parse_exponents(section: str, key: str, text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise _fail(section, key,
                    f"need 4 comma-separated exponents, got {len(parts)}")
    return tuple(_parse_number(section, key, p) for p in parts)


def _coefficients(sec: dict[str, str], section: str, letter: str,
                  ks: range, out: dict[str, str]
                  ) -> tuple[tuple[Integrand, ...], ...]:
    """Both equations' coefficient rows letter{i}{k} (k in ks) of a
    [growth] or [lipschitz] section, after checking it has every key."""
    missing = [k for k in _SECTIONS[section] if k not in sec]
    if missing:
        raise ProblemFileError(
            f"[{section}] is missing key(s): {sorted(missing)}")
    rows = []
    for i in (1, 2):
        row = []
        for k in ks:
            key = f"{letter}{i}{k}"
            ast = _parse_expr(section, key, sec[key], ("t",))
            out[key] = to_source(ast)
            row.append(Integrand(compile_expr(ast, ("t",))))
        rows.append(tuple(row))
    return tuple(rows)


def _boundary_weight(sec: dict[str, str], which: str,
                     out: dict[str, str]) -> Integrand | None:
    expr = sec.pop(which, None)
    sigma = sec.pop(f"{which}_exponent", None)
    decay = sec.pop(f"{which}_decay", None)
    if expr is None:
        if sigma is not None or decay is not None:
            raise _fail("boundary", which,
                        f"{which}_exponent/{which}_decay make no sense "
                        f"without {which}")
        return None
    ast = _parse_expr("boundary", which, expr, ("t",))
    out[which] = to_source(ast)
    kw: dict[str, float] = {}
    if sigma is not None:
        kw["endpoint_exponent"] = _parse_number("boundary",
                                                f"{which}_exponent", sigma)
        out[f"{which}_exponent"] = repr(kw["endpoint_exponent"])
    if decay is not None:
        kw["decay_hint"] = _parse_number("boundary", f"{which}_decay", decay)
        if not kw["decay_hint"] > 0:
            raise _fail("boundary", f"{which}_decay", "must be positive")
        out[f"{which}_decay"] = repr(kw["decay_hint"])
    return Integrand(compile_expr(ast, ("t",)), **kw)


def load_problem(text: str, origin: str = "") -> LoadedProblem:
    """Parse problem-file text into a spec, solver config, and expected
    constants.  Raises ProblemFileError on anything malformed."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        cp.read_string(text, source=origin or "<problem>")
    except configparser.Error as exc:
        raise ProblemFileError(f"bad INI syntax: {exc}") from exc
    if cp.defaults():
        raise ProblemFileError(
            f"keys outside any section: {sorted(cp.defaults())}")

    raw: dict[str, dict[str, str]] = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ProblemFileError(
                f"unknown section [{section}]; known sections: "
                f"{', '.join(_SECTIONS)}")
        unknown = set(cp[section]) - set(_SECTIONS[section])
        if unknown:
            raise ProblemFileError(
                f"unknown key(s) in [{section}]: {sorted(unknown)}")
        raw[section] = dict(cp[section])

    for section, required in (("orders", ("alpha1", "alpha2")),
                              ("rhs", ("f1", "f2"))):
        missing = [k for k in required if k not in raw.get(section, {})]
        if missing:
            raise ProblemFileError(
                f"[{section}] is missing required key(s): {missing}")

    norm: dict[str, dict[str, str]] = {}

    sec = raw["orders"]
    alpha1 = _parse_number("orders", "alpha1", sec["alpha1"])
    alpha2 = _parse_number("orders", "alpha2", sec["alpha2"])
    if not 2.0 < alpha1 <= 3.0:
        raise _fail("orders", "alpha1", f"must lie in (2, 3], got {alpha1}")
    if not 1.0 < alpha2 <= 2.0:
        raise _fail("orders", "alpha2", f"must lie in (1, 2], got {alpha2}")
    norm["orders"] = {"alpha1": repr(alpha1), "alpha2": repr(alpha2)}

    h1 = h2 = None
    if "boundary" in raw:
        sec = dict(raw["boundary"])
        out: dict[str, str] = {}
        h1 = _boundary_weight(sec, "h1", out)
        h2 = _boundary_weight(sec, "h2", out)
        norm["boundary"] = out

    sec = raw["rhs"]
    f1 = _parse_expr("rhs", "f1", sec["f1"], VARIABLES)
    f2 = _parse_expr("rhs", "f2", sec["f2"], VARIABLES)
    monotone = _parse_bool("rhs", "monotone", sec.get("monotone", "false"))
    norm["rhs"] = {"f1": to_source(f1), "f2": to_source(f2),
                   "monotone": "true" if monotone else "false"}

    growth = None
    if "growth" in raw:
        sec = raw["growth"]
        out = {}
        a1, a2 = _coefficients(sec, "growth", "a", range(5), out)
        lam1 = _parse_exponents("growth", "lambda1", sec["lambda1"])
        lam2 = _parse_exponents("growth", "lambda2", sec["lambda2"])
        out["lambda1"] = ", ".join(repr(x) for x in lam1)
        out["lambda2"] = ", ".join(repr(x) for x in lam2)
        try:
            growth = GrowthData(a1=a1, a2=a2, lam1=lam1, lam2=lam2)
        except ValueError as exc:
            raise ProblemFileError(f"[growth]: {exc}") from exc
        norm["growth"] = out

    lipschitz = None
    if "lipschitz" in raw:
        out = {}
        b1, b2 = _coefficients(raw["lipschitz"], "lipschitz", "b",
                               range(1, 5), out)
        lipschitz = LipschitzData(b1=b1, b2=b2)
        norm["lipschitz"] = out

    solver = SolverConfig()
    if "solver" in raw:
        parsers = {"n": _parse_int, "max_iter": _parse_int,
                   "theta": _parse_number, "tol": _parse_number}
        kw = {k: parsers[k]("solver", k, v) if k in parsers
              else v.strip().lower() for k, v in raw["solver"].items()}
        solver = SolverConfig(**kw)
        norm["solver"] = {k: v if isinstance(v, str) else repr(v)
                          for k, v in kw.items()}

    expected: dict[str, float] = {}
    if "expected" in raw:
        out = {}
        for key, val in raw["expected"].items():
            expected[key] = _parse_number("expected", key, val)
            out[key] = repr(expected[key])
        norm["expected"] = out

    name = Path(origin).stem if origin else ""
    try:
        spec = ProblemSpec(alpha1=FracOrder(alpha1), alpha2=FracOrder(alpha2),
                           h1=h1, h2=h2, f1=f1, f2=f2, growth=growth,
                           lipschitz=lipschitz, monotone=monotone, name=name)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    return LoadedProblem(spec=spec, solver=solver, expected=expected,
                         sections=norm, origin=origin)


def format_problem(lp: LoadedProblem) -> str:
    """Write a loaded problem back out in canonical form.

    The output reparses to the very same normalized sections, so
    format(load(format(load(text)))) == format(load(text)).
    """
    lines: list[str] = []
    for section, keys in _SECTIONS.items():
        data = lp.sections.get(section)
        if not data:
            continue
        lines.append(f"[{section}]")
        lines += [f"{key} = {data[key]}" for key in keys if key in data]
        lines.append("")
    return "\n".join(lines)


def packaged_problem_names() -> tuple[str, ...]:
    root = resources.files(__package__) / "problems"
    return tuple(sorted(p.name[:-5] for p in root.iterdir()
                        if p.name.endswith(".prob")))


def resolve_problem(arg: str) -> LoadedProblem:
    """Load a problem from a filesystem path or a packaged name."""
    path = Path(arg)
    if path.exists():
        return load_problem(path.read_text(), origin=str(path))
    name = arg[:-5] if arg.endswith(".prob") else arg
    candidate = resources.files(__package__) / "problems" / f"{name}.prob"
    if candidate.is_file():
        return load_problem(candidate.read_text(), origin=f"{name}.prob")
    raise ProblemFileError(
        f"no file {arg!r} and no packaged problem of that name "
        f"(packaged: {', '.join(packaged_problem_names())})")


# -- shared command plumbing --------------------------------------------


def _header_lines(pairs) -> str:
    return "".join(f"# {k}: {v}\n" for k, v in pairs)


def _print_report(report: HypothesisReport, name: str,
                  spec: ProblemSpec) -> None:
    print(f"problem {name!r} (alpha1={spec.alpha1.q}, "
          f"alpha2={spec.alpha2.q})")
    labels = {
        "H1": "boundary weights nonnegative, couplings below Gamma(alpha)",
        "H2": "growth envelopes usable (nonnegative, integrable)",
        "H3": "Lipschitz coefficients usable (nonnegative, integrable)",
        "H4": "forcing nondecreasing in the state",
    }
    for key in sorted(report.verdicts):
        v = report.verdicts[key]
        status = "pass" if v.passed else "FAIL"
        print(f"  {key} {status}  {labels.get(key, '')}")
        if v.reason:
            print(f"      {v.reason}")
    print("constants:")
    for key, val in report.constants().items():
        if val is not None:
            print(f"  {key} = {val!r}")
    for note in report.notes:
        print(f"note: {note}")
    for d in report.discrepancies:
        print(f"declared-value mismatch: {d.name} computed {d.computed!r} "
              f"vs declared {d.expected!r} (difference {d.difference:.3e})")
    print("result: " + ("all applicable hypotheses hold" if report.passed
                        else "FAILED: " + ", ".join(
                            k for k, v in sorted(report.verdicts.items())
                            if not v.passed)))


def _quad_tol(args: argparse.Namespace) -> float:
    """The quadrature tolerance of check and kernel-dump: --tol or 1e-10."""
    if args.tol is None:
        return DEFAULT_TOL
    if not 0.0 < args.tol < math.inf:
        raise ProblemFileError(
            f"--tol must be positive and finite, got {args.tol}")
    return args.tol


def _check_seed(args: argparse.Namespace) -> None:
    """--seed feeds numpy's generator, which takes no negative seed."""
    if args.seed < 0:
        raise ProblemFileError(f"--seed must be nonnegative, got {args.seed}")


def _pick_scheme(cfg: SolverConfig,
                 report: HypothesisReport) -> tuple[str | None, list[str]]:
    """Choose the iteration scheme the report licenses: the configured
    one, or under "auto" the first unblocked one.  Without a scheme,
    the reasons list says what blocks it."""
    blockers = report.blockers
    if cfg.scheme != "auto":
        bad = blockers[cfg.scheme]
        return (cfg.scheme, []) if not bad else (None, list(bad))
    for scheme, bad in blockers.items():
        if not bad:
            return scheme, []
    return None, [f"{s}: {'; '.join(b)}" for s, b in blockers.items()]


# -- subcommands --------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    _check_seed(args)
    if args.samples < 1:
        raise ProblemFileError(
            f"--samples must be at least 1, got {args.samples}")
    lp = resolve_problem(args.problem)
    report = build_report(lp.spec, seed=args.seed, samples=args.samples,
                          tol=_quad_tol(args), expected=lp.expected)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        _print_report(report, lp.spec.name or args.problem, lp.spec)
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


# solve flag (argparse dest) -> the SolverConfig field it overrides.
_SOLVER_FLAGS = {"grid_n": "n", "theta": "theta", "tol": "tol",
                 "max_iter": "max_iter", "scheme": "scheme"}


def cmd_solve(args: argparse.Namespace) -> int:
    _check_seed(args)
    lp = resolve_problem(args.problem)
    cfg = replace(lp.solver, **{
        field: getattr(args, flag) for flag, field in _SOLVER_FLAGS.items()
        if getattr(args, flag) is not None})

    spec = lp.spec
    name = spec.name or args.problem
    report = build_report(spec, seed=args.seed, expected=lp.expected)
    scheme, reasons = _pick_scheme(cfg, report)
    if scheme is None:
        doc = {"problem": name, "refused": reasons,
               "hypothesis": report.to_dict()}
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print(f"problem {name!r}: no scheme is licensed", file=sys.stderr)
            for reason in reasons:
                print(f"  {reason}", file=sys.stderr)
        return EXIT_HYPOTHESIS

    # Imported only now: check, kernel-dump and a refused solve skip them.
    from .solver import (Grid, IntegralOperator, MonotonicityError,
                         contract_solve, diff_norm, monotone_solve)
    from .verify import error_bound_audit, ordering_audit, verify_pair

    tol = cfg.tol if cfg.tol is not None \
        else (1e-5 if scheme == "monotone" else 1e-4)
    max_iter = cfg.max_iter if cfg.max_iter is not None \
        else (200 if scheme == "monotone" else 5000)

    ks1 = KernelSet.build(spec.alpha1, spec.h1)
    ks2 = KernelSet.build(spec.alpha2, spec.h2)
    grid = Grid.make(cfg.n, cfg.theta)
    op = IntegralOperator(spec, ks1, ks2, grid)

    config_doc = {"problem": name, "scheme": scheme, "grid_n": cfg.n,
                  "theta": cfg.theta, "t_max": grid.t_max, "tol": tol,
                  "max_iter": max_iter, "interp": cfg.interp,
                  "seed": args.seed}
    header = _header_lines((k, repr(v) if isinstance(v, float) else v)
                           for k, v in config_doc.items())

    # Chain key -> (solution, trace); the key names the output files and
    # the JSON section, and the contraction scheme's single run has none.
    if scheme == "monotone":
        try:
            chains = {d: monotone_solve(spec, ks1, ks2, grid, d, tol=tol,
                                        max_iter=max_iter, radius=report.R,
                                        operator=op)
                      for d in ("lower", "upper")}
        except MonotonicityError as exc:
            print(f"scheme guarantee broke mid-run: {exc}", file=sys.stderr)
            return EXIT_HYPOTHESIS
        (low_sp, low_tr), (up_sp, up_tr) = chains.values()
        ver = verify_pair(spec, low_sp, op)
        ver.ordering = ordering_audit(low_tr, up_tr)
        ver.details["sandwich_gap"] = diff_norm(up_sp, low_sp)
        ver.details["radius_R"] = report.R
        summary = [
            f"problem {name!r}: monotone scheme, n={cfg.n}, tol={tol!r}",
            f"lower chain: {low_tr.message}",
            f"upper chain: {up_tr.message}",
            f"sandwich gap |upper - lower| = "
            f"{ver.details['sandwich_gap']:.3e}",
            f"ordering audit: {ver.ordering.message}",
        ]
    else:
        sp, tr = contract_solve(spec, ks1, ks2, grid, tol=tol,
                                max_iter=max_iter, m=report.m, operator=op)
        chains = {"": (sp, tr)}
        ver = verify_pair(spec, sp, op)
        ver.error_bound = error_bound_audit(tr)
        ver.details["modulus_m"] = report.m
        ver.details["radius_r"] = report.r
        summary = [
            f"problem {name!r}: contraction scheme, n={cfg.n}, tol={tol!r}, "
            f"m={report.m!r}",
            f"iteration: {tr.message}",
            f"error-bound audit: {ver.error_bound.message}",
        ]
    summary.append(
        f"fixed-point residual {ver.fixed_point_residual:.3e}; boundary "
        f"residuals {ver.bc_residual_1:.3e}, {ver.bc_residual_2:.3e}")

    ver_doc = ver.to_dict()
    doc = {"problem": name, "scheme": scheme, "config": config_doc,
           "converged": all(tr.converged for _, tr in chains.values()),
           "hypothesis": report.to_dict()}
    outputs = {"verification.json": json.dumps(
        {"config": config_doc, **ver_doc}, indent=2) + "\n"}
    for key, (sp, tr) in chains.items():
        suffix = f"-{key}" if key else ""
        outputs[f"solution{suffix}.csv"] = header + sp.to_csv()
        outputs[f"trace{suffix}.csv"] = header + tr.to_csv()
        part = {"trace": tr.to_dict(), "solution": sp.to_dict()}
        if key:
            doc[key] = part
        else:
            doc.update(part)
    doc["verification"] = ver_doc

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for fname, text in sorted(outputs.items()):
            (out_dir / fname).write_text(text)
        summary.append("wrote " + ", ".join(
            str(out_dir / f) for f in sorted(outputs)))
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for line in summary:
            print(line)
    return EXIT_OK if doc["converged"] else EXIT_NO_CONVERGENCE


def cmd_kernel_dump(args: argparse.Namespace) -> int:
    lp = resolve_problem(args.problem)
    spec = lp.spec
    if not 0.0 < args.t_min < args.t_max < math.inf:
        raise ProblemFileError(
            f"need 0 < t-min < t-max < inf, got {args.t_min}, {args.t_max}")
    if args.points < 1:
        raise ProblemFileError(f"--points must be at least 1, got "
                               f"{args.points}")
    tol = _quad_tol(args)
    try:
        ks1 = KernelSet.build(spec.alpha1, spec.h1, tol=tol)
        ks2 = KernelSet.build(spec.alpha2, spec.h2, tol=tol)
    except ValueError as exc:
        print(f"kernels do not exist: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    ts = np.geomspace(args.t_min, args.t_max, args.points)

    name = spec.name or args.problem
    tt, ss = np.meshgrid(ts, ts, indexing="ij")
    k1m = ks1.k_grid(tt, ss)
    k2m = ks2.k_grid(tt, ss)
    s1m = ks1.kstar_grid(tt, ss)
    s2m = ks2.kstar_grid(tt, ss)
    kb1 = ks1.k_bound(ts)
    kb2 = ks2.k_bound(ts)
    sb1 = ks1.kstar_bound()
    sb2 = ks2.kstar_bound()
    if args.json:
        doc = {
            "problem": name, "t": ts.tolist(), "s": ts.tolist(),
            "k1": k1m.tolist(), "k2": k2m.tolist(),
            "kstar1": s1m.tolist(), "kstar2": s2m.tolist(),
            "k1_bound": kb1.tolist(), "k2_bound": kb2.tolist(),
            "kstar1_bound": sb1, "kstar2_bound": sb2,
            "lambda1": ks1.lam, "lambda2": ks2.lam,
        }
        text = json.dumps(doc, indent=2)
    else:
        lines = [_header_lines([
            ("problem", name), ("alpha1", spec.alpha1.q),
            ("alpha2", spec.alpha2.q), ("lambda1", repr(ks1.lam)),
            ("lambda2", repr(ks2.lam)), ("points", args.points),
            ("t_min", args.t_min), ("t_max", args.t_max),
        ]).rstrip("\n")]
        lines.append("t,s,k1,k1_bound,k2,k2_bound,"
                     "kstar1,kstar1_bound,kstar2,kstar2_bound")
        for i, t in enumerate(ts):
            for j, s in enumerate(ts):
                lines.append(",".join(repr(float(x)) for x in (
                    t, s, k1m[i, j], kb1[i], k2m[i, j], kb2[i],
                    s1m[i, j], sb1, s2m[i, j], sb2)))
        text = "\n".join(lines) + "\n"

    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's own failures are input problems: exit 4, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("problem",
                        help="path to a problem file, or a packaged name "
                             f"({', '.join(packaged_problem_names())})")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of text")
    common.add_argument("--tol", type=float, default=None,
                        help="tolerance override (iteration tolerance for "
                             "solve, quadrature tolerance elsewhere)")

    seeded = _ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for the monotonicity sampling check")

    top = _ArgumentParser(
        prog="fracbvp",
        description="Check and solve coupled fractional boundary value "
                    "problems on the half line.")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_ArgumentParser)

    pc = sub.add_parser("check", parents=[common, seeded],
                        help="verify the solvability hypotheses and derive "
                             "the scheme constants")
    pc.add_argument("--samples", type=int, default=10_000,
                    help="sample count for the monotonicity check")
    pc.set_defaults(fn=cmd_check)

    ps = sub.add_parser("solve", parents=[common, seeded],
                        help="run the licensed iteration scheme")
    ps.add_argument("--grid-n", type=int, default=None, dest="grid_n",
                    help="number of grid nodes")
    ps.add_argument("--max-iter", type=int, default=None,
                    help="iteration cap")
    ps.add_argument("--scheme", choices=("auto", "monotone", "contraction"),
                    default=None, help="override the scheme choice")
    ps.add_argument("--theta", type=float, default=None,
                    help="grid map scale (nodes at theta*x/(1-x))")
    ps.add_argument("--out", default=None, metavar="DIR",
                    help="write solution/trace CSVs and verification JSON "
                         "into DIR")
    ps.set_defaults(fn=cmd_solve)

    pk = sub.add_parser("kernel-dump", parents=[common],
                        help="tabulate the four kernels with their bounds")
    pk.add_argument("--points", type=int, default=50,
                    help="grid points per axis")
    pk.add_argument("--t-min", type=float, default=1e-3, dest="t_min")
    pk.add_argument("--t-max", type=float, default=100.0, dest="t_max")
    pk.add_argument("--out", default=None, metavar="FILE",
                    help="write the table to FILE instead of stdout")
    pk.set_defaults(fn=cmd_kernel_dump)
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its usage or help message.
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return args.fn(args)
    except (ProblemFileError, ExprError) as exc:
        # ExprError: an expression evaluated to a non-finite value.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except QuadratureError as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
