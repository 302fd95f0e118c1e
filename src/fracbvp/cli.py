"""Command-line front end: problem files, hypothesis checks, solves,
kernel dumps.

A problem file is an INI document describing one coupled two-equation
system.  _SECTIONS declares every section and each key's kind:

    [orders]      alpha1, alpha2            constants in (2, 3] and (1, 2]
    [boundary]    h1, h2                    expressions in t (boundary
                                            weights; omit h_i for an
                                            uncoupled condition)
                  h1_exponent, h2_exponent  constants: h_i ~ t^sigma_i at 0
                  h1_decay, h2_decay        constants > 0: exponential
                                            decay rates (optional)
    [rhs]         f1, f2                    expressions in t, u1, u2, u3, u4
                  monotone                  boolean: both nondecreasing in
                                            the state (default false)
    [growth]      a10..a14, a20..a24        expressions in t (envelope
                                            coefficients)
                  lambda1, lambda2          four exponents each
    [lipschitz]   b11..b14, b21..b24        expressions in t (Lipschitz
                                            coefficients)
    [solver]      n, max_iter               integers
                  theta, tol                constants
                  scheme                    word: auto, monotone, contraction
    [expected]    any derived-constant name constants, checked against the
                                            computed values and flagged on
                                            disagreement

A constant is a number or a constant expression such as pi/40.  u1, u2
are the two unknowns, u3, u4 their derivatives of orders alpha1 - 1 and
alpha2 - 1.  Growth and Lipschitz coefficients must be regular at 0;
only the boundary weights may carry an algebraic singularity, declared
through the *_exponent keys, and H1 needs sigma_i > -alpha_i for
Lambda_i to converge.  Unknown sections or keys are rejected.

Exit codes: 0 success; 2 a required hypothesis fails (or a scheme
guarantee breaks mid-run); 3 iteration or quadrature non-convergence;
4 unusable input (bad file or --out path, bad INI, expression or flag)
or a failed allocation.
Every --json document and verification.json is strict JSON: a
non-finite number is written as null.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import ClassVar

import numpy as np

from .exprlang import (VARIABLES, Expr, ExprError, ExprNameError, Num,
                       compile_expr, free_variables, parse)
from .fracops import FracOrder
from .kernels import KernelSet
from .problem import (CONSTANT_NAMES, GrowthData, HypothesisReport,
                      LipschitzData, ProblemSpec, build_report,
                      check_h1_weights)
from .quad import Integrand, QuadratureError

__all__ = [
    "ProblemFileError", "SolverConfig", "LoadedProblem", "load_problem",
    "resolve_problem", "packaged_problem_names", "main",
    "EXIT_OK", "EXIT_HYPOTHESIS", "EXIT_NO_CONVERGENCE", "EXIT_PARSE",
]

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PARSE = 4


class ProblemFileError(ValueError):
    """The problem file (or a command-line override) cannot be used."""


# -- problem file loading ----------------------------------------------

# The schema: every section with each key's kind, both in the order
# load_problem reads them.  _read parses a value by its kind:
#   constant    a number or a constant expression such as pi/40
#   expr(t)     an expression in t
#   expr(t,u)   an expression in t and the state u1, u2, u3, u4
#   exponents   four comma-separated constants
#   integer, boolean (true/yes/on/1 or false/no/off/0), word
_SECTIONS: dict[str, dict[str, str]] = {
    "orders": {"alpha1": "constant", "alpha2": "constant"},
    "boundary": {f"h{i}{part}": kind for i in (1, 2) for part, kind in (
        ("", "expr(t)"), ("_exponent", "constant"), ("_decay", "constant"))},
    "rhs": {"f1": "expr(t,u)", "f2": "expr(t,u)", "monotone": "boolean"},
    "growth": {**{f"a{i}{k}": "expr(t)" for i in (1, 2) for k in range(5)},
               "lambda1": "exponents", "lambda2": "exponents"},
    "lipschitz": {f"b{i}{k}": "expr(t)" for i in (1, 2) for k in range(1, 5)},
    "solver": {"n": "integer", "theta": "constant", "tol": "constant",
               "max_iter": "integer", "scheme": "word"},
    "expected": dict.fromkeys(sorted(CONSTANT_NAMES), "constant"),
}
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


def _solver_fault(key: str, value) -> str | None:
    """Why value is out of range for the [solver] key, or None.  The
    [solver] keys and solve's flags that override them share it."""
    if value is None:  # tol and max_iter default per scheme
        return None
    if key == "n":
        return None if value >= 16 else f"needs at least 16, got {value}"
    if key == "max_iter":
        return None if value >= 1 else f"must be at least 1, got {value}"
    if key == "scheme":
        return None if value in ("auto", "monotone", "contraction") else \
            f"must be auto, monotone or contraction, got {value!r}"
    return None if 0.0 < value < math.inf else \
        f"must be positive and finite, got {value}"


@dataclass(frozen=True)
class SolverConfig:
    """Resolved [solver] section; tol and max_iter default per scheme."""

    n: int = 64
    theta: float = 5.0
    tol: float | None = None
    max_iter: int | None = None
    scheme: str = "auto"
    # Always "linear"; kept because bench/sweep_worker.py reads it.
    interp: ClassVar[str] = "linear"

    def __post_init__(self) -> None:
        for key, value in vars(self).items():
            if why := _solver_fault(key, value):
                raise _fail("solver", key, why)


@dataclass(frozen=True)
class LoadedProblem:
    """A parsed problem file: the ProblemSpec plus everything around it,
    and in sections each known key's text as the file gives it."""

    spec: ProblemSpec
    solver: SolverConfig
    expected: dict[str, float]
    # Unused by the commands; kept because bench/sweep_worker.py reads it.
    sections: dict[str, dict[str, str]]


def _fail(section: str, key: str, why: str) -> ProblemFileError:
    return ProblemFileError(f"[{section}] {key}: {why}")


def _parse_expr(section: str, key: str, text: str,
                allowed: tuple[str, ...]) -> Expr:
    try:
        ast = parse(text)
    except ExprError as exc:
        why = ExprNameError(exc.name, exc.offset, allowed) \
            if isinstance(exc, ExprNameError) else exc  # this key's names
        raise _fail(section, key, f"bad expression: {why}") from exc
    # parse emits Var only for names in VARIABLES, so those pass unchecked.
    extra = allowed != VARIABLES and free_variables(ast) - set(allowed)
    if extra:
        raise _fail(section, key,
                    f"unknown variable(s) {sorted(extra)}; allowed here: "
                    f"{', '.join(allowed) if allowed else 'none'}")
    return ast


def _parse_number(section: str, key: str, text: str) -> float:
    # Every number is read by the expression grammar.  [solver] passes a
    # bare literal on to SolverConfig, whose range check names one that
    # overflows (tol = 1e999); elsewhere the evaluator refuses it.
    ast = _parse_expr(section, key, text, ())
    if section == "solver" and isinstance(ast, Num):
        return ast.value
    try:
        return float(compile_expr(ast, ())())
    except ExprError as exc:
        raise _fail(section, key, f"not a constant: {exc}") from exc


@functools.lru_cache(maxsize=256)
def _read(section: str, key: str, text: str) -> object:
    """One key's value, parsed by its kind in _SECTIONS and shared by every
    load of that text (values are immutable; a sweep's variants differ in
    a few keys).  A ProblemFileError is raised afresh on every load."""
    kind = _SECTIONS[section][key]
    if kind.startswith("expr"):
        t_only = kind == "expr(t)"
        ast = _parse_expr(section, key, text, ("t",) if t_only else VARIABLES)
        return Integrand(compile_expr(ast, ("t",))) if t_only else ast
    if kind == "exponents":
        parts = text.split(",")
        if len(parts) != 4:
            raise _fail(section, key,
                        f"need 4 comma-separated exponents, got {len(parts)}")
        return tuple(_parse_number(section, key, p.strip()) for p in parts)
    if kind == "integer":
        try:  # ASCII digits only: int() also reads 1_6 and other scripts
            return int(re.fullmatch(r"[+-]?[0-9]+", text)[0])
        except (TypeError, ValueError) as exc:
            raise _fail(section, key, f"not an integer: {text!r}") from exc
    word = text.strip().lower()
    if kind == "word":
        return word
    if kind == "boolean":
        if word not in _BOOLEANS:
            raise _fail(section, key, f"not a boolean: {text!r}")
        return _BOOLEANS[word]
    return _parse_number(section, key, text)


def load_problem(text: str, origin: str = "") -> LoadedProblem:
    """Parse problem-file text into a spec, solver config, and expected
    constants.  Raises ProblemFileError on anything malformed; when a
    file has several faults, the first in section order (keys in schema
    order, [solver] and [expected] in file order) is reported."""
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
    raw["rhs"].setdefault("monotone", "false")

    # Each section's checks run once its keys are read, so the first
    # fault in the order above is the one reported.
    vals: dict[str, dict] = {}
    growth, solver = None, SolverConfig()
    for section, kinds in _SECTIONS.items():
        if section not in raw:
            continue
        sec = raw[section]
        missing = set(kinds) - set(sec)
        if section in ("growth", "lipschitz") and missing:
            raise ProblemFileError(
                f"[{section}] is missing key(s): {sorted(missing)}")
        got = vals.setdefault(section, {})
        for key in (sec if section in ("solver", "expected")
                    else [k for k in kinds if k in sec]):
            if section == "boundary" and (h := key[:2]) not in sec:
                raise _fail(section, h, f"{h}_exponent/{h}_decay make no "
                                        f"sense without {h}")
            got[key] = _read(section, key, sec[key])
            if key.endswith("_decay") and not got[key] > 0:
                raise _fail(section, key, "must be positive")
        if section == "orders":
            for key, lo, hi in (("alpha1", 2, 3), ("alpha2", 1, 2)):
                if not lo < got[key] <= hi:
                    raise _fail(section, key, f"must lie in ({lo}, {hi}], "
                                              f"got {got[key]}")
        elif section == "growth":
            try:
                growth = GrowthData(
                    *(tuple(got[f"a{i}{k}"] for k in range(5))
                      for i in (1, 2)), got["lambda1"], got["lambda2"])
            except ValueError as exc:
                raise ProblemFileError(f"[growth]: {exc}") from exc
        elif section == "solver":
            solver = SolverConfig(**got)

    orders, rhs, bnd = vals["orders"], vals["rhs"], vals.get("boundary", {})
    weights = [None if h not in bnd else replace(
        bnd[h], endpoint_exponent=bnd.get(f"{h}_exponent", 0.0),
        decay_hint=bnd.get(f"{h}_decay")) for h in ("h1", "h2")]
    lips = vals.get("lipschitz")
    try:
        spec = ProblemSpec(
            alpha1=FracOrder(orders["alpha1"]),
            alpha2=FracOrder(orders["alpha2"]), h1=weights[0], h2=weights[1],
            f1=rhs["f1"], f2=rhs["f2"], growth=growth,
            lipschitz=None if lips is None else LipschitzData(
                *(tuple(lips[f"b{i}{k}"] for k in range(1, 5))
                  for i in (1, 2))),
            monotone=rhs["monotone"], name=Path(origin).stem if origin else "")
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    return LoadedProblem(spec=spec, solver=solver,
                         expected=vals.get("expected", {}), sections=raw)


def packaged_problem_names() -> tuple[str, ...]:
    root = resources.files(__package__) / "problems"
    return tuple(sorted(p.name[:-5] for p in root.iterdir()
                        if p.name.endswith(".prob")))


def resolve_problem(arg: str) -> LoadedProblem:
    """Load a problem from a filesystem path or a packaged name."""
    path = Path(arg)
    try:  # exists() too raises on a name too long for the file system
        text = path.read_text("utf-8-sig") if path.exists() else None
    except (OSError, UnicodeDecodeError) as exc:
        why = getattr(exc, "strerror", None) or exc
        raise ProblemFileError(f"cannot read {arg!r}: {why}") from exc
    if text is not None:
        return load_problem(text, origin=str(path))
    name = arg[:-5] if arg.endswith(".prob") else arg
    if name in packaged_problem_names():
        candidate = resources.files(__package__) / "problems" / f"{name}.prob"
        return load_problem(candidate.read_text(), origin=f"{name}.prob")
    raise ProblemFileError(
        f"no file {arg!r} and no packaged problem of that name "
        f"(packaged: {', '.join(packaged_problem_names())})")


# -- shared command plumbing --------------------------------------------


def _json(doc) -> str:
    """The one JSON writer: strict JSON (RFC 8259), with every
    non-finite number written as null."""
    def finite(x):
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return None if isinstance(x, float) and not math.isfinite(x) else x
    return json.dumps(finite(doc), indent=2, allow_nan=False)


def _table(header, columns: dict) -> str:
    """The one CSV writer: a `# key: value` line per header pair, the
    column names, then a row per entry of the columns.  Values are
    written by str (a float's shortest round-trip form), None as an
    empty field, and every line ends in \\n."""
    lines = [f"# {k}: {v}" for k, v in header] + [",".join(columns)]
    lines += [",".join("" if x is None else str(x) for x in row)
              for row in zip(*columns.values())]
    return "\n".join(lines) + "\n"


def _trace_columns(trace: dict) -> dict:
    """A trace document as table columns: row 0 is the start and row k
    the step to iterate k, so the step columns open with an empty field."""
    return {"iteration": range(len(trace["norms"])), "norm": trace["norms"],
            "diff": [None, *trace["diffs"]],
            "violations": [None, *trace["violations"]],
            "seconds": [None, *trace["seconds"]]}


def _emit(text: str, end: str = "\n") -> None:
    """The one stdout writer: print(text, end=end), flushed.  A reader
    that has gone away (a closed pipe) is not an error: stdout is
    pointed at os.devnull, so the interpreter's last flush cannot fail
    either, and the command keeps its own exit code."""
    try:
        sys.stdout.write(text + end)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report_text(report: HypothesisReport, name: str,
                 spec: ProblemSpec) -> str:
    lines = [f"problem {name!r} (alpha1={spec.alpha1.q}, "
             f"alpha2={spec.alpha2.q})"]
    labels = {
        "H1": "boundary weights nonnegative, couplings below Gamma(alpha)",
        "H2": "growth envelopes usable (nonnegative, integrable)",
        "H3": "Lipschitz coefficients usable (nonnegative, integrable)",
        "H4": "forcing nondecreasing in the state",
    }
    for key in sorted(report.verdicts):
        v = report.verdicts[key]
        status = "pass" if v.passed else "FAIL"
        lines.append(f"  {key} {status}  {labels.get(key, '')}")
        if v.reason:
            lines.append(f"      {v.reason}")
    lines.append("constants:")
    lines += [f"  {key} = {val!r}"
              for key, val in report.constants().items() if val is not None]
    lines += [f"note: {note}" for note in report.notes]
    lines += [f"declared-value mismatch: {d.name} computed {d.computed!r} "
              f"vs declared {d.expected!r} (difference {d.difference:.3e})"
              for d in report.discrepancies]
    failed = [k for k, v in sorted(report.verdicts.items()) if not v.passed]
    lines.append("result: " + ("all applicable hypotheses hold"
                               if report.passed else
                               "FAILED: " + ", ".join(failed)))
    return "\n".join(lines)


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
    lp = resolve_problem(args.problem)
    report = build_report(lp.spec, expected=lp.expected)
    _emit(_json(report.to_dict()) if args.json else
          _report_text(report, lp.spec.name or args.problem, lp.spec))
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


def cmd_solve(args: argparse.Namespace) -> int:
    lp = resolve_problem(args.problem)
    # Each override flag's dest is the [solver] key it replaces; a value
    # out of range is named by its flag.
    flags = {key: getattr(args, key) for key in _SECTIONS["solver"]
             if getattr(args, key) is not None}
    for key, value in flags.items():
        if why := _solver_fault(key, value):
            flag = "--grid-n" if key == "n" else "--" + key.replace("_", "-")
            raise ProblemFileError(f"{flag}: {why}")
    cfg = replace(lp.solver, **flags)
    if args.out:  # made first, so that an unusable --out costs no work
        Path(args.out).mkdir(parents=True, exist_ok=True)

    spec = lp.spec
    name = spec.name or args.problem
    report = build_report(spec, expected=lp.expected)
    scheme, reasons = _pick_scheme(cfg, report)
    if scheme is None:
        doc = {"problem": name, "refused": reasons,
               "hypothesis": report.to_dict()}
        if args.json:
            _emit(_json(doc))
        else:
            print(f"problem {name!r}: no scheme is licensed", file=sys.stderr)
            for reason in reasons:
                print(f"  {reason}", file=sys.stderr)
        return EXIT_HYPOTHESIS

    # Imported only now: check, kernel-dump and a refused solve skip them.
    from .solver import (ITERATION_DEFAULTS, Grid, GridError,
                         IntegralOperator, SchemeBreakError, contract_solve,
                         diff_norm, monotone_solve)
    from .verify import error_bound_audit, ordering_audit, verify_pair

    tol, max_iter = ITERATION_DEFAULTS[scheme]
    tol = tol if cfg.tol is None else cfg.tol
    max_iter = max_iter if cfg.max_iter is None else cfg.max_iter

    ks1 = KernelSet.build(spec.alpha1, spec.h1)
    ks2 = KernelSet.build(spec.alpha2, spec.h2)
    try:
        grid = Grid.make(cfg.n, cfg.theta)
        op = IntegralOperator(spec, ks1, ks2, grid)
    except GridError as exc:  # theta is the one input that can cause it
        why = f"{cfg.theta!r} on an n={cfg.n} grid: {exc}"
        raise (ProblemFileError(f"--theta: {why}") if "theta" in flags
               else _fail("solver", "theta", why)) from exc

    config_doc = {"problem": name, "scheme": scheme, "grid_n": cfg.n,
                  "theta": cfg.theta, "t_max": grid.t_max, "tol": tol,
                  "max_iter": max_iter, "interp": cfg.interp}

    doc = {"problem": name, "scheme": scheme, "config": config_doc,
           "converged": False, "hypothesis": report.to_dict()}
    # Chain key -> (solution, trace); the key names the output files and
    # the JSON section, and the contraction scheme's single run has none.
    # Each warning a run recorded is a line on stderr, a broken run's too.
    try:
        if scheme == "monotone":
            chains = {d: monotone_solve(spec, ks1, ks2, grid, d, tol=tol,
                                        max_iter=max_iter, radius=report.R,
                                        operator=op)
                      for d in ("lower", "upper")}
        else:
            chains = {"": contract_solve(spec, ks1, ks2, grid, tol=tol,
                                         max_iter=max_iter, m=report.m,
                                         operator=op)}
    except SchemeBreakError as exc:
        tr = exc.trace  # None for the dominating start
        for w in getattr(tr, "warnings", ()):
            print(f"warning: {w}", file=sys.stderr)
        print(f"scheme guarantee broke mid-run: {exc}", file=sys.stderr)
        if args.json:
            parts = {tr.direction or "": {"trace": tr.to_dict()}} if tr else {}
            _emit(_json({**doc, "broke": str(exc), **parts.get("", parts)}))
        return EXIT_HYPOTHESIS
    warnings = [w for _, tr in chains.values() for w in tr.warnings]
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if scheme == "monotone":
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
        sp, tr = chains[""]
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
    doc["converged"] = all(tr.converged for _, tr in chains.values())
    parts = {key: {"trace": tr.to_dict(), "solution": sp.to_dict()}
             for key, (sp, tr) in chains.items()}
    doc.update(parts.get("", parts))  # contraction's run: top level
    doc["verification"] = ver_doc

    if args.out:
        outputs = {"verification.json": _json(
            {"config": config_doc, **ver_doc, "warnings": warnings}) + "\n"}
        header = config_doc.items()
        for key, part in parts.items():
            suffix = f"-{key}" if key else ""
            outputs[f"solution{suffix}.csv"] = _table(header, part["solution"])
            outputs[f"trace{suffix}.csv"] = _table(
                header, _trace_columns(part["trace"]))
        out_dir = Path(args.out)
        for fname, text in sorted(outputs.items()):
            (out_dir / fname).write_text(text)
        summary.append("wrote " + ", ".join(
            str(out_dir / f) for f in sorted(outputs)))
    _emit(_json(doc) if args.json else "\n".join(summary))
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
    # The kernels exist where H1's weight half holds; if not, say why in
    # check's words.  The builds read Lambda_i from compute_lambda's cache.
    reasons, _ = check_h1_weights(spec)
    if reasons:
        print(f"kernels do not exist: {'; '.join(reasons)}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    ks1 = KernelSet.build(spec.alpha1, spec.h1)
    ks2 = KernelSet.build(spec.alpha2, spec.h2)
    ts = np.geomspace(args.t_min, args.t_max, args.points)

    name = spec.name or args.problem
    tt, ss = ts[:, None], ts[None, :]
    # t^(alpha-1) can overflow at an end of the range, so the finished
    # tables are checked, not the range.
    unfit = (f"kernels are not finite for t in [{args.t_min}, {args.t_max}]"
             f"; narrow --t-min/--t-max")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            k1m, k2m = (ks.k_grid(tt, ss) for ks in (ks1, ks2))
            s1m, s2m = (ks.kstar_grid(tt, ss) for ks in (ks1, ks2))
            kb1, kb2 = (ks.k_bound(ts) for ks in (ks1, ks2))
    except ExprError as exc:  # a weight not finite where G meets it
        raise ProblemFileError(unfit) from exc
    sb1, sb2 = (ks.kstar_bound() for ks in (ks1, ks2))
    if not all(np.isfinite(m).all() for m in (k1m, k2m, s1m, s2m, kb1, kb2)):
        raise ProblemFileError(unfit)
    if args.json:
        doc = {
            "problem": name, "t": ts.tolist(), "s": ts.tolist(),
            "k1": k1m.tolist(), "k2": k2m.tolist(),
            "kstar1": s1m.tolist(), "kstar2": s2m.tolist(),
            "k1_bound": kb1.tolist(), "k2_bound": kb2.tolist(),
            "kstar1_bound": sb1, "kstar2_bound": sb2,
            "lambda1": ks1.lam, "lambda2": ks2.lam,
        }
        text = _json(doc)
    else:  # one row per (t, s) pair
        cols = {"t": tt, "s": ss, "k1": k1m, "k1_bound": kb1[:, None],
                "k2": k2m, "k2_bound": kb2[:, None], "kstar1": s1m,
                "kstar1_bound": sb1, "kstar2": s2m, "kstar2_bound": sb2}
        text = _table([
            ("problem", name), ("alpha1", spec.alpha1.q),
            ("alpha2", spec.alpha2.q), ("lambda1", ks1.lam),
            ("lambda2", ks2.lam), ("points", args.points),
            ("t_min", args.t_min), ("t_max", args.t_max),
        ], {k: map(float, np.broadcast_to(v, k1m.shape).flat)
            for k, v in cols.items()})

    if args.out:
        Path(args.out).write_text(text)
        _emit(f"wrote {args.out}")
    else:
        _emit(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's own failures are input problems: exit 4, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _out_path(text: str) -> str:
    """An empty --out names no path: refused, not taken as absent."""
    if not text:
        raise argparse.ArgumentTypeError("must name a path, got ''")
    return text


def _build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("problem",
                        help="path to a problem file, or a packaged name "
                             f"({', '.join(packaged_problem_names())})")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of text")

    top = _ArgumentParser(
        prog="fracbvp",
        description="Check and solve coupled fractional boundary value "
                    "problems on the half line.")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_ArgumentParser)

    pc = sub.add_parser("check", parents=[common],
                        help="verify the solvability hypotheses and derive "
                             "the scheme constants")
    pc.set_defaults(fn=cmd_check)

    ps = sub.add_parser("solve", parents=[common],
                        help="run the licensed iteration scheme")
    ps.add_argument("--grid-n", type=int, default=None, dest="n",
                    help="number of grid nodes")
    ps.add_argument("--tol", type=float, default=None,
                    help="iteration tolerance")
    ps.add_argument("--max-iter", type=int, default=None,
                    help="iteration cap")
    ps.add_argument("--scheme", choices=("auto", "monotone", "contraction"),
                    default=None, help="override the scheme choice")
    ps.add_argument("--theta", type=float, default=None,
                    help="grid map scale (nodes at theta*x/(1-x))")
    ps.add_argument("--out", type=_out_path, metavar="DIR",
                    help="write solution/trace CSVs and verification JSON "
                         "into DIR")
    ps.set_defaults(fn=cmd_solve)

    pk = sub.add_parser("kernel-dump", parents=[common],
                        help="tabulate the four kernels with their bounds")
    pk.add_argument("--points", type=int, default=50,
                    help="grid points per axis")
    pk.add_argument("--t-min", type=float, default=1e-3, dest="t_min")
    pk.add_argument("--t-max", type=float, default=100.0, dest="t_max")
    pk.add_argument("--out", type=_out_path, metavar="FILE",
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
    except (ProblemFileError, ExprError, OSError, MemoryError) as exc:
        # ExprError: an expression evaluated to a non-finite value.  An
        # OSError names its path (--out), numpy's MemoryError its array.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_PARSE
    except QuadratureError as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
