"""End-to-end and per-layer benchmark of fracbvp.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload of the checkout that holds this file, checks every
output, and prints one line per metric followed by a JSON result line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A full run record (environment, seed, drawn inputs, every operation with
its latency, gate outcome and, when traced, its layer breakdown) goes to
.bench_out/<workload>-seed<N>-trace<T>.json.

Load comes from this one client process, one operation at a time (a
closed loop).  Workloads:

- cli-solve: `fracbvp solve <p> --grid-n <n> --json` in a fresh
  interpreter for p in {sublinear, lipschitz}, n in {32, 64, 128}, plus
  the sublinear problem with its [boundary] section removed at n=64.
  The main user path; the G tabulation dominates, so the n-scaling of the
  operator build shows.  The no-boundary problem is legal input; at the
  seed commit its solve exits 1 and counts as a failed operation.
- sweep: library worker processes (sweep_worker.py), each of which builds
  the kernels, grid and first operator once, then solves variants drawn from
  the seed: the packaged problems alternate, each with its constant
  forcing term scaled by a factor in [0.5, 2].  Every build after the
  first is served by the G memo, so apply, iteration, verification and
  report work show here.
- cli-check: `fracbvp check <p> --json` and `fracbvp kernel-dump <p>
  --json` in fresh interpreters for both packaged problems.  Import
  dominates `check`; kernel-dump reads G at 50 distinct points through
  2,500-entry meshgrids.

A pass runs every operation of the workload once, in an order drawn from
the seed; a run repeats whole passes until --seconds have been measured.

End-to-end metrics (--trace 0), all measured with tracing off.  On a
shared host the speed a process gets drifts by up to 1.5x, within
seconds and over minutes, and every operation of a run moves with it.
The times of the SCALED workloads are therefore scaled by the host speed
of hostspeed.py: after every set-up and operation this process times a
fixed job that uses nothing of fracbvp, and the job's median time just
before and after an item turns its raw time into seconds on a reference
host.  The record keeps the raw times ("seconds") next to the scaled
ones ("ref_seconds").  Measured on a 2-vCPU shared VM, scaling cut the
spread of sweep op_p50_s between runs from 0.17-0.42 to 0.05-0.09 (IQR
over median, 5 or 10 seeds), and of single n=64 solves from 0.34 to
0.10-0.14.  Set-ups are scaled too, so that a workload's times share one
unit and add up in wall_s, though they follow the job less closely (CLI
set-up is all imports; a sweep set-up lasts 4 s).  cli-check stays raw:
its operations are mostly interpreter start-up and imports, which do not
follow the job (scaling widened its spread from 0.03 to 0.09) and drift
less to begin with.

- setup_s: one-time cost before the first operation, median of several
  set-ups.  CLI workloads: a fresh interpreter running `import
  fracbvp.cli` (3 times).  sweep: worker start to ready: import, both
  KernelSet builds, Grid.make and the first IntegralOperator, which
  tabulates G (5 workers, which then serve the passes in turn).
- op_p50_s: median latency of one operation of a pass (CLI: whole
  invocation, import included; sweep: one variant from problem text to
  verified result), taken over the pass's operations, each at its median
  over the run's passes.  An operation that ever failed counts as missing
  any latency limit (+max float).
- wall_s: wall time of one full pass, set-up included: setup_s plus each
  operation's median latency.
- peak_rss_mb: peak resident memory of the process doing the work (CLI:
  the largest child; sweep: the largest worker).
- residual_max: the largest accuracy residual over the run's outputs.  For
  solves, the boundary-condition residuals |D^(a-1)u(t_N) - int h u| that
  `verification` reports; for `check`, the distance of the derived
  envelope, Lipschitz and coupling integrals from their closed forms.
- success_rate: operations that passed the gate over operations
  attempted (1 - error rate; the error rate itself is zero when nothing
  fails, and the result line carries attempted and failed).

The gate: an operation fails when its exit code is not 0, its JSON does
not parse, it does not report convergence, its scheme audit fails, or its
node rows (solves), constants (check) or kernel samples and bounds
(kernel-dump) disagree with reference.json, which was recorded from the
seed commit for the same configurations (make_reference.py).  Solution
rows may differ by at most 10x the scheme's iteration tol in the scheme's
weighted sup norm.  `correct` turns false when an operation that reported
success returned such wrong output, or when the traced accounting below
does not add up.

Per-layer metrics (--trace 1) come from a traced pass run next to an
untraced one (see tracing.py for the wrapped names).  They are sums over
the traced pass (sweep: its set-up plus one pass of variants); each
operation's record keeps its own breakdown.  For every operation the
layers' self times plus `other` (interpreter start-up, CLI glue, pipes)
add up to its traced time, and `other` may not be negative.
trace.overhead_s is traced minus untraced wall time of the pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

from hostspeed import REFERENCE_S, HostSpeed
from problems import (PACKAGED, SCALE_LEVELS, no_boundary_text,
                      packaged_text, scale_of, variant_text)
from tracing import QUAD_CALLERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cli-solve", "sweep", "cli-check")
SCALED = ("cli-solve", "sweep")  # times scaled by host speed, see above
SOLVE_GRID = (32, 64, 128)
# Variants per sweep pass, alternating sublinear / lipschitz from the
# first: an odd count keeps the median on one problem's variants, so it
# does not jump between the two problems' costs from one seed to another.
# The median is then the cheapest sublinear variant; few variants give
# each more passes in a run, which steadies that minimum.
SWEEP_VARIANTS = 5
CLI_SETUPS = 3
SWEEP_SETUPS = 5
RUN_LIMIT_S = 165.0         # every run must end well within 180 s
ROW_TOL_FACTOR = 10.0       # allowed row deviation, in iteration tols
CONST_RTOL = 1e-8           # check constants / kernel samples vs reference
MISSED = sys.float_info.max  # latency of a failed operation

CLI_MAIN = ("import sys; from fracbvp.cli import main; "
            "sys.exit(main(sys.argv[1:]))")

QUAD_METRICS = tuple(f"quad.{kind}.{caller}" for kind in ("calls", "evals")
                     for caller in QUAD_CALLERS)

# Span names whose inclusive time is reported under a metric name.
_INCLUSIVE = {
    "import.s": "import", "kernels.g_table_s": "kernels.g",
    "kernels.lambda_s": "kernels.lambda", "solver.build_s": "solver.build",
    "solver.iterate_s": "solver.iterate", "exprlang.eval_s": "exprlang.eval",
    "problem.report_s": "problem.report", "problem.h4_s": "problem.h4",
    "verify.ode_s": "verify.ode",
    "fracops.rl_derivative_s": "fracops.rl_derivative",
    "verify.bc_s": "verify.bc", "verify.fp_s": "verify.fp",
    "verify.audit_s": "verify.audit",
}


# -- child processes ----------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Deadline:
    """Time left before the run must stop starting work."""

    def __init__(self, limit: float):
        self.end = time.perf_counter() + limit

    def left(self) -> float:
        return max(0.0, self.end - time.perf_counter())


def run_child(argv: list[str], deadline: Deadline) -> dict:
    """Run one command to completion; wall time, exit code, peak RSS."""
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(deadline.left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    err_lines = err_path.read_text().strip().splitlines()
    return {"seconds": seconds, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(),
            "stderr_tail": err_lines[-1] if err_lines else ""}


class Worker:
    """One sweep_worker.py process, driven one request at a time."""

    def __init__(self, trace: bool, deadline: Deadline):
        self.deadline = deadline
        self.err = open(OUT / f"worker{int(trace)}.stderr", "w")
        self.t_start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "sweep_worker.py"), str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            cwd=ROOT, env=child_env(), text=True)

    def request(self, req: dict) -> tuple[float, dict]:
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return 0.0, {"ok": False, "error": "worker has exited"}
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    self.deadline.left())
        line = self.proc.stdout.readline() if ready else ""
        seconds = time.perf_counter() - t0
        if not line:
            self.proc.kill()
            return seconds, {"ok": False, "error": "worker gave no reply"}
        return seconds, json.loads(line)

    def close(self) -> float:
        """End the worker; returns its peak RSS in MB."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker has exited already; reap it below
        timer = threading.Timer(max(self.deadline.left(), 5.0),
                                self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.close()
        return usage.ru_maxrss / 1024.0


# -- correctness gate ---------------------------------------------------


def load_reference() -> dict:
    """reference.json with each row entry's grid nodes attached as "t"."""
    ref = json.loads((BENCH / "reference.json").read_text())
    for entry in ref.values():
        if isinstance(entry, dict) and "n" in entry:
            entry["t"] = ref[f"grid/{entry['n']}"]
    return ref


def _row_distance(sol: dict, ref: dict, t_ref: list[float],
                  alpha: tuple[float, float]) -> float:
    """Weighted sup distance of (u, du, v, dv), the schemes' own norm."""
    worst = 0.0
    for j, t in enumerate(t_ref):
        if not math.isclose(sol["t"][j], t, rel_tol=1e-12):
            return math.inf
        w1, w2 = 1.0 + t ** (alpha[0] - 1.0), 1.0 + t ** (alpha[1] - 1.0)
        worst = max(worst, abs(sol["u"][j] - ref["u"][j]) / w1,
                    abs(sol["v"][j] - ref["v"][j]) / w2,
                    abs(sol["du"][j] - ref["du"][j]),
                    abs(sol["dv"][j] - ref["dv"][j]))
    return worst


def _rows_match(solutions: dict, ref: dict, tol: float) -> str:
    if tol != ref["tol"] or set(solutions) != set(ref["solutions"]):
        return "configuration differs from the reference"
    for name, sol in solutions.items():
        if len(sol["t"]) != len(ref["t"]):
            return f"{name}: grid size differs from the reference"
        dist = _row_distance(sol, ref["solutions"][name], ref["t"],
                             ref["alpha"])
        if not dist <= ROW_TOL_FACTOR * tol:
            return (f"{name} rows differ from the reference by {dist:.3e} "
                    f"> {ROW_TOL_FACTOR:g} * tol")
    return ""


class Outcome(NamedTuple):
    """Gate verdict for one operation; `wrong` marks a wrong answer given
    as a success, as opposed to a failure the program reported."""

    ok: bool
    wrong: bool = False
    why: str = ""
    residual: float | None = None


def gate_solve(doc: dict, ref: dict) -> Outcome:
    if not doc.get("converged"):
        return Outcome(False, why="did not report convergence")
    ver = doc["verification"]
    audit = ver["ordering"] if doc["scheme"] == "monotone" \
        else ver["error_bound"]
    if not (audit and audit["ok"]):
        return Outcome(False, True, f"{doc['scheme']} audit failed")
    if doc["scheme"] == "monotone":
        sols = {k: doc[k]["solution"] for k in ("lower", "upper")}
    else:
        sols = {"solution": doc["solution"]}
    why = _rows_match(sols, ref, doc["config"]["tol"])
    return Outcome(not why, bool(why), why,
                   max(ver["bc_residual_1"], ver["bc_residual_2"]))


def gate_sweep(reply: dict, ref: dict) -> Outcome:
    if not reply.get("ok"):
        return Outcome(False, why=reply.get("error", "no result"))
    if not reply["converged"]:
        return Outcome(False, why="did not converge")
    if not reply["audit_ok"]:
        return Outcome(False, True, f"{reply['scheme']} audit failed")
    why = _rows_match(reply["solutions"], ref, reply["tol"])
    return Outcome(not why, bool(why), why, max(reply["bc_residuals"]))


def _close(got, want) -> bool:
    return isinstance(got, (int, float)) and \
        abs(got - want) <= CONST_RTOL * (1.0 + abs(want))


def gate_check(doc: dict, ref: dict) -> Outcome:
    if not doc.get("passed") or not all(v["passed"] for v in
                                        doc["verdicts"].values()):
        return Outcome(False, True, "hypotheses reported failing")
    for key, want in ref["constants"].items():
        if not _close(doc.get(key), want):
            return Outcome(False, True, f"constant {key}={doc.get(key)!r} "
                                        f"differs from reference {want!r}")
    names = sorted(d["name"] for d in doc["discrepancies"])
    if names != ref["discrepancies"]:
        return Outcome(False, True, f"declared-value mismatches {names}")
    residual = max(abs(doc[k] - v) for k, v in ref["closed_forms"].items())
    return Outcome(True, residual=residual)


def gate_kernel_dump(doc: dict, ref: dict) -> Outcome:
    n = len(doc["t"])
    if n != ref["points"]:
        return Outcome(False, True, f"{n} points, expected {ref['points']}")
    for i in (1, 2):
        kb, sb = doc[f"k{i}_bound"], doc[f"kstar{i}_bound"]
        k, ks = doc[f"k{i}"], doc[f"kstar{i}"]
        for r in range(n):
            for c in range(n):
                if not (0.0 <= k[r][c] <= kb[r] * (1 + 1e-12)
                        and 0.0 <= ks[r][c] <= sb * (1 + 1e-12)):
                    return Outcome(False, True,
                                   f"kernel {i} leaves its bound at "
                                   f"t={doc['t'][r]!r}, s={doc['s'][c]!r}")
        if not _close(doc[f"lambda{i}"], ref[f"lambda{i}"]):
            return Outcome(False, True, f"lambda{i} differs from reference")
    stride = ref["stride"]
    for key, want in ref["samples"].items():
        flat = [x for row in doc[key] for x in row][::stride]
        if len(flat) != len(want) or not all(
                _close(g, w) for g, w in zip(flat, want)):
            return Outcome(False, True, f"{key} differs from reference")
    return Outcome(True)


CLI_GATES = {"solve": gate_solve, "check": gate_check,
             "kernel-dump": gate_kernel_dump}


def apply_gate(gate, doc: dict, ref: dict) -> Outcome:
    """gate(doc, ref); output missing the fields a gate reads is wrong."""
    try:
        return gate(doc, ref)
    except (KeyError, IndexError, TypeError) as exc:
        return Outcome(False, True, f"output lacks {exc!r}")


# -- workloads ----------------------------------------------------------


def cli_ops(workload: str) -> list[dict]:
    """The operations of one pass of a CLI workload."""
    if workload == "cli-check":
        return [{"id": f"{cmd} {p}", "problem": p, "n": None,
                 "argv": [cmd, p, "--json"], "ref": f"{cmd}/{p}",
                 "gate": cmd}
                for p in PACKAGED for cmd in ("check", "kernel-dump")]
    path = OUT / "no-boundary.prob"
    path.write_text(no_boundary_text(packaged_text(ROOT, "sublinear")))
    ops = [{"id": f"solve {p} n={n}", "problem": p, "n": n,
            "argv": ["solve", p, "--grid-n", str(n), "--json"],
            "ref": f"solve/{p}/{n}", "gate": "solve"}
           for p in PACKAGED for n in SOLVE_GRID]
    ops.append({"id": "solve no-boundary n=64", "problem": "no-boundary",
                "n": 64, "argv": ["solve", str(path), "--grid-n", "64",
                                  "--json"],
                "ref": "solve/no-boundary/64", "gate": "solve"})
    return ops


def judge_cli(op: dict, run: dict, reference: dict) -> Outcome:
    if run["code"] != 0:
        return Outcome(False, why=f"exit {run['code']}: {run['stderr_tail']}")
    try:
        doc = json.loads(run["stdout"])
    except json.JSONDecodeError as exc:
        return Outcome(False, why=f"output is not JSON: {exc}")
    ref = reference.get(op["ref"])
    if ref is None:
        return Outcome(False, why=f"no reference for {op['ref']}")
    return apply_gate(CLI_GATES[op["gate"]], doc, ref)


def op_record(op_id: str, seconds: float, outcome: Outcome, **extra) -> dict:
    return {"id": op_id, "seconds": seconds, "ok": outcome.ok,
            "wrong": outcome.wrong, "why": outcome.why,
            "residual": outcome.residual, **extra}


def _cli_op(op: dict, traced: bool, reference: dict,
            deadline: Deadline) -> dict:
    """Run one CLI operation, plain or through cli_child.py, and gate it."""
    summary_path = OUT / "trace-summary.json"
    summary_path.unlink(missing_ok=True)
    prefix = [sys.executable, str(BENCH / "cli_child.py"),
              str(summary_path)] if traced else [sys.executable, "-c",
                                                 CLI_MAIN]
    run = run_child(prefix + op["argv"], deadline)
    extra = {"problem": op["problem"], "n": op["n"], "traced": traced,
             "rss_mb": run["rss_mb"]}
    if traced:
        extra["trace"] = json.loads(summary_path.read_text()) \
            if summary_path.exists() else None
    return op_record(op["id"], run["seconds"],
                     judge_cli(op, run, reference), **extra)


def _probe(speed: HostSpeed | None, item: dict) -> None:
    """Probe the host speed after a timed set-up or operation."""
    if speed is not None:
        item["probe"] = speed.probe(item["seconds"])


def run_cli(workload: str, seconds: float, trace: bool,
            speed: HostSpeed | None, rng: random.Random, reference: dict,
            deadline: Deadline, log) -> dict:
    ops = cli_ops(workload)
    rec: dict = {"ops": [], "setup_samples": [], "passes": 0}
    if trace:
        for i, op in enumerate(rng.sample(ops, len(ops))):
            # Alternate which of the pair runs first, so that drift over
            # the pass does not bias the measured overhead.
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                rec["ops"].append(_cli_op(op, traced, reference, deadline))
                log(rec["ops"][-1])
        rec["passes"] = 1
        return rec

    import_argv = [sys.executable, "-c", "import fracbvp.cli"]
    for _ in range(CLI_SETUPS):
        run = run_child(import_argv, deadline)
        if run["code"] != 0:
            raise SystemExit(f"error: `import fracbvp.cli` failed: "
                             f"{run['stderr_tail']}")
        rec["setup_samples"].append({"seconds": run["seconds"]})
        _probe(speed, rec["setup_samples"][-1])
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in rng.sample(ops, len(ops)):
            rec["ops"].append(_cli_op(op, False, reference, deadline))
            log(rec["ops"][-1])
            _probe(speed, rec["ops"][-1])
        rec["passes"] += 1
        now = time.perf_counter()
        if now - started >= seconds or \
                deadline.left() < 1.5 * (now - pass_start):
            break
    rec["measured_s"] = time.perf_counter() - started
    return rec


def sweep_variants(rng: random.Random) -> list[dict]:
    out = []
    for i in range(SWEEP_VARIANTS):
        level = rng.randrange(SCALE_LEVELS)
        out.append({"problem": PACKAGED[i % 2], "level": level,
                    "scale": scale_of(level)})
    return out


def _sweep_pass(worker: Worker, variants: list[dict], texts: list[str],
                reference: dict, traced: bool, log,
                speed: HostSpeed | None = None) -> list[dict]:
    ops = []
    for v, text in zip(variants, texts):
        seconds, reply = worker.request({"text": text})
        key = f"sweep/{v['problem']}/{v['level']}"
        outcome = apply_gate(gate_sweep, reply, reference[key])
        extra = {"problem": v["problem"], "n": 64, "scale": v["scale"],
                 "traced": traced}
        if traced:
            extra["trace"] = reply.get("trace")
        ops.append(op_record(
            f"sweep[{len(ops)}] {v['problem']} x{v['scale']:.4f}",
            seconds, outcome, **extra))
        log(ops[-1])
        _probe(speed, ops[-1])
    return ops


def _sweep_setup(worker: Worker, base: str) -> tuple[float, dict]:
    _, reply = worker.request({"setup": base})
    seconds = time.perf_counter() - worker.t_start
    if not reply.get("ready"):
        raise SystemExit(f"error: sweep set-up failed: {reply.get('error')}")
    return seconds, reply


def run_sweep(seconds: float, trace: bool, speed: HostSpeed | None,
              rng: random.Random, reference: dict, deadline: Deadline,
              log) -> dict:
    base = packaged_text(ROOT, "sublinear")
    variants = sweep_variants(rng)
    texts = [variant_text(packaged_text(ROOT, v["problem"]), v["scale"])
             for v in variants]
    rec: dict = {"variants": variants, "ops": [], "setup_samples": [],
                 "passes": 0}
    workers: list[Worker] = []
    try:
        if trace:
            for traced in rng.sample((False, True), 2):
                workers.append(Worker(traced, deadline))
                setup_s, reply = _sweep_setup(workers[-1], base)
                rec.setdefault("setup_ops", []).append(
                    {"id": "sweep setup", "seconds": setup_s,
                     "traced": traced, "trace": reply.get("trace")})
                rec["ops"] += _sweep_pass(workers[-1], variants, texts,
                                          reference, traced, log)
            rec["passes"] = 1
            return rec

        for _ in range(SWEEP_SETUPS):
            workers.append(Worker(False, deadline))
            rec["setup_samples"].append(
                {"seconds": _sweep_setup(workers[-1], base)[0]})
            _probe(speed, rec["setup_samples"][-1])
        started = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            # The set-up workers take turns by pass: how fast one process
            # runs varies from process to process, and turns average that.
            worker = workers[rec["passes"] % len(workers)]
            rec["ops"] += _sweep_pass(worker, variants, texts, reference,
                                      False, log, speed)
            rec["passes"] += 1
            now = time.perf_counter()
            if now - started >= seconds or \
                    deadline.left() < 1.5 * (now - pass_start):
                break
        rec["measured_s"] = time.perf_counter() - started
    finally:
        rss = [w.close() for w in workers]
    rec["worker_rss_mb"] = max(rss)
    return rec


# -- metrics ------------------------------------------------------------


def end_to_end(rec: dict, key: str = "seconds") -> dict[str, float]:
    """The end-to-end metrics, from the set-up and operation times under
    `key` ("seconds" raw, "ref_seconds" scaled by host speed)."""
    ops = rec["ops"]
    setup_s = statistics.median(s[key] for s in rec["setup_samples"])
    per_config: dict[str, list[float]] = {}
    for op in ops:
        per_config.setdefault(op["id"], []).append(op[key])
    failed = {op["id"] for op in ops if not op["ok"]}
    residuals = [op["residual"] for op in ops
                 if op["ok"] and op["residual"] is not None]
    rss = rec.get("worker_rss_mb") or max(op["rss_mb"] for op in ops)
    latency = {k: statistics.median(v) for k, v in per_config.items()}
    return {
        "setup_s": setup_s,
        # min(): the mean of two MISSED middle values overflows to inf.
        "op_p50_s": min(MISSED, statistics.median(
            MISSED if k in failed else v for k, v in latency.items())),
        "wall_s": setup_s + sum(latency.values()),
        "peak_rss_mb": rss,
        "residual_max": max(residuals) if residuals else MISSED,
        "success_rate": sum(op["ok"] for op in ops) / len(ops),
    }


def layer_values(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over span summaries (see tracing.py)."""
    incl: dict[str, float] = {}
    counts: dict[str, float] = {}
    calls: dict[str, float] = {}
    for s in summaries:
        for src, dst in ((s["incl_s"], incl), (s["counts"], counts),
                         (s["calls"], calls)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0.0) + v
    out = {name: incl.get(span, 0.0) for name, span in _INCLUSIVE.items()}
    points = counts.get("kernels.g_points", 0.0)
    quads = counts.get("kernels.g_quad_calls", 0.0)
    applies = calls.get("solver.apply", 0.0)
    out.update({
        "kernels.g_points": points, "kernels.g_quad_calls": quads,
        "kernels.g_hit_ratio": 1.0 - quads / points if points else 0.0,
        "solver.plan_s": incl.get("solver.build", 0.0)
        - incl.get("kernels.g@solver.build", 0.0),
        "solver.apply_ms": 1000.0 * incl.get("solver.apply", 0.0) / applies
        if applies else 0.0,
        "solver.applies": applies,
        "exprlang.eval_points": counts.get("exprlang.eval_points", 0.0),
    })
    out.update({name: counts.get(name, 0.0) for name in QUAD_METRICS})
    return out


def account(op_seconds: float, summary: dict) -> dict:
    """Self time per layer plus the `other` remainder of one operation."""
    self_s = summary["self_s"]
    other = op_seconds - sum(self_s.values())
    return {"self_s": self_s, "other_s": other,
            "adds_up": other >= -1e-3}


def per_layer(rec: dict) -> tuple[dict[str, float], bool]:
    """Layer metrics of the traced pass, and whether its accounting holds.

    The sweep's set-ups count as operations of the pass here.
    """
    units = rec["ops"] + rec.get("setup_ops", [])
    traced = [u for u in units if u["traced"]]
    adds_up = all(u["trace"] for u in traced)
    other = 0.0
    for u in traced:
        if u["trace"]:
            u["accounting"] = account(u["seconds"], u["trace"])
            u["layers"] = layer_values([u["trace"]])
            other += u["accounting"]["other_s"]
            adds_up = adds_up and u["accounting"]["adds_up"]
    traced_total = sum(u["seconds"] for u in traced)
    plain_total = sum(u["seconds"] for u in units if not u["traced"])
    values = layer_values([u["trace"] for u in traced if u["trace"]])
    values["trace.other_s"] = other
    values["trace.overhead_s"] = traced_total - plain_total
    rec["overhead"] = {"traced_s": traced_total, "untraced_s": plain_total,
                       "overhead_s": traced_total - plain_total}
    return values, adds_up


# -- run record ---------------------------------------------------------


def environment() -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fracbvp" / "cli.py").is_file():
        print(f"error: no fracbvp sources under {ROOT / 'src'}; run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = load_reference()
    OUT.mkdir(exist_ok=True)
    deadline = Deadline(RUN_LIMIT_S)
    rng = random.Random(args.seed)

    def log(op: dict) -> None:
        state = "ok" if op["ok"] else f"FAILED ({op['why']})"
        print(f"  {op['id']:<28} {op['seconds']:8.3f} s  {state}",
              file=sys.stderr, flush=True)

    speed = HostSpeed() if not args.trace and args.workload in SCALED \
        else None
    if args.workload == "sweep":
        rec = run_sweep(args.seconds, bool(args.trace), speed, rng,
                        reference, deadline, log)
    else:
        rec = run_cli(args.workload, args.seconds, bool(args.trace), speed,
                      rng, reference, deadline, log)

    correct = not any(op["wrong"] for op in rec["ops"])
    if args.trace:
        values, adds_up = per_layer(rec)
        correct = correct and adds_up
    elif speed is None:
        values = end_to_end(rec)
    else:
        for item in rec["setup_samples"] + rec["ops"]:
            item["ref_seconds"] = item["seconds"] * speed.factor(item["probe"])
        rec["host_speed"] = {"reference_s": REFERENCE_S,
                             "groups": speed.groups,
                             "raw": end_to_end(rec)}
        values = end_to_end(rec, "ref_seconds")
    # BENCHMARK.json names the metrics of each mode and their units.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    failed = sum(not op["ok"] for op in rec["ops"])
    result = {"correct": correct, "attempted": len(rec["ops"]),
              "failed": failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "result": result,
              "error_rate": failed / len(rec["ops"]), **rec}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:.6g} {m['unit']}")
    if speed is not None:
        raw = rec["host_speed"]["raw"]
        print(f"raw (unscaled) setup_s {raw['setup_s']:.6g}, op_p50_s "
              f"{raw['op_p50_s']:.6g}, wall_s {raw['wall_s']:.6g}")
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
