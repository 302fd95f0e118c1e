"""Record bench/reference.json, the outputs run.py's gate compares against.

    python3 bench/make_reference.py

Run once, from the commit whose outputs are to serve as the reference;
the file in the repository was recorded this way from the seed commit.
It records, for every configuration a benchmark run can ask for:

- grid/<n>: the grid nodes of the n-node grid;
- solve/<p>/<n>: the node rows of `fracbvp solve <p> --grid-n <n> --json`;
- solve/no-boundary/64: the rows of both monotone chains for the
  no-boundary problem, computed through the library exactly as `solve`
  does before verification (the seed's `solve` crashes after iterating);
- sweep/<p>/<level>: the rows of every sweep variant, from
  sweep_worker.py's pipeline run in this process;
- check/<p>: derived constants, declared-value mismatches, and the closed
  forms of the envelope, Lipschitz and coupling integrals;
- kernel-dump/<p>: both Lambdas and every STRIDE-th kernel entry.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

from problems import (PACKAGED, SCALE_LEVELS, no_boundary_text,
                      packaged_text, scale_of, variant_text)
from run import BENCH, CLI_MAIN, ROOT, SOLVE_GRID, child_env

STRIDE = 25

# Closed forms of the integrals `check` derives for the packaged problems.
CLOSED_FORMS = {
    "sublinear": {
        "lambda1": 1.0, "lambda2": 0.5,
        "a10": 1 / 5, "a11": 1.0, "a12": 1 / 2, "a13": 1 / 3,
        "a14": math.pi / 2, "a20": 1 / 800, "a21": 1 / 3, "a22": 1 / 4,
        "a23": 1 / 3, "a24": math.pi,
    },
    "lipschitz": {
        "lambda1": 1.0, "lambda2": 0.5,
        "b11": 1 / 20, "b12": 1 / 15, "b13": 1 / 30, "b14": 1 / 20,
        "b21": 1 / 18, "b22": 1 / 16, "b23": 1 / 21, "b24": math.pi / 40,
        "tau1": 1 / 5, "tau2": 1 / 800,
    },
}


def cli_json(*args: str) -> dict:
    res = subprocess.run([sys.executable, "-c", CLI_MAIN, *args],
                         capture_output=True, text=True, cwd=ROOT,
                         env=child_env(), check=True)
    return json.loads(res.stdout)


def _digits(x: float) -> float:
    """Ten significant digits: far finer than the row tolerance."""
    return float(f"{x:.10g}")


def rows_entry(ref: dict, alpha, tol: float, scheme: str,
               solutions: dict) -> dict:
    """Node rows of one configuration; the grid goes to ref["grid/<n>"]."""
    t = next(iter(solutions.values()))["t"]
    ref.setdefault(f"grid/{len(t)}", t)
    return {"alpha": list(alpha), "tol": tol, "scheme": scheme,
            "n": len(t),
            "solutions": {name: {k: [_digits(x) for x in sol[k]]
                                 for k in ("u", "v", "du", "dv")}
                          for name, sol in solutions.items()}}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import fracbvp as fb
    from sweep_worker import Sweep, solution_doc

    ref: dict = {}
    for p in PACKAGED:
        spec = fb.resolve_problem(p).spec
        alpha = (spec.alpha1.q, spec.alpha2.q)
        for n in SOLVE_GRID:
            doc = cli_json("solve", p, "--grid-n", str(n), "--json")
            sols = ({k: doc[k]["solution"] for k in ("lower", "upper")}
                    if doc["scheme"] == "monotone"
                    else {"solution": doc["solution"]})
            ref[f"solve/{p}/{n}"] = rows_entry(
                ref, alpha, doc["config"]["tol"], doc["scheme"], sols)

        doc = cli_json("check", p, "--json")
        ref[f"check/{p}"] = {
            "constants": {k: v for k, v in doc.items()
                          if isinstance(v, float)},
            "discrepancies": sorted(d["name"] for d in doc["discrepancies"]),
            "closed_forms": CLOSED_FORMS[p],
        }
        doc = cli_json("kernel-dump", p, "--json")
        ref[f"kernel-dump/{p}"] = {
            "points": len(doc["t"]), "stride": STRIDE,
            "lambda1": doc["lambda1"], "lambda2": doc["lambda2"],
            "samples": {k: [x for row in doc[k] for x in row][::STRIDE]
                        for k in ("k1", "k2", "kstar1", "kstar2")},
        }

    lp = fb.load_problem(no_boundary_text(packaged_text(ROOT, "sublinear")))
    spec = lp.spec
    report = fb.build_report(spec, expected=lp.expected)
    ks1 = fb.KernelSet.build(spec.alpha1, spec.h1)
    ks2 = fb.KernelSet.build(spec.alpha2, spec.h2)
    grid = fb.Grid.make(64)
    op = fb.IntegralOperator(spec, ks1, ks2, grid)
    sols = {}
    for d in ("lower", "upper"):
        sp, tr = fb.monotone_solve(spec, ks1, ks2, grid, d, tol=1e-5,
                                   max_iter=200, radius=report.R,
                                   operator=op)
        assert tr.converged, tr.message
        sols[d] = solution_doc(sp)
    ref["solve/no-boundary/64"] = rows_entry(
        ref, (spec.alpha1.q, spec.alpha2.q), 1e-5, "monotone", sols)

    sweep = Sweep(None)
    sweep.setup(packaged_text(ROOT, "sublinear"))
    for p in PACKAGED:
        base = packaged_text(ROOT, p)
        for level in range(SCALE_LEVELS):
            reply = sweep.solve(variant_text(base, scale_of(level)))
            assert reply["ok"] and reply["converged"] and reply["audit_ok"]
            lp = fb.load_problem(variant_text(base, scale_of(level)))
            ref[f"sweep/{p}/{level}"] = rows_entry(
                ref, (lp.spec.alpha1.q, lp.spec.alpha2.q), reply["tol"],
                reply["scheme"], reply["solutions"])

    (BENCH / "reference.json").write_text(
        json.dumps(ref, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
