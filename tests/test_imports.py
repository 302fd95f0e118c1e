"""What each entry point imports, counted in a fresh interpreter.

The package resolves its public names and submodules on first access,
so a command imports only the modules it runs: `check` needs no
solver, and no command needs scipy.  These tests count modules, not
seconds, so they fail the same way on any machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracbvp

# The directory holding the fracbvp package the suite itself imports.
_ROOT = str(Path(fracbvp.__file__).resolve().parent.parent)


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (_ROOT, os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})


def _modules_after(argv: list[str], exit_code: int = 0) -> set[str]:
    """The modules loaded once cli.main(argv) has run."""
    run = _python("-c", f"""
import contextlib, io, json, sys
from fracbvp.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    code = main({argv!r})
print(json.dumps([code, sorted(sys.modules)]))
""")
    assert run.returncode == 0, run.stderr
    code, modules = json.loads(run.stdout)
    assert code == exit_code
    return set(modules)


@pytest.mark.parametrize("argv, exit_code", [
    (["check", "sublinear", "--json"], 0),
    (["solve", "sublinear", "--scheme", "contraction"], 2),
], ids=["check", "refused-solve"])
def test_check_and_refused_solve_skip_scipy_and_the_solver(argv, exit_code):
    loaded = _modules_after(argv, exit_code)
    assert "fracbvp.problem" in loaded
    assert not loaded & {"scipy.integrate", "scipy.interpolate",
                         "fracbvp.solver", "fracbvp.verify", "numpy.ma"}


def test_kernel_dump_imports_no_solver():
    loaded = _modules_after(["kernel-dump", "sublinear", "--points", "4"])
    assert "fracbvp.kernels" in loaded
    assert not loaded & {"fracbvp.solver", "fracbvp.verify"}


@pytest.mark.parametrize("argv", [
    ["solve", "sublinear", "--grid-n", "32", "--json"],
    ["solve", "lipschitz", "--grid-n", "32", "--json"],
    ["kernel-dump", "sublinear", "--points", "4"],
], ids=["solve-monotone", "solve-contraction", "kernel-dump"])
def test_solve_and_kernel_dump_load_no_scipy(argv):
    # numpy.ma costs 15-20 ms to import; np.unique without
    # return_inverse imports it on numpy 2.4.
    loaded = _modules_after(argv)
    assert "fracbvp.kernels" in loaded
    assert "numpy.ma" not in loaded
    assert not [m for m in loaded if m.startswith("scipy")]


@pytest.mark.parametrize("argv", [
    ["check", "sublinear"],
    ["solve", "sublinear", "--grid-n", "32"],
], ids=["check", "solve"])
def test_h4_loads_no_numpy_random(argv):
    # H4's point set is plain numpy arithmetic: a monotone problem's
    # check and solve do not pay for numpy.random's import.
    loaded = _modules_after(argv)
    assert "fracbvp.problem" in loaded
    assert not [m for m in loaded if m.startswith("numpy.random")]


def test_bare_import_resolves_names_lazily():
    run = _python("-c", """
import importlib, sys
import fracbvp
assert not [m for m in sys.modules if m.startswith("fracbvp.")]
for name in fracbvp.__all__:
    obj = getattr(fracbvp, name)
    assert obj is getattr(sys.modules[obj.__module__], name), name
    assert name in dir(fracbvp), name
for sub in ("cli", "kernels", "solver", "problem", "verify"):
    assert getattr(fracbvp, sub) is importlib.import_module("fracbvp." + sub)
namespace = {}
exec("from fracbvp import *", namespace)
assert set(fracbvp.__all__) <= set(namespace)
try:
    fracbvp.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("fracbvp.no_such_name resolved")
""")
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("module", ["fracbvp", "fracbvp.cli"])
def test_python_m_runs_without_warnings(module):
    # Importing fracbvp.cli with the package once made runpy warn that
    # the module was in sys.modules before it ran as __main__.
    run = _python("-W", "error::RuntimeWarning", "-m", module,
                  "check", "sublinear")
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert "result: all applicable hypotheses hold" in run.stdout
