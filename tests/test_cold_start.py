"""Which parts of scipy a fresh process loads.

``import dcjac`` loads no scipy module: ``oracle.linprog`` and
``newton.lu_factor``/``lu_solve`` import their scipy function at the first
call.  Each test here runs in a fresh interpreter and reads ``sys.modules``
there, since the test process has loaded scipy long before.
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap

import pytest

from dcjac import newton, oracle
from dcjac.cli import main
from util import ABS_DOC

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_CLI = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from dcjac.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(sys.argv[1:])
    print(json.dumps([code, out.getvalue()]))
    """
)
_SCIPY = 'print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))'


def fresh(script, *argv):
    """Run ``script`` in a fresh interpreter: (the last JSON line it
    printed, or None, and the set of scipy modules loaded after it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{script}\nimport json, sys\n{_SCIPY}", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    *head, modules = proc.stdout.splitlines()
    return (json.loads(head[-1]) if head else None), set(json.loads(modules))


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_import_loads_no_scipy():
    _, modules = fresh("import dcjac")
    assert modules == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["jac", "--random", "n=3,m=2,pieces=4,seed=7", "-x", "0,0,0", "--json"],
        ["dd", "--random", "n=3,m=2,pieces=4,seed=7", "-x", "0,0,0", "-y", "1,-1,0", "--json"],
        ["verify", "--random", "n=3,m=2,pieces=4,seed=7", "-x", "0,0,0", "--json"],
        ["verify", "-p", "ABS", "-x", "0", "--json"],  # ybar lies in the claimed cone
    ],
)
def test_commands_without_lp_or_solve_load_no_scipy(tmp_path, argv):
    argv = [write(tmp_path, "abs.json", ABS_DOC) if a == "ABS" else a for a in argv]
    (code, _), modules = fresh(_CLI, *argv)
    assert code == 0
    assert modules == set()


def test_newton_loads_scipy_linalg_only(tmp_path):
    (tmp_path / "M.csv").write_text("2,1\n1,2\n")
    (tmp_path / "q.csv").write_text("-3,-3\n")
    argv = ["newton", "--ncp", str(tmp_path / "M.csv"), str(tmp_path / "q.csv"), "--x0", "0,0"]
    (code, _), modules = fresh(_CLI, *argv, "--json")
    assert code == 0
    assert "scipy.linalg" in modules
    assert "scipy.optimize" not in modules


def test_verify_with_an_lp_prints_the_same_bytes_as_in_process(tmp_path, capsys):
    # --tol-tie merges the two slopes and the smaller index, the larger
    # slope, is chosen: ybar = -1 misses its cone, so the claimed-region
    # check runs the cone LP, which finds d = 1 at a margin of 5e-9
    doc = {"n": 1, "m": 1, "components": [{"g": ["1.000000005*x1", "x1"]}]}
    argv = ["verify", "-p", write(tmp_path, "lp.json", doc), "-x", "0", "--tol-tie", "1e-8"]
    (code, out), modules = fresh(_CLI, *argv, "--json")
    assert "scipy.optimize" in modules
    assert (code, out) == (main([*argv, "--json"]), capsys.readouterr().out)
    assert code == 0
    hull = json.loads(out)["checks"]["hull_membership"]
    assert (hull["method"], hull["direction"]) == ("claimed_region", "cone_lp")


def test_deferred_bindings_are_plain_module_functions():
    # the benchmark tracer wraps these by name, and only plain functions
    for module, name in ((oracle, "linprog"), (newton, "lu_factor"), (newton, "lu_solve")):
        fn = getattr(module, name)
        assert inspect.isfunction(fn)
        assert (fn.__module__, fn.__name__) == (module.__name__, name)
