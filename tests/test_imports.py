"""Start-up cost: what importing the package and running a command load,
and the package's exported surface.

Importing scipy takes most of a second, so the package imports it inside the
functions that call it.  These tests run a fresh interpreter each, because
the test process itself has loaded scipy long before they run.  Every name
the package exports must be read by some module of the package.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest
import scipy

import stylfacts
from stylfacts.series import write_csv
from stylfacts.simulate import GarchSpec, simulate

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(stylfacts.__file__)))

_REPORT = ("import inspect, json, sys; print(json.dumps({"
           "'scipy': sorted(m for m in sys.modules if m.startswith('scipy')), "
           "'simulate_is_function': inspect.isfunction(stylfacts.simulate)}))")


def _fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _simulate(model, path):
    args = ["simulate", "--model", model, "--n", "300", "--seed", "1", "--out", path]
    return f"import stylfacts; from stylfacts import cli; assert cli.main({args!r}) == 0; "


def test_import_loads_no_scipy():
    got = _fresh("import stylfacts; " + _REPORT)
    assert got["scipy"] == []


def test_package_simulate_is_the_function():
    # `stylfacts.simulate` names both a submodule and the function __init__
    # re-exports; a lazy package attribute would bind the module instead.
    got = _fresh("import stylfacts; import stylfacts.simulate; " + _REPORT)
    assert got["simulate_is_function"]


@pytest.mark.parametrize("model", ["gbm", "ou", "garch", "gjr"])
def test_simulate_loads_no_scipy(model, tmp_path):
    got = _fresh(_simulate(model, str(tmp_path / "out.csv")) + _REPORT)
    assert got["scipy"] == []
    assert got["simulate_is_function"]


def test_analyze_loads_only_scipy_linalg_and_special(tmp_path):
    # all eleven facts; at 800 bars F7 fits a GARCH model and F10 runs the
    # KS and AD tests and the QQ curve
    write_csv(simulate(GarchSpec(n_steps=800, seed=3)), str(tmp_path / "a.csv"))
    (tmp_path / "cfg.json").write_text(json.dumps({
        "assets": [{"id": "a", "path": "a.csv"}], "out_dir": "out", "seed": 5}))
    args = ["analyze", "--config", str(tmp_path / "cfg.json")]
    got = _fresh(f"import stylfacts; from stylfacts import cli; "
                 f"assert cli.main({args!r}) == 0; " + _REPORT)
    facts = json.loads((tmp_path / "out" / "a.json").read_text())["facts"]
    assert len(facts) == 11
    assert facts["F7"]["status"] != "inconclusive"
    assert facts["F10"]["status"] != "inconclusive"
    loaded = {name for name in scipy.submodules if f"scipy.{name}" in got["scipy"]}
    assert loaded <= {"linalg", "special"}


def test_garch_filter_loads_scipy_linalg():
    # the positive control: the likelihood filter solves through LAPACK in
    # scipy.linalg, so the checks above can see scipy
    got = _fresh("import numpy as np, stylfacts; from stylfacts import kernels; "
                 "kernels.garch_filter(np.ones(10), 1e-6, 0.1, 0.85, 1e-5); " + _REPORT)
    assert "scipy.linalg" in got["scipy"]


# the documented report contract: read by the tests and by users, not by
# the package itself
_EXPORTS_WITHOUT_CALLER = {"REPORT_SCHEMA"}


def _names_read(tree):
    """Every name a module reads: loaded names, attribute names, imported
    names and the function names held as strings in `_TESTS`, except a
    top-level definition's reads of its own name."""
    reads = set()

    def visit(node, owner):
        if owner is None and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            name = None
        if name is not None and name != owner:
            reads.add(name)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_TESTS"
                                                for t in node.targets):
            reads.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return reads


def test_every_export_has_a_caller():
    # an exported name that no module of the package reads is dead API
    package = pathlib.Path(stylfacts.__file__).parent
    reads = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            reads |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(stylfacts.__all__) - reads - _EXPORTS_WITHOUT_CALLER) == []
    assert _EXPORTS_WITHOUT_CALLER <= set(stylfacts.__all__)
