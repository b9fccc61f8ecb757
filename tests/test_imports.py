"""Start-up cost: what importing the package and running a command load,
and the package's exported surface.

Importing scipy takes most of a second, so the package imports it inside the
functions that call it.  The package root resolves each exported name on
first read, through one table of submodule -> names, so `simulate` loads no
fact code.  These tests run a fresh interpreter each, because the test
process itself has loaded scipy and every submodule long before they run.
Every name the package exports must be read by some module of the package.
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
           "'stylfacts': sorted(m for m in sys.modules if m.startswith('stylfacts')), "
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


@pytest.mark.parametrize("model", ["gbm", "ou", "garch", "gjr"])
def test_simulate_loads_only_what_it_runs(model, tmp_path):
    # no facts, fitting, stats, volatility or report
    got = _fresh(_simulate(model, str(tmp_path / "out.csv")) + _REPORT)
    assert got["stylfacts"] == ["stylfacts", "stylfacts.cli", "stylfacts.errors",
                                "stylfacts.kernels", "stylfacts.series", "stylfacts.simulate"]


# Each line reads the package in a fresh state, before the lines after it
# load more of it.
_SURFACE = """
import importlib, json, stylfacts
out = {"not_in_dir": sorted(set(stylfacts.__all__) - set(dir(stylfacts)))}
out["stats_loaded"] = "stylfacts.stats" in __import__("sys").modules
out["stats_is_module"] = stylfacts.stats is importlib.import_module("stylfacts.stats")
out["unknown_raises"] = not hasattr(stylfacts, "no_such_name")

def resolves_home(module, name):
    try:
        return getattr(stylfacts, name) is getattr(
            importlib.import_module("stylfacts." + module), name)
    except AttributeError:
        return False

out["wrong_home"] = [f"{m}.{n}" for m, names in stylfacts._EXPORTS.items() for n in names
                     if not resolves_home(m, n)]
out["declared"] = [n for names in stylfacts._EXPORTS.values() for n in names]
out["all"] = stylfacts.__all__
namespace = {}
exec("from stylfacts import *", namespace)
out["unbound"] = [n for n in stylfacts.__all__ if n not in namespace]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def surface():
    return _fresh(_SURFACE)


def test_every_export_is_its_home_modules_attribute(surface):
    assert surface["wrong_home"] == []


def test_each_export_is_declared_once(surface):
    assert len(surface["declared"]) == len(set(surface["declared"]))
    assert surface["all"] == ["__version__", *surface["declared"]]


def test_star_import_binds_every_export(surface):
    assert surface["unbound"] == []


def test_dir_lists_every_export(surface):
    assert surface["not_in_dir"] == []


def test_unknown_attribute_raises_attribute_error(surface):
    assert surface["unknown_raises"]
    with pytest.raises(AttributeError, match="no_such_name"):
        stylfacts.no_such_name


def test_submodule_is_an_attribute_after_a_bare_import(surface):
    assert not surface["stats_loaded"]
    assert surface["stats_is_module"]


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
