"""The names perfbench reads from the package, so a rename cannot break the
benchmark's tracer or its machine probe without failing here first."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

LAYERS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "layers.json")
                    .read_text())


@pytest.mark.parametrize("target", sorted(LAYERS["wrapped"].values()))
def test_wrapped_function_resolves(target):
    module, name = target.split(":")
    assert module.startswith("stylfacts.")
    assert callable(getattr(importlib.import_module(module), name))


# the parameters perfbench/tracing.py reads from a call's bound arguments
BOUND_ARGUMENTS = {
    "stylfacts.kernels:zumbach_boot": ("a", "starts"),
    "stylfacts.report:run_analyze": ("config",),
    "stylfacts.report:_analyze_one": ("asset",),
}


@pytest.mark.parametrize("target", sorted(BOUND_ARGUMENTS))
def test_traced_arguments_keep_their_names(target):
    module, name = target.split(":")
    params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
    assert set(BOUND_ARGUMENTS[target]) <= set(params)


def test_machine_probe_flag_exists():
    from stylfacts import kernels
    assert kernels.USE_NUMBA is False
