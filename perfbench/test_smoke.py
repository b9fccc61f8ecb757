"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric BENCHMARK.json names is printed with its unit,
that the traced run sees the layers each workload is meant to exercise, that
a wrong pinned verdict counts as a failure, and that the benchmark refuses
to run where there is no program.  Scratch files stay under .perfbench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layers.json").read_text())
TINY = 0.05


def scratch_root(name: str, with_program: bool = True) -> Path:
    """A checkout of only BENCHMARK.json and perfbench/ at TINY scale, plus
    a link to the program's source if `with_program`."""
    root = SCRATCH / name
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    run_py = root / "perfbench" / "run.py"
    code = run_py.read_text()
    assert code.count("\nSCALE = 1.0\n") == 1
    run_py.write_text(code.replace("\nSCALE = 1.0\n", f"\nSCALE = {TINY}\n"))
    if with_program:
        (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


@pytest.fixture(scope="module")
def tiny() -> Path:
    return scratch_root("tiny")


def run(cwd: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(r) -> dict:
    return json.loads(r.stdout.strip().splitlines()[-1])


def test_layers_json_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(k, v["unit"], v["better"]) for k, v in LAYERS["metrics"].items()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_its_unit(tiny, workload, trace):
    r = run(tiny, "--workload", workload, "--seed", "3", "--trace", str(trace))
    assert r.returncode == 0, r.stderr
    res = result(r)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace == 0:
        assert all(v > 0 for v in values.values())
        return
    facts = [f"facts.F{i}.self_s" for i in range(1, 12)]
    if workload == "long4":
        assert values["kernels.zumbach_boot.resamples"] > 0
        assert values["fitting.fit_garch11.calls"] > 0
        assert all(values[f] > 0 for f in facts)
    else:
        assert values["kernels.zumbach_boot.resamples"] == 0
    if workload == "screen16":
        assert values["kernels.garch_filter.calls"] > 0
        assert values["facts.F3.self_s"] == values["facts.F11.self_s"] == 0
        assert all(values[f] > 0 for f in facts if f not in ("facts.F3.self_s",
                                                             "facts.F11.self_s"))
    if workload == "simulate4":
        assert all(values[f] == 0 for f in facts)
        assert values["simulate.simulate.bars"] > 0
        assert values["series.write_csv.mb"] > 0
    else:
        assert values["series.read_csv.rows"] > 0
        assert values["report.write_curve_csv.files"] > 0


def test_wrong_expected_verdict_is_a_failure(tiny):
    r = run(tiny, "--workload", "long4", "--seed", "2", "--trace", "0")
    assert r.returncode == 0, r.stderr
    line = next(x for x in r.stdout.splitlines() if x.startswith("verdicts"))
    matrix = json.loads(line.split(": ", 1)[1])
    row = matrix["gbm"]
    row["F1"] = "not_supported" if row["F1"] == "supported" else "supported"
    root = scratch_root("flipped")
    (root / "perfbench" / "expected.json").write_text(
        json.dumps({"seed": 2, "scale": TINY, "verdicts": {"long4": matrix}}))

    r = run(root, "--workload", "long4", "--seed", "2", "--trace", "0")
    res = result(r)
    assert r.returncode != 0
    assert not res["correct"] and res["failed"] >= 1
    assert "differ from expected" in r.stderr


def test_refuses_to_run_without_the_program():
    bare = scratch_root("bare", with_program=False)
    r = run(bare, "--workload", "long4", "--seed", "1", "--trace", "0")
    assert r.returncode != 0
    assert r.stdout.strip() == ""
