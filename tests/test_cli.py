"""End-to-end tests of the command-line interface.

Everything runs in-process through cli.main(argv) against temp directories,
except the BLAS thread-count tests, which need a fresh interpreter per
setting; byte-level comparisons pin the determinism contract: equal configs
give equal output files regardless of worker count, BLAS thread count or
repetition.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import stylfacts
from stylfacts.cli import main
from stylfacts.report import REPORT_SCHEMA, load_config
from stylfacts.series import read_csv, write_csv
from stylfacts.simulate import GarchSpec, GbmSpec, GjrSpec, OuSpec, simulate


def _tree_hashes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Two valid assets, one corrupt one, a config, and three analyze runs."""
    root = tmp_path_factory.mktemp("cli")
    write_csv(simulate(GarchSpec(n_steps=400, omega=1e-6, alpha=0.10, beta=0.85,
                                 seed=3)), str(root / "alpha.csv"))
    write_csv(simulate(GbmSpec(n_steps=400, seed=4)), str(root / "beta.csv"))
    cfg = {
        "assets": [{"id": "alpha", "path": "alpha.csv"},
                   {"id": "beta", "path": "beta.csv"}],
        "out_dir": "out1",
        "seed": 5,
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    assert main(["analyze", "--config", str(cfg_path)]) == 0
    assert main(["analyze", "--config", str(cfg_path), "--out",
                 str(root / "out2"), "--workers", "2"]) == 0
    assert main(["analyze", "--config", str(cfg_path), "--out",
                 str(root / "out3")]) == 0
    return root, cfg_path


class TestSimulate:
    def test_writes_deterministic_csv(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["simulate", "--model", "garch", "--n", "500", "--seed", "3"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        ps = read_csv(a)
        assert len(ps) == 501

    def test_stdout_default(self, capsys):
        assert main(["simulate", "--model", "gbm", "--n", "50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "timestamp,open,high,low,close,volume"
        assert len(lines) == 52

    def test_parameter_routing(self, tmp_path):
        out = str(tmp_path / "ou.csv")
        assert main(["simulate", "--model", "ou", "--n", "100", "--theta", "0.2",
                     "--volume-mode", "none", "--out", out]) == 0
        ps = read_csv(out)
        assert np.isnan(ps.volume).all()

    def test_invalid_parameters_exit_2(self, capsys):
        code = main(["simulate", "--model", "garch", "--n", "100",
                     "--alpha", "0.9", "--beta", "0.2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize("argv", [["--model", "gbm", "--theta", "0.5"],
                                      ["--model", "ou", "--p0", "5"],
                                      ["--model", "garch", "--gamma", "0.2"],
                                      ["--model", "gbm", "--df", "4"]],
                             ids=["gbm-theta", "ou-p0", "garch-gamma", "gbm-df"])
    def test_flag_the_model_does_not_take_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main(["simulate", *argv, "--n", "50", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert argv[1] in err and argv[2] in err
        assert not out.exists()


    # a valid value for every model flag, keyed by its spec field
    FLAG_VALUES = {"seed": "3", "substeps": "2", "extremes": "substep", "step_seconds": "60",
                   "t0": "100", "volume_mode": "none", "mu": "0.001", "sigma": "0.02",
                   "p0": "2", "theta": "0.2", "x0": "0.1", "omega": "2e-6", "alpha": "0.05",
                   "beta": "0.8", "mean": "1e-4", "innovation": "normal", "df": "5",
                   "burn_in": "10", "gamma": "0.1"}
    SPECS = {"gbm": GbmSpec, "ou": OuSpec, "garch": GarchSpec, "gjr": GjrSpec}

    @pytest.mark.parametrize("model", sorted(SPECS))
    @pytest.mark.parametrize("name", sorted(FLAG_VALUES))
    def test_model_takes_exactly_its_spec_fields(self, tmp_path, capsys, model, name):
        out = tmp_path / "x.csv"
        flag = "--" + name.replace("_", "-")
        code = main(["simulate", "--model", model, "--n", "50", flag, self.FLAG_VALUES[name],
                     "--out", str(out)])
        takes = name in {f.name for f in dataclasses.fields(self.SPECS[model])}
        assert code == (0 if takes else 2), capsys.readouterr().err
        assert out.exists() == takes

    def test_help_lists_the_same_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"(?m)^  (--?[\w-]+)", capsys.readouterr().out))
        assert options == {
            "-h", "--model", "--n", "--seed", "--out", "--mu", "--sigma", "--p0", "--theta",
            "--x0", "--omega", "--alpha", "--beta", "--gamma", "--mean", "--innovation",
            "--df", "--burn-in", "--substeps", "--extremes", "--step-seconds", "--t0",
            "--volume-mode"}

    @pytest.mark.parametrize("argv", [
        ["--model", "gbm", "--extremes", "bogus"],
        ["--model", "gbm", "--volume-mode", "bogus"],
        ["--model", "garch", "--innovation", "bogus"],
        ["--model", "gbm", "--innovation", "student_t"],
        ["--model", "gbm", "--step-seconds", "10000000000000000000"],
        ["--model", "gbm", "--t0", "10000000000000000000"],
        ["--model", "gbm", "--t0", "-10000000000000000000"],
        # 5 steps of 2**62 seconds wrap int64
        ["--model", "gbm", "--step-seconds", "4611686018427387904"],
    ], ids=["extremes", "volume-mode", "innovation", "gbm-innovation", "step-beyond-int64",
            "t0-beyond-int64", "t0-below-int64", "timestamps-wrap"])
    def test_bad_flag_value_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main(["simulate", *argv, "--n", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestAnalyze:
    def test_summary_and_reports(self, workspace):
        root, _ = workspace
        out = root / "out1"
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("asset,F1,F2,")
        assert lines[0].endswith(",error")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "alpha"
        assert lines[2].split(",")[0] == "beta"

    def test_report_json_validates_and_links_curves(self, workspace):
        root, _ = workspace
        out = root / "out1"
        for asset in ("alpha", "beta"):
            rep = json.loads((out / f"{asset}.json").read_text())
            jsonschema.validate(rep, REPORT_SCHEMA)
            assert rep["asset_id"] == asset
            assert rep["data_summary"]["n_bars"] == 401
            assert rep["data_summary"]["gaps"]["policy"] == "drop"
            for body in rep["facts"].values():
                for rel in body.get("curves", {}).values():
                    assert (out / rel).is_file(), rel
            assert (out / asset / "volatility.csv").is_file()

    def test_runs_are_byte_identical(self, workspace):
        root, _ = workspace
        assert _tree_hashes(root / "out1") == _tree_hashes(root / "out3")

    def test_worker_count_does_not_change_bytes(self, workspace):
        root, _ = workspace
        assert _tree_hashes(root / "out1") == _tree_hashes(root / "out2")

    def test_interleaved_writes_match_one_worker(self, tmp_path):
        # four good assets around a failing one, listed out of id order, so
        # three workers finish and write them in an order of their own
        write_csv(simulate(GarchSpec(n_steps=400, omega=1e-6, alpha=0.10, beta=0.85,
                                     seed=3)), str(tmp_path / "a.csv"))
        write_csv(simulate(GbmSpec(n_steps=400, seed=4)), str(tmp_path / "b.csv"))
        write_csv(simulate(GbmSpec(n_steps=400, seed=6)), str(tmp_path / "d.csv"))
        write_csv(simulate(GarchSpec(n_steps=400, omega=1e-6, alpha=0.05, beta=0.90,
                                     seed=7)), str(tmp_path / "e.csv"))
        (tmp_path / "c.csv").write_text(
            "timestamp,open,high,low,close,volume\nnotanumber,1,1,1,1,1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": i, "path": f"{i}.csv"} for i in "ecadb"],
            "out_dir": "out", "seed": 5}))
        for workers in ("1", "3"):
            assert main(["analyze", "--config", str(cfg), "--out",
                         str(tmp_path / f"w{workers}"), "--workers", workers]) == 1
        hashes = _tree_hashes(tmp_path / "w1")
        assert hashes == _tree_hashes(tmp_path / "w3")
        assert not [k for k in hashes if k == "c.json" or k.startswith("c" + os.sep)]
        for asset in "abde":
            rep = json.loads((tmp_path / "w3" / f"{asset}.json").read_text())
            linked = [rel for body in rep["facts"].values()
                      for rel in body.get("curves", {}).values()]
            assert linked
            assert all(os.path.normpath(rel) in hashes for rel in linked)

    def test_asset_filter(self, workspace, tmp_path):
        root, cfg_path = workspace
        out = str(tmp_path / "only")
        assert main(["analyze", "--config", str(cfg_path), "--asset", "beta",
                     "--out", out]) == 0
        lines = (tmp_path / "only" / "summary.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "beta"
        assert not (tmp_path / "only" / "alpha.json").exists()

    def test_unknown_asset_exits_2(self, workspace, capsys):
        root, cfg_path = workspace
        assert main(["analyze", "--config", str(cfg_path), "--asset", "nope"]) == 2
        assert "asset ids not in config" in capsys.readouterr().err

    def test_failed_asset_exits_1_and_is_recorded(self, tmp_path, capsys):
        write_csv(simulate(GbmSpec(n_steps=300, seed=8)), str(tmp_path / "ok.csv"))
        (tmp_path / "bad.csv").write_text(
            "timestamp,open,high,low,close,volume\nnotanumber,1,1,1,1,1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": "ok", "path": "ok.csv"},
                       {"id": "bad", "path": "bad.csv"}],
            "out_dir": "out",
        }))
        assert main(["analyze", "--config", str(cfg)]) == 1
        assert "bad:" in capsys.readouterr().err
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        bad_row = next(l for l in lines[1:] if l.startswith("bad,"))
        assert ",skipped," in bad_row
        assert bad_row.split(",")[-1] != ""
        assert not (tmp_path / "out" / "bad.json").exists()
        assert (tmp_path / "out" / "ok.json").is_file()

    def test_timestamp_beyond_int64_fails_only_its_asset(self, tmp_path, capsys):
        write_csv(simulate(GbmSpec(n_steps=300, seed=8)), str(tmp_path / "ok.csv"))
        (tmp_path / "big.csv").write_text("timestamp,open,high,low,close,volume\n"
                                          "0,1,1,1,1,1\n99999999999999999999,1,1,1,1,1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"assets": [{"id": "ok", "path": "ok.csv"},
                                              {"id": "big", "path": "big.csv"}],
                                   "out_dir": "out"}))
        assert main(["analyze", "--config", str(cfg)]) == 1
        assert "big: RejectedInputError: timestamp beyond int64 at row 2" \
            in capsys.readouterr().err
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            rows = {r["asset"]: r for r in csv.DictReader(f)}
        assert "beyond int64" in rows["big"]["error"]
        assert rows["ok"]["error"] == ""

    def test_undecodable_or_directory_asset_fails_only_itself(self, tmp_path, capsys):
        write_csv(simulate(GbmSpec(n_steps=300, seed=8)), str(tmp_path / "ok.csv"))
        (tmp_path / "latin.csv").write_bytes(b"timestamp,open,high,low,close,volume\n"
                                             b"0,1,1,1,1,1\n60,1,1,1,1,caf\xe9\n")
        (tmp_path / "dir.csv").mkdir()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"assets": [{"id": "ok", "path": "ok.csv"},
                                              {"id": "latin", "path": "latin.csv"},
                                              {"id": "dir", "path": "dir.csv"}],
                                   "out_dir": "out"}))
        assert main(["analyze", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "latin: RejectedInputError: not utf-8 text: byte 0xe9" in err
        assert "dir: IsADirectoryError: " in err
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            rows = {r["asset"]: r for r in csv.DictReader(f)}
        assert sorted(rows) == ["dir", "latin", "ok"]
        assert rows["ok"]["error"] == ""
        assert rows["latin"]["error"].startswith("RejectedInputError: not utf-8 text")
        assert rows["dir"]["error"].startswith("IsADirectoryError: ")
        assert sorted(os.listdir(tmp_path / "out")) == ["ok", "ok.json", "summary.csv"]

    def test_summary_cells_are_quoted(self, tmp_path):
        write_csv(simulate(GbmSpec(n_steps=300, seed=8)), str(tmp_path / "ok.csv"))
        (tmp_path / "hdr.csv").write_text("time,open,high,low,close,volume\n0,1,1,1,1,1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": "c,d", "path": "ok.csv"}, {"id": "hdr", "path": "hdr.csv"}],
            "out_dir": "out"}))
        assert main(["analyze", "--config", str(cfg)]) == 1
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [len(r) for r in rows] == [13, 13, 13]
        assert [r[0] for r in rows[1:]] == ["c,d", "hdr"]
        assert "," in rows[2][-1]

        # all assets analyzed: the merge rebuilds the quoted summary exactly
        out = tmp_path / "only"
        assert main(["analyze", "--config", str(cfg), "--asset", "c,d",
                     "--out", str(out)]) == 0
        original = (out / "summary.csv").read_bytes()
        assert b'"c,d"' in original
        (out / "summary.csv").unlink()
        assert main(["report", "--merge", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == original

    def test_one_row_csv_is_inconclusive_not_failed(self, tmp_path):
        (tmp_path / "one.csv").write_text(
            "timestamp,open,high,low,close,volume\n0,1.0,1.0,1.0,1.0,5\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"assets": [{"id": "one", "path": "one.csv"}],
                                   "out_dir": "out"}))
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "one.json").is_file()
        row = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1].split(",")
        assert row == ["one"] + ["inconclusive"] * 11 + [""]

    def test_empty_asset_list_is_ok(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"assets": [], "out_dir": "out"}))
        assert main(["analyze", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"assets": [], "out_dir": "out", "bogus": 1}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("param,low", [("acf_lags", 1), ("f6_n_boot", 1),
                                           ("f10_min_samples", 8), ("f11_lags", 1),
                                           ("f11_n_boot", 1), ("f3_min_segment", 100)],
                             ids=["acf_lags", "f6_n_boot", "f10_min_samples", "f11_lags",
                                  "f11_n_boot", "f3_min_segment"])
    def test_fact_param_below_one_exits_2_before_any_asset(self, tmp_path, capsys, param, low):
        write_csv(simulate(GbmSpec(n_steps=300, seed=8)), str(tmp_path / "ok.csv"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": "ok", "path": "ok.csv"}], "out_dir": "out",
            "fact_params": {param: 0}}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert f"{param} must be >= {low}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("param,value", [
        *((p, v) for p in ("f3_vol_window", "f4_window", "f4_stride", "f5_max_lag", "f6_window")
          for v in (0, -1)),
        ("f2_max_lag", -1), ("std_window", -1), ("f4_lags", 0),
        ("f9_aggregate", 2.5), ("f11_lags", 10.5),
        *((p, 1) for p in ("std_window", "f3_vol_window", "f4_window", "f6_window"))])
    def test_bad_fact_param_exits_2_before_any_asset(self, tmp_path, capsys, param, value):
        write_csv(simulate(GbmSpec(n_steps=300, seed=8)), str(tmp_path / "ok.csv"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": "ok", "path": "ok.csv"}], "out_dir": "out",
            "fact_params": {param: value}}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert param in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value,named", [
        ("seed", -1, "seed"), ("seed", True, "seed"), ("seed", 1.9, "seed"),
        ("workers", 1.5, "workers"), ("step_seconds", "86400", "step_seconds"),
        ("fact_params", [], "fact_params"), ("facts", "F1", "facts"),
        ("facts", ["F1", "F2", "F1"], "facts lists 'F1' twice"),
        ("fact_params", {"f1_band_mult": math.nan}, "f1_band_mult"),
        ("fact_params", {"f11_min_outside": -math.inf}, "f11_min_outside"),
        ("assets", [{"id": 5, "path": "bad.csv"}], "assets"),
    ], ids=["seed-negative", "seed-bool", "seed-real", "workers-real", "step-string",
            "params-array", "facts-string", "facts-repeated", "knob-nan", "knob-minus-inf",
            "id-number"])
    def test_bad_config_value_exits_2_before_any_asset(self, tmp_path, capsys, key, value,
                                                       named):
        # an unreadable CSV: had any asset been read, the run would exit 1
        (tmp_path / "bad.csv").write_text("not a csv\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": "x", "path": "bad.csv"}], "out_dir": "out", key: value}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.csv", "cfg.json"]

    @pytest.mark.parametrize("ids", [[".."], ["x y", "x_y"], ["x", "x.json"]],
                             ids=["dotdot", "same-safe-name", "dir-vs-report"])
    def test_clashing_asset_ids_exit_2_before_any_asset(self, tmp_path, capsys, ids):
        # an unreadable CSV: had any asset been read, the run would exit 1
        (tmp_path / "bad.csv").write_text("not a csv\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": i, "path": "bad.csv"} for i in ids], "out_dir": "out"}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "would write" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.csv", "cfg.json"]

    @pytest.mark.parametrize("asset_id", ["a\rb", "a\nb", "a\tb", "a\x00b"],
                             ids=["cr", "lf", "tab", "nul"])
    def test_control_character_asset_id_exits_2_before_any_asset(self, tmp_path, capsys,
                                                                  asset_id):
        # csv.writer does not quote a bare "\r", so that id would split its
        # summary row; an unreadable CSV shows that no asset was read
        (tmp_path / "bad.csv").write_text("not a csv\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": asset_id, "path": "bad.csv"}], "out_dir": "out"}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "control character" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.csv", "cfg.json"]

    def test_missing_asset_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": "x", "path": "absent.csv"}], "out_dir": "out"}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "not found" in capsys.readouterr().err


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(stylfacts.__file__)))

# One seeded 1e5 input through every library call whose sums run over the
# series; prints each result float as float.hex.  1e5 is past OpenBLAS's
# 10,000-element threshold for splitting a ddot across threads.
_LIBRARY_CALLS = """
import json, math
import numpy as np
from stylfacts import kernels
from stylfacts.fitting import fit_ou, fit_tail_exponent
from stylfacts.stats import acf, adf_test, cross_correlation
rng = np.random.default_rng(17)
n = 100_000
x = kernels.ou_path(rng.standard_normal(n - 1), 0.0, 0.0, 0.95, 1.0)
y = rng.standard_normal(n) + 0.3 * x
block_len = math.ceil(n ** (1 / 3))
n_blocks = -(-n // block_len)
# 16 drawn resamples and the identity one, whose Z is the observed Z
starts = np.vstack((rng.integers(0, n, size=(16, n_blocks)),
                    np.arange(n_blocks) * block_len))
ou = fit_ou(x)
tail = fit_tail_exponent(y, tail_fraction=0.4)  # a regression over 4e4 points
out = {
    "acf": acf(x, 50).values,
    "cross_correlation": cross_correlation(x, y, 5).values,
    "adf_test": [adf_test(x).statistic],
    "fit_ou": [ou.b, ou.b_se, ou.residual_variance, ou.params.mu],
    "fit_tail_exponent": [tail.alpha, tail.intercept, tail.r_squared],
    "zumbach_boot": kernels.zumbach_boot(x * x, y * y, starts, block_len, 10).ravel(),
}
print(json.dumps({k: [float(v).hex() for v in vals] for k, vals in out.items()}))
"""


def _with_blas_threads(threads, args, cwd=None):
    """stdout of `python args` in a fresh interpreter whose environment
    alone sets OPENBLAS_NUM_THREADS."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestBlasThreads:
    def test_analyze_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 2e4 bars: every sum over the returns is past ddot's threading threshold
        write_csv(simulate(GjrSpec(n_steps=20_000, seed=9)), str(tmp_path / "gjr.csv"))
        (tmp_path / "cfg.json").write_text(json.dumps({
            "assets": [{"id": "gjr", "path": "gjr.csv"}], "out_dir": "out", "seed": 5}))
        for threads in (1, 2):
            _with_blas_threads(threads, ["-m", "stylfacts", "analyze", "--config", "cfg.json",
                                         "--out", f"out{threads}"], cwd=tmp_path)
        one, two = _tree_hashes(tmp_path / "out1"), _tree_hashes(tmp_path / "out2")
        assert len(one) > 10
        assert one == two
        facts = json.loads((tmp_path / "out1" / "gjr.json").read_text())["facts"]
        assert len(facts) == 11
        assert all(body["status"] != "skipped" for body in facts.values())

    def test_library_results_do_not_depend_on_blas_threads(self):
        one, two = (json.loads(_with_blas_threads(t, ["-c", _LIBRARY_CALLS]))
                    for t in (1, 2))
        assert one == two


# analyze in this interpreter, then its peak RSS in MB: VmHWM starts afresh
# at exec, where ru_maxrss can carry over the peak of the test process that
# started the child
_ANALYZE_PEAK = """
import sys
from stylfacts.cli import main
assert main(["analyze", "--config", sys.argv[1]]) == 0
with open("/proc/self/status") as f:
    print([int(line.split()[1]) / 1024 for line in f if line.startswith("VmHWM")][0])
"""


class TestMemory:
    def test_one_minute_bars_analyze_in_bounded_memory(self, tmp_path):
        # 1e5 one-minute bars: volatility.csv's day window is 1,440 bars, and
        # its whole-view variance alone took 1.15 GB
        write_csv(simulate(GjrSpec(n_steps=100_000, seed=3, step_seconds=60)),
                  str(tmp_path / "gjr1m.csv"))
        (tmp_path / "cfg.json").write_text(json.dumps({
            "assets": [{"id": "gjr1m", "path": "gjr1m.csv"}], "out_dir": "out",
            "step_seconds": 60, "seed": 1}))
        out = _with_blas_threads(1, ["-c", _ANALYZE_PEAK, "cfg.json"], cwd=tmp_path)
        peak_mb = float(out.split()[-1])
        facts = json.loads((tmp_path / "out" / "gjr1m.json").read_text())["facts"]
        assert all(body["status"] != "skipped" for body in facts.values())
        assert (tmp_path / "out" / "gjr1m" / "volatility.csv").exists()
        assert peak_mb <= 400


class TestConfig:
    def test_env_seed_override(self, workspace, monkeypatch):
        _, cfg_path = workspace
        assert load_config(str(cfg_path)).seed == 5
        monkeypatch.setenv("STYLFACTS_SEED", "9")
        assert load_config(str(cfg_path)).seed == 9

    def test_env_seed_takes_the_seed_rule(self, workspace, monkeypatch):
        _, cfg_path = workspace
        monkeypatch.setenv("STYLFACTS_SEED", "-1")
        with pytest.raises(ValueError, match="seed must be >= 0"):
            load_config(str(cfg_path))

    def test_env_seed_not_an_integer_exits_2(self, workspace, monkeypatch, capsys):
        _, cfg_path = workspace
        monkeypatch.setenv("STYLFACTS_SEED", "abc")
        assert main(["analyze", "--config", str(cfg_path)]) == 2
        assert "STYLFACTS_SEED must be an integer, got 'abc'" in capsys.readouterr().err

    def test_fact_params_validated(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [], "out_dir": "out",
            "fact_params": {"not_a_knob": 1}}))
        with pytest.raises(ValueError, match="unknown fact parameter"):
            load_config(str(cfg))


class TestReportMerge:
    def test_rebuilds_identical_summary(self, workspace, capsys):
        root, _ = workspace
        out = root / "out3"
        original = (out / "summary.csv").read_bytes()
        (out / "summary.csv").unlink()
        assert main(["report", "--merge", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == original

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["report", "--merge", str(tmp_path / "absent")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("text, problem", [
        ('{"schema_version": 1, "facts": {}}', "needs a string asset_id"),
        ('{"schema_version": 1, "asset_id": "x", "facts": []}', "needs a string asset_id"),
        ('{"schema_version": 1, "asset_id": "x"', "not a JSON document"),
    ])
    def test_bad_report_exits_2_naming_the_file(self, tmp_path, capsys, text, problem):
        (tmp_path / "a.json").write_text(text)
        assert main(["report", "--merge", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'a.json'}: ")
        assert problem in err
        assert not (tmp_path / "summary.csv").exists()

    def test_other_versions_and_non_objects_are_skipped(self, tmp_path):
        (tmp_path / "a.json").write_text('{"schema_version": 2}')
        (tmp_path / "b.json").write_text("[1, 2]")
        (tmp_path / "c.json").write_text(
            '{"schema_version": 1, "asset_id": "c", "facts": {"F1": {"status": "supported"}}}')
        assert main(["report", "--merge", str(tmp_path)]) == 0
        rows = (tmp_path / "summary.csv").read_text().splitlines()
        assert rows[1:] == ["c,supported" + ",skipped" * 10 + ","]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


class TestReadme:
    """The commands README documents stay valid."""

    def test_analyze_example_config_loads(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STYLFACTS_SEED", raising=False)
        (block,) = [b for b in _readme_blocks("json") if '"assets"' in b]
        example = json.loads(block)
        for a in example["assets"]:
            write_csv(simulate(GbmSpec(n_steps=50, seed=1)), str(tmp_path / a["path"]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(block)
        config = load_config(str(cfg))
        assert config.facts == tuple(example["facts"])
        assert config.fact_params == example["fact_params"]
        assert (config.seed, config.workers) == (example["seed"], example["workers"])

    def test_library_examples_run(self):
        # in a fresh interpreter, where each name loads its module on first read
        code = "\n".join(_readme_blocks("python")).replace("50_000", "2_000")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert [line.split()[0] for line in out.stdout.splitlines()] == \
            [f"F{i}" for i in range(1, 12)]

    def test_simulate_examples_run(self, tmp_path):
        lines = [line.split("#")[0].split()[1:] for block in _readme_blocks("sh")
                 for line in block.splitlines() if line.startswith("stylfacts simulate")]
        assert lines
        for i, argv in enumerate(lines):
            argv[argv.index("--n") + 1] = "50"
            out = str(tmp_path / f"{i}.csv")
            if "--out" in argv:
                argv[argv.index("--out") + 1] = out
            else:
                argv += ["--out", out]
            assert main(argv) == 0, argv
            assert len(read_csv(out)) == 51
