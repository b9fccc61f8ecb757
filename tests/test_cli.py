"""End-to-end tests of the command-line interface.

Everything runs in-process through cli.main(argv) against temp directories;
byte-level comparisons pin the determinism contract: equal configs give
equal output files regardless of worker count or repetition.
"""

import hashlib
import json
import os

import jsonschema
import numpy as np
import pytest

from stylfacts.cli import main
from stylfacts.report import REPORT_SCHEMA, load_config
from stylfacts.series import read_csv, write_csv
from stylfacts.simulate import GarchSpec, GbmSpec, simulate


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

    @pytest.mark.parametrize("param", ["acf_lags", "f6_n_boot", "f10_min_samples",
                                       "f11_lags", "f11_n_boot"])
    def test_fact_param_below_one_exits_2_before_any_asset(self, tmp_path, capsys, param):
        write_csv(simulate(GbmSpec(n_steps=300, seed=8)), str(tmp_path / "ok.csv"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": "ok", "path": "ok.csv"}], "out_dir": "out",
            "fact_params": {param: 0}}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert f"{param} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("param,value", [
        *((p, v) for p in ("f3_vol_window", "f4_window", "f4_stride", "f5_max_lag", "f6_window")
          for v in (0, -1)),
        ("f2_max_lag", -1), ("std_window", -1), ("f4_lags", 0),
        ("f9_aggregate", 2.5), ("f11_lags", 10.5)])
    def test_bad_fact_param_exits_2_before_any_asset(self, tmp_path, capsys, param, value):
        write_csv(simulate(GbmSpec(n_steps=300, seed=8)), str(tmp_path / "ok.csv"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": "ok", "path": "ok.csv"}], "out_dir": "out",
            "fact_params": {param: value}}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert param in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_asset_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "assets": [{"id": "x", "path": "absent.csv"}], "out_dir": "out"}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "not found" in capsys.readouterr().err


class TestConfig:
    def test_env_seed_override(self, workspace, monkeypatch):
        _, cfg_path = workspace
        assert load_config(str(cfg_path)).seed == 5
        monkeypatch.setenv("STYLFACTS_SEED", "9")
        assert load_config(str(cfg_path)).seed == 9

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
