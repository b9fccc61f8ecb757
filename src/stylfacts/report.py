"""Analysis pipeline: configuration, ingestion, fact execution, emission.

One `analyze` run reads OHLCV CSVs, runs the configured fact set per asset,
and writes per-asset JSON reports, per-curve CSV files, and a cross-asset
summary matrix.  A worker writes each asset's files when it finishes that
asset, and the summary comes last.  Everything written is a pure function of
(config, input files): reports carry no wall-clock timestamps, floats go
through repr round-tripping, JSON keys are sorted, each asset's random
streams are seeded from the master seed and the asset id (never from
processing order), and no two assets share an output name, so reruns and
different worker counts produce identical bytes.

Failures are scoped to the asset that caused them: a bad file yields a
summary row with an error and the run continues.  Only an invalid config
aborts the whole run.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import hashlib
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, field, fields as dc_fields
from enum import Enum
from typing import Optional

import numpy as np

from . import __version__
from .errors import RejectedInputError, StylfactsError, check_knobs, knob
from .facts import FACT_LABELS, FactConfig, FactId, run_all_facts
from .series import GAP_POLICIES, SamplingGrid, _write_rows, read_csv, validate_and_gapfill
from .volatility import VolatilityWindow, default_window, rolling_volatility

ALL_FACTS = tuple(f.value for f in FactId)

# FactConfig fields a config file may override, per fact or globally
_TUNABLE = tuple(f.name for f in dc_fields(FactConfig)
                 if f.name not in ("seed", "step_seconds"))

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")
# csv.writer leaves a bare "\r" unquoted, so such an id would split its
# summary row
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def _safe_name(name: str) -> str:
    return _SAFE_NAME.sub("_", name) or "_"


@dataclass(frozen=True)
class AssetInput:
    asset_id: str
    path: str

    def __post_init__(self):
        if not self.asset_id:
            raise ValueError("asset id must be non-empty")


@dataclass(frozen=True)
class RunConfig:
    """Mirrors the JSON config file; see load_config for the key set."""
    assets: tuple
    out_dir: str
    step_seconds: int = knob(86400, 1)
    facts: tuple = ALL_FACTS
    fact_params: dict = field(default_factory=dict)
    seed: int = knob(0, 0)
    gap_policy: str = knob("drop", choices=GAP_POLICIES)
    workers: int = knob(1, 1)

    def __post_init__(self):
        check_knobs(self)
        # assets write <safe>/ and <safe>.json beside the summary concurrently
        owners = {"summary.csv": "the summary"}
        for a in self.assets:
            if _CONTROL.search(a.asset_id):
                raise ValueError(f"asset id {a.asset_id!r} holds a control character")
            safe = _safe_name(a.asset_id)
            if safe in (".", ".."):
                raise ValueError(f"asset id {a.asset_id!r} would write outside out_dir")
            for name in (safe, safe + ".json"):
                if name in owners:
                    raise ValueError(f"asset id {a.asset_id!r} would write {name!r}, "
                                     f"as does {owners[name]}")
                owners[name] = f"asset id {a.asset_id!r}"
        for i, f in enumerate(self.facts):
            FactId(f)
            if f in self.facts[:i]:
                raise ValueError(f"facts lists {f!r} twice")
        for k in self.fact_params:
            if k not in _TUNABLE:
                raise ValueError(f"unknown fact parameter {k!r}")
        # range checks live in FactConfig; running them here rejects a bad
        # value before any asset is read
        FactConfig(step_seconds=self.step_seconds, **self.fact_params)


# JSON type of each config key that RunConfig does not check itself
_JSON_KINDS = {"assets": (list, "an array"), "out_dir": (str, "a string"),
               "facts": (list, "an array"), "fact_params": (dict, "an object")}


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config file.

    Keys are RunConfig's fields: assets (list of {"id", "path"}), out_dir,
    step_seconds, facts, fact_params, seed, gap_policy, workers; absent keys
    take RunConfig's defaults.  STYLFACTS_SEED in the environment overrides
    the seed.  Asset paths and out_dir resolve relative to the config file's
    directory, and asset paths must exist.
    """
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    unknown = set(raw) - {f.name for f in dc_fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "assets" not in raw or "out_dir" not in raw:
        raise ValueError("config must set 'assets' and 'out_dir'")
    for key, (kind, name) in _JSON_KINDS.items():
        if key in raw and not isinstance(raw[key], kind):
            raise ValueError(f"{key} must be {name}, got {raw[key]!r}")
    base = os.path.dirname(os.path.abspath(path))
    assets = []
    for entry in raw["assets"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                and isinstance(entry.get("path"), str)):
            raise ValueError("each entry of assets needs a string 'id' and 'path'")
        p = os.path.join(base, entry["path"])
        if not os.path.exists(p):
            raise ValueError(f"asset file not found: {p}")
        assets.append(AssetInput(asset_id=entry["id"], path=p))
    kw = dict(raw, assets=tuple(assets), out_dir=os.path.join(base, raw["out_dir"]))
    if "facts" in raw:
        kw["facts"] = tuple(raw["facts"])
    env_seed = os.environ.get("STYLFACTS_SEED")
    if env_seed is not None:
        try:
            kw["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"STYLFACTS_SEED must be an integer, got {env_seed!r}") from None
    return RunConfig(**kw)


def asset_seed(master_seed: int, asset_id: str) -> int:
    """Stable per-asset seed: a function of (master seed, asset id) only,
    so adding or removing assets never shifts another asset's streams."""
    digest = hashlib.sha256(asset_id.encode("utf-8")).digest()
    tag = int.from_bytes(digest[:8], "little")
    ss = np.random.SeedSequence([master_seed, tag])
    return int(ss.generate_state(1, np.uint64)[0])


def fact_config_for(config: RunConfig, asset_id: str) -> FactConfig:
    return FactConfig(seed=asset_seed(config.seed, asset_id),
                      step_seconds=config.step_seconds, **config.fact_params)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

REPORT_SCHEMA_VERSION = 1

_VERDICT_SCHEMA = {
    "type": "object",
    "required": ["label", "status", "metrics", "notes", "curves"],
    "additionalProperties": False,
    "properties": {
        "label": {"type": "string"},
        "status": {"enum": ["supported", "not_supported", "inconclusive"]},
        "metrics": {
            "type": "object",
            "additionalProperties": {"type": ["number", "integer", "boolean", "null"]},
        },
        "notes": {"type": "array", "items": {"type": "string"}},
        "curves": {
            "type": "object",
            "additionalProperties": {"type": "string"},
        },
    },
}

_SKIPPED_SCHEMA = {
    "type": "object",
    "required": ["status", "reason"],
    "additionalProperties": False,
    "properties": {
        "status": {"const": "skipped"},
        "reason": {"type": "string"},
    },
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "stylfacts-asset-report",
    "type": "object",
    "required": ["schema_version", "tool_version", "asset_id", "data_summary",
                 "config", "facts"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "tool_version": {"type": "string"},
        "asset_id": {"type": "string"},
        "data_summary": {
            "type": "object",
            "required": ["n_bars", "n_returns", "start", "end", "step_seconds",
                         "volume_present_fraction", "gaps"],
            "additionalProperties": False,
            "properties": {
                "n_bars": {"type": "integer"},
                "n_returns": {"type": "integer"},
                "start": {"type": "integer"},
                "end": {"type": "integer"},
                "step_seconds": {"type": "integer"},
                "volume_present_fraction": {"type": "number"},
                "gaps": {
                    "type": "object",
                    "required": ["n_expected", "n_missing", "n_filled", "policy"],
                    "additionalProperties": False,
                    "properties": {
                        "n_expected": {"type": "integer"},
                        "n_missing": {"type": "integer"},
                        "n_filled": {"type": "integer"},
                        "policy": {"type": "string"},
                    },
                },
            },
        },
        "config": {
            "type": "object",
            "required": ["seed", "asset_seed", "facts", "fact_params",
                         "gap_policy", "step_seconds"],
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer"},
                "asset_seed": {"type": "integer"},
                "facts": {"type": "array", "items": {"type": "string"}},
                "fact_params": {"type": "object"},
                "gap_policy": {"type": "string"},
                "step_seconds": {"type": "integer"},
            },
        },
        "facts": {
            "type": "object",
            "additionalProperties": False,
            "patternProperties": {
                "^F([1-9]|1[01])$": {"oneOf": [_VERDICT_SCHEMA, _SKIPPED_SCHEMA]},
            },
        },
    },
}


def _jsonable(obj):
    """Python/numpy scalars to JSON-safe values; non-finite floats to null."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return bool(obj) if obj is not None else None
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@contextlib.contextmanager
def _atomic_writer(path: str):
    """A UTF-8 text file (newline="", so "\n" stays "\n") in path's
    directory that replaces path when the block ends; if the block raises,
    the file is removed and path is untouched."""
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str, obj) -> None:
    data = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with _atomic_writer(path) as f:
        f.write(data)


def write_curve_csv(path: str, columns: dict) -> None:
    """One curve as CSV; column order follows the dict.  The rows are
    formatted and written a block at a time (`series._write_rows`)."""
    lengths = {len(c) for c in columns.values()}
    if len(lengths) > 1:
        raise ValueError("curve columns differ in length")
    with _atomic_writer(path) as f:
        _write_rows(f, columns)


# ---------------------------------------------------------------------------
# Per-asset analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssetOutcome:
    asset_id: str
    report: Optional[dict]          # None on hard failure
    error: Optional[str] = None


def _analyze_one(config: RunConfig, asset: AssetInput) -> AssetOutcome:
    """Read, analyze and write one asset: its curve CSVs, then volatility.csv,
    then its report JSON.  A data error or an unreadable asset file writes
    nothing and is returned as the outcome's error; a write error aborts the
    run."""
    try:
        series = read_csv(asset.path)
        series = validate_and_gapfill(series, SamplingGrid(step=config.step_seconds),
                                      policy=config.gap_policy)
        fcfg = fact_config_for(config, asset.asset_id)
        verdicts = run_all_facts(series, fcfg, facts=config.facts)
    except (StylfactsError, OSError) as e:
        return AssetOutcome(asset_id=asset.asset_id, report=None,
                            error=f"{type(e).__name__}: {e}")

    safe = _safe_name(asset.asset_id)
    facts_obj = {}
    for fact in FactId:
        key = fact.value
        if key not in config.facts:
            facts_obj[key] = {"status": "skipped", "reason": "not in configured fact set"}
            continue
        v = verdicts[fact]
        curve_paths = {}
        for cname, cols in v.curves.items():
            rel = f"{safe}/{key}_{_safe_name(cname)}.csv"
            curve_paths[cname] = rel
            write_curve_csv(os.path.join(config.out_dir, rel), cols)
        facts_obj[key] = {
            "label": FACT_LABELS[fact],
            "status": v.status.value,
            "metrics": _jsonable(v.metrics),
            "notes": [str(x) for x in v.notes],
            "curves": curve_paths,
        }

    # rolling-volatility overview for plotting, all three estimators on the
    # day-scale default window
    w = default_window(config.step_seconds)
    vol_cols = {"timestamp": None}
    try:
        for kind in ("basic", "parkinson", "rogers_satchell"):
            vs = rolling_volatility(series, kind, VolatilityWindow(w, 1))
            vol_cols[kind] = vs.values
            vol_cols["timestamp"] = vs.timestamps
        write_curve_csv(os.path.join(config.out_dir, safe, "volatility.csv"), vol_cols)
    except StylfactsError:
        pass

    gr = series.gap_report
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "asset_id": asset.asset_id,
        "data_summary": {
            "n_bars": len(series),
            "n_returns": len(series) - 1,
            "start": int(series.timestamps[0]),
            "end": int(series.timestamps[-1]),
            "step_seconds": config.step_seconds,
            "volume_present_fraction": float(series.volume_present_fraction()),
            "gaps": {
                "n_expected": gr.n_expected,
                "n_missing": gr.n_missing,
                "n_filled": gr.n_filled,
                "policy": gr.policy,
            },
        },
        "config": {
            "seed": config.seed,
            "asset_seed": fcfg.seed,
            "facts": list(config.facts),
            "fact_params": _jsonable(config.fact_params),
            "gap_policy": config.gap_policy,
            "step_seconds": config.step_seconds,
        },
        "facts": facts_obj,
    }
    write_json(os.path.join(config.out_dir, f"{safe}.json"), report)
    return AssetOutcome(asset_id=asset.asset_id, report=report)


@dataclass(frozen=True)
class RunResult:
    out_dir: str
    outcomes: tuple
    summary_path: str

    @property
    def failed_assets(self) -> tuple:
        return tuple(o.asset_id for o in self.outcomes if o.error is not None)

    @property
    def ok(self) -> bool:
        return not self.failed_assets


def _summary_row(asset_id: str, report: Optional[dict], error: Optional[str] = None) -> list:
    """One summary.csv row: the asset, each fact's status, the error."""
    facts = (report or {}).get("facts", {})
    return [asset_id] + [facts.get(f, {}).get("status", "skipped") for f in ALL_FACTS] + [error or ""]


def _write_summary(path: str, rows: list) -> None:
    with _atomic_writer(path) as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(["asset", *ALL_FACTS, "error"])
        out.writerows(rows)


def run_analyze(config: RunConfig) -> RunResult:
    """Analyze every configured asset and write all outputs under out_dir.

    config.workers threads take whole assets, and the thread that analyzed
    an asset writes its files.  A file's bytes depend on its own asset only,
    and RunConfig rejects ids that share an output name, so the output does
    not depend on scheduling.  summary.csv is written last, in id order.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    with concurrent.futures.ThreadPoolExecutor(max_workers=config.workers) as ex:
        outcomes = sorted(ex.map(lambda a: _analyze_one(config, a), config.assets),
                          key=lambda o: o.asset_id)
    summary_path = os.path.join(config.out_dir, "summary.csv")
    _write_summary(summary_path, [_summary_row(o.asset_id, o.report, o.error)
                                  for o in outcomes])
    return RunResult(out_dir=config.out_dir, outcomes=tuple(outcomes),
                     summary_path=summary_path)


def merge_reports(out_dir: str) -> str:
    """Rebuild summary.csv from the asset report JSONs found in out_dir.
    JSONs that are not objects or hold another schema version are skipped;
    an unparsable one, or one of this version without a string asset_id and
    a facts object of objects, is a RejectedInputError naming the file."""
    rows = []
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(out_dir, name)
        with open(path, "r", encoding="utf-8") as f:
            try:
                rep = json.load(f)
            except ValueError as e:
                raise RejectedInputError(f"{path}: not a JSON document: {e}") from e
        if not isinstance(rep, dict) or rep.get("schema_version") != REPORT_SCHEMA_VERSION:
            continue
        facts = rep.get("facts", {})
        if not (isinstance(rep.get("asset_id"), str) and isinstance(facts, dict)
                and all(isinstance(v, dict) for v in facts.values())):
            raise RejectedInputError(f"{path}: a schema version {REPORT_SCHEMA_VERSION} report "
                                     f"needs a string asset_id and a facts object of objects")
        rows.append(_summary_row(rep["asset_id"], rep))
    rows.sort(key=lambda r: r[0])
    summary_path = os.path.join(out_dir, "summary.csv")
    _write_summary(summary_path, rows)
    return summary_path
