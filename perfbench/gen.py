"""Seeded OHLCV inputs for the analyze workloads: the benchmark's set-up.

The bars come from this file's own numpy code, never from the package under
test, so two commits are measured on the same bytes; run.py records the
sha256 of every file it writes.

run.py starts this file as a child for each slice of set-up,

    python3 perfbench/gen.py JOB_JSON

so numpy and the generated arrays never enter the process that spawns the
measured commands (a spawned child's peak RSS starts at its parent's).  The
last stdout line is {"times": [s per rep], "files": [AssetFile fields]}.

Models and parameters follow the acceptance suite's control matrix:
GBM (sigma 0.01), OU on the log price (theta 0.05, sigma 0.01),
GARCH(1,1) (omega 1e-6, alpha 0.10, beta 0.85) and GJR (omega 1e-6,
alpha 0.03, gamma 0.24, beta 0.75).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
import time
import zlib
from dataclasses import asdict, dataclass

import numpy as np

DAY = 86400
T0 = 946_684_800  # 2000-01-01T00:00:00Z
VOLUME_SCALE = 1e6


@dataclass(frozen=True)
class AssetPlan:
    asset_id: str
    model: str
    n_steps: int
    iso: bool = False          # ISO-8601 timestamps with ~1% of rows dropped
    volume: bool = True        # False leaves the volume column empty


@dataclass(frozen=True)
class AssetFile:
    """What the benchmark knows about a written file, for its output checks."""
    asset_id: str
    path: str
    n_bars: int
    n_dropped: int
    volume: bool
    sha256: str


def _rng(seed: int, asset_id: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(asset_id.encode())]))


def _garch_returns(z, omega, alpha, gamma, beta):
    n = len(z)
    r = np.empty(n)
    s = np.empty(n)
    h = omega / (1.0 - alpha - 0.5 * gamma - beta)
    for t, zt in enumerate(z.tolist()):
        sd = math.sqrt(h)
        rt = sd * zt
        r[t] = rt
        s[t] = sd
        h = omega + (alpha + (gamma if rt < 0.0 else 0.0)) * rt * rt + beta * h
    return r, s


def model_returns(model: str, n: int, rng: np.random.Generator):
    """Per-step log returns and per-step volatility of one model path."""
    z = rng.standard_normal(n)
    if model == "gbm":
        return 0.01 * z, np.full(n, 0.01)
    if model == "ou":
        b = math.exp(-0.05)
        sd = 0.01 * math.sqrt((1.0 - b * b) / 0.1)
        x = np.empty(n + 1)
        x[0] = 0.0
        for t, zt in enumerate(z.tolist()):
            x[t + 1] = b * x[t] + sd * zt
        return np.diff(x), np.full(n, sd)
    if model == "garch":
        return _garch_returns(z, 1e-6, 0.10, 0.0, 0.85)
    if model == "gjr":
        return _garch_returns(z, 1e-6, 0.03, 0.24, 0.75)
    raise ValueError(f"unknown model {model!r}")


def _iso(ts: np.ndarray) -> list:
    return [s + "Z" for s in np.datetime_as_string(ts.astype("datetime64[s]"), unit="s")]


def write_asset(plan: AssetPlan, seed: int, path: str) -> AssetFile:
    """Write n_steps + 1 daily bars (a flat seed bar, then one per step)."""
    rng = _rng(seed, plan.asset_id)
    n = plan.n_steps
    r, s = model_returns(plan.model, n, rng)
    close = np.exp(np.concatenate(([0.0], np.cumsum(r))))
    open_ = np.concatenate(([1.0], close[:-1]))
    spread = np.concatenate(([0.0], 0.5 * s))
    high = np.maximum(open_, close) * np.exp(np.abs(rng.standard_normal(n + 1)) * spread)
    low = np.minimum(open_, close) * np.exp(-np.abs(rng.standard_normal(n + 1)) * spread)
    vol = np.concatenate(([0.0], VOLUME_SCALE * np.abs(r)))
    vol[1:] += np.abs(rng.standard_normal(n)) * 0.25 * VOLUME_SCALE * float(np.abs(r).mean())
    ts = T0 + DAY * np.arange(n + 1, dtype=np.int64)

    keep = np.ones(n + 1, dtype=bool)
    if plan.iso:
        # interior rows only, so the grid keeps both ends
        drop = rng.choice(np.arange(1, n), size=n // 100, replace=False)
        keep[drop] = False
    cols = [_iso(ts[keep]) if plan.iso else ts[keep].tolist()]
    cols += [a[keep].tolist() for a in (open_, high, low, close)]
    # 12 significant digits, as a feed would print them
    row = "%s,%.12g,%.12g,%.12g,%.12g,"
    if plan.volume:
        cols.append(vol[keep].tolist())
        row += "%.12g"
    data = ("timestamp,open,high,low,close,volume\n"
            + "".join(map((row + "\n").__mod__, zip(*cols)))).encode("ascii")
    with open(path, "wb") as f:
        f.write(data)
    return AssetFile(asset_id=plan.asset_id, path=path, n_bars=int(keep.sum()),
                     n_dropped=int(n + 1 - keep.sum()), volume=plan.volume,
                     sha256=hashlib.sha256(data).hexdigest())


def setup(dest: str, seed: int, plans: list, facts: list, workers: int) -> list:
    """Write every asset and the analyze config into a fresh `dest`."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    files = [write_asset(p, seed, os.path.join(dest, f"{p.asset_id}.csv")) for p in plans]
    if files:
        config = {"assets": [{"id": f.asset_id, "path": os.path.basename(f.path)} for f in files],
                  "out_dir": "out", "step_seconds": DAY, "facts": facts,
                  "seed": seed, "gap_policy": "drop", "workers": workers}
        with open(os.path.join(dest, "config.json"), "w") as f:
            f.write(json.dumps(config, indent=1))
    return files


def main(job: dict) -> None:
    """Repeat set-up for job["slice_s"] seconds, at least once; every rep
    writes the same bytes."""
    plans = [AssetPlan(**p) for p in job["plans"]]
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < job["slice_s"]:
        t0 = time.perf_counter()
        files = setup(job["dest"], job["seed"], plans, job["facts"], job["workers"])
        times.append(time.perf_counter() - t0)
    print(json.dumps({"times": times, "files": [asdict(f) for f in files]}))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
