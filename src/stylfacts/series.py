"""OHLCV series containers, validation, log returns, and aggregation.

Conventions
-----------
- Timestamps are integer epoch seconds, strictly increasing.  After
  validation, analysis code treats bar positions as the time grid; the
  original timestamps are kept for reporting only.
- Log return r_i = ln(close[i] / close[i-1]) carries the timestamp of the
  later bar (interval end).
- Aggregation by k sums non-overlapping blocks of k returns anchored at the
  start; a trailing remainder shorter than k is dropped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Optional

import numpy as np

from .errors import DataQualityError, InsufficientDataError, RejectedInputError

MAX_MISSING_FRACTION = 0.20

CSV_COLUMNS = ("timestamp", "open", "high", "low", "close", "volume")


@dataclass(frozen=True)
class SamplingGrid:
    """Expected bar spacing.

    step: grid step in seconds.
    session: optional predicate on epoch seconds; a grid slot is expected only
        where it returns True.  No calendar convention is built in; callers
        that need exchange sessions supply their own mask.
    """

    step: int
    session: Optional[Callable[[int], bool]] = None

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("grid step must be positive")

    def expected(self, first: int, last: int) -> np.ndarray:
        ts = np.arange(first, last + 1, self.step, dtype=np.int64)
        if self.session is not None:
            keep = np.fromiter((self.session(int(t)) for t in ts), dtype=bool, count=len(ts))
            ts = ts[keep]
        return ts


@dataclass(frozen=True)
class GapReport:
    """What validation found and did."""

    n_input: int
    n_expected: int
    n_missing: int
    n_filled: int
    n_off_grid: int
    missing_fraction: float
    policy: str


class PriceSeries:
    """Column-oriented OHLCV container with hard invariants.

    Raises RejectedInputError on non-positive prices, high < low, or
    non-increasing / duplicate timestamps.
    """

    __slots__ = ("timestamps", "open", "high", "low", "close", "volume", "gap_report")

    def __init__(self, timestamps, open_, high, low, close, volume=None,
                 gap_report: Optional[GapReport] = None):
        ts = np.asarray(timestamps, dtype=np.int64)
        o = np.asarray(open_, dtype=float)
        h = np.asarray(high, dtype=float)
        l = np.asarray(low, dtype=float)
        c = np.asarray(close, dtype=float)
        n = len(ts)
        if not (len(o) == len(h) == len(l) == len(c) == n):
            raise RejectedInputError("column lengths differ")
        if n == 0:
            raise RejectedInputError("empty series")
        if volume is None:
            v = np.full(n, np.nan)
        else:
            v = np.asarray(volume, dtype=float)
            if len(v) != n:
                raise RejectedInputError("column lengths differ")
        if np.any(np.diff(ts) <= 0):
            i = int(np.flatnonzero(np.diff(ts) <= 0)[0]) + 1
            raise RejectedInputError(f"timestamps not strictly increasing at row {i}")
        for name, arr in (("open", o), ("high", h), ("low", l), ("close", c)):
            bad = ~(arr > 0.0) | ~np.isfinite(arr)
            if np.any(bad):
                raise RejectedInputError(f"non-positive or non-finite {name} at row {int(np.flatnonzero(bad)[0])}")
        if np.any(h < l):
            raise RejectedInputError(f"high < low at row {int(np.flatnonzero(h < l)[0])}")
        with np.errstate(invalid="ignore"):
            if np.any(v < 0.0):
                raise RejectedInputError(f"negative volume at row {int(np.flatnonzero(v < 0.0)[0])}")
        self.timestamps = ts
        self.open = o
        self.high = h
        self.low = l
        self.close = c
        self.volume = v
        self.gap_report = gap_report

    def __len__(self) -> int:
        return len(self.timestamps)

    def volume_present_fraction(self) -> float:
        return float(np.mean(~np.isnan(self.volume)))


@dataclass(frozen=True)
class LogReturnSeries:
    """Log returns with interval-end timestamps."""

    values: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def compute_log_returns(series: PriceSeries) -> LogReturnSeries:
    if len(series) < 2:
        raise InsufficientDataError("need at least 2 bars for returns")
    values = np.diff(np.log(series.close))
    return LogReturnSeries(values=values, timestamps=series.timestamps[1:].copy())


def block_sums(values: np.ndarray, k: int) -> np.ndarray:
    """Sums of non-overlapping blocks of k values anchored at the start; a
    trailing remainder shorter than k is dropped (no blocks: empty)."""
    n = len(values) // k
    return values[: n * k].reshape(n, k).sum(axis=1)


def aggregate_returns(returns: LogReturnSeries, k: int) -> LogReturnSeries:
    """Sum non-overlapping blocks of k returns; trailing remainder dropped."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(returns) // k
    if n == 0:
        raise InsufficientDataError(f"fewer than k={k} returns")
    ts = returns.timestamps[k - 1 : n * k : k].copy()
    return LogReturnSeries(values=block_sums(returns.values, k), timestamps=ts)


def prices_from_returns(returns: LogReturnSeries, p0: float) -> np.ndarray:
    """Close path implied by p0 and the returns (round-trip check helper)."""
    return p0 * np.exp(np.concatenate(([0.0], np.cumsum(returns.values))))


def validate_and_gapfill(series: PriceSeries, grid: SamplingGrid,
                         policy: str = "drop") -> PriceSeries:
    """Check the series against the grid and handle missing slots.

    policy:
        "drop"  - missing slots are removed from the expected grid and the
                  surviving bars are kept as-is (positions re-index time).
        "ffill" - missing slots become flat bars at the previous close with
                  zero volume.

    Bars that do not fall on the grid are rejected.  More than
    MAX_MISSING_FRACTION of expected slots missing raises DataQualityError.
    Idempotent: validating a validated series finds zero gaps.
    """
    if policy not in ("drop", "ffill"):
        raise ValueError(f"unknown policy {policy!r}")
    ts = series.timestamps
    first, last = int(ts[0]), int(ts[-1])
    expected = grid.expected(first, last)
    on_grid = np.isin(ts, expected)
    n_off = int(np.sum(~on_grid))
    if n_off > 0:
        raise RejectedInputError(
            f"{n_off} bars off the sampling grid (first at row {int(np.flatnonzero(~on_grid)[0])})")
    present = np.isin(expected, ts)
    n_missing = int(np.sum(~present))
    frac = n_missing / len(expected) if len(expected) else 0.0
    if frac > MAX_MISSING_FRACTION:
        raise DataQualityError(
            f"{n_missing}/{len(expected)} grid slots missing ({frac:.1%} > {MAX_MISSING_FRACTION:.0%})")

    if policy == "drop" or n_missing == 0:
        report = GapReport(n_input=len(ts), n_expected=len(expected), n_missing=n_missing,
                           n_filled=0, n_off_grid=0, missing_fraction=frac, policy=policy)
        return PriceSeries(ts, series.open, series.high, series.low, series.close,
                           series.volume, gap_report=report)

    # ffill: insert flat bars at the previous close, zero volume
    pos = np.searchsorted(expected, ts)
    o = np.empty(len(expected))
    h = np.empty(len(expected))
    l = np.empty(len(expected))
    c = np.empty(len(expected))
    v = np.zeros(len(expected))
    src = np.full(len(expected), -1, dtype=np.int64)
    src[pos] = np.arange(len(ts))
    have = src >= 0
    for dst, col in ((o, series.open), (h, series.high), (l, series.low), (c, series.close)):
        dst[have] = col[src[have]]
    # first expected slot coincides with ts[0], so every miss has a predecessor
    carry = np.maximum.accumulate(np.where(have, np.arange(len(expected)), 0))
    missing = ~have
    filled_close = series.close[src[carry[missing]]]
    o[missing] = filled_close
    h[missing] = filled_close
    l[missing] = filled_close
    c[missing] = filled_close
    v[have] = series.volume
    report = GapReport(n_input=len(ts), n_expected=len(expected), n_missing=n_missing,
                       n_filled=n_missing, n_off_grid=0, missing_fraction=frac, policy=policy)
    return PriceSeries(expected, o, h, l, c, v, gap_report=report)


# ---------------------------------------------------------------------------
# CSV input/output: timestamp,open,high,low,close,volume
# ---------------------------------------------------------------------------

def _parse_timestamp(text: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        iso = text.replace("Z", "+00:00")
        dt = datetime.fromisoformat(iso)
    except ValueError as exc:
        raise RejectedInputError(f"unparseable timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def read_csv(path_or_file) -> PriceSeries:
    """Read `timestamp,open,high,low,close,volume` (ISO-8601 or epoch seconds;
    volume may be empty)."""
    if hasattr(path_or_file, "read"):
        return _read_csv_file(path_or_file)
    with open(path_or_file, "r", newline="") as f:
        return _read_csv_file(f)


def _read_csv_file(f) -> PriceSeries:
    reader = csv.reader(f)
    header = next(reader, None)
    if header is None:
        raise RejectedInputError("empty CSV")
    cols = [c.strip().lower() for c in header]
    if cols != list(CSV_COLUMNS):
        raise RejectedInputError(f"expected header {','.join(CSV_COLUMNS)}, got {','.join(cols)}")
    ts, o, h, l, c, v = [], [], [], [], [], []
    for i, row in enumerate(reader):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 6:
            raise RejectedInputError(f"row {i + 1}: expected 6 fields, got {len(row)}")
        try:
            ts.append(_parse_timestamp(row[0]))
            o.append(float(row[1]))
            h.append(float(row[2]))
            l.append(float(row[3]))
            c.append(float(row[4]))
            vol = row[5].strip()
            v.append(float(vol) if vol else np.nan)
        except RejectedInputError:
            raise
        except ValueError as exc:
            raise RejectedInputError(f"row {i + 1}: {exc}") from exc
    if not ts:
        raise RejectedInputError("CSV has a header but no rows")
    return PriceSeries(ts, o, h, l, c, v)


def write_csv(series: PriceSeries, path_or_file) -> None:
    if hasattr(path_or_file, "write"):
        _write_csv_file(series, path_or_file)
    else:
        with open(path_or_file, "w", newline="") as f:
            _write_csv_file(series, f)


def _write_csv_file(series: PriceSeries, f) -> None:
    w = csv.writer(f, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for i in range(len(series)):
        v = series.volume[i]
        w.writerow([
            int(series.timestamps[i]),
            repr(float(series.open[i])),
            repr(float(series.high[i])),
            repr(float(series.low[i])),
            repr(float(series.close[i])),
            "" if np.isnan(v) else repr(float(v)),
        ])
