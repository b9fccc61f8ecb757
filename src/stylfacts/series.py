"""OHLCV series containers, validation, log returns, and block sums.

Conventions
-----------
- Timestamps are integer epoch seconds, strictly increasing.  After
  validation, analysis code treats bar positions as the time grid; the
  original timestamps are kept for reporting only.
- Log return r_i = ln(close[i] / close[i-1]) carries the timestamp of the
  later bar (interval end).
- Aggregation by k (`block_sums`) sums non-overlapping blocks of k values
  anchored at the start; a trailing remainder shorter than k is dropped.
- Error messages number data rows from 1, counting only the rows a CSV
  keeps (the header and blank lines are not counted), so bar i of a series
  is row i + 1.
- `read_csv` has two parsers with one result.  A seekable file whose every
  row holds an integer epoch stamp and five plain numbers, as `write_csv`
  writes them, goes through numpy's C parser (`np.loadtxt`), which keeps
  no per-row Python objects: a 1e5-row file takes about 0.1 s and 10 MB
  instead of 0.4 s and 25 MB.  Any other file (ISO stamps, an empty
  volume cell, quoted fields, a malformed row, a header with no rows, an
  ASCII separator character that only numpy reads as a space) and any
  stream that cannot seek is read from its start by `csv.reader`, which
  writes every error message.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import kernels
from .errors import (DataQualityError, InsufficientDataError, RejectedInputError,
                     check_knobs, knob)

MAX_MISSING_FRACTION = 0.20
GAP_POLICIES = ("drop", "ffill")

CSV_COLUMNS = ("timestamp", "open", "high", "low", "close", "volume")


def _row(mask) -> int:
    """The row number of mask's first True bar."""
    return int(np.flatnonzero(mask)[0]) + 1


@dataclass(frozen=True)
class SamplingGrid:
    """Expected bar spacing: every step seconds (no calendar convention)."""

    step: int = knob(low=1)

    def __post_init__(self):
        check_knobs(self)


@dataclass(frozen=True)
class GapReport:
    """What validation found and did."""

    n_input: int
    n_expected: int
    n_missing: int
    n_filled: int
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
        try:
            ts = np.asarray(timestamps, dtype=np.int64)
        except OverflowError:
            i = next(i for i, t in enumerate(timestamps, 1) if not -2**63 <= t < 2**63)
            raise RejectedInputError(f"timestamp beyond int64 at row {i}") from None
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
        # neighbours are compared, not differenced: a difference can wrap
        bad = ts[1:] <= ts[:-1]
        if np.any(bad):
            raise RejectedInputError(f"timestamps not strictly increasing at row {_row(bad) + 1}")
        for name, arr in (("open", o), ("high", h), ("low", l), ("close", c)):
            bad = ~(arr > 0.0) | ~np.isfinite(arr)
            if np.any(bad):
                raise RejectedInputError(f"non-positive or non-finite {name} at row {_row(bad)}")
        if np.any(h < l):
            raise RejectedInputError(f"high < low at row {_row(h < l)}")
        with np.errstate(invalid="ignore"):
            if np.any(v < 0.0):
                raise RejectedInputError(f"negative volume at row {_row(v < 0.0)}")
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
    if policy not in GAP_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    ts = series.timestamps
    first, last, step = int(ts[0]), int(ts[-1]), grid.step
    # each bar's offset from the first: bars increase and span less than
    # 2**64, so the int64 difference read as uint64 is exact even where it wraps
    offset = (ts - ts[0]).view(np.uint64)
    # a step longer than the span leaves one slot, the first bar's
    off = offset % np.uint64(step) != 0 if step <= last - first else offset != 0
    n_off = int(np.sum(off))
    if n_off > 0:
        raise RejectedInputError(
            f"{n_off} bars off the sampling grid (first at row {_row(off)})")
    # strictly increasing bars on the grid: every one fills its own slot
    n_expected = (last - first) // step + 1
    n_missing = n_expected - len(ts)
    frac = n_missing / n_expected
    if frac > MAX_MISSING_FRACTION:
        raise DataQualityError(
            f"{n_missing}/{n_expected} grid slots missing ({frac:.1%} > {MAX_MISSING_FRACTION:.0%})")

    if policy == "drop" or n_missing == 0:
        report = GapReport(n_input=len(ts), n_expected=n_expected, n_missing=n_missing,
                           n_filled=0, missing_fraction=frac, policy=policy)
        return PriceSeries(ts, series.open, series.high, series.low, series.close,
                           series.volume, gap_report=report)

    # ffill: insert flat bars at the previous close, zero volume; the grid
    # holds at most 1 / (1 - MAX_MISSING_FRACTION) slots per bar
    expected = first + step * np.arange(n_expected, dtype=np.int64)
    src = np.full(n_expected, -1, dtype=np.int64)
    src[offset // np.uint64(step)] = np.arange(len(ts))
    have = src >= 0
    # each slot's own bar, or the last bar before it: the first slot holds
    # ts[0], so every missing slot has one
    bar = src[np.maximum.accumulate(np.where(have, np.arange(n_expected), 0))]
    c = series.close[bar]
    o, h, l = (np.where(have, col[bar], c) for col in (series.open, series.high, series.low))
    v = np.where(have, series.volume[bar], 0.0)
    report = GapReport(n_input=len(ts), n_expected=len(expected), n_missing=n_missing,
                       n_filled=n_missing, missing_fraction=frac, policy=policy)
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
        raise ValueError(f"unparseable timestamp {text!r}") from exc
    if dt.microsecond:
        # int() would truncate it onto the grid, or onto the next second
        # before 1970
        raise ValueError(f"fractional second in timestamp {text!r}")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def read_csv(path_or_file) -> PriceSeries:
    """Read `timestamp,open,high,low,close,volume` (ISO-8601 or epoch seconds;
    volume may be empty).  A path is read as UTF-8; a leading byte-order
    mark, which spreadsheet exports write, is dropped from a path or a text
    file.  Text that does not decode is a RejectedInputError."""
    try:
        if hasattr(path_or_file, "read"):
            return _read_csv_file(path_or_file)
        with open(path_or_file, "r", encoding="utf-8-sig", newline="") as f:
            return _read_csv_file(f)
    except UnicodeDecodeError as e:
        raise RejectedInputError(f"not {e.encoding} text: byte 0x{e.object[e.start]:02x} "
                                 f"({e.reason})") from e


_EPOCH_ROW = np.dtype([(name, np.int64 if name == "timestamp" else np.float64)
                       for name in CSV_COLUMNS])
# ASCII separators that numpy's number parser skips as whitespace and
# Python's float() rejects
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")
# characters per read of the body scan in `_c_parser_reads`
_SCAN_CHARS = 1 << 16
# the byte-order mark as a decoded character
_BOM = "\ufeff"


def _has_empty_cell(text: str) -> bool:
    """Whether text holds an empty cell: two adjacent delimiters (a comma or
    a line end) of which one is a comma.  The check runs on the UTF-8 bytes,
    where no byte of a non-ASCII character is a delimiter."""
    buf = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    comma = buf == ord(",")
    delim = comma | (buf == ord("\n")) | (buf == ord("\r"))
    return bool((delim[:-1] & delim[1:] & (comma[:-1] | comma[1:])).any())


def _c_parser_reads(header: str, f) -> bool:
    """Whether numpy's C parser may read f, positioned after its header line:
    the header is the expected one and holds no quote, which could open a
    field that csv.reader carries onto later lines; a first row follows
    (loadtxt warns when it finds none); no cell holds a character the two
    parsers read differently; and no cell is empty, which loadtxt rejects
    only once it reaches that row, after parsing every row before it."""
    if '"' in header or [c.strip().lower() for c in header.split(",")] != list(CSV_COLUMNS):
        return False
    body = f.tell()
    if not f.readline().strip():
        return False
    f.seek(body)
    # each chunk is scanned after the character before it, so an empty cell
    # split across two chunks is found
    prev = "\n"
    for chunk in iter(lambda: f.read(_SCAN_CHARS), ""):
        if any(c in chunk for c in _SEPARATORS) or _has_empty_cell(prev + chunk):
            return False
        prev = chunk[-1]
    return prev != ","


def _read_epoch_columns(f):
    """The six columns of a seekable file whose rows all hold an integer
    timestamp and five plain numbers, parsed by numpy's C parser; None, with
    the file back where it started, for any other file."""
    try:
        if not f.seekable():
            return None
        start = f.tell()
    except (AttributeError, OSError):
        return None
    header = f.readline().removeprefix(_BOM)
    body = f.tell()
    if _c_parser_reads(header, f):
        f.seek(body)
        try:
            rows = np.loadtxt(f, delimiter=",", dtype=_EPOCH_ROW, comments=None, ndmin=1)
        except ValueError:
            pass
        else:
            return [rows[name].copy() for name in CSV_COLUMNS]
    f.seek(start)
    return None


def _read_csv_file(f) -> PriceSeries:
    columns = _read_epoch_columns(f)
    if columns is not None:
        return PriceSeries(*columns)
    reader = csv.reader(f)
    header = next(reader, None)
    if header is None:
        raise RejectedInputError("empty CSV")
    if header:
        header[0] = header[0].removeprefix(_BOM)
    cols = [c.strip().lower() for c in header]
    if cols != list(CSV_COLUMNS):
        raise RejectedInputError(f"expected header {','.join(CSV_COLUMNS)}, got {','.join(cols)}")
    ts, o, h, l, c, v = [], [], [], [], [], []
    i = 0  # data rows kept so far; blank lines are skipped and not counted
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        i += 1
        if len(row) != 6:
            raise RejectedInputError(f"row {i}: expected 6 fields, got {len(row)}")
        try:
            ts.append(_parse_timestamp(row[0]))
            o.append(float(row[1]))
            h.append(float(row[2]))
            l.append(float(row[3]))
            c.append(float(row[4]))
            vol = row[5].strip()
            v.append(float(vol) if vol else np.nan)
        except ValueError as exc:
            raise RejectedInputError(f"row {i}: {exc}") from exc
    if not ts:
        raise RejectedInputError("CSV has a header but no rows")
    return PriceSeries(ts, o, h, l, c, v)


def write_csv(series: PriceSeries, path_or_file) -> None:
    """Write the series as `timestamp,open,high,low,close,volume`: integer
    timestamps, floats by `repr` (they read back bit-equal), NaN volume as
    an empty cell, in UTF-8 (the bytes are ASCII).  The rows are formatted
    by `kernels.csv_lines` and written a block at a time (`_write_rows`),
    so a 1e5-bar series never exists as one string."""
    columns = dict(zip(CSV_COLUMNS, (series.timestamps, series.open, series.high,
                                     series.low, series.close, series.volume)))
    if hasattr(path_or_file, "write"):
        _write_rows(path_or_file, columns)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as f:
            _write_rows(f, columns)


# cells formatted per write: a block's temporaries in `kernels.csv_lines`
# stay a few MB whatever the number of columns
_WRITE_BLOCK_CELLS = 1 << 15


def _write_rows(f, columns: dict) -> None:
    """The header line of column names, then one line per row of the
    equal-length columns, written to the text file f.  `kernels.csv_lines`
    formats _WRITE_BLOCK_CELLS cells (whole rows, at least one) at a time."""
    arrays = [np.asarray(c) for c in columns.values()]
    f.write(",".join(columns) + "\n")
    step = max(1, _WRITE_BLOCK_CELLS // len(arrays))
    for lo in range(0, len(arrays[0]), step):
        f.write(kernels.csv_lines([a[lo:lo + step] for a in arrays]))
