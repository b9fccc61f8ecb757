"""Realized volatility estimators on OHLC bars.

Three estimators over a window of n intervals:

- Basic: sample standard deviation (ddof=1) of the n per-step log returns
  in the window (two-pass, window mean subtracted).
- Parkinson: sqrt( (1/(4 n ln 2)) * sum ln(high_i/low_i)^2 ).  Std scale.
- Rogers-Satchell: sqrt( (1/n) * sum [ln(h/c) ln(h/o) + ln(l/c) ln(l/o)] ).
  Std scale.  On bars with low <= open, close <= high every term is >= 0 in
  floats, and so is their window mean; a negative radicand comes only from
  a bar whose open or close lies outside [low, high].  It is clamped to 0,
  with a warning.

All three are on the standard-deviation scale, so they compare directly.

Window alignment: a window of n intervals ends at bar index e and covers
returns (e-n, e] / bars [e-n+1, e]; its output carries bar e's timestamp.
With stride s the window ends are n, n+s, n+2s, ... so all estimator kinds
share the same grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InsufficientDataError, check_knobs, knob
from .series import PriceSeries

FOUR_LN2 = 4.0 * math.log(2.0)

_KINDS = ("basic", "parkinson", "rogers_satchell")


@dataclass(frozen=True)
class VolatilityWindow:
    """n intervals per window, windows every `stride` bars."""

    n: int = knob(low=1)
    stride: int = knob(1, 1)

    def __post_init__(self):
        check_knobs(self)


@dataclass(frozen=True)
class VolatilitySeries:
    """Rolling estimates; positions are the bar indices of the window ends."""

    values: np.ndarray
    timestamps: np.ndarray
    positions: np.ndarray
    kind: str
    window: VolatilityWindow

    def __len__(self) -> int:
        return len(self.values)


def rs_terms(open_, high, low, close) -> np.ndarray:
    """Per-bar Rogers-Satchell terms ln(h/c) ln(h/o) + ln(l/c) ln(l/o)."""
    o = np.asarray(open_, dtype=float)
    h = np.asarray(high, dtype=float)
    l = np.asarray(low, dtype=float)
    c = np.asarray(close, dtype=float)
    return np.log(h / c) * np.log(h / o) + np.log(l / c) * np.log(l / o)


def _rs_finalize(radicand) -> np.ndarray:
    rad = np.atleast_1d(np.asarray(radicand, dtype=float))
    neg = rad < 0.0
    if np.any(neg):
        warnings.warn(
            f"Rogers-Satchell radicand negative in {int(np.sum(neg))} window(s), from bars "
            "whose open or close lies outside [low, high]; clamped to 0", RuntimeWarning)
        rad = np.where(neg, 0.0, rad)
    return np.sqrt(rad)


def rolling_volatility(series: PriceSeries, kind: str,
                       window: VolatilityWindow) -> VolatilitySeries:
    """Rolling estimator over a PriceSeries.  See module docstring for layout."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    n, stride = window.n, window.stride
    nbars = len(series)
    if kind == "basic" and n < 2:
        raise InsufficientDataError("basic estimator needs window n >= 2")
    if nbars - 1 < n:
        raise InsufficientDataError(f"need more than {n} bars for window n={n}")

    if kind == "basic":
        returns = np.diff(np.log(series.close))
        values = np.sqrt(kernels.rolling_var(returns, n, stride))
    elif kind == "parkinson":
        x = np.log(series.high[1:] / series.low[1:])
        values = np.sqrt(kernels.rolling_mean(x * x, n, stride) / FOUR_LN2)
    else:
        t = rs_terms(series.open[1:], series.high[1:], series.low[1:], series.close[1:])
        values = _rs_finalize(kernels.rolling_mean(t, n, stride))

    ends = n + stride * np.arange(len(values))
    return VolatilitySeries(values=values, timestamps=series.timestamps[ends].copy(),
                            positions=ends, kind=kind, window=window)


def default_window(step_seconds: int) -> int:
    """Window length per sampling scale: 12 for monthly bars, 21 for daily,
    one day of bars for intraday grids."""
    if step_seconds >= 28 * 86400:
        return 12
    if step_seconds >= 86400:
        return 21
    return max(2, 86400 // step_seconds)
