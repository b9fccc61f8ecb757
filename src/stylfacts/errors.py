"""Exception hierarchy, and the one checker of validated dataclass fields.

Every error raised by the library derives from StylfactsError so callers can
catch analysis failures without masking programming errors.  A bad argument
value is a caller bug and raises ValueError: each validated field declares
its kind and range with `knob`, and `check_knobs` enforces them.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import MISSING, field, fields
from typing import Optional, get_type_hints


class StylfactsError(Exception):
    """Base class for all library errors."""


class RejectedInputError(StylfactsError):
    """Input bars violate hard invariants (non-positive prices, high < low,
    non-increasing or duplicate timestamps, malformed CSV rows)."""


class DataQualityError(StylfactsError):
    """Input is structurally valid but too degraded to analyze
    (e.g. more than the allowed fraction of grid slots missing)."""


class DegenerateInputError(StylfactsError):
    """A computation received input with no usable variation
    (constant series, empty window, all-nonpositive ACF, ...)."""


class InsufficientDataError(StylfactsError):
    """A procedure's minimum-length precondition is not met."""


class NonMeanRevertingError(StylfactsError):
    """OU fit rejected: the AR(1) coefficient does not indicate mean reversion."""


class PriceRangeError(StylfactsError, ValueError):
    """A simulation's prices would leave the float range: a bad value in the
    spec given to `simulate`, the one function that raises it.  `log_path`
    forms no prices and does not raise it."""


def knob(default=MISSING, low=None, high=None, *, closed=False, choices=None):
    """A validated dataclass field; without a default it is required.

    Its kind is its annotation: an int, a finite real (float), either of
    them or None (Optional), or, with `choices`, one of those strings.
    Bools are never numbers.  An int lies in [low, high]; a real lies in
    the open interval (low, high), or in [low, high] when `closed`.  None
    leaves a side unbounded; a knob bounded above is bounded below too."""
    return field(default=default, metadata={"rule": (low, high, closed, choices)})


_KIND_NAMES = {int: "an int", Optional[int]: "an int or None",
               float: "a number", Optional[float]: "a number or None"}


@functools.cache
def _knob_rules(cls) -> tuple:
    """(name, kind, low, high, closed, choices) of each knob of `cls`."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], *f.metadata["rule"])
                 for f in fields(cls) if "rule" in f.metadata)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_knobs(obj) -> None:
    """Raise ValueError, naming the field, unless every knob of the
    dataclass `obj` has its declared kind and lies in its range."""
    for name, kind, low, high, closed, choices in _knob_rules(type(obj)):
        value = getattr(obj, name)
        if choices is not None:
            if not (isinstance(value, str) and value in choices):
                raise ValueError(f"{name} must be one of {choices}, got {value!r}")
            continue
        if value is None and kind in (Optional[int], Optional[float]):
            continue
        real = kind in (float, Optional[float])
        wanted = numbers.Real if real else numbers.Integral
        if isinstance(value, bool) or not isinstance(value, wanted):
            raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
        if real and not _finite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        closed = closed or not real
        if closed:
            ok = (low is None or value >= low) and (high is None or value <= high)
        else:
            ok = (low is None or value > low) and (high is None or value < high)
        if not ok:
            if high is None:
                bounds = f"be {'>=' if closed else '>'} {low}"
            else:
                left, right = "[]" if closed else "()"
                bounds = f"lie in {left}{low}, {high}{right}"
            raise ValueError(f"{name} must {bounds}")
