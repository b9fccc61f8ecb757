"""Exception hierarchy.

Every error raised by the library derives from StylfactsError so callers can
catch analysis failures without masking programming errors.
"""

from __future__ import annotations


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
