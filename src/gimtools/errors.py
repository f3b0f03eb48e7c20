"""Exception hierarchy for gimtools, and the one integer-argument check.

Every error raised on purpose by this package derives from :class:`GimError`,
so callers (and the CLI) can catch one type and turn it into a diagnostic.
Every integer argument is validated by :func:`check_integer`.
"""

import numpy as np


class GimError(Exception):
    """Base class for all gimtools errors."""


# --- sample construction -------------------------------------------------

class EmptySample(GimError):
    """Raised when a sample is built from no values."""


class NegativeIncome(GimError):
    """Raised when an income value is negative (measures assume X >= 0)."""


class NonFinite(GimError):
    """Raised when an income value is NaN or infinite."""


# --- estimator preconditions ---------------------------------------------

class OrderExceedsSample(GimError, ValueError):
    """Raised when the order v is not a positive integer, or exceeds n."""


class SampleTooSmall(GimError, ValueError):
    """Raised when a sample size is not a positive integer, or too small."""


class ZeroMean(GimError):
    """Raised when every income is zero, making ratio measures 0/0."""


class EnumerationTooLarge(GimError):
    """Raised when the brute-force subset oracle would enumerate too much."""


# --- inference ------------------------------------------------------------

class InvalidLevel(GimError):
    """Raised for confidence levels outside (0, 1)."""


class InvalidStdError(GimError):
    """Raised for a standard error that is NaN, infinite or negative."""


class QuadratureNoConvergence(GimError):
    """Raised when panel doubling fails to reach the requested tolerance."""


# --- distributions ---------------------------------------------------------

class InvalidProbability(GimError):
    """Raised for quantile arguments outside the open interval (0, 1)."""


# --- simulation / IO -------------------------------------------------------

class EmptyGrid(GimError):
    """Raised when a simulation grid contains no cells."""


class ParseError(GimError):
    """Raised when an input file cannot be parsed; carries a line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EmptyColumn(GimError):
    """Raised when CSV ingestion finds no usable values in the column."""


class InvalidArgument(GimError, ValueError):
    """Raised for a count, seed or distribution parameter outside its range."""


def check_integer(value, name, error, low, high=None):
    """``value`` as an int, else ``error`` with a message naming ``name`` and it.

    ``value`` must be an int or numpy integer, not a bool, in ``[low, high)``
    (``high=None``: no upper bound).
    """
    if (
        isinstance(value, bool) or not isinstance(value, (int, np.integer))
        or value < low or (high is not None and value >= high)
    ):
        want = "a positive integer" if low == 1 else f"an integer >= {low}"
        if high is not None:
            want = f"an integer in [{low}, {high})"
        raise error(f"{name} must be {want}, got {value!r}")
    return int(value)
