"""Exception hierarchy for gimtools.

Every error raised on purpose by this package derives from :class:`GimError`,
so callers (and the CLI) can catch one type and turn it into a diagnostic.
"""


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


class SampleTooSmall(GimError):
    """Raised when a statistic needs more observations than provided."""


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


class InvalidBandwidth(GimError):
    """Raised for non-positive kernel bandwidths."""
