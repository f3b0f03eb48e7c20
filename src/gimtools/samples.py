"""Validated income samples.

The estimators in this package are all functions of the order statistics, so
a sample is stored once, sorted ascending, and shared read-only from then on.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySample, NegativeIncome, NonFinite


@dataclass(frozen=True)
class IncomeSample:
    """A validated, ascending-sorted vector of non-negative incomes.

    ``values[i]`` is the (i+1)-th order statistic of the data.  Instances
    are immutable (the underlying array is marked read-only) and therefore
    safe to share across threads.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.values.flags.writeable = False

    @property
    def n(self):
        """Sample size."""
        return self.values.size

    def __len__(self):
        return self.values.size

    def __repr__(self):
        return f"IncomeSample(n={self.n})"

    def scaled(self):
        """``(values * 2**-exponent, exponent)`` with the maximum in [0.5, 1).

        Scaling by a power of two is exact, so no in-range bit moves, and
        sums over the scaled values cannot overflow near the float maximum.
        """
        exponent = int(np.frexp(self.values[-1])[1])
        return np.ldexp(self.values, -exponent), exponent

    def mean(self):
        """Arithmetic mean of the incomes (summed on :meth:`scaled` values)."""
        x, exponent = self.scaled()
        return float(np.ldexp(np.mean(x), exponent))


def make_sample(raw):
    """Validate raw income data and build an :class:`IncomeSample`.

    Parameters
    ----------
    raw : array_like
        Income values in any order.  Zeros are permitted (real survey data
        contains them); negatives, NaN and infinities are rejected.

    Returns
    -------
    IncomeSample
        A sorted copy of the input, bit for bit what a stable sort gives.
        Among valid incomes only 0.0 and -0.0 tie with different bits, so
        numpy's default (unstable) sort is followed by writing the leading
        zero block back in input order.

    Raises
    ------
    EmptySample
        If ``raw`` has no elements.
    NonFinite
        If any value is NaN or infinite.
    NegativeIncome
        If any value is < 0.
    """
    values = np.asarray(raw, dtype=float).ravel()
    if values.size == 0:
        raise EmptySample("cannot build a sample from zero values")
    # two reductions, no whole-sample mask: a NaN fails both comparisons,
    # silently, and only a failure searches for the culprit
    if not (values.min() >= 0 and values.max() < np.inf):
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise NonFinite(f"non-finite income at position {bad}: {values[bad]!r}")
        bad = int(np.flatnonzero(values < 0)[0])
        raise NegativeIncome(f"negative income at position {bad}: {values[bad]!r}")
    ordered = np.sort(values)
    if ordered[0] == 0:
        zeros = values[values == 0]
        ordered[: zeros.size] = zeros
    return IncomeSample(ordered)


def as_sample(data):
    """Pass through an :class:`IncomeSample`, or build one from raw data."""
    if isinstance(data, IncomeSample):
        return data
    return make_sample(data)
