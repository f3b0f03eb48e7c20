"""Point estimators for Gini-family inequality measures.

The central quantity is the generalized inequality measure of order v,

    GIM(v) = E(max(X_1..X_v) - min(X_1..X_v)) / E(max(X_1..X_v) + min(X_1..X_v)),

the expected range of v independent incomes normalized by the expected sum of
their extremes.  At v = 2 it reduces to the classic Gini index.  Two
estimators are provided:

* ``gim_ustat`` — the unbiased-kernel (U-statistic) estimator, an average of
  the range/extreme-sum kernel over all C(n, v) subsets, computed in
  O(n log n) through order-statistic weights;
* ``gim_edf`` — the plug-in estimator that substitutes the empirical
  distribution function into the population integrals, a ratio of two
  L-statistics.

Both are estimates of the same two moments, so each estimator kind is just
a pair of order-statistic weights (``extreme_weights``), and one summation
core (``extreme_sums``) serves both estimators and the batched Monte Carlo
harness alike; the O(n) jackknife sums the same weights itself.  The min-of-v
weight of X_{i:n} is the max-of-v weight of X_{n+1-i:n}, so each kind keeps
one weight array and reads its min side top-down, from the other end: the
U-statistic pair is one array twice, and the plug-in pair two overlapping
views of one power array.  The Gini index ``gini_ustat`` is ``gim_ustat`` at
v = 2.

``gim_ustat_naive`` enumerates the subsets literally and exists purely as a
test oracle for the weighted form.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (EnumerationTooLarge, InvalidArgument, OrderExceedsSample, SampleTooSmall,
                     ZeroMean, check_integer)
from .samples import as_sample


@dataclass(frozen=True)
class GimEstimate:
    """A point estimate of GIM(v) with its numerator/denominator parts.

    ``numerator`` estimates E(max - min) and ``denominator`` E(max + min);
    ``value`` is their ratio.  ``kind`` is ``"ustat"`` or ``"edf"``.
    ``value`` is formed from power-of-two-scaled sums, so it stays correct
    when E(max + min) exceeds the float range; ``numerator`` and
    ``denominator`` then read ``inf``.
    """

    value: float
    numerator: float
    denominator: float
    kind: str
    n: int
    v: int


@dataclass(frozen=True)
class PremiaReport:
    """Mean, extended-Gini premia and the price-spread quantities of order v.

    ``risk_premium``  = E(X) - E(min of v)   (what a seller gives up),
    ``gain_premium``  = E(max of v) - E(X)   (what a buyer may concede),
    ``starting_bid``  = E(min of v),
    ``bin_price``     = E(max of v),
    ``price_spread_width`` = bin_price - starting_bid = E(max - min).
    """

    mean: float
    risk_premium: float
    gain_premium: float
    starting_bid: float
    bin_price: float
    price_spread_width: float


def _check_order(v, n=None):
    """``v`` as an int; raises unless it is a positive integer, at most ``n``."""
    v = check_integer(v, "order v", OrderExceedsSample, 1)
    if n is not None and v > n:
        raise OrderExceedsSample(f"order v={v} exceeds sample size n={n}")
    return v


def subset_weights(n, v):
    """Order-statistic weights of the subset-extremes U-statistic.

    Among the C(n, v) size-v subsets of a sample of n distinct values, the
    i-th order statistic (1-based) is the maximum of C(i-1, v-1) subsets and
    the minimum of C(n-i, v-1) subsets.  Normalizing by C(n, v) gives weight
    vectors so that

        sum_i w_max[i] * X_{i:n}  estimates  E(max of v),
        sum_i w_min[i] * X_{i:n}  estimates  E(min of v),

    both unbiasedly.

    Weights are never formed from factorials, so they stay finite for any n
    representable in memory.  Starting from w_max[n] = v/n, each step down
    multiplies by the ratio w_max[i-1]/w_max[i] = (i-v)/(i-1); the whole
    tail w_max[v..n] is one cumulative product of the factors
    [v/n, (n-v)/(n-1), ..., 1/v], read from the top index down.

    Parameters
    ----------
    n : int
        Sample size.
    v : int
        Subset order, 1 <= v <= n.

    Returns
    -------
    (w_max, w_min) : tuple of ndarray
        Length-n read-only weight vectors, each summing to 1, both indexed
        bottom-up like the sorted sample.  ``w_min`` is the reversed view
        ``w_max[::-1]``, not a copy (max/min symmetry of subsets): read
        top-down, the min side is ``w_max`` itself.
    """
    _check_order(v, n)
    w_max = np.zeros(n)
    # w_max[i] = C(i-1, v-1)/C(n, v); stepping i -> i-1 multiplies by (i-v)/(i-1).
    # The factors are written into the tail, top index first, and the running
    # product overwrites them, so at most one length-n temporary is alive.
    # Each ratio is formed first so a ratio of exactly 1 (v = 1) leaves the
    # weight bit-identical instead of drifting through a round trip.
    tail = w_max[v - 1:][::-1]
    tail[0] = v / n
    tail[1:] = np.arange(n - v, 0, -1, dtype=float)  # i - v for i = n .. v+1
    tail[1:] /= np.arange(n - 1, v - 1, -1, dtype=float)  # i - 1
    np.multiply.accumulate(tail, out=tail)
    w_max.flags.writeable = False
    return w_max, w_max[::-1]


KINDS = ("ustat", "edf")


def _powers(n, e):
    """``(k/n)**e`` for k = 0..n, one array for both ends of a sorted sample.

    ``[1:]`` is the empirical cdf i/n at X_{i:n}, i = 1..n, to the power e;
    ``[:-1]`` read top-down is its survival (n-i)/n to the same power.
    """
    return (np.arange(n + 1, dtype=float) / n) ** e


def extreme_weights(kind, n, v):
    """Order-statistic weights of one estimator kind, as a (w_hi, w_lo) pair.

    ``w_hi`` weights a sample sorted ascending and estimates E(max of v).
    ``w_lo`` is read top-down: it weights the same sample reversed,
    ``x[::-1]``, and estimates E(min of v).  Every GIM estimator is the
    ratio of their difference to their sum (see :func:`extreme_sums`).
    Both arrays are read-only.

    * ``"ustat"``: the unbiased subset weights of :func:`subset_weights`.
      Read top-down the min side is the max side, so ``w_lo is w_hi``.
    * ``"edf"``: the plug-in weights (v/n) * (i/n)^(v-1) and, top-down,
      (v/n) * ((n-i)/n)^(v-1), i = 1..n.  Both are views of the one array
      p[k] = (v/n) * (k/n)^(v-1), k = 0..n: ``w_hi = p[1:]`` and
      ``w_lo = p[:-1]``.  Powers of ratios never leave the unit interval,
      so any n and v are safe.
    """
    if kind == "ustat":
        w_max, _ = subset_weights(n, v)
        return w_max, w_max
    if kind == "edf":
        _check_order(v, n)
        p = v / n * _powers(n, v - 1)
        p.flags.writeable = False
        return p[1:], p[:-1]
    raise InvalidArgument(f"kind must be one of {KINDS}, got {kind!r}")


def extreme_sums(x, w_hi, w_lo, v):
    """Max/min moment sums over the last axis, sharing one summation layout.

    ``x`` is one sample sorted ascending, or a 2-D batch of such rows, and
    ``(w_hi, w_lo)`` come from :func:`extreme_weights`.  Each row is first
    scaled by the power of two 2**-exponent that brings its maximum into
    [0.5, 1).  That is exact, so no in-range bit moves, and the sums cannot
    overflow.  Returns ``(e_max, e_min, exponent)``: the moment estimates
    are ``e_max * 2**exponent`` and ``e_min * 2**exponent``.

    The min-of-v moment is accumulated as sum(w_lo * x[::-1]), with
    ``w_lo`` read top-down as given.  For the U-statistic ``w_lo`` is
    ``w_hi`` itself, so on a constant sample the two product vectors are
    bitwise identical and the estimated range is exactly zero.  At v = 1
    max and min are the same statistic, so the max side is returned for
    both.
    """
    exponent = np.frexp(x[..., -1:])[1]
    # One scratch array, scaled and multiplied in place: at simulation batch
    # sizes a fresh temporary per product costs more than the arithmetic.
    scratch = np.ldexp(x, -exponent)
    np.multiply(scratch, w_hi, out=scratch)
    e_max = np.sum(scratch, axis=-1)
    if v == 1:
        return e_max, e_max, exponent[..., 0]
    np.ldexp(x[..., ::-1], -exponent, out=scratch)
    np.multiply(scratch, w_lo, out=scratch)
    return e_max, np.sum(scratch, axis=-1), exponent[..., 0]


def gim_ratio(e_max, e_min):
    """GIM from extreme-moment estimates: ``(value, numerator, denominator)``.

    Works elementwise.  The numerator is floored at zero: the kernel
    max - min is pointwise non-negative, so a negative difference is
    rounding noise from a (nearly) constant sample.  With both moments
    non-negative, the value cannot leave [0, 1] even in floating point.

    Raises
    ------
    ZeroMean
        Where a denominator is zero (every income is zero).
    """
    numerator = np.maximum(e_max - e_min, 0.0)
    denominator = e_max + e_min
    if np.any(denominator == 0.0):
        raise ZeroMean("GIM undefined for an all-zero sample")
    return numerator / denominator, numerator, denominator


def _unscale(total, exponent):
    """``total * 2**exponent`` as a float: inf, without a warning, past the range."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(total, exponent))


def _ustat_sums(s, v):
    """Scaled U-statistic moment sums of order v (see :func:`extreme_sums`)."""
    return extreme_sums(s.values, *extreme_weights("ustat", s.n, v), v)


def _estimate(kind, s, v):
    """The :class:`GimEstimate` of one estimator kind on a sample."""
    s = as_sample(s)
    e_max, e_min, exponent = extreme_sums(s.values, *extreme_weights(kind, s.n, v), v)
    value, numerator, denominator = gim_ratio(e_max, e_min)
    return GimEstimate(
        value=float(value),
        numerator=_unscale(numerator, exponent),
        denominator=_unscale(denominator, exponent),
        kind=kind,
        n=s.n,
        v=int(v),
    )


def max_moment_u(s, v):
    """Unbiased estimate of E(max(X_1, ..., X_v)) from a sample.

    This is the U-statistic with kernel max over all size-v subsets,
    evaluated as a weighted sum of order statistics (see
    :func:`subset_weights`).
    """
    s = as_sample(s)
    e_max, _, exponent = _ustat_sums(s, v)
    return _unscale(e_max, exponent)


def min_moment_u(s, v):
    """Unbiased estimate of E(min(X_1, ..., X_v)) from a sample."""
    s = as_sample(s)
    _, e_min, exponent = _ustat_sums(s, v)
    return _unscale(e_min, exponent)


def gmd(s):
    """Gini mean difference E|X_1 - X_2|, estimated without bias.

    Computed as the v=2 expected range: E(max) - E(min) over pairs, which
    equals the average absolute gap over all C(n, 2) pairs.
    """
    s = as_sample(s)
    if s.n < 2:
        raise SampleTooSmall("Gini mean difference needs at least 2 observations")
    e_max, e_min, exponent = _ustat_sums(s, 2)
    # The pair range is pointwise non-negative; a negative difference can
    # only be summation rounding on a (nearly) constant sample.
    return _unscale(max(e_max - e_min, 0.0), exponent)


def gini_ustat(s):
    """Gini index estimate GMD / (2 * mean), computed as ``gim_ustat(s, 2).value``.

    Raises
    ------
    SampleTooSmall
        If the sample has fewer than 2 observations.
    ZeroMean
        If every income is zero (the index is 0/0 there).
    """
    s = as_sample(s)
    if s.n < 2:
        raise SampleTooSmall("Gini index needs at least 2 observations")
    if s.values[-1] == 0.0:
        raise ZeroMean("Gini index undefined for an all-zero sample")
    return gim_ustat(s, 2).value


def extended_gini(s, v):
    """Extended-Gini premia and price-spread quantities of order v.

    Returns a :class:`PremiaReport` built from the unbiased extreme-moment
    estimates: risk premium mean - E(min of v), gain premium
    E(max of v) - mean, starting bid E(min of v), buy-it-now price
    E(max of v), and their width E(max - min).
    """
    s = as_sample(s)
    _check_order(v, s.n)
    e_max, e_min, exponent = _ustat_sums(s, v)
    e_max, e_min = _unscale(e_max, exponent), _unscale(e_min, exponent)
    mean = s.mean()
    return PremiaReport(
        mean=mean,
        risk_premium=mean - e_min,
        gain_premium=e_max - mean,
        starting_bid=e_min,
        bin_price=e_max,
        price_spread_width=max(e_max - e_min, 0.0),
    )


def gim_ustat(s, v):
    """U-statistic estimate of GIM(v).

    The numerator averages the kernel max - min and the denominator the
    kernel max + min over all size-v subsets; both reduce to weighted sums
    of order statistics.  The value always lies in [0, 1]: the numerator is
    the difference and the denominator the sum of the same two non-negative
    moment estimates, so the ratio cannot leave the unit interval even in
    floating point.

    At v = 2 this is the Gini index estimate :func:`gini_ustat`
    (the pair kernel sum (X_i + X_j) averages to 2 * mean).

    Parameters
    ----------
    s : IncomeSample or array_like
        Income data.
    v : int
        Subset order, 1 <= v <= n.  v = 1 gives exactly 0 (max = min = X).

    Returns
    -------
    GimEstimate
    """
    return _estimate("ustat", s, v)


_ENUMERATION_GUARD = 10**6


def gim_ustat_naive(s, v):
    """Brute-force subset enumeration of the GIM(v) U-statistic.

    Identical contract to :func:`gim_ustat`, computed by literally visiting
    every size-v subset.  Exists as an independent oracle for the weighted
    implementation; do not call it for real work.

    Raises
    ------
    EnumerationTooLarge
        If C(n, v) exceeds 10^6 subsets.
    """
    s = as_sample(s)
    _check_order(v, s.n)
    n_subsets = math.comb(s.n, v)
    if n_subsets > _ENUMERATION_GUARD:
        raise EnumerationTooLarge(
            f"C({s.n}, {v}) = {n_subsets} subsets exceeds the enumeration guard"
        )
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(s.n), v)),
        dtype=np.intp,
        count=n_subsets * v,
    ).reshape(n_subsets, v)
    subset_values = s.values[idx]
    maxima = subset_values.max(axis=1)
    minima = subset_values.min(axis=1)
    numerator = float(np.mean(maxima - minima))
    denominator = float(np.mean(maxima + minima))
    if denominator == 0.0:
        raise ZeroMean("GIM undefined for an all-zero sample")
    return GimEstimate(
        value=numerator / denominator,
        numerator=numerator,
        denominator=denominator,
        kind="ustat",
        n=s.n,
        v=int(v),
    )


def edf_weights(n, v):
    """Plug-in (empirical distribution) weights for the GIM(v) L-statistics.

    Returns ``(w_num, w_den)`` with

        w_num[i] = (v/n) * ((i/n)^(v-1) - ((n-i)/n)^(v-1)),
        w_den[i] = (v/n) * ((i/n)^(v-1) + ((n-i)/n)^(v-1)),

    for i = 1..n: the difference and sum of the ``"edf"`` pair of
    :func:`extreme_weights`, with its top-down min side read bottom-up.
    """
    w_hi, w_lo = extreme_weights("edf", n, v)
    w_lo = w_lo[::-1]
    return w_hi - w_lo, w_hi + w_lo


def gim_edf(s, v):
    """Plug-in (empirical distribution function) estimate of GIM(v).

    Substituting the EDF for the population distribution in the integral
    forms of E(max of v) and E(min of v) turns both into L-statistics:
    linear combinations of order statistics with smooth polynomial weights
    (see :func:`extreme_weights`).  The ratio estimates GIM(v).

    Unlike the U-statistic estimator this one is biased in finite samples
    (for v = 2 the two are linked exactly by
    edf = ((n-1) * ustat + 1) / n, so the bias is (1 - Gini)/n > 0); the
    two agree to O(1/n) and share the same limit.

    Ties are harmless: the weights attached to a block of equal values sum
    to the same total under any intra-block ordering.

    Raises
    ------
    ZeroMean
        If every income is zero.
    """
    return _estimate("edf", s, v)
