"""Variance machinery: projection plug-in, jackknife, intervals, sigma2."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtri

from gimtools import (
    Exponential,
    GimError,
    InvalidArgument,
    InvalidLevel,
    InvalidStdError,
    Lognormal,
    OrderExceedsSample,
    Pareto,
    QuadratureNoConvergence,
    SampleTooSmall,
    SeededStream,
    VarianceEstimate,
    ZeroMean,
    confidence_interval,
    draw_sample,
    edf_numerator_variance,
    gim_edf,
    gim_ustat,
    jackknife_variance,
    leave_one_out,
    make_sample,
    projection_variance,
    report,
    theoretical_extremes,
    theoretical_gim,
    ustat_variance,
)
from gimtools import inference, quadrature
from gimtools.distributions import _MIN_UNIFORM, _on_mesh
from gimtools.inference import _edf_numerator_variance_at
from gimtools.measures import _BLOCK, extreme_weights, subset_weights


def numerator_draws(dist, n, v, reps, seed, chunk=250):
    """Monte Carlo draws of the estimated E(max - min), one per stream."""
    w_max, w_min = subset_weights(n, v)
    w_num = w_max - w_min
    out = np.empty(reps)
    for lo in range(0, reps, chunk):
        hi = min(lo + chunk, reps)
        u = np.empty((hi - lo, n))
        for j, r in enumerate(range(lo, hi)):
            u[j] = SeededStream(seed, r).generator().random(n)
        np.maximum(u, _MIN_UNIFORM, out=u)
        x = dist._q(u, 1.0 - u)
        x.sort(axis=1)
        out[lo:hi] = np.sum(w_num * x, axis=1)
    return out


# ---------------------------------------------------------------------------
# projection variance (plug-in sigma1^2)


def test_projection_variance_zero_cases():
    assert projection_variance(make_sample(np.full(50, 3.0)), 2) == 0.0
    assert projection_variance(make_sample([1.0, 5.0, 9.0]), 1) == 0.0


def test_projection_variance_matches_analytic_value():
    """exp(1), v=2: the projection g(x) = x + 2e^(-x) - 1 has variance 1/3."""
    s = draw_sample(Exponential(1.0), 100_000, SeededStream(97, 0))
    assert_allclose(projection_variance(s, 2), 1.0 / 3.0, rtol=0.03)


def test_projection_variance_scales_quadratically():
    s = draw_sample(Lognormal(0.0, 0.5), 300, SeededStream(14, 0))
    scaled = make_sample(s.values * 7.0)
    for v in (2, 3):
        assert_allclose(projection_variance(scaled, v), 49.0 * projection_variance(s, v), rtol=1e-10)


def test_projection_variance_permutation_invariant():
    rng = np.random.default_rng(5)
    xs = rng.exponential(size=80)
    a = projection_variance(make_sample(xs), 3)
    b = projection_variance(make_sample(rng.permutation(xs)), 3)
    assert a == b


@pytest.mark.parametrize("v", [2, 3])
def test_projection_variance_predicts_numerator_spread(v):
    """v^2 sigma1^2 / n tracks the true Var of the estimated E(max-min)."""
    n = 200
    draws = numerator_draws(Exponential(1.0), n, v, reps=10_000, seed=6200 + v)
    ref = projection_variance(draw_sample(Exponential(1.0), 100_000, SeededStream(97, 0)), v)
    predicted = v * v * ref / n
    assert_allclose(np.var(draws, ddof=1), predicted, rtol=0.10)


# ---------------------------------------------------------------------------
# plug-in ratio variance


def test_ustat_variance_formula_identity():
    s = draw_sample(Pareto(3.0, 1.0), 400, SeededStream(21, 0))
    for v in (2, 3):
        est = gim_ustat(s, v)
        ve = ustat_variance(s, v)
        expect = v * v * projection_variance(s, v) / (est.denominator**2 * s.n)
        assert_allclose(ve.variance, expect, rtol=1e-13)
        assert ve.method == "plugin"
        assert_allclose(ve.std_error, math.sqrt(ve.variance), rtol=1e-15)


def test_ustat_variance_overestimates_by_known_factor():
    """The ratio-variance formula carries no numerator/denominator covariance
    correction, so for exp(1), v=2 it sits near 4x the true estimator
    variance (1/(3n) against 1/(12n) asymptotically).  Pinned seeds measure
    4.7 at n=200; the band asserts the formula stays put, not that it is a
    good variance estimate."""
    plugin = [
        ustat_variance(draw_sample(Exponential(1.0), 200, SeededStream(8800 + k, 0)), 2).variance
        for k in range(10)
    ]
    est = np.empty(4000)
    for r in range(4000):
        est[r] = gim_ustat(draw_sample(Exponential(1.0), 200, SeededStream(8700, r)), 2).value
    ratio = np.mean(plugin) / np.var(est, ddof=1)
    assert 3.5 <= ratio <= 5.5


def test_ustat_variance_nonnegative_and_zero_on_constant():
    assert ustat_variance(make_sample(np.full(30, 2.0)), 2).variance == 0.0


# ---------------------------------------------------------------------------
# jackknife


def test_leave_one_out_small_case():
    """Deleting each of [1,2,3] at v=2 leaves pairs with GIM 1/5, 1/2, 1/3."""
    loo = leave_one_out(make_sample([1.0, 2.0, 3.0]), 2)
    assert_allclose(sorted(loo), sorted([1 / 5, 1 / 2, 1 / 3]), rtol=1e-14)


def test_jackknife_small_case():
    ve = jackknife_variance(make_sample([1.0, 2.0, 3.0]), 2)
    assert_allclose(ve.variance, 61.0 / 2025.0, rtol=1e-13)
    assert ve.method == "jackknife"


@pytest.mark.parametrize("kind", ["ustat", "edf"])
@pytest.mark.parametrize("v", [2, 3, 4])
def test_leave_one_out_matches_brute_force(kind, v):
    rng = np.random.default_rng(100 + v)
    estimator = gim_ustat if kind == "ustat" else gim_edf
    for n in (v + 1, 12, 37):
        xs = np.sort(rng.lognormal(0.0, 1.0, n))
        fast = leave_one_out(make_sample(xs), v, kind=kind)
        slow = np.array([estimator(np.delete(xs, k), v).value for k in range(n)])
        assert_allclose(fast, slow, rtol=1e-12)


def test_jackknife_tracks_true_estimator_variance():
    """Mean jackknife variance over reps stays within 10% of the Monte Carlo
    variance of the estimator itself (exp(1), v=2, n=200)."""
    est = np.empty(6000)
    jvar = np.empty(6000)
    for r in range(6000):
        s = draw_sample(Exponential(1.0), 200, SeededStream(5150, r))
        est[r] = gim_ustat(s, 2).value
        jvar[r] = jackknife_variance(s, 2).variance
    assert_allclose(jvar.mean(), np.var(est, ddof=1), rtol=0.10)


def test_jackknife_positive_on_spread_samples():
    ve = jackknife_variance(make_sample([1.0, 4.0, 9.0, 16.0, 25.0]), 2, kind="edf")
    assert ve.variance > 0.0


def test_jackknife_sample_size_guard():
    with pytest.raises(SampleTooSmall):
        jackknife_variance(make_sample([1.0, 2.0]), 2)
    with pytest.raises(SampleTooSmall):
        jackknife_variance(make_sample([1.0, 2.0, 3.0]), 3)


def test_jackknife_near_float_max_matches_rescaled_sample():
    """Leave-one-out sums used to overflow and collapse the variance to 0.0."""
    big = jackknife_variance(make_sample([1e308, 1.7e308, 1.5e308, 1.2e308]), 2)
    ref = jackknife_variance(make_sample([1.0, 1.7, 1.5, 1.2]), 2)
    assert ref.variance > 0.0
    assert_allclose(big.variance, ref.variance, rtol=1e-12)


def test_plugin_report_near_float_max_matches_rescaled_sample():
    """The prefix/suffix sums used to overflow to nan, so the interval raised."""
    s = make_sample([1e308, 1.7e308, 1.5e308, 1.2e308])
    rescaled = make_sample(s.scaled()[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = report(s, [2, 3], se_method="plugin")
        # the projection variance itself is ~1e615: past the float range
        assert projection_variance(s, 2) == math.inf
        variance = ustat_variance(s, 2).variance
    ref = report(rescaled, [2, 3], se_method="plugin")
    assert_allclose(big.gini, ref.gini, rtol=1e-12)
    for got, want in zip(big.entries, ref.entries):
        assert_allclose([got.value, got.ci_low, got.ci_high],
                        [want.value, want.ci_low, want.ci_high], rtol=1e-12)
    assert 0.0 < big.entries[0].ci_low < big.entries[0].ci_high < 1.0
    assert_allclose(variance, ustat_variance(rescaled, 2).variance, rtol=1e-12)


def test_plugin_variance_near_float_min_matches_rescaled_sample():
    """The squared denominator used to underflow to 0 and divide by zero."""
    tiny = ustat_variance(make_sample([1e-200, 1.7e-200, 1.5e-200, 1.2e-200]), 2)
    ref = ustat_variance(make_sample([1.0, 1.7, 1.5, 1.2]), 2)
    assert_allclose(tiny.variance, ref.variance, rtol=1e-12)


def test_population_and_variance_entry_points_validate_order():
    """One order rule: v is a positive integer (a numpy integer counts)."""
    s = draw_sample(Exponential(1.0), 30, SeededStream(8, 0))
    entry_points = [
        lambda v: theoretical_extremes(Exponential(1.0), v),
        lambda v: theoretical_gim(Exponential(1.0), v),
        lambda v: edf_numerator_variance(Exponential(1.0), v),
        lambda v: projection_variance(s, v),
        lambda v: ustat_variance(s, v),
        lambda v: jackknife_variance(s, v),
    ]
    for entry in entry_points:
        for bad in (2.5, True, 0):
            with pytest.raises(OrderExceedsSample):
                entry(bad)
            with pytest.raises(ValueError):  # callers catching ValueError keep working
                entry(bad)
        assert entry(np.int64(3)) == entry(3)


def test_jackknife_rejects_unknown_kind():
    with pytest.raises(ValueError):
        jackknife_variance(make_sample([1.0, 2.0, 3.0]), 2, kind="bootstrap")


def test_jackknife_unknown_kind_is_a_gim_error():
    with pytest.raises(GimError, match="kind must be one of"):
        jackknife_variance(make_sample([1.0, 2.0, 3.0]), 2, kind="bootstrap")


@pytest.mark.parametrize("kind", ["ustat", "edf"])
def test_leave_one_out_zero_mean_names_its_cause(kind):
    with pytest.raises(ZeroMean, match="^GIM undefined for an all-zero sample$"):
        leave_one_out(make_sample([0.0, 0.0, 0.0]), 2, kind)
    with pytest.raises(ZeroMean, match="^GIM undefined for a leave-one-out sample: deleting "
                       "the only nonzero income leaves an all-zero sample$"):
        leave_one_out(make_sample([0.0, 0.0, 0.0, 5.0]), 2, kind)
    # a second nonzero income keeps every leave-one-out sample defined
    assert leave_one_out(make_sample([0.0, 0.0, 3.0, 5.0]), 2, kind).shape == (4,)


@pytest.mark.parametrize("kind", ["ustat", "edf"])
@pytest.mark.parametrize("n", [7, 37, 1001])
@pytest.mark.parametrize("c", [0.1, 1 / 3, 3.7, 123456.789])
def test_jackknife_exact_on_a_constant_sample(c, n, kind):
    estimator = gim_ustat if kind == "ustat" else gim_edf
    for v in (2, 3, 5):
        expect = estimator(np.full(n - 1, c), v).value
        assert leave_one_out(np.full(n, c), v, kind).tobytes() == np.full(n, expect).tobytes()
        assert jackknife_variance(np.full(n, c), v, kind).variance == 0.0
        if kind == "ustat":
            assert expect == 0.0


@pytest.mark.parametrize("kind", ["ustat", "edf"])
def test_leave_one_out_sums_the_top_deletion_at_its_own_scale(kind):
    # at the scale of 1e300 the incomes left by deleting it underflow to 0
    estimator = gim_ustat if kind == "ustat" else gim_edf
    for xs, v in (([0.0, 0.0, 1e-300, 1e300], 2), ([1e-300, 2e-300, 1e300], 1),
                  ([1e-300, 2e-300, 1e300], 2)):
        theta = leave_one_out(make_sample(xs), v, kind)
        assert theta[-1] == estimator(xs[:-1], v).value
    # every deletion leaves one income that dwarfs the rest: each estimate rounds to 1
    assert jackknife_variance(make_sample([0.0, 0.0, 1e-300, 1e300]), 2, kind).variance == 0.0


@pytest.mark.parametrize("kind", ["ustat", "edf"])
@pytest.mark.parametrize("n", [7, 37, 1002])
def test_leave_one_out_exact_when_one_deletion_leaves_a_constant_sample(n, kind):
    # deleting the one value that differs at either end leaves a constant
    # sample; its estimate must be the estimator's, bit for bit (0 for ustat)
    estimator = gim_ustat if kind == "ustat" else gim_edf
    for c, odd, k in ((3.7, 0.037, 0), (1 / 3, 5 / 3, -1), (0.1, 0.0, 0), (123456.789, 1e300, -1)):
        xs = np.r_[np.full(n - 1, c), odd]
        for v in (2, 3, 5):
            expect = estimator(np.full(n - 1, c), v).value
            theta = leave_one_out(xs, v, kind)
            assert theta[k] == expect
            assert kind == "edf" or expect == 0.0


def _jackknife_unblocked(xs, v, kind):
    """``(estimates, deviations)`` with one sequential ``np.cumsum`` per running sum.

    Test reference for the block sweeps of :func:`leave_one_out`, which must
    add the same terms in the same order and so match it bit for bit: the
    deviation form on the size-n weight pair times c, written out whole.
    """
    s = make_sample(xs)
    n, m = s.n, s.n - 1
    estimator = gim_ustat if kind == "ustat" else gim_edf
    w_hi, w_lo = extreme_weights(kind, m, v)
    top = v / (n - v) if kind == "ustat" else v / m * (n / m) ** (v - 1)
    a = np.r_[0.0, w_hi, top]  # a[k]: the max side's weight k - 1, k = 0..n
    b = np.r_[top if kind == "ustat" else v / m, w_lo[::-1], 0.0]  # b[k]: min side's weight k
    x, _ = s.scaled()
    i = np.arange(n, dtype=float)

    def steps(t):
        t = np.maximum(t, 1.0)
        if kind == "ustat":
            return (v - 1) / t
        with np.errstate(divide="ignore"):
            return -np.expm1(np.log1p(-1.0 / t) * (v - 1))

    own = b[:-1] * x
    low = b[1:] * x + np.cumsum(steps(m - i) * own)
    lo, hi = np.cumsum(own)[-1], np.cumsum(a[1:] * x)[-1]
    high = a[:-1] * x + np.cumsum((steps(i + (kind == "edf")) * a[1:] * x)[::-1])[::-1]
    d = hi + lo
    theta = max(hi - lo, 0.0) / d
    rest = d - high - low
    far = np.flatnonzero(rest < d / 2)
    rest[far] = d
    dev = (low * hi - high * lo) / (rest * (d / 2))
    estimates = np.clip(theta + dev, 0.0, 1.0)
    ends = [k for k, left in ((0, s.values[1:]), (m, s.values[:m])) if left[0] == left[-1]]
    for k in set(far) | set(ends):
        estimates[k] = estimator(np.delete(s.values, k), v).value
        dev[k] = estimates[k] - theta
    return estimates, dev


@pytest.mark.parametrize("kind", ["ustat", "edf"])
@pytest.mark.parametrize(
    "n", [3, 50, 2000, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1, 2 * _BLOCK + 3]
)
def test_leave_one_out_bit_identical_across_block_edges(n, kind):
    # the sweeps run over the n positions in blocks counted from the top:
    # n = _BLOCK + 1 is the first size with two blocks, the bottom one a
    # single position long, and n = 2 * _BLOCK + 3 has three, the middle
    # one's sums carried in from below and from above
    estimator = gim_ustat if kind == "ustat" else gim_edf
    rng = np.random.default_rng(n)
    spread = rng.lognormal(0.0, 1.0, n)
    lower = rng.lognormal(0.0, 1.0, n)
    lower[-1] = 4.0 * lower.max()  # the second largest value lies a binade or more lower
    heavy = rng.pareto(1.2, n) + 1.0
    # at the maximum's scale the rest underflows to zero: deleting the
    # maximum is taken directly, at the scale of the rest
    tiny = rng.lognormal(0.0, 1.0, n) * 1e-300
    tiny[-1] = 1e300
    for xs in (spread, lower, heavy, tiny):
        s = make_sample(xs)
        for v in (v for v in (2, 3, 5) if v < n):
            theta = leave_one_out(s, v, kind)
            expect, dev = _jackknife_unblocked(xs, v, kind)
            assert np.array_equal(theta, expect)
            assert theta[-1] == pytest.approx(estimator(s.values[:-1], v).value, rel=1e-12)
            dev -= np.mean(dev)
            variance = (n - 1) / n * float(np.sum(np.square(dev)))
            assert jackknife_variance(s, v, kind).variance == variance


def _jackknife_exact(xs, v, kind):
    """The delete-1 jackknife variance, in exact rational arithmetic."""
    xs = sorted(Fraction(x) for x in xs)
    n, m = len(xs), len(xs) - 1
    if kind == "ustat":
        hi = [Fraction(math.comb(j, v - 1), math.comb(m, v)) for j in range(m)]
        lo = hi[::-1]
    else:
        hi = [Fraction(v, m) * Fraction(j + 1, m) ** (v - 1) for j in range(m)]
        lo = [Fraction(v, m) * Fraction(m - 1 - j, m) ** (v - 1) for j in range(m)]
    thetas = []
    for k in range(n):
        rest = xs[:k] + xs[k + 1:]
        e_max = sum(w * x for w, x in zip(hi, rest))
        e_min = sum(w * x for w, x in zip(lo, rest))
        if e_max + e_min == 0:
            raise ZeroMean("all-zero after a deletion")
        thetas.append(max(e_max - e_min, 0) / (e_max + e_min))
    mean = sum(thetas) / n
    return Fraction(n - 1, n) * sum((t - mean) ** 2 for t in thetas)


@pytest.mark.parametrize("kind", ["ustat", "edf"])
def test_jackknife_variance_matches_exact_rational_arithmetic(kind):
    # spread rows within 2e-15; on rows built around one value, or mostly
    # zeros, the estimate's own H - L and the deviations' H B_k - L A_k
    # cancel, and the variance keeps about 14 digits (up to 7.2e-15 here)
    rng = np.random.default_rng(27)
    samples = {
        "pareto": (rng.pareto(1.5, 40) + 1.0, 2e-15),
        "lognormal": (rng.lognormal(0.0, 1.0, 40), 2e-15),
        "exponential": (rng.exponential(1.0, 40), 2e-15),
        "dominant top": (np.r_[np.arange(1.0, 12.0), 1e20], 2e-15),
        "constant": (np.full(12, 3.7), 0.0),
        "one lower": (np.r_[0.037, np.full(11, 3.7)], 1e-14),
        "one higher": (np.r_[np.full(11, 1 / 3), 5 / 3], 1e-14),
        "zeros": (np.r_[0.0, 0.0, 0.0, 3.0, 5.0, 8.0], 1e-14),
    }
    for name, (xs, bound) in samples.items():
        for v in (1, 2, 3, 5):
            exact = _jackknife_exact(xs, v, kind)
            got = jackknife_variance(make_sample(xs), v, kind).variance
            if exact == 0 or v == 1:
                assert exact == 0 and got == 0.0, (name, v)
            else:
                assert abs(Fraction(got) - exact) <= Fraction(bound) * exact, (name, v)
    # deleting the one nonzero income leaves an all-zero sample: no jackknife
    with pytest.raises(ZeroMean):
        _jackknife_exact([0.0, 0.0, 0.0, 5.0], 2, kind)
    with pytest.raises(ZeroMean):
        jackknife_variance(make_sample([0.0, 0.0, 0.0, 5.0]), 2, kind)


def _deviations_longdouble(s, v, kind):
    """theta_{-k} - theta from the deviation form, summed in ``np.longdouble``.

    Weights and weight differences come from exact integers, A_k and B_k in
    the exclusive form (the code sums the inclusive one).
    """
    ld = np.longdouble
    n, m = s.n, s.n - 1
    i = np.arange(n, dtype=np.int64)
    if kind == "ustat":
        scale = ld(math.comb(m, v))
        comb = np.vectorize(math.comb, otypes=[np.int64])
        a = comb(i, v - 1).astype(ld) / scale
        da = comb(np.maximum(i - 1, 0), v - 2).astype(ld) / scale
        b, db = a[::-1], da[::-1]
    else:
        scale = ld(m) ** v / v
        a = ((i + 1) ** (v - 1)).astype(ld) / scale
        da = ((i + 1) ** (v - 1) - i ** (v - 1)).astype(ld) / scale
        b = ((m - i) ** (v - 1)).astype(ld) / scale
        db = ((m - i) ** (v - 1) - np.maximum(m - i - 1, 0) ** (v - 1)).astype(ld) / scale
    x = s.scaled()[0].astype(ld)
    hi, lo = np.sum(a * x), np.sum(b * x)
    d = hi + lo
    high = a * x + np.r_[np.cumsum((da * x)[:0:-1])[::-1], ld(0)]
    low = b * x + np.r_[ld(0), np.cumsum(db * x)[:-1]]
    return (2 * (hi * low - lo * high) / (d * (d - high - low))).astype(float)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is double precision here")
@pytest.mark.parametrize("kind", ["ustat", "edf"])
def test_jackknife_deviations_match_an_extended_precision_reference(kind):
    # every delete-1 deviation within 1e-13 of the largest one: a ratio of
    # running sums minus the O(1) estimate misses by about 1e-12 here
    for v in (2, 3, 4, 5):
        s = make_sample(np.random.default_rng(100 + v).lognormal(0.0, 1.0, 10**4))
        _, dev, direct = inference._deviations(s, v, kind)
        ref = _deviations_longdouble(s, v, kind)
        assert not direct
        assert np.max(np.abs(dev - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["ustat", "edf"])
def test_leave_one_out_memory_does_not_depend_on_the_top_binade(kind):
    # summing the top deletion again at its own scale runs in the block
    # buffer: no length-n temporaries, so the peak is the same either way
    import tracemalloc

    n = 4 * _BLOCK
    same = np.random.default_rng(3).uniform(1.0, 1.5, n)
    lower = same.copy()
    lower[-1] = 4.0  # the second largest value lies two binades lower
    peaks = []
    for xs in (same, lower):
        s = make_sample(xs)
        tracemalloc.start()
        try:
            leave_one_out(s, 3, kind)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 8 * _BLOCK


@pytest.mark.parametrize("kind", ["ustat", "edf"])
@pytest.mark.parametrize("call", [leave_one_out, jackknife_variance])
def test_jackknife_holds_one_length_n_array_beside_the_weights(kind, call):
    # the weights and the returned array are the only length-n allocations;
    # the rest is block buffers and a few hundred bytes of bookkeeping
    import tracemalloc

    n = 4 * _BLOCK
    s = make_sample(np.random.default_rng(5).lognormal(0.0, 1.0, n))
    tracemalloc.start()
    try:
        call(s, 3, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (2 * n + 4 * _BLOCK) + 4096


def test_plugin_and_jackknife_se_within_factor_two_on_pinned_samples():
    """Loose sanity check: the asymptotic SE ratio is exactly 2 (sqrt of
    1/3 over 1/12), so individual samples land on either side of 2.  These
    pinned draws sit below; a wider band covers the rest."""
    for seed in (0, 1, 2):
        s = draw_sample(Exponential(1.0), 500, SeededStream(seed, 0))
        ratio = ustat_variance(s, 2).std_error / jackknife_variance(s, 2).std_error
        assert 0.5 < ratio < 2.0
    for seed in range(20):
        s = draw_sample(Exponential(1.0), 500, SeededStream(seed, 0))
        ratio = ustat_variance(s, 2).std_error / jackknife_variance(s, 2).std_error
        assert 1.5 < ratio < 2.5


# ---------------------------------------------------------------------------
# confidence intervals


def test_confidence_interval_textbook_case():
    ve = jackknife_variance(draw_sample(Exponential(1.0), 50, SeededStream(1, 0)), 2)
    out = confidence_interval(0.5, ve, level=0.95)
    z = 1.959963985
    assert_allclose(out.ci_low, 0.5 - z * ve.std_error, atol=1e-6)
    assert_allclose(out.ci_high, 0.5 + z * ve.std_error, atol=1e-6)
    assert out.level == 0.95
    assert out.variance == ve.variance


def test_confidence_interval_clamps_to_unit_interval():
    big = jackknife_variance(make_sample([0.1, 0.1, 0.1, 100.0]), 2)
    out = confidence_interval(0.9, big, level=0.999)
    assert big.std_error > 0.1  # wide enough that both ends would escape
    assert out.ci_low >= 0.0
    assert out.ci_high <= 1.0
    assert out.ci_high == 1.0


def test_confidence_interval_level_validation():
    ve = jackknife_variance(make_sample([1.0, 2.0, 3.0]), 2)
    for bad in (0.0, 1.0, -0.5, 1.7):
        with pytest.raises(InvalidLevel):
            confidence_interval(0.5, ve, level=bad)


@pytest.mark.parametrize("point", [float("nan"), 1.5, -0.1])
def test_confidence_interval_rejects_a_point_outside_the_unit_interval(point):
    ve = VarianceEstimate(variance=0.01, method="jackknife", std_error=0.1)
    with pytest.raises(InvalidArgument, match="point estimate must lie in"):
        confidence_interval(point, ve)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_confidence_interval_rejects_bad_std_error(bad):
    ve = VarianceEstimate(variance=0.01, method="jackknife", std_error=bad)
    with pytest.raises(InvalidStdError, match="std_error"):
        confidence_interval(0.5, ve)


def test_confidence_interval_widens_with_level():
    ve = jackknife_variance(draw_sample(Exponential(1.0), 80, SeededStream(2, 0)), 2)
    w90 = confidence_interval(0.5, ve, 0.90)
    w99 = confidence_interval(0.5, ve, 0.99)
    assert (w99.ci_high - w99.ci_low) > (w90.ci_high - w90.ci_low)


def test_confidence_interval_z_matches_ndtri():
    # point 0 and a power-of-two std_error make ci_high / std_error exactly z
    ve = VarianceEstimate(variance=2.0**-6, method="jackknife", std_error=2.0**-3)
    levels = np.linspace(0.001, 0.999, 999)
    z = np.array([confidence_interval(0.0, ve, float(level)).ci_high * 8.0 for level in levels])
    # the lower tail (1 - level)/2 is exact for level >= 1/2, where the upper
    # one, (1 + level)/2, is rounded before the quantile sees it
    assert_allclose(z, -ndtri((1.0 - levels) / 2.0), rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("level", [1.0 - 2.0**-52, 1.0 - 2.0**-53])
def test_confidence_interval_at_levels_next_to_one(level):
    ve = VarianceEstimate(variance=2.0**-8, method="jackknife", std_error=2.0**-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = confidence_interval(0.0, ve, level)
    assert out.ci_low == 0.0
    assert_allclose(out.ci_high * 16.0, -ndtri((1.0 - level) / 2.0), rtol=2e-15)


def test_report_computes_interval_z_once_per_level(monkeypatch):
    ndtri_lower, calls = inference._ndtri_lower, []

    def counting(p):
        calls.append(p)
        return ndtri_lower(p)

    inference._two_sided_z.cache_clear()
    monkeypatch.setattr(inference, "_ndtri_lower", counting)
    s = draw_sample(Exponential(1.0), 40, SeededStream(5, 0))
    row = report(s, [2, 3, 4, 5, 6], ci_level=0.8125)
    assert len(row.entries) == 5
    assert calls == [(1.0 - 0.8125) / 2.0]


# ---------------------------------------------------------------------------
# asymptotic numerator variance (quadrature)


def test_sigma2_exponential_v2_exact():
    assert_allclose(edf_numerator_variance(Exponential(1.0), 2), 4.0 / 3.0, rtol=1e-6)


def test_sigma2_exponential_v3_exact():
    # the weight function of v=3 is that of v=2 scaled by 9/4, so the value
    # is (9/4) * (4/3) = 3 exactly
    assert_allclose(edf_numerator_variance(Exponential(1.0), 3), 3.0, rtol=1e-6)


def test_sigma2_pareto_exact():
    assert_allclose(edf_numerator_variance(Pareto(3.0, 1.0), 2), 363.0 / 175.0, rtol=1e-6)


def _pareto_sigma2_exact(shape, v):
    """The numerator variance of Pareto(shape, 1) at order v, in exact rationals.

    With c = 1 - u, Q'(u) = c^(-1-r)/shape for r = 1/shape, so Phi(u),
    u Phi(u) and (1 - u) Phi(u) expand (binomially in u = 1 - c) into
    finite sums of powers of c.  The inner integral from c(w) to 1 and then
    the outer one from 0 to 1 are sums of 1/(exponent + 1) terms, each
    finite for shape > 2.
    """
    r = 1 / Fraction(shape)
    phi = {}  # exponent of c -> coefficient
    for i in range(v):
        phi[i - 1 - r] = phi.get(i - 1 - r, 0) + r * math.comb(v - 1, i) * (-1) ** i
    phi[v - 2 - r] = phi.get(v - 2 - r, 0) - r
    inner = {}  # u Phi = (1 - c) Phi
    for e, a in phi.items():
        inner[e] = inner.get(e, 0) + a
        inner[e + 1] = inner.get(e + 1, 0) - a
    total = Fraction(0)
    for e_outer, b in phi.items():  # (1 - w) Phi(w) = c Phi: exponent e_outer + 1
        for e, a in inner.items():
            # int_0^1 c^(e_outer+1) * a (1 - c^(e+1)) / (e+1) dc
            total += b * a / (e + 1) * (1 / (e_outer + 2) - 1 / (e_outer + e + 3))
    return 2 * v * v * total


# exact numerator variances: Pareto from _pareto_sigma2_exact; Exponential(1)
# at v = 4 from v^2 Var(g(X)) with g(x) = int_0^x J(F(t)) dt, whose moments
# under Exp(1) are sums of the rationals int x^k e^(-mx) dx = k!/m^(k+1)
# (4/3 and 3 at v = 2 and 3 the same way); 32/7 also matches a 30-digit
# quadrature of that form
SIGMA2_ANCHORS = [
    (Pareto(3.0, 1.0), 2, Fraction(363, 175)),
    (Pareto(3.0, 1.0), 3, Fraction(3267, 700)),
    (Pareto(3.0, 1.0), 4, Fraction(23331351, 2988700)),
    (Pareto(2.5, 1.0), 2, Fraction(235, 33)),
    (Pareto(2.5, 1.0), 3, Fraction(705, 44)),
    (Pareto(2.5, 1.0), 4, Fraction(896072290, 32675643)),
    (Exponential(1.0), 4, Fraction(32, 7)),
]


@pytest.mark.parametrize("dist, v, exact", SIGMA2_ANCHORS, ids=repr)
def test_sigma2_exact_anchors(dist, v, exact):
    if isinstance(dist, Pareto):
        assert _pareto_sigma2_exact(dist.shape, v) == exact
    got = edf_numerator_variance(dist, v)
    assert abs(Fraction(got) - exact) <= 1e-9 * exact


def test_sigma2_lognormal_regression():
    # no closed form; value frozen from two independent refinement ladders
    assert_allclose(edf_numerator_variance(Lognormal(0.0, 1.0), 2), 11.067264343667, rtol=1e-6)


def test_sigma2_scales_quadratically():
    # the unit-scale member's value times the scale squared: exact for a
    # power-of-two scale
    base = edf_numerator_variance(Exponential(1.0), 2)
    assert edf_numerator_variance(Exponential(4.0), 2) == base / 16.0
    p = edf_numerator_variance(Pareto(3.0, 1.0), 2)
    assert edf_numerator_variance(Pareto(3.0, 2.0), 2) == 4.0 * p
    assert_allclose(edf_numerator_variance(Pareto(3.0, 5.0), 2), 25.0 * p, rtol=1e-15)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_sigma2_keeps_its_digits_at_extreme_scales(scale):
    # the integral runs at unit scale; only the final product sees the scale
    assert_allclose(edf_numerator_variance(Pareto(3.0, scale), 2), 363.0 / 175.0 * scale**2, rtol=1e-12)
    assert_allclose(edf_numerator_variance(Exponential(1.0 / scale), 2), 4.0 / 3.0 * scale**2, rtol=1e-12)


def test_sigma2_near_and_past_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # subnormal results: within a few units of the subnormal spacing
        assert abs(edf_numerator_variance(Pareto(3.0, 1e-160), 2) - 363.0 / 175.0 * 1e-320) < 1e-322
        assert abs(edf_numerator_variance(Exponential(1e160), 2) - 4.0 / 3.0 * 1e-320) < 1e-322
        # 363/175 * 1e308 is past the float maximum
        assert edf_numerator_variance(Pareto(3.0, 1e154), 2) == math.inf
        assert edf_numerator_variance(Lognormal(800.0, 1.0), 2) == math.inf
        assert edf_numerator_variance(Lognormal(-800.0, 1.0), 2) == 0.0


def test_sigma2_keeps_its_digits_at_tiny_quantile_densities():
    """Lognormal Q' is sdlog times an O(1) factor, Pareto's 1/shape times one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sdlog in (1e-100, 1e-150, 1e-154):
            got = edf_numerator_variance(Lognormal(0.0, sdlog), 2)
            assert_allclose(got, 0.651006317841586 * sdlog * sdlog, rtol=1e-12)
        # subnormal results to the subnormal spacing
        assert abs(edf_numerator_variance(Lognormal(0.0, 1e-160), 2) - 6.51006317841586e-321) <= math.ulp(0.0)
        assert abs(edf_numerator_variance(Lognormal(0.0, 1e-161), 2) - 6.51006317841586e-323) <= math.ulp(0.0)
        assert abs(edf_numerator_variance(Pareto(1e160, 1.0), 2) - 4.0 / 3.0 * 1e-320) < 1e-322
        # a scaled member rounds once, at the end
        want = 0.651006317841586 * math.exp(10.0) * 1e-160 * 1e-160
        assert abs(edf_numerator_variance(Lognormal(5.0, 1e-160), 2) - want) <= 2 * math.ulp(0.0)
        assert_allclose(edf_numerator_variance(Pareto(1e100, 1e200), 2), 4.0 / 3.0 * 1e200, rtol=1e-12)
        # a large scale on a lifted member: no step overflows before the value does
        want = 0.651006317841586 * (1e-100 * math.exp(500.0)) ** 2
        assert_allclose(edf_numerator_variance(Lognormal(500.0, 1e-100), 2), want, rtol=1e-12)
        assert_allclose(edf_numerator_variance(Pareto(1e150, 1e300), 2), 4.0 / 3.0 * 1e300, rtol=1e-12)
        # below the smallest subnormal: 0.0, not QuadratureNoConvergence
        for sdlog in (1e-162, 1e-170, 1e-300, 5e-324):
            assert edf_numerator_variance(Lognormal(0.0, sdlog), 3) == 0.0
        assert edf_numerator_variance(Pareto(1e170, 1.0), 2) == 0.0


def test_sigma2_keeps_its_digits_where_only_exp_meanlog_overflows():
    """exp(meanlog) is past the float range from meanlog 709.78 on; a tiny sdlog keeps the value finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for meanlog, size in ((750.0, 1.80015e51), (1000.0, 2.52667e268)):
            got = edf_numerator_variance(Lognormal(meanlog, 1e-300), 2)
            want = 0.651006317841586 * math.exp(2.0 * (math.log(1e-300) + meanlog))
            assert_allclose(got, want, rtol=1e-12)
            assert_allclose(got, size, rtol=1e-5)
        for meanlog in (1400.0, 1e308):
            assert edf_numerator_variance(Lognormal(meanlog, 1e-300), 2) == math.inf


def test_sigma2_scaled_members_share_the_unit_members_values():
    _on_mesh.cache_clear()
    edf_numerator_variance(Lognormal(0.0, 1.0), 2)
    misses = _on_mesh.cache_info().misses
    assert_allclose(
        edf_numerator_variance(Lognormal(2.0, 1.0), 2),
        math.exp(4.0) * edf_numerator_variance(Lognormal(0.0, 1.0), 2),
        rtol=1e-14,
    )
    assert _on_mesh.cache_info().misses == misses


def test_sigma2_v1_is_zero():
    assert edf_numerator_variance(Exponential(1.0), 1) == 0.0


def test_sigma2_heavy_tail_raises_without_numpy_warnings():
    """Pareto(2.2) overflows the integrand deep in the ladder; that must be a
    typed failure naming the depth, not thousands of RuntimeWarnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureNoConvergence, match="non-finite value at grading depth 768"):
            edf_numerator_variance(Pareto(2.2, 1.0), 2)


# theory-profile's population variance tasks
SIGMA2_DISTS = [Exponential(1.0), Pareto(3.0, 1.0), Pareto(2.5, 1.0), Lognormal(0.0, 0.5), Lognormal(0.0, 1.0)]
# and its GIM(v) tasks, at v = 2..12
THEORY_GIM_DISTS = [Lognormal(0.0, 0.5), Lognormal(0.0, 1.0), Lognormal(0.0, 1.5),
                    Pareto(3.0, 1.0), Pareto(1.8, 1.0), Exponential(1.0)]


@pytest.mark.parametrize("seed", [1, 2])
def test_population_values_miss_once_per_member_function_and_depth(seed):
    tasks = [(theoretical_gim, dist, v) for dist in THEORY_GIM_DISTS for v in range(2, 13)]
    tasks += [(edf_numerator_variance, dist, v) for dist in SIGMA2_DISTS for v in (2, 3, 4)]
    random.Random(seed).shuffle(tasks)
    _on_mesh.cache_clear()
    shared = [value(dist, v) for value, dist, v in tasks]
    info = _on_mesh.cache_info()
    assert (info.misses, info.hits) == (37, 172)
    alone = []
    for value, dist, v in tasks:
        _on_mesh.cache_clear()
        alone.append(value(dist, v))
    assert shared == alone


@pytest.mark.parametrize("dist", SIGMA2_DISTS, ids=repr)
@pytest.mark.parametrize("v", [2, 4])
def test_sigma2_lift_scales_a_rung_exactly(dist, v):
    """Phi lifted by 2**lift gives the rung times 4**lift, bit for bit."""
    for levels in (6, 24, 96):
        plain = _edf_numerator_variance_at(dist, v, levels, 0)
        for lift in (1, 40, 300):
            assert _edf_numerator_variance_at(dist, v, levels, lift) == math.ldexp(plain, 2 * lift)


@pytest.mark.parametrize("dist", SIGMA2_DISTS + [Lognormal(0.0, 0.3), Lognormal(5.0, 1e-100), Lognormal(0.0, 1e-150),
                                  Pareto(1e100, 1.0), Pareto(7.0, 1e-150), Exponential(1e150)], ids=repr)
def test_sigma2_lift_keeps_the_bits_of_members_in_range(dist, v=3):
    """Where the unlifted ladder stays out of the subnormals, lifting changes no bit."""
    unit = dist._unit_member()
    plain = quadrature.converge(lambda levels: _edf_numerator_variance_at(unit, v, levels, 0), rtol=1e-6)
    assert edf_numerator_variance(dist, v) == dist._times_scale(dist._times_scale(plain))


def _edf_numerator_variance_loop(dist, v, levels):
    """The numerator covariance integral by a nested per-panel, per-node rule.

    Accuracy oracle for :func:`_edf_numerator_variance_at`: each inner
    integral, from the panel's left edge to node k, is a Gauss-Legendre rule
    of its own on fresh nodes (placed with the node-anchoring rule of
    :func:`~gimtools.quadrature.mesh`) instead of the integration matrix on
    the panel's nodes.  Panel p's outer nodes are row p of the mesh.
    """
    xi, wi = quadrature.unit_rule()
    m = quadrature.mesh(levels)
    off_diagonal = 0.0
    diagonal = 0.0
    prefix = 0.0

    def phi(u, cu):
        return (u ** (v - 1) - cu ** (v - 1)) * dist._qd(u, cu)

    for p, (a, ca, h, anchored_right) in enumerate(quadrature.graded_panels(levels)):
        u, cu, w = m.u[p], m.cu[p], m.w[p]
        f = phi(u, cu)
        panel_a = float(np.sum(w * u * f))
        off_diagonal += 2.0 * float(np.sum(w * cu * f)) * prefix
        inner = np.empty(xi.size)
        for k in range(xi.size):
            hk = h * xi[k]
            if anchored_right:
                uu = u[k] - hk * (1.0 - xi)
                cuu = cu[k] + hk * (1.0 - xi)
            else:
                uu = a + hk * xi
                cuu = ca - hk * xi
            inner[k] = hk * float(np.sum(wi * uu * phi(uu, cuu)))
        diagonal += 2.0 * float(np.sum(w * cu * f * inner))
        prefix += panel_a
    return v * v * (off_diagonal + diagonal)


def _edf_numerator_variance_matrix_loop(dist, v, levels):
    """Per-panel evaluation of the integration-matrix rule.

    Test oracle for :func:`_edf_numerator_variance_at`, which evaluates the
    same nodes on whole arrays, applies the integration matrix to each
    panel's row alone and adds the same per-panel sums in the same order,
    and so must match it bit for bit.
    """
    s = quadrature.integration_matrix()
    m = quadrature.mesh(levels)
    off_diagonal = 0.0
    diagonal = 0.0
    prefix = 0.0
    for u, cu, w, h in zip(*m):
        f = (u ** (v - 1) - cu ** (v - 1)) * dist._qd(u, cu)
        off_diagonal += 2.0 * float(np.sum(w * cu * f)) * prefix
        inner = h * (s @ (u * f))
        diagonal += 2.0 * float(np.sum(w * cu * f * inner))
        prefix += float(np.sum(w * u * f))
    return v * v * (off_diagonal + diagonal)


@pytest.mark.parametrize("dist", SIGMA2_DISTS, ids=repr)
@pytest.mark.parametrize("v", [2, 3, 4])
def test_sigma2_rung_bit_identical_to_panel_loop(dist, v):
    """Every rung up to depth 384 (768 panels)."""
    # converge evaluates every rung with these numpy warnings silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for levels in [6 * 2**k for k in range(7)]:
            got = _edf_numerator_variance_at(dist, v, levels, 0)
            assert got == _edf_numerator_variance_matrix_loop(dist, v, levels)


@pytest.mark.parametrize("dist", SIGMA2_DISTS, ids=repr)
@pytest.mark.parametrize("v", [2, 3, 4])
def test_sigma2_matches_nested_rule(dist, v):
    """The converged value agrees with the nested rule's own ladder."""
    nested = quadrature.converge(lambda levels: _edf_numerator_variance_loop(dist, v, levels), rtol=1e-6)
    assert_allclose(edf_numerator_variance(dist, v), nested, rtol=1e-9, atol=0.0)


def test_sigma2_matches_monte_carlo():
    """Var(sqrt(n) * numerator-hat) against the quadrature value, 5% band."""
    draws = numerator_draws(Exponential(1.0), 10_000, 2, reps=10_000, seed=4242)
    mc = 10_000 * np.var(draws, ddof=1)
    assert_allclose(mc, edf_numerator_variance(Exponential(1.0), 2), rtol=0.05)
