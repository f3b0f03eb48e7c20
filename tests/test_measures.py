"""Core estimator tests: weights, extreme moments, GMD/Gini, GIM."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gimtools import (
    EmptySample,
    EnumerationTooLarge,
    NegativeIncome,
    NonFinite,
    OrderExceedsSample,
    SampleTooSmall,
    ZeroMean,
    gim_edf,
    gim_ustat,
    gim_ustat_naive,
    gini_ustat,
    gmd,
    make_sample,
    max_moment_u,
    min_moment_u,
    report,
    subset_weights,
)
from gimtools.measures import _BLOCK, KINDS, edf_weights, extreme_sums, extreme_weights
from gimtools.simulation import DEFAULT_ORDERS, DEFAULT_SIZES

# ---------------------------------------------------------------------------
# strategies


def incomes(min_size=2, max_size=40):
    """Non-negative income vectors with a strictly positive mean.

    Exact zeros are allowed (they are legal incomes); positive entries stay
    above 1e-9 so weighted products cannot round all the way to zero.
    """
    element = st.one_of(
        st.just(0.0), st.floats(min_value=1e-9, max_value=1e6, allow_nan=False)
    )
    return st.lists(element, min_size=min_size, max_size=max_size).filter(
        lambda xs: sum(xs) > 0.0
    )


# ---------------------------------------------------------------------------
# sample container


def test_make_sample_sorts_and_freezes():
    s = make_sample([3.0, 1.0, 2.0])
    assert list(s.values) == [1.0, 2.0, 3.0]
    assert s.n == len(s) == 3
    assert s.mean() == 2.0
    with pytest.raises(ValueError):
        s.values[0] = 99.0


def test_make_sample_rejects_bad_input():
    with pytest.raises(EmptySample):
        make_sample([])
    with pytest.raises(NegativeIncome):
        make_sample([1.0, -0.5])
    with pytest.raises(NonFinite):
        make_sample([1.0, np.nan])
    with pytest.raises(NonFinite):
        make_sample([1.0, np.inf])


# ---------------------------------------------------------------------------
# subset weights


# valid incomes with the ties a sort may reorder: 0.0 beside -0.0, repeats,
# subnormals and the float maximum
INCOMES = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.5, 1e308, 1.7976931348623157e308]),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=300, deadline=None)
@given(INCOMES)
def test_make_sample_is_bitwise_the_stable_sort(xs):
    raw = np.array(xs)
    assert make_sample(raw).values.tobytes() == np.sort(raw, kind="stable").tobytes()


def test_make_sample_keeps_signed_zeros_in_input_order():
    raw = np.random.default_rng(5).choice([0.0, -0.0, 1.0, 1e-310, 2.0], 20_000)
    assert make_sample(raw).values.tobytes() == np.sort(raw, kind="stable").tobytes()


def test_subset_weights_small_case():
    w_max, w_min = subset_weights(3, 2)
    assert_allclose(w_max, [0.0, 1 / 3, 2 / 3], rtol=0, atol=0)
    assert_allclose(w_min, [2 / 3, 1 / 3, 0.0], rtol=0, atol=0)


@pytest.mark.parametrize("n,v", [(2, 1), (5, 2), (10, 3), (25, 7), (200, 2), (1000, 5)])
def test_subset_weights_match_binomials(n, v):
    w_max, w_min = subset_weights(n, v)
    cnv = math.comb(n, v)
    expect = np.array([math.comb(i - 1, v - 1) / cnv for i in range(1, n + 1)])
    assert_allclose(w_max, expect, rtol=1e-13)
    assert np.all(w_min == w_max[::-1])
    assert_allclose(w_max.sum(), 1.0, rtol=1e-12)
    assert_allclose(w_min.sum(), 1.0, rtol=1e-12)
    # one array: w_min is its reversed view, and read top-down the min side is w_max
    assert np.shares_memory(w_min, w_max)
    w_hi, w_lo = extreme_weights("ustat", n, v)
    assert w_lo is w_hi and w_hi.tobytes() == w_max.tobytes()
    for w in (w_max, w_min, w_hi):
        with pytest.raises(ValueError):
            w[0] = 0.0


def _subset_weights_loop(n, v):
    """Scalar downward recurrence for w_max, one multiply per step.

    Test oracle for the vectorised :func:`subset_weights`, which must
    multiply the same factors in the same order and so match it bit for bit.
    """
    w_max = np.zeros(n)
    w_max[n - 1] = v / n
    for i in range(n, v, -1):
        w_max[i - 2] = w_max[i - 1] * ((i - v) / (i - 1))
    return w_max


def _assert_weights_match_loop(n, v):
    w_max, w_min = subset_weights(n, v)
    expect = _subset_weights_loop(n, v)
    assert w_max.tobytes() == expect.tobytes()
    assert w_min.tobytes() == expect[::-1].tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_subset_weights_bit_identical_to_loop(nv):
    _assert_weights_match_loop(*nv)


@pytest.mark.parametrize(
    "n,v",
    [(999_001, v) for v in (2, 3, 4)]
    + [(n, v) for n in DEFAULT_SIZES for v in DEFAULT_ORDERS],
)
def test_subset_weights_bit_identical_to_loop_fixed(n, v):
    # the default simulate grid and a report-sized n: simulate's
    # byte-identical output rests on these weights not moving
    _assert_weights_match_loop(n, v)


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_subset_weights_bit_identical_across_block_edges(n):
    # reference: the factors formed whole, then one running product
    for v in (1, 2, 3, n - 1, n):
        factors = np.empty(n - v + 1)
        factors[0] = v / n
        factors[1:] = np.arange(n - v, 0, -1, dtype=float) / np.arange(n - 1, v - 1, -1, dtype=float)
        expect = np.zeros(n)
        expect[v - 1:] = np.multiply.accumulate(factors)[::-1]
        w_max, w_min = subset_weights(n, v)
        assert np.array_equal(w_max, expect)
        assert np.array_equal(w_min, expect[::-1])


def test_subset_weights_large_n_no_overflow():
    # factorial-free recurrence must survive n far beyond comb() comfort
    w_max, _ = subset_weights(10**6, 4)
    assert np.isfinite(w_max).all()
    assert_allclose(w_max.sum(), 1.0, rtol=1e-9)


def test_subset_weights_rejects_bad_order():
    with pytest.raises(OrderExceedsSample):
        subset_weights(3, 4)
    with pytest.raises(OrderExceedsSample):
        subset_weights(3, 0)
    # bool is an int subclass; True must not pass as v = 1
    with pytest.raises(OrderExceedsSample, match="positive integer"):
        subset_weights(3, True)


# ---------------------------------------------------------------------------
# extreme moments


def test_moments_small_case():
    s = make_sample([1.0, 2.0, 3.0])
    assert_allclose(max_moment_u(s, 2), 8 / 3, rtol=1e-14)
    assert_allclose(min_moment_u(s, 2), 4 / 3, rtol=1e-14)


def test_moments_v1_is_the_mean_twice():
    s = make_sample([4.0, 1.0, 7.0, 2.0])
    assert max_moment_u(s, 1) == min_moment_u(s, 1)
    assert_allclose(max_moment_u(s, 1), s.mean(), rtol=1e-14)


def test_moments_v_equals_n_are_the_extremes():
    s = make_sample([5.0, 1.0, 9.0, 4.0])
    assert_allclose(max_moment_u(s, 4), 9.0, rtol=1e-14)
    assert_allclose(min_moment_u(s, 4), 1.0, rtol=1e-14)


@given(incomes(min_size=2, max_size=30), st.integers(min_value=2, max_value=5))
@settings(max_examples=100, deadline=None)
def test_extreme_moments_bracket_the_mean(xs, v):
    """E(min of v) <= mean <= E(max of v); their gap is the GIM numerator."""
    s = make_sample(xs)
    v = min(v, s.n)
    e_max, e_min, mean = max_moment_u(s, v), min_moment_u(s, v), s.mean()
    assert e_min <= mean * (1 + 1e-12) + 1e-12
    assert e_max >= mean * (1 - 1e-12) - 1e-12
    assert_allclose(e_max - e_min, gim_ustat(s, v).numerator, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# GMD / Gini


def test_gmd_small_case():
    assert_allclose(gmd(make_sample([1.0, 2.0, 3.0])), 4 / 3, rtol=1e-14)


def test_gmd_needs_two_points():
    with pytest.raises(SampleTooSmall):
        gmd(make_sample([1.0]))


def test_gini_small_case():
    assert_allclose(gini_ustat(make_sample([1.0, 2.0, 3.0])), 1 / 3, rtol=1e-14)


def test_gini_zero_mean_rejected():
    with pytest.raises(ZeroMean):
        gini_ustat(make_sample([0.0, 0.0]))


@given(incomes())
@settings(max_examples=200, deadline=None)
def test_gini_identity(xs):
    """gim_ustat at v=2 is the Gini index, to near machine precision."""
    s = make_sample(xs)
    assert abs(gim_ustat(s, 2).value - gini_ustat(s)) <= 1e-12


@given(incomes())
@settings(max_examples=200, deadline=None)
def test_gini_is_gim_2_bit_for_bit(xs):
    """The Gini index is GIM(2): one computation, the same float everywhere."""
    s = make_sample(xs)
    assert gini_ustat(s) == gim_ustat(s, 2).value
    row = report(s, [2], se_method="plugin")
    assert row.gini == row.entries[0].value


# ---------------------------------------------------------------------------
# GIM U-statistic


def test_gim_ustat_small_cases():
    s = make_sample([1.0, 2.0, 3.0])
    assert_allclose(gim_ustat(s, 2).value, 1 / 3, rtol=1e-14)
    assert_allclose(gim_ustat(s, 3).value, 1 / 2, rtol=1e-14)


def test_gim_ustat_fields():
    est = gim_ustat([1.0, 2.0, 3.0], 2)
    assert est.kind == "ustat"
    assert est.n == 3 and est.v == 2
    assert_allclose(est.numerator, 4 / 3, rtol=1e-14)
    assert_allclose(est.denominator, 4.0, rtol=1e-14)


def test_gim_ustat_v1_exactly_zero():
    assert gim_ustat([3.0, 1.0, 4.0, 1.5], 1).value == 0.0


@pytest.mark.parametrize("n", [2, 3, 7, 19, 64, 101])
def test_gim_constant_sample_exactly_zero(n):
    s = make_sample(np.full(n, math.pi))
    for v in {1, 2, min(3, n), min(5, n)}:
        assert gim_ustat(s, v).value == 0.0
        assert gim_ustat(s, v).numerator == 0.0


def test_gim_all_zero_sample_rejected():
    with pytest.raises(ZeroMean):
        gim_ustat([0.0, 0.0, 0.0], 2)


@given(incomes(), st.integers(min_value=1, max_value=6))
@settings(max_examples=200, deadline=None)
def test_gim_ustat_bounds(xs, v):
    """The estimate never leaves [0, 1], even in floating point."""
    s = make_sample(xs)
    value = gim_ustat(s, min(v, s.n)).value
    assert 0.0 <= value <= 1.0


@given(incomes(), st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_gim_ustat_decomposition(xs, v):
    """numerator/denominator are exactly the moment difference and sum."""
    s = make_sample(xs)
    v = min(v, s.n)
    est = gim_ustat(s, v)
    e_max = max_moment_u(s, v)
    e_min = min_moment_u(s, v)
    assert est.numerator == max(e_max - e_min, 0.0)
    assert est.denominator == e_max + e_min


@given(incomes(), st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_gim_scale_invariance(xs, c, v):
    s = make_sample(xs)
    v = min(v, s.n)
    scaled = make_sample(np.asarray(xs) * c)
    assert abs(gim_ustat(scaled, v).value - gim_ustat(s, v).value) <= 1e-12
    assert abs(gim_edf(scaled, v).value - gim_edf(s, v).value) <= 1e-12


@given(
    incomes(),
    st.integers(min_value=-300, max_value=300),
    st.floats(min_value=1.0, max_value=10.0),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_gim_scale_invariance_full_range(xs, exponent, mantissa, v):
    """Scale factors from 1e-300 to 1e300 leave both estimators unchanged."""
    s = make_sample(xs)
    v = min(v, s.n)
    scaled = make_sample(np.asarray(xs) * (mantissa * 10.0**exponent))
    for estimator in (gim_ustat, gim_edf):
        assert abs(estimator(scaled, v).value - estimator(s, v).value) <= 1e-12


def test_gim_near_float_max_matches_rescaled_sample():
    """Sums taken at the data's own scale used to overflow to a silent 0.0."""
    big = [1e308, 1.7e308, 1.5e308]
    small = [1.0, 1.7, 1.5]
    for estimator in (gim_ustat, gim_edf):
        est, ref = estimator(big, 2), estimator(small, 2)
        assert_allclose(est.value, ref.value, rtol=1e-12)
        assert_allclose(est.numerator, ref.numerator * 1e308, rtol=1e-12)
        # E(max + min) itself exceeds the float range
        assert est.denominator == math.inf
    assert_allclose(gim_ustat(big, 2).value, 1 / 6, rtol=1e-12)
    assert_allclose(max_moment_u(big, 2), max_moment_u(small, 2) * 1e308, rtol=1e-12)
    assert_allclose(gmd(big), gmd(small) * 1e308, rtol=1e-12)


def test_gini_mean_and_premia_near_float_max_match_rescaled_sample():
    """np.mean used to overflow here, so gini_ustat read a silent 0.0.  The
    mean and the extreme moments of the premia E(max) - mean and
    mean - E(min) scale back from the rescaled sample bit for bit."""
    s = make_sample([1e308, 1.7e308, 1.5e308, 1.2e308])
    x, exponent = s.scaled()
    rescaled = make_sample(x)
    assert exponent == 1024
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gini = gini_ustat(s)
        mean = s.mean()
        moments = max_moment_u(s, 3), min_moment_u(s, 3)
    assert_allclose(gini, gim_ustat(s, 2).value, rtol=1e-12)
    assert_allclose(gini, 4 / 27, rtol=1e-12)
    assert mean == math.ldexp(rescaled.mean(), exponent)
    assert moments == tuple(
        math.ldexp(moment(rescaled, 3), exponent) for moment in (max_moment_u, min_moment_u)
    )


@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=6, max_size=6),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(KINDS),
)
@settings(max_examples=100, deadline=None)
def test_extreme_sums_batch_rows_match_single_samples(rows, v, kind):
    """A 2-D batch reduces every row exactly as the 1-D call would."""
    batch = np.sort(np.array(rows), axis=1)
    w_hi, w_lo = extreme_weights(kind, 6, v)
    together = extreme_sums(batch, w_hi, w_lo, v)
    for i, x in enumerate(batch):
        assert [part[i] for part in together] == list(extreme_sums(x, w_hi, w_lo, v))


@given(incomes(min_size=3, max_size=20), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_gim_permutation_invariance(xs, rnd):
    shuffled = list(xs)
    rnd.shuffle(shuffled)
    for v in (1, 2, 3):
        assert gim_ustat(xs, v).value == gim_ustat(shuffled, v).value
        assert gim_edf(xs, v).value == gim_edf(shuffled, v).value


@given(incomes(min_size=2, max_size=30))
@settings(max_examples=150, deadline=None)
def test_gim_monotone_in_order(xs):
    """Widening the subsets can only spread the extremes further apart.

    Observed, not proven, for the underlying measure; for the U-statistic it
    follows from E(max) rising and E(min) falling in v.  Should a counter-
    example ever surface here, demote this to a logged observation.
    """
    s = make_sample(xs)
    values = [gim_ustat(s, v).value for v in range(1, min(s.n, 6) + 1)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


# ---------------------------------------------------------------------------
# brute-force oracle


@given(incomes(min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_gim_matches_enumeration(xs):
    """Weighted order statistics agree with literal subset enumeration."""
    s = make_sample(xs)
    for v in range(1, s.n + 1):
        fast = gim_ustat(s, v)
        slow = gim_ustat_naive(s, v)
        assert abs(fast.value - slow.value) <= 1e-10
        assert abs(fast.numerator - slow.numerator) <= 1e-10 * max(1.0, abs(slow.numerator))
        assert abs(fast.denominator - slow.denominator) <= 1e-10 * max(1.0, abs(slow.denominator))


def test_moments_match_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        xs = rng.lognormal(0.0, 1.0, n)
        s = make_sample(xs)
        for v in range(1, n + 1):
            slow = gim_ustat_naive(s, v)
            e_max, e_min = max_moment_u(s, v), min_moment_u(s, v)
            assert abs((e_max - e_min) - slow.numerator) <= 1e-10 * max(1.0, slow.numerator)
            assert abs((e_max + e_min) - slow.denominator) <= 1e-10 * slow.denominator


def test_naive_enumeration_guard():
    s = make_sample(np.ones(80))
    with pytest.raises(EnumerationTooLarge):
        gim_ustat_naive(s, 8)  # C(80, 8) is far past the enumeration budget


# ---------------------------------------------------------------------------
# EDF estimator


def test_edf_weights_small_case():
    w_num, w_den = edf_weights(3, 2)
    # (v/n) * ((i/n)^(v-1) -/+ ((n-i)/n)^(v-1)), i = 1..3
    assert_allclose(w_num, [2 / 3 * (1 / 3 - 2 / 3), 2 / 3 * (2 / 3 - 1 / 3), 2 / 3], rtol=1e-14)
    assert_allclose(w_den, [2 / 3 * (1 / 3 + 2 / 3), 2 / 3 * (2 / 3 + 1 / 3), 2 / 3], rtol=1e-14)


@pytest.mark.parametrize("n,v", [(1, 1), (2, 1), (5, 2), (10, 3), (25, 7), (200, 2), (1000, 5)])
def test_edf_pair_is_one_power_array_read_from_both_ends(n, v):
    i = np.arange(1, n + 1, dtype=float)
    w_hi, w_lo = extreme_weights("edf", n, v)
    assert w_hi.tobytes() == (v / n * (i / n) ** (v - 1)).tobytes()
    # w_lo is read top-down: reversed, it weights the sample bottom-up
    assert w_lo[::-1].tobytes() == (v / n * ((n - i) / n) ** (v - 1)).tobytes()
    assert w_hi.base is w_lo.base is not None
    for w in (w_hi, w_lo):
        with pytest.raises(ValueError):
            w[0] = 0.0


def test_gim_edf_small_cases():
    s = make_sample([1.0, 2.0, 3.0])
    assert_allclose(gim_edf(s, 2).value, 5 / 9, rtol=1e-14)
    assert_allclose(gim_edf(s, 3).value, 5 / 7, rtol=1e-14)
    assert gim_edf(s, 2).kind == "edf"


def test_gim_edf_v1_exactly_zero():
    assert gim_edf([2.0, 5.0, 11.0], 1).value == 0.0


@pytest.mark.parametrize("n", [2, 5, 17])
@pytest.mark.parametrize("v", [2, 3])
def test_gim_edf_constant_sample_value(n, v):
    """The plug-in estimator does NOT vanish on constant samples.

    Its numerator weights sum to (v/n)·(n/n)^(v-1) > 0, so a constant sample
    c gives n^(v-1) / (2·Σ i^(v-1) − n^(v-1)) — e.g. exactly 1/n at v=2.
    """
    if v > n:
        pytest.skip("order exceeds sample")
    s = make_sample(np.full(n, 7.5))
    expect = n ** (v - 1) / (2 * sum(i ** (v - 1) for i in range(1, n + 1)) - n ** (v - 1))
    assert_allclose(gim_edf(s, v).value, expect, rtol=1e-12)
    if v == 2:
        assert_allclose(gim_edf(s, v).value, 1 / n, rtol=1e-12)


@given(incomes(min_size=2, max_size=60))
@settings(max_examples=150, deadline=None)
def test_gim_edf_ustat_link_at_v2(xs):
    """At v=2 the two estimators obey edf = ((n-1)·ustat + 1)/n exactly."""
    s = make_sample(xs)
    u = gim_ustat(s, 2).value
    e = gim_edf(s, 2).value
    assert abs(e - ((s.n - 1) * u + 1.0) / s.n) <= 1e-12


def test_estimator_agreement_gap_shrinks():
    """|ustat − edf| behaves like C/n along growing seeded samples."""
    rng = np.random.default_rng(7)
    base = rng.exponential(size=6400)
    gaps = {}
    for n in (100, 200, 400, 800):
        s = make_sample(base[:n])
        for v in (2, 3):
            gaps[(n, v)] = abs(gim_ustat(s, v).value - gim_edf(s, v).value)
    for v in (2, 3):
        c = gaps[(100, v)] * 100  # fitted constant at the smallest size
        for n in (200, 400, 800):
            assert gaps[(n, v)] <= 2.0 * c / n
        assert gaps[(800, v)] < gaps[(100, v)]


def test_order_validation_applies_to_both_estimators():
    s = make_sample([1.0, 2.0])
    for fn in (gim_ustat, gim_edf):
        with pytest.raises(OrderExceedsSample):
            fn(s, 3)
        with pytest.raises(OrderExceedsSample):
            fn(s, 0)
        with pytest.raises(OrderExceedsSample, match="positive integer"):
            fn(s, True)
