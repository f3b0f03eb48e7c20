"""Variance machinery: projection plug-in, jackknife, intervals, sigma2."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gimtools import (
    Exponential,
    InvalidLevel,
    InvalidStdError,
    Lognormal,
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
    ustat_variance,
)
from gimtools.distributions import _MIN_UNIFORM
from gimtools.measures import subset_weights


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


def test_projection_variance_printed_exponent_differs():
    s = draw_sample(Exponential(1.0), 500, SeededStream(3, 0))
    for v in (2, 3):
        corrected = projection_variance(s, v)
        printed = projection_variance(s, v, printed_exponent=True)
        assert corrected != printed
    # the corrected variant is the one matching the analytic 1/3 at v=2
    big = draw_sample(Exponential(1.0), 100_000, SeededStream(97, 0))
    assert abs(projection_variance(big, 2) - 1 / 3) < abs(
        projection_variance(big, 2, printed_exponent=True) - 1 / 3
    )


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


def test_jackknife_rejects_unknown_kind():
    with pytest.raises(ValueError):
        jackknife_variance(make_sample([1.0, 2.0, 3.0]), 2, kind="bootstrap")


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


def test_sigma2_lognormal_regression():
    # no closed form; value frozen from two independent refinement ladders
    assert_allclose(edf_numerator_variance(Lognormal(0.0, 1.0), 2), 11.067264343667, rtol=1e-6)


def test_sigma2_scales_quadratically():
    base = edf_numerator_variance(Exponential(1.0), 2)
    assert_allclose(edf_numerator_variance(Exponential(4.0), 2), base / 16.0, rtol=1e-9)
    p = edf_numerator_variance(Pareto(3.0, 1.0), 2)
    assert_allclose(edf_numerator_variance(Pareto(3.0, 5.0), 2), 25.0 * p, rtol=1e-9)


def test_sigma2_v1_is_zero():
    assert edf_numerator_variance(Exponential(1.0), 1) == 0.0


def test_sigma2_heavy_tail_raises_without_numpy_warnings():
    """Pareto(2.2) overflows the integrand deep in the ladder; that must be a
    typed failure naming the depth, not thousands of RuntimeWarnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureNoConvergence, match="non-finite value at grading depth 768"):
            edf_numerator_variance(Pareto(2.2, 1.0), 2)


def test_sigma2_matches_monte_carlo():
    """Var(sqrt(n) * numerator-hat) against the quadrature value, 5% band."""
    draws = numerator_draws(Exponential(1.0), 10_000, 2, reps=10_000, seed=4242)
    mc = 10_000 * np.var(draws, ddof=1)
    assert_allclose(mc, edf_numerator_variance(Exponential(1.0), 2), rtol=0.05)
