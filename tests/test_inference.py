"""Variance machinery: projection plug-in, jackknife, intervals, sigma2."""

import math
import warnings

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
from gimtools import quadrature
from gimtools.distributions import _MIN_UNIFORM
from gimtools.inference import _NESTED_BLOCK, _edf_numerator_variance_at
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
    assert_allclose(z, ndtri((1.0 + levels) / 2.0), rtol=2e-15, atol=0.0)


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


def _edf_numerator_variance_loop(dist, v, levels):
    """Per-panel, per-node evaluation of the numerator covariance integral.

    Test oracle for :func:`_edf_numerator_variance_at`, which evaluates the
    same nodes on whole arrays and adds the same per-panel sums in the same
    order, and so must match it bit for bit.  Panel p's outer nodes are row
    p of the mesh, itself checked against a per-panel build.
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


@pytest.mark.parametrize(
    "dist",
    [Exponential(1.0), Pareto(3.0, 1.0), Pareto(2.5, 1.0), Lognormal(0.0, 0.5), Lognormal(0.0, 1.0)],
    ids=repr,
)
@pytest.mark.parametrize("v", [2, 3, 4])
def test_sigma2_rung_bit_identical_to_panel_loop(dist, v):
    """Every rung up to depth 384 (768 panels, six nested blocks)."""
    depths = [6 * 2**k for k in range(7)]
    assert 2 * depths[-1] > 5 * _NESTED_BLOCK  # several block boundaries
    # converge evaluates every rung with these numpy warnings silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for levels in depths:
            got = _edf_numerator_variance_at(dist, v, levels)
            assert got == _edf_numerator_variance_loop(dist, v, levels)


def test_sigma2_matches_monte_carlo():
    """Var(sqrt(n) * numerator-hat) against the quadrature value, 5% band."""
    draws = numerator_draws(Exponential(1.0), 10_000, 2, reps=10_000, seed=4242)
    mc = 10_000 * np.var(draws, ddof=1)
    assert_allclose(mc, edf_numerator_variance(Exponential(1.0), 2), rtol=0.05)
