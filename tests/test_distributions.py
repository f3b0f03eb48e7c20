"""Parametric families: transforms, seeded sampling, theoretical values."""

import math
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtr, ndtri

from gimtools import (
    Exponential,
    GimError,
    InvalidArgument,
    InvalidProbability,
    Lognormal,
    NonFinite,
    Pareto,
    QuadratureNoConvergence,
    SampleTooSmall,
    SeededStream,
    draw_sample,
    edf_numerator_variance,
    gim_ustat,
    jackknife_variance,
    make_sample,
    theoretical_extremes,
    theoretical_gim,
)
from gimtools import quadrature
from gimtools.distributions import FAMILIES, _ndtr, _ndtri_lower, _on_mesh, fill_stream_rows

ALL_DISTS = [Exponential(1.0), Exponential(0.25), Pareto(3.0, 1.0), Pareto(1.7, 2.0), Lognormal(0.0, 1.0), Lognormal(1.0, 0.5)]


# ---------------------------------------------------------------------------
# transforms


def test_exponential_point_values():
    d = Exponential(2.0)
    assert_allclose(d.cdf(np.log(2.0) / 2.0), 0.5, rtol=1e-14)
    assert_allclose(d.quantile(0.5), np.log(2.0) / 2.0, rtol=1e-14)
    assert_allclose(d.density(0.0), 2.0, rtol=1e-14)
    assert d.cdf(-1.0) == 0.0
    assert d.mean() == 0.5


def test_pareto_point_values():
    d = Pareto(3.0, 1.0)
    assert_allclose(d.quantile(7 / 8), 2.0, rtol=1e-14)
    assert_allclose(d.cdf(2.0), 7 / 8, rtol=1e-14)
    assert d.cdf(0.5) == 0.0 and d.density(0.5) == 0.0
    assert_allclose(d.mean(), 1.5, rtol=1e-14)


@pytest.mark.parametrize("shape, scale, x", [(400.0, 10.0, 20.0), (2.0, 1e200, 1e201), (3.0, 1.0, 2.0)])
def test_pareto_density_where_scale_power_leaves_the_float_range(shape, scale, x):
    # scale ** shape is 1e400 in both of the first two cases
    want = math.exp(math.log(shape / x) + shape * math.log(scale / x))
    assert_allclose(Pareto(shape, scale).density(x), want, rtol=1e-12)


def test_lognormal_point_values():
    d = Lognormal(0.0, 1.0)
    assert_allclose(d.cdf(1.0), 0.5, rtol=1e-14)
    assert_allclose(d.quantile(0.5), 1.0, rtol=1e-12)
    assert_allclose(d.mean(), np.exp(0.5), rtol=1e-14)
    assert d.cdf(0.0) == 0.0 and d.density(0.0) == 0.0


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


@pytest.mark.parametrize(
    "lo, hi",
    [(math.exp(-2), 0.5), (math.exp(-32), math.exp(-2)), (5e-324, math.exp(-32))],
    ids=["central", "tail-x-below-8", "tail-x-from-8"],
)
def test_ndtri_port_matches_scipy(lo, hi):
    """Each Cephes branch of the numpy normal quantile, against scipy's."""
    rng = np.random.default_rng(20_261_018)
    if lo > 0.1:
        y = rng.uniform(lo, hi, 100_000)
    else:  # log-uniform, so the deep tail down to subnormals is sampled
        y = np.exp(rng.uniform(math.log(lo), math.log(hi), 100_000))
    y = np.clip(y, np.nextafter(lo, 1.0), hi)
    assert np.max(_ulps(_ndtri_lower(y), ndtri(y))) <= 2


def test_ndtri_port_fixed_points():
    y = np.array([5e-324, 2.0**-1022, 2.0**-53, math.exp(-32), math.exp(-2), 0.5])
    assert np.max(_ulps(_ndtri_lower(y), ndtri(y))) <= 2
    assert _ndtri_lower(np.array([0.5]))[0] == 0.0


def test_normal_cdf_matches_scipy():
    x = np.linspace(-37.0, 8.0, 20_001)
    got = np.array([_ndtr(a) for a in x])
    want = ndtr(x)
    # past x = -10 the bound grows with x^2, Phi's relative condition number
    # there: scipy's Cephes erfc and the math.erfc under _ndtr then each drift
    # from the exact value by up to about 1e-13 near x = -35
    bound = 1e-14 * np.maximum(1.0, (x / 10.0) ** 2)
    assert np.all(np.abs(got - want) <= bound * want)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.params_label())
def test_quantile_cdf_roundtrip(dist):
    u = np.linspace(0.001, 0.999, 97)
    assert_allclose(dist.cdf(dist.quantile(u)), u, rtol=0, atol=1e-10)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.params_label())
def test_quantile_density_is_reciprocal_slope(dist):
    u = np.linspace(0.05, 0.95, 19)
    qd = dist.quantile_density(u)
    assert np.all(qd > 0)
    assert_allclose(qd, 1.0 / dist.density(dist.quantile(u)), rtol=1e-9)


@pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1, float("nan"), [0.25, float("nan"), 0.75]])
def test_quantile_rejects_boundary(u):
    for dist in (Exponential(1.0), Pareto(3.0, 1.0), Lognormal(0.0, 1.0)):
        with pytest.raises(InvalidProbability):
            dist.quantile(u)
        with pytest.raises(InvalidProbability):
            dist.quantile_density(u)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.params_label())
@pytest.mark.parametrize("x", [float("nan"), [1.0, float("nan"), 2.0]], ids=["scalar", "array"])
def test_cdf_and_density_reject_nan(dist, x):
    with pytest.raises(InvalidArgument, match="must not be NaN"):
        dist.cdf(x)
    with pytest.raises(InvalidArgument, match="must not be NaN"):
        dist.density(x)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.params_label())
def test_methods_return_a_float_for_a_scalar_and_an_array_otherwise(dist):
    for method, arg in ((dist.cdf, 2.0), (dist.density, 2.0), (dist.quantile, 0.5), (dist.quantile_density, 0.5)):
        assert type(method(arg)) is float
        assert type(method(np.float64(arg))) is float
        out = method([arg, arg])
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert out[0] == method(arg)


def test_params_label_bytes():
    assert Exponential(0.25).params_label() == "rate=0.25"
    assert Pareto(1.7, 2.0).params_label() == "shape=1.7;scale=2"
    assert Lognormal(1.0, 0.5).params_label() == "meanlog=1;sdlog=0.5"
    assert repr(Pareto(3.0, 1e-7)) == "Pareto(shape=3;scale=1e-07)"


def test_parameter_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Pareto(1.0, 1.0)  # infinite mean; the measure is undefined
    with pytest.raises(ValueError):
        Pareto(3.0, 0.0)
    with pytest.raises(ValueError):
        Lognormal(0.0, 0.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Exponential(0.0), "rate must be positive, got 0.0"),
        (lambda: Pareto(1.0, 1.0), r"shape must exceed 1 \(finite mean required\), got 1.0"),
        (lambda: Pareto(3.0, -2.0), "scale must be positive, got -2.0"),
        (lambda: Lognormal(0.0, float("nan")), "sdlog must be positive, got nan"),
        (lambda: Exponential(float("inf")), "rate must be finite, got inf"),
        (lambda: Pareto(float("inf")), "shape must be finite, got inf"),
        (lambda: Pareto(3.0, float("inf")), "scale must be finite, got inf"),
        (lambda: Lognormal(float("nan"), 1.0), "meanlog must be finite, got nan"),
        (lambda: Lognormal(0.0, float("inf")), "sdlog must be finite, got inf"),
    ],
    ids=["exponential-rate", "pareto-shape", "pareto-scale", "lognormal-sdlog",
         "exponential-rate-inf", "pareto-shape-inf", "pareto-scale-inf",
         "lognormal-meanlog-nan", "lognormal-sdlog-inf"],
)
def test_parameter_errors_are_typed(build, message):
    with pytest.raises(GimError, match=message) as info:
        build()
    assert isinstance(info.value, InvalidArgument)


def test_family_registry():
    assert set(FAMILIES) == {"exponential", "pareto", "lognormal"}
    assert FAMILIES["pareto"] is Pareto


def test_params_label_is_csv_safe():
    for dist in ALL_DISTS:
        label = dist.params_label()
        assert "," not in label and "\n" not in label


# ---------------------------------------------------------------------------
# seeded sampling


def test_draw_sample_is_deterministic():
    a = draw_sample(Exponential(1.0), 1000, SeededStream(11, 5))
    b = draw_sample(Exponential(1.0), 1000, SeededStream(11, 5))
    assert np.array_equal(a.values, b.values)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    # five consecutive stream ids that cross a multiple of 512
    st.builds(lambda k, back: 512 * k - back, st.integers(1, 8), st.integers(1, 4)),
    st.integers(min_value=1, max_value=300),
)
@example(seed=2**64 - 1, first=509, n=7)
@example(seed=0, first=510, n=1)
# stream ids across the uint64 sign bit, and the top of the key range:
# the re-key template holds them as Python ints, converted on assignment
@example(seed=2**63, first=2**63 - 2, n=7)
@example(seed=2**64 - 1, first=2**64 - 6, n=3)
@settings(max_examples=150, deadline=None)
def test_fill_stream_rows_matches_fresh_generators(seed, first, n):
    """Each re-keyed row is the stream a fresh generator draws, bit for bit.

    Row lengths that are not multiples of 4 leave the Philox output buffer
    part-used, so a row that did not reset it would start mid-buffer.
    """
    out = fill_stream_rows(np.empty((5, n)), seed, first)
    for j in range(5):
        fresh = SeededStream(seed, first + j).generator().random(n)
        assert np.array_equal(out[j], fresh)


def test_fill_stream_rows_calls_share_no_state():
    # chunks of one stream family, interleaved with another family's call,
    # read the same as one call: each call builds its own re-key template
    whole = fill_stream_rows(np.empty((6, 9)), 21, 100)
    first_half = fill_stream_rows(np.empty((3, 9)), 21, 100)
    other = fill_stream_rows(np.empty((4, 9)), 2**64 - 1, 7)
    second_half = fill_stream_rows(np.empty((3, 9)), 21, 103)
    assert np.array_equal(np.vstack([first_half, second_half]), whole)
    for j in range(4):
        assert np.array_equal(other[j], SeededStream(2**64 - 1, 7 + j).generator().random(9))
    assert np.array_equal(whole[5], SeededStream(21, 105).generator().random(9))


def test_fill_stream_rows_rejects_a_last_id_past_64_bits():
    # the second row would be stream 2**64, which must not wrap to stream 0
    with pytest.raises(InvalidArgument, match=r"^last stream_id must be an integer in \[0, 18446744073709551616\), got 18446744073709551616"):
        fill_stream_rows(np.empty((2, 3)), 1, 2**64 - 1)
    out = fill_stream_rows(np.empty((2, 3)), 1, 2**64 - 2)
    assert np.array_equal(out[1], SeededStream(1, 2**64 - 1).generator().random(3))
    assert fill_stream_rows(np.empty((0, 3)), 1, 2**64 - 1).shape == (0, 3)


@pytest.mark.parametrize("bad", [-1, 2**64, 2.5, True])
def test_seeded_stream_rejects_key_outside_64_bits(bad):
    with pytest.raises(InvalidArgument, match=r"^seed must be an integer in \[0, 18446744073709551616\)"):
        SeededStream(bad, 0)
    with pytest.raises(InvalidArgument, match=r"^stream_id must be an integer in \[0, 18446744073709551616\)"):
        SeededStream(0, bad)


def test_draw_sample_streams_are_independent_axes():
    base = draw_sample(Exponential(1.0), 500, SeededStream(11, 0))
    other_seed = draw_sample(Exponential(1.0), 500, SeededStream(12, 0))
    other_stream = draw_sample(Exponential(1.0), 500, SeededStream(11, 1))
    assert not np.array_equal(base.values, other_seed.values)
    assert not np.array_equal(base.values, other_stream.values)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.params_label())
def test_draw_sample_respects_support(dist):
    s = draw_sample(dist, 2000, SeededStream(77, 0))
    assert s.n == 2000
    assert np.all(s.values > 0)
    if isinstance(dist, Pareto):
        assert np.all(s.values >= dist.scale)


def test_draw_sample_mean_is_sane():
    # crude CLT band: the seeded mean must sit within 5 standard errors
    d = Exponential(1.0)
    s = draw_sample(d, 20_000, SeededStream(123, 0))
    se = 1.0 / math.sqrt(20_000)
    assert abs(s.mean() - 1.0) < 5 * se


def test_draw_sample_validates_n():
    with pytest.raises(ValueError):
        draw_sample(Exponential(1.0), 0, SeededStream(1, 0))
    for bad in (2.5, True):
        with pytest.raises(SampleTooSmall, match=f"sample size n must be a positive integer, got {bad!r}"):
            draw_sample(Exponential(1.0), bad, SeededStream(1, 0))


@pytest.mark.parametrize("dist", [Exponential(1e-320), Pareto(3.0, 1e308), Lognormal(800.0, 1.0)], ids=repr)
def test_draw_sample_past_the_float_range_raises(dist):
    # under the suite's warning filter an overflow warning would fail first
    with pytest.raises(NonFinite, match=f"draws of {re.escape(repr(dist))} leave the float range"):
        draw_sample(dist, 100, SeededStream(1, 0))


# ---------------------------------------------------------------------------
# theoretical extreme moments


def test_exponential_extremes_are_harmonic():
    d = Exponential(2.0)
    for v in range(1, 7):
        e_max, e_min = theoretical_extremes(d, v)
        assert_allclose(e_max, sum(1.0 / k for k in range(1, v + 1)) / 2.0, rtol=1e-13)
        assert_allclose(e_min, 1.0 / (2.0 * v), rtol=1e-13)


def test_pareto_extremes_closed_form():
    d = Pareto(3.0, 1.0)
    # min of v is Pareto(v*alpha): mean v*alpha/(v*alpha - 1) * scale
    for v in range(1, 7):
        _, e_min = theoretical_extremes(d, v)
        assert_allclose(e_min, 3.0 * v / (3.0 * v - 1.0), rtol=1e-13)
    e_max2, _ = theoretical_extremes(d, 2)
    # inclusion-exclusion: 2*E(X) - E(min of 2)
    assert_allclose(e_max2, 2 * 1.5 - 6.0 / 5.0, rtol=1e-13)


def test_lognormal_extremes_of_one_are_the_mean():
    d = Lognormal(0.0, 1.0)
    assert theoretical_extremes(d, 1) == (d.mean(), d.mean())
    assert_allclose(d.mean(), math.exp(0.5), rtol=1e-15)


def test_lognormal_max_of_two_closed_form():
    mu, sigma = 0.3, 0.8
    d = Lognormal(mu, sigma)
    e_max2, e_min2 = theoretical_extremes(d, 2)
    m = math.exp(mu + sigma * sigma / 2.0)
    assert_allclose(e_max2, 2.0 * m * ndtr(sigma / math.sqrt(2.0)), rtol=1e-12)
    assert_allclose(e_max2 + e_min2, 2.0 * m, rtol=1e-12)


@pytest.mark.parametrize("dist", [Exponential(1.0), Exponential(0.5), Pareto(3.0, 1.0), Pareto(2.2, 1.5)], ids=lambda d: d.params_label())
@pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
def test_extremes_closed_vs_quadrature(dist, v):
    closed = theoretical_extremes(dist, v)
    quad = theoretical_extremes(dist, v, force_quadrature=True)
    assert_allclose(quad, closed, rtol=1e-7)


def _pareto_gim_exact(shape, v):
    """GIM(v) of Pareto(shape) by inclusion-exclusion in exact rationals."""
    a = Fraction(shape)
    e_max = sum(math.comb(v, k) * (-1) ** (k + 1) * k * a / (k * a - 1) for k in range(1, v + 1))
    e_min = v * a / (v * a - 1)
    return (e_max - e_min) / (e_max + e_min)


@pytest.mark.parametrize("shape", [1.2, 1.5, 2.2, 3.0, 5.0, 8.0, 10.0, 20.0])
def test_pareto_gim_matches_exact_rationals(shape):
    """The float product form up to v = 18, quadrature past it: both near 1e-14."""
    for v in range(2, 31):
        exact = _pareto_gim_exact(shape, v)
        assert abs(Fraction(theoretical_gim(Pareto(shape, 1.0), v)) - exact) <= 2e-14 * exact


@pytest.mark.parametrize("shape", [3.0, 1.8, 1.01, 1e4, 1e8, 1e12, 1e15, 1e17])
def test_pareto_gim_keeps_its_digits_at_large_shapes(shape):
    # E max and E min agree to ever more digits as the shape grows: the
    # value comes numerator-first, not from their difference
    for v in (1, 2, 5, 12, 18):
        exact = _pareto_gim_exact(shape, v)
        assert abs(Fraction(theoretical_gim(Pareto(shape, 1.0), v)) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("sdlog", [1e-8, 1e-15, 1e-20, 1e-300])
def test_lognormal_gim2_keeps_its_digits_at_small_sdlog(sdlog):
    # GIM(2) = erf(sdlog/2) = sdlog/sqrt(pi) + O(sdlog^3)
    assert abs(theoretical_gim(Lognormal(0.0, sdlog), 2) / sdlog - 1.0 / math.sqrt(math.pi)) <= 1e-15


def test_pareto_gim_past_the_closed_form_order_is_the_quadrature_value():
    d = Pareto(3.0, 1.0)
    assert theoretical_gim(d, 19) == theoretical_gim(d, 19, force_quadrature=True)


def test_lognormal_extremes_closed_vs_quadrature_v2():
    d = Lognormal(0.0, 1.0)
    closed = theoretical_extremes(d, 2)
    quad = theoretical_extremes(d, 2, force_quadrature=True)
    assert_allclose(quad, closed, rtol=1e-7)


def test_extremes_validate_order():
    with pytest.raises(ValueError):
        theoretical_extremes(Exponential(1.0), 0)


# ---------------------------------------------------------------------------
# theoretical GIM


def test_theoretical_gim_anchors():
    assert_allclose(theoretical_gim(Exponential(1.0), 2), 0.5, rtol=1e-12)
    assert_allclose(theoretical_gim(Exponential(1.0), 3), 9.0 / 13.0, rtol=1e-12)
    assert_allclose(theoretical_gim(Pareto(3.0, 1.0), 2), 0.2, rtol=1e-12)
    assert_allclose(
        theoretical_gim(Lognormal(0.0, 1.0), 2),
        2.0 * ndtr(1.0 / math.sqrt(2.0)) - 1.0,
        rtol=1e-12,
    )


def test_theoretical_gini_closed_forms():
    # v=2 closed forms: exp -> 1/2 independent of rate; Pareto -> 1/(2a-1);
    # lognormal -> 2*Phi(sigma/sqrt(2)) - 1
    assert_allclose(theoretical_gim(Exponential(3.7), 2), 0.5, rtol=1e-12)
    for a in (1.5, 2.0, 3.0, 7.0):
        assert_allclose(theoretical_gim(Pareto(a, 2.0), 2), 1.0 / (2.0 * a - 1.0), rtol=1e-12)
    for sig in (0.25, 0.5, 1.0):
        assert_allclose(
            theoretical_gim(Lognormal(0.0, sig), 2),
            2.0 * ndtr(sig / math.sqrt(2.0)) - 1.0,
            rtol=1e-12,
        )


def test_theoretical_gim_scale_free():
    # GIM is a ratio of first-moment functionals: scale parameters drop out
    for v in (2, 3):
        assert_allclose(
            theoretical_gim(Exponential(0.2), v), theoretical_gim(Exponential(5.0), v), rtol=1e-9
        )
        assert_allclose(
            theoretical_gim(Pareto(3.0, 0.5), v), theoretical_gim(Pareto(3.0, 40.0), v), rtol=1e-9
        )
        assert_allclose(
            theoretical_gim(Lognormal(-2.0, 0.7), v),
            theoretical_gim(Lognormal(4.0, 0.7), v),
            rtol=1e-9,
        )


@pytest.mark.parametrize(
    "dist, unit",
    [(Pareto(3.0, 1e308), Pareto(3.0, 1.0)), (Lognormal(800.0, 1.0), Lognormal(0.0, 1.0)),
     (Exponential(1e-320), Exponential(1.0)), (Exponential(2.5), Exponential(1.0))],
    ids=lambda d: d.params_label(),
)
def test_theoretical_gim_never_sees_the_scale(dist, unit):
    # the unit-scale member is evaluated, so moments past the float range
    # (Pareto's E max near 1e308, the lognormal's exp(800)) cost nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (2, 3, 5):
            assert theoretical_gim(dist, v) == theoretical_gim(unit, v)


@pytest.mark.parametrize("sdlog", [38.0, 300.0])
def test_lognormal_gini_is_one_where_the_mean_overflows(sdlog):
    # 2 Phi(sdlog / sqrt 2) - 1 rounds to 1; the member with mean 1 keeps
    # the closed form's moments in the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert theoretical_gim(Lognormal(0.0, sdlog), 2) == 1.0


@pytest.mark.parametrize("sdlog", [22.0, 25.0])
def test_lognormal_quadrature_converges_at_large_sdlog(sdlog):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [theoretical_gim(Lognormal(0.0, sdlog), v) for v in (3, 4, 12)]
    assert all(0.999 < value <= 1.0 for value in values)


@pytest.mark.parametrize("sdlog", [30.0, 50.0, 300.0])
def test_lognormal_quadrature_past_its_range_raises_without_warning(sdlog):
    # from sdlog 45 on, exp(-sdlog^2 / 2 + sdlog z) underflows to 0 at every
    # node of the first rungs; two zero rungs must not read as converged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureNoConvergence):
            theoretical_gim(Lognormal(0.0, sdlog), 3)


def test_lognormal_population_value_needs_sdlog_squared_in_range():
    with pytest.raises(InvalidArgument, match="need sdlog\\^2 inside the float range"):
        theoretical_gim(Lognormal(0.0, 1e200), 2)


def test_lognormal_mean_is_inf_past_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Lognormal(800.0, 1.0).mean() == math.inf
        assert Lognormal(0.0, 1e200).mean() == math.inf
        assert Lognormal(-800.0, 1.0).mean() == 0.0
    assert Lognormal(0.0, 1.0).mean() == math.exp(0.5)


def test_theoretical_gim_increases_with_order():
    for dist in (Exponential(1.0), Pareto(3.0, 1.0), Lognormal(0.0, 0.5)):
        values = [theoretical_gim(dist, v) for v in (2, 3, 4)]
        assert values[0] < values[1] < values[2]


@pytest.mark.parametrize(
    "dist", [Exponential(1.0), Pareto(3.0, 1.0), Lognormal(0.0, 0.5)], ids=lambda d: d.params_label()
)
def test_large_sample_estimate_matches_theory(dist):
    """End to end: a big seeded sample lands within 4 jackknife SEs of truth."""
    s = draw_sample(dist, 100_000, SeededStream(2024, 0))
    for v in (2, 3):
        est = gim_ustat(s, v)
        se = jackknife_variance(s, v).std_error
        assert abs(est.value - theoretical_gim(dist, v)) < 4.0 * se


# ---------------------------------------------------------------------------
# quantile values on the mesh, shared across orders


def _depths_of_calls(cls, name):
    """A spy on ``cls.name`` and the list of mesh depths it was called on."""
    depths = []
    original = getattr(cls, name)

    def spy(self, u, cu):
        depths.append(len(u) // 2)  # a depth-L mesh has 2L panels, one per row
        return original(self, u, cu)

    return mock.patch.object(cls, name, spy), depths


def test_population_values_evaluate_the_quantile_once_per_depth():
    _on_mesh.cache_clear()
    patch, depths = _depths_of_calls(Lognormal, "_q")
    with patch:
        shared = [theoretical_gim(Lognormal(0.0, 1.0), v) for v in range(3, 13)]
    # one call per depth, the ladder's depths from 6 on, not one per order
    assert depths == [6 * 2**k for k in range(len(depths))]
    alone = []
    for v in range(3, 13):
        _on_mesh.cache_clear()
        alone.append(theoretical_gim(Lognormal(0.0, 1.0), v))
    assert shared == alone


def test_numerator_variances_evaluate_the_quantile_density_once_per_depth():
    _on_mesh.cache_clear()
    patch, depths = _depths_of_calls(Lognormal, "_qd")
    with patch:
        shared = [edf_numerator_variance(Lognormal(0.0, 1.0), v) for v in (2, 3, 4)]
    assert depths == [6 * 2**k for k in range(len(depths))]
    alone = []
    for v in (2, 3, 4):
        _on_mesh.cache_clear()
        alone.append(edf_numerator_variance(Lognormal(0.0, 1.0), v))
    assert shared == alone


def test_cached_quantile_values_are_read_only():
    q = _on_mesh(Pareto(3.0, 1.0), "_q", 6)
    assert not q.flags.writeable
    with pytest.raises(ValueError):
        q[0, 0] = 0.0
    m = quadrature.mesh(6)
    assert np.array_equal(q, Pareto(3.0, 1.0)._q(m.u, m.cu))


def test_cache_keys_on_the_member_by_value():
    _on_mesh.cache_clear()
    narrow = _on_mesh(Lognormal(0.0, 0.5), "_q", 6)
    wide = _on_mesh(Lognormal(0.0, 1.0), "_q", 6)
    assert not np.array_equal(narrow, wide)
    assert _on_mesh(Pareto(3, 1), "_q", 6) is _on_mesh(Pareto(3.0, 1.0), "_q", 6)
    assert _on_mesh.cache_info().misses == 3


def test_sampling_does_not_share_the_mesh_values():
    # inverse_transform sorts its quantile values in place: a draw must
    # neither read nor write a cached array
    _on_mesh.cache_clear()
    fresh = draw_sample(Lognormal(0.0, 1.0), 500, SeededStream(9, 0)).values
    value = theoretical_gim(Lognormal(0.0, 1.0), 4)
    assert np.array_equal(draw_sample(Lognormal(0.0, 1.0), 500, SeededStream(9, 0)).values, fresh)
    assert theoretical_gim(Lognormal(0.0, 1.0), 4) == value
