"""Parametric families: transforms, seeded sampling, theoretical values."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

from gimtools import (
    Exponential,
    InvalidProbability,
    Lognormal,
    Pareto,
    SeededStream,
    draw_sample,
    gim_ustat,
    jackknife_variance,
    make_sample,
    theoretical_extremes,
    theoretical_gim,
)
from gimtools.distributions import FAMILIES

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


def test_lognormal_point_values():
    d = Lognormal(0.0, 1.0)
    assert_allclose(d.cdf(1.0), 0.5, rtol=1e-14)
    assert_allclose(d.quantile(0.5), 1.0, rtol=1e-12)
    assert_allclose(d.mean(), np.exp(0.5), rtol=1e-14)
    assert d.cdf(0.0) == 0.0 and d.density(0.0) == 0.0


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


@pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1])
def test_quantile_rejects_boundary(u):
    for dist in (Exponential(1.0), Pareto(3.0, 1.0), Lognormal(0.0, 1.0)):
        with pytest.raises(InvalidProbability):
            dist.quantile(u)
        with pytest.raises(InvalidProbability):
            dist.quantile_density(u)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Pareto(1.0, 1.0)  # infinite mean; the measure is undefined
    with pytest.raises(ValueError):
        Pareto(3.0, 0.0)
    with pytest.raises(ValueError):
        Lognormal(0.0, 0.0)


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
    """The float closed form cancels badly past v = 18; quadrature takes over."""
    for v in range(2, 31):
        exact = _pareto_gim_exact(shape, v)
        assert abs(Fraction(theoretical_gim(Pareto(shape, 1.0), v)) - exact) <= 1e-11 * exact


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
