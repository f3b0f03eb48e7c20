"""Graded Gauss-Legendre panels and the self-refining convergence ladder."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gimtools import QuadratureNoConvergence
from gimtools.quadrature import (
    GL_ORDER,
    MAX_LEVELS,
    converge,
    graded_panels,
    integrate_graded,
    panel_nodes,
    unit_rule,
)


def test_unit_rule_integrates_polynomials_exactly():
    x, w = unit_rule()
    assert_allclose(w.sum(), 1.0, rtol=1e-15)
    # degree 2*GL_ORDER - 1 is the classical exactness limit
    for k in range(2 * GL_ORDER - 1):
        assert_allclose(np.sum(w * x**k), 1.0 / (k + 1), rtol=1e-13)


def test_graded_panels_tile_the_unit_interval():
    panels = graded_panels(8)
    widths = [w for (_, _, w, _) in panels]
    assert sum(widths) == 1.0  # dyadic widths add exactly
    assert panels[0][0] == 0.0
    assert all(b <= 2 * a for a, b in zip(widths, widths[1:]))
    # every left endpoint is consistent with its carried complement
    for left, left_c, _, anchored in panels:
        if not anchored:
            assert left + left_c == 1.0


def test_graded_panels_complements_are_exact():
    """Panels hugging u=1 carry the complement exactly, not via 1.0 - left."""
    panels = graded_panels(80)
    left, left_c, width, anchored = panels[-1]
    assert anchored
    assert left_c == 2.0**-80
    assert left == 1.0  # the rounded sum is useless this deep; cu must not use it
    u, cu, w = panel_nodes(panels[-1])
    assert np.all(cu > 0) and np.all(cu < 2.0**-79)
    assert np.all(u <= 1.0)


def test_integrate_graded_polynomial():
    val = integrate_graded(lambda u, cu: u * u, 6)
    assert_allclose(val, 1 / 3, rtol=1e-13)


@pytest.mark.parametrize(
    "f,exact",
    [
        (lambda u, cu: 1.0 / np.sqrt(u), 2.0),  # left-endpoint singularity
        (lambda u, cu: 1.0 / np.sqrt(cu), 2.0),  # right-endpoint, via complement
        (lambda u, cu: np.log(u), -1.0),
        (lambda u, cu: u ** (-0.25) * cu ** (-0.25), 1.694_426_169_643_232),  # B(3/4, 3/4)
    ],
)
def test_endpoint_singularities(f, exact):
    val = converge(lambda lv: integrate_graded(f, lv), rtol=1e-9)
    assert_allclose(val, exact, rtol=1e-8)


def test_converge_raises_for_divergent_integrand():
    # 1/u is not integrable; the graded sums grow without settling, and the
    # ladder must refuse rather than "converge" once the grading depth caps out
    with pytest.raises(QuadratureNoConvergence):
        converge(lambda lv: integrate_graded(lambda u, cu: 1.0 / u, lv), rtol=1e-6)


def test_converge_depth_cap_is_honest():
    """Once panels hit MAX_LEVELS the mesh stops changing; identical repeat
    evaluations must not be mistaken for convergence."""
    calls = []

    def evaluate(levels):
        calls.append(levels)
        return float(min(levels, MAX_LEVELS))  # keeps moving until the cap

    with pytest.raises(QuadratureNoConvergence):
        converge(evaluate, rtol=1e-12, start_levels=MAX_LEVELS // 2)
    assert len(calls) >= 2


def test_converge_returns_after_agreement():
    val = converge(lambda lv: integrate_graded(lambda u, cu: np.exp(u), lv), rtol=1e-10)
    assert_allclose(val, np.e - 1.0, rtol=1e-10)


def test_converge_ladders_a_pair_together():
    """Tuple values converge on the largest change against the largest value."""
    calls = []

    def evaluate(levels):
        calls.append(levels)
        return (
            integrate_graded(lambda u, cu: 1.0 / np.sqrt(u), levels),
            integrate_graded(lambda u, cu: np.exp(u), levels),
        )

    first, second = converge(evaluate, rtol=1e-10)
    assert_allclose(first, 2.0, rtol=1e-9)
    assert_allclose(second, np.e - 1.0, rtol=1e-10)
    # the singular component sets the pace; the smooth one alone would stop at once
    assert len(calls) > 2


def test_converge_raises_on_non_finite_rung():
    def evaluate(levels):
        return np.float64(1e308) * levels if levels >= 24 else 1.0 / levels

    with pytest.raises(QuadratureNoConvergence, match=r"non-finite value at grading depth 24"):
        converge(evaluate, rtol=1e-12)


def test_converge_message_names_depth_and_last_values():
    with pytest.raises(QuadratureNoConvergence, match=r"grading depth 900; last two values: \[450.0, 900.0\]"):
        converge(lambda levels: float(min(levels, MAX_LEVELS)), rtol=1e-12, start_levels=MAX_LEVELS // 2)
