"""Graded Gauss-Legendre panels and the self-refining convergence ladder."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gimtools import Exponential, InvalidArgument, Lognormal, Pareto, QuadratureNoConvergence
from gimtools.quadrature import (
    GL_ORDER,
    MAX_LEVELS,
    converge,
    graded_panels,
    integrate_graded,
    mesh,
    unit_rule,
)

# the ladder's rungs up to the deepest one the population values reach
DEPTHS = [6 * 2**k for k in range(7)]  # 6, 12, ..., 384


def _panel_nodes_loop(panel):
    """Gauss-Legendre nodes of one panel as (u, cu, weights), built alone.

    Test oracle for the rows of :func:`mesh`, which must build every panel
    with the same expressions and so match it bit for bit.
    """
    a, ca, h, anchored_right = panel
    xi, wi = unit_rule()
    if anchored_right:
        cb = ca - h  # complement of right endpoint, exact (both dyadic)
        cu = cb + h * (1.0 - xi)
        u = 1.0 - cu
    else:
        u = a + h * xi
        cu = ca - h * xi
    return u, cu, h * wi


def _integrate_graded_loop(f, levels):
    """Per-panel integration loop: test oracle for :func:`integrate_graded`."""
    total = 0.0
    for panel in graded_panels(levels):
        u, cu, w = _panel_nodes_loop(panel)
        total += float(np.sum(w * f(u, cu)))
    return total


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


def test_graded_panels_reject_a_non_integer_depth():
    # int() would truncate 2.5 to depth 2
    for bad in (0, 2.5, True):
        with pytest.raises(InvalidArgument, match=f"levels must be a positive integer, got {bad!r}"):
            graded_panels(bad)
    assert len(graded_panels(np.int64(3))) == len(graded_panels(3))


def test_graded_panels_complements_are_exact():
    """Panels hugging u=1 carry the complement exactly, not via 1.0 - left."""
    m = mesh(80)
    left, left_c, width, anchored = m.a[-1], m.ca[-1], m.h[-1], m.anchored_right[-1]
    assert anchored
    assert left_c == 2.0**-80
    assert left == 1.0  # the rounded sum is useless this deep; cu must not use it
    u, cu = m.u[-1], m.cu[-1]
    assert np.all(cu > 0) and np.all(cu < 2.0**-79)
    assert np.all(u <= 1.0)


@pytest.mark.parametrize("levels", [1, 2, 8, 80] + DEPTHS + [MAX_LEVELS])
def test_mesh_rows_are_the_panels_node_by_node(levels):
    m = mesh(levels)
    panels = graded_panels(levels)
    assert m.u.shape == m.cu.shape == m.w.shape == (len(panels), GL_ORDER)
    for p, panel in enumerate(panels):
        assert (m.a[p], m.ca[p], m.h[p], m.anchored_right[p]) == panel
        u, cu, w = _panel_nodes_loop(panel)
        assert m.u[p].tobytes() == u.tobytes()
        assert m.cu[p].tobytes() == cu.tobytes()
        assert m.w[p].tobytes() == w.tobytes()


def test_mesh_is_cached_and_read_only():
    m = mesh(12)
    assert mesh(12) is m
    for array in m:
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        m.u[0, 0] = 0.5


@pytest.mark.parametrize(
    "dist",
    [Exponential(1.0), Pareto(3.0, 1.0), Pareto(1.8, 1.0), Lognormal(0.0, 0.5), Lognormal(0.0, 1.0)],
    ids=repr,
)
@pytest.mark.parametrize("v", [1, 2, 5, 12])
def test_integrate_graded_bit_identical_to_panel_loop(dist, v):
    """The extreme-moment integrands, at every rung up to depth 384."""
    integrands = (
        lambda u, cu: dist._q(u, cu) * u ** (v - 1),
        lambda u, cu: dist._q(u, cu) * cu ** (v - 1),
    )
    for levels in DEPTHS:
        for f in integrands:
            assert integrate_graded(f, levels) == _integrate_graded_loop(f, levels)


@pytest.mark.parametrize(
    "dist",
    [Exponential(1.0), Pareto(3.0, 1.0), Pareto(1.8, 1.0), Lognormal(0.0, 1.0)],
    ids=repr,
)
@pytest.mark.parametrize("v", [1, 2, 12])
def test_integrate_graded_stack_is_its_single_integrals(dist, v):
    """Each component of a stacked integrand is bit for bit its own call."""
    integrands = (
        lambda u, cu: dist._q(u, cu) * u ** (v - 1),
        lambda u, cu: dist._q(u, cu) * cu ** (v - 1),
        lambda u, cu: np.exp(u),
    )
    for levels in DEPTHS:
        stacked = integrate_graded(lambda u, cu: np.stack([f(u, cu) for f in integrands]), levels)
        assert stacked.shape == (len(integrands),)
        singles = [integrate_graded(f, levels) for f in integrands]
        assert all(isinstance(single, float) for single in singles)
        assert stacked.tolist() == singles


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
        converge(evaluate, rtol=1e-12)
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
    # the ladder runs 6, 12, ..., 768, then 1536 capped at depth 900
    with pytest.raises(QuadratureNoConvergence, match=r"grading depth 900; last two values: \[768.0, 900.0\]"):
        converge(lambda levels: float(min(levels, MAX_LEVELS)), rtol=1e-12)
