"""Panel Gauss-Legendre quadrature on (0, 1) with endpoint grading.

The integrals behind the theoretical inequality measures live on the unit
interval after the substitution u = F(x), and their integrands routinely
blow up (integrably) at one or both endpoints — e.g. heavy-tail quantile
densities behave like (1-u)^(-1-1/alpha) near 1.  Fixed-order Gauss-Legendre
on a *dyadically graded* mesh (panel breakpoints 2^-j and 1 - 2^-j) handles
such algebraic singularities geometrically: each extra grading level shaves
a constant factor off the endpoint truncation error.

Two floating-point details matter near u = 1:

* breakpoints 1 - 2^-j stop being representable once j exceeds ~52, so a
  panel is carried as (left endpoint, complement of left endpoint, width)
  with the width an exact power of two;
* integrands receive both u and cu = 1 - u, each computed from the exact
  dyadic quantity on its own side, so a factor like cu^(-4/3) never sees a
  rounded-to-zero complement.

All integrand callables in this module therefore have signature f(u, cu)
with u + cu = 1 elementwise.
"""

from functools import lru_cache

import numpy as np

from .errors import QuadratureNoConvergence

GL_ORDER = 12
# beyond this depth panel widths approach the subnormal floor and stop
# contributing; the convergence ladder treats deeper requests as exhausted
MAX_LEVELS = 900


@lru_cache(maxsize=None)
def unit_rule(order=GL_ORDER):
    """Gauss-Legendre nodes/weights mapped to the unit interval (0, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return (nodes + 1.0) / 2.0, weights / 2.0


def graded_panels(levels):
    """Dyadically graded panel decomposition of (0, 1).

    Returns a list of ``(left, left_complement, width, anchored_right)``
    tuples covering (0, 1): widths shrink geometrically toward both
    endpoints, down to 2^-levels.  Panels in the upper half are flagged
    ``anchored_right`` — their node positions should be derived from the
    (exactly representable) complement of the right endpoint.
    """
    levels = min(int(levels), MAX_LEVELS)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    panels = [(0.0, 1.0, 2.0 ** -levels, False)]
    for j in range(levels, 1, -1):  # [2^-j, 2^-(j-1)]
        panels.append((2.0 ** -j, 1.0 - 2.0 ** -j, 2.0 ** -j, False))
    for j in range(2, levels + 1):  # [1 - 2^-(j-1), 1 - 2^-j]
        panels.append((1.0 - 2.0 ** -(j - 1), 2.0 ** -(j - 1), 2.0 ** -j, True))
    panels.append((1.0 - 2.0 ** -levels, 2.0 ** -levels, 2.0 ** -levels, True))
    return panels


def panel_nodes(panel, order=GL_ORDER):
    """Gauss-Legendre nodes of one panel as (u, cu, weights).

    ``u + cu == 1`` with each side accurate: left-anchored panels build u
    from the left endpoint, right-anchored ones build cu from the right
    endpoint's complement.
    """
    a, ca, h, anchored_right = panel
    xi, wi = unit_rule(order)
    if anchored_right:
        cb = ca - h  # complement of right endpoint, exact (both dyadic)
        cu = cb + h * (1.0 - xi)
        u = 1.0 - cu
    else:
        u = a + h * xi
        cu = ca - h * xi
    return u, cu, h * wi


def integrate_graded(f, levels, order=GL_ORDER):
    """Integrate ``f(u, cu)`` over (0, 1) on the graded mesh."""
    total = 0.0
    for panel in graded_panels(levels):
        u, cu, w = panel_nodes(panel, order)
        total += float(np.sum(w * f(u, cu)))
    return total


def converge(evaluate, rtol, max_doublings=12, start_levels=6):
    """Run an evaluation ladder, doubling the grading depth until stable.

    Parameters
    ----------
    evaluate : callable
        ``evaluate(levels)`` returns a float, or a tuple or array of floats
        refined together; typically wraps :func:`integrate_graded` or a
        nested scheme built on :func:`graded_panels`.  Each rung runs with
        numpy overflow and invalid-value warnings silenced: a rung whose
        value is not finite raises instead.
    rtol : float
        Stop once two successive ladder values agree to this relative
        tolerance: the largest absolute change is at most ``rtol`` times
        the largest absolute value.
    max_doublings : int
        Number of doublings to attempt past the first evaluation.
    start_levels : int
        Grading depth of the first rung.

    Returns
    -------
    float, tuple or ndarray
        The last ladder value, as ``evaluate`` returned it.

    Raises
    ------
    QuadratureNoConvergence
        If a rung's value is not finite, or the ladder is exhausted without
        two successive values agreeing; the message names the grading
        depth reached and the last two values.  Agreement only counts
        between *distinct* meshes: once the depth cap is reached the mesh
        stops changing, and comparing a mesh to itself would declare
        convergence for any integrand, however hostile.
    """
    levels = start_levels
    values = []
    reason = f"no convergence to rtol={rtol:g}"
    for _ in range(max_doublings + 1):
        depth = min(levels, MAX_LEVELS)
        with np.errstate(over="ignore", invalid="ignore"):
            current = evaluate(levels)
        values.append(current)
        if not np.all(np.isfinite(current)):
            reason = "non-finite value"
            break
        if len(values) > 1:
            change = np.max(np.abs(np.subtract(current, values[-2])))
            if change <= rtol * max(np.max(np.abs(current)), 1e-300):
                return current
        levels *= 2
        if min(levels, MAX_LEVELS) == depth:
            break  # grading exhausted; no fresh mesh left to compare
    raise QuadratureNoConvergence(
        f"{reason} at grading depth {depth}; last two values: {values[-2:]}"
    )
