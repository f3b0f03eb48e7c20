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

Evaluation runs on whole arrays.  :func:`mesh` builds, once per depth and
cached, the read-only ``(P, GL_ORDER)`` node arrays of all P panels, each
row with the same expressions a single panel would use; integrands are
called once on those arrays.  ``np.cumsum`` adds the panel sums left to right
in panel order (``np.sum`` adds pairwise), so every result is bit for bit what
a loop over the panels gives: elementwise numpy arithmetic does not depend on
the array's shape, and only the order of the additions could move the bits.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, QuadratureNoConvergence, check_integer

GL_ORDER = 12
# beyond this depth panel widths approach the subnormal floor and stop
# contributing; the convergence ladder treats deeper requests as exhausted
MAX_LEVELS = 900


@lru_cache(maxsize=None)
def unit_rule():
    """Gauss-Legendre nodes/weights of order GL_ORDER mapped to (0, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    return (nodes + 1.0) / 2.0, weights / 2.0


def graded_panels(levels):
    """Dyadically graded panel decomposition of (0, 1).

    Returns a list of ``(left, left_complement, width, anchored_right)``
    tuples covering (0, 1): widths shrink geometrically toward both
    endpoints, down to 2^-levels.  Panels in the upper half are flagged
    ``anchored_right`` — their node positions should be derived from the
    (exactly representable) complement of the right endpoint.
    """
    levels = min(check_integer(levels, "levels", InvalidArgument, 1), MAX_LEVELS)
    panels = [(0.0, 1.0, 2.0 ** -levels, False)]
    for j in range(levels, 1, -1):  # [2^-j, 2^-(j-1)]
        panels.append((2.0 ** -j, 1.0 - 2.0 ** -j, 2.0 ** -j, False))
    for j in range(2, levels + 1):  # [1 - 2^-(j-1), 1 - 2^-j]
        panels.append((1.0 - 2.0 ** -(j - 1), 2.0 ** -(j - 1), 2.0 ** -j, True))
    panels.append((1.0 - 2.0 ** -levels, 2.0 ** -levels, 2.0 ** -levels, True))
    return panels


class Mesh(NamedTuple):
    """Gauss-Legendre nodes of every panel of one graded mesh.

    ``u``, ``cu`` and ``w`` are ``(P, GL_ORDER)`` arrays, row p holding the
    nodes, complements and weights of panel p in :func:`graded_panels`
    order; ``a``, ``ca``, ``h`` and ``anchored_right`` are that panel list
    as ``(P,)`` vectors.  All arrays are read-only: the mesh is cached.
    """

    u: np.ndarray
    cu: np.ndarray
    w: np.ndarray
    a: np.ndarray
    ca: np.ndarray
    h: np.ndarray
    anchored_right: np.ndarray


# a ladder from depth 6 visits 9 depths; the bound caps the cache at a few
# MB when callers ask for many distinct depths
@lru_cache(maxsize=16)
def mesh(levels):
    """The graded mesh of depth ``levels`` as node arrays (see :class:`Mesh`).

    ``u + cu == 1`` with each side accurate: left-anchored panels build u
    from the left endpoint, right-anchored ones build cu from the right
    endpoint's complement.
    """
    a, ca, h, anchored_right = (np.array(c) for c in zip(*graded_panels(levels)))
    xi, wi = unit_rule()
    hx = h[:, None] * xi
    right = anchored_right[:, None]
    # right-anchored rows count cu up from the right endpoint's complement
    # ca - h, which is exact (both dyadic)
    cu_right = (ca - h)[:, None] + h[:, None] * (1.0 - xi)
    cu = np.where(right, cu_right, ca[:, None] - hx)
    u = np.where(right, 1.0 - cu_right, a[:, None] + hx)
    w = h[:, None] * wi
    arrays = Mesh(u, cu, w, a, ca, h, anchored_right)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def integrate_graded(f, levels):
    """Integrate ``f(u, cu)`` over (0, 1) on the graded mesh.

    ``f`` is called once, on the whole ``(P, GL_ORDER)`` node arrays; the
    per-panel sums are added left to right in panel order.  An ``f`` that
    returns a ``(k, P, GL_ORDER)`` stack of k integrands gets a length-k
    array, each entry bit for bit its own single integral; otherwise a float.
    """
    m = mesh(levels)
    total = np.cumsum(np.sum(m.w * f(m.u, m.cu), axis=-1), axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total


def converge(evaluate, rtol):
    """Run an evaluation ladder, doubling the grading depth until stable.

    The first rung runs at depth 6; the ladder ends once the depth stops
    growing at the cap MAX_LEVELS (6, 12, ..., 768, then 900: nine rungs).

    Parameters
    ----------
    evaluate : callable
        ``evaluate(levels)`` returns a float, or a tuple or array of floats
        refined together; typically wraps :func:`integrate_graded` or a
        nested scheme built on :func:`mesh`.  Each rung runs with
        numpy overflow and invalid-value warnings silenced: a rung whose
        value is not finite raises instead.
    rtol : float
        Stop once two successive ladder values agree to this relative
        tolerance: the largest absolute change is at most ``rtol`` times
        the largest absolute value.

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
    levels = 6
    values = []
    reason = f"no convergence to rtol={rtol:g}"
    while True:
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
        if min(levels, MAX_LEVELS) <= depth:
            break  # grading exhausted; no fresh mesh left to compare
    raise QuadratureNoConvergence(
        f"{reason} at grading depth {depth}; last two values: {values[-2:]}"
    )
