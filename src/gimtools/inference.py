"""Variance estimation and confidence intervals for the GIM estimators.

Large-sample theory says sqrt(n) * (estimate - GIM(v)) is asymptotically
normal for both estimators.  This module provides:

* ``projection_variance`` — the plug-in estimate of the variance driver of
  the U-statistic numerator (the variance of its one-argument projection);
* ``ustat_variance`` — the plug-in large-sample variance of the U-statistic
  ratio built from it (method tag ``"plugin"``);
* ``jackknife_variance`` — exact delete-1 jackknife for either estimator
  (method tag ``"jackknife"``), computed in O(n) with prefix/suffix sums;
* ``confidence_interval`` — normal-approximation intervals clamped to [0, 1],
  with the normal quantile from :class:`statistics.NormalDist` (scipy is not
  loaded; the quantile agrees with ``scipy.special.ndtri`` to about 1e-15
  relative);
* ``edf_numerator_variance`` — the asymptotic variance of the sqrt(n)-scaled
  plug-in numerator, evaluated by graded quadrature of its covariance
  double integral.

The plug-in ratio variance carries no covariance correction between the
numerator and denominator statistics, and measurably overstates the
variance (by about 4x for the exponential family at v = 2); the jackknife
tracks the true sampling variance closely and is the recommended default.
Both are reported so the two can be compared side by side.
"""

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from . import quadrature
from .errors import InvalidArgument, InvalidLevel, InvalidStdError, SampleTooSmall, ZeroMean
from .measures import (_check_order, _powers, _unscale, _ustat_sums, extreme_sums,
                       extreme_weights, gim_ratio)
from .samples import as_sample

METHODS = ("plugin", "jackknife")


@dataclass(frozen=True)
class VarianceEstimate:
    """Variance of a point estimate, with optional confidence interval.

    ``variance`` refers to the estimate itself (not a sqrt(n)-scaled
    quantity).  ``method`` is ``"plugin"`` or ``"jackknife"``.  The interval
    fields are None until :func:`confidence_interval` fills them.
    """

    variance: float
    method: str
    std_error: float
    level: float = None
    ci_low: float = None
    ci_high: float = None


def _running(a):
    """``[0, a[0], a[0] + a[1], ..., sum(a)]``: the len(a) + 1 running sums of ``a``."""
    out = np.zeros(len(a) + 1)
    np.cumsum(a, out=out[1:])
    return out


def projection_variance(s, v):
    """Plug-in variance of the one-argument projection of the range kernel.

    The U-statistic numerator averages the kernel max - min over size-v
    subsets; its asymptotic variance is v^2 times the variance of the
    projection g(X) = E(kernel | one argument fixed at X).  Estimating the
    population distribution by the empirical one (F(X_{i:n}) = i/n) gives

        g_hat(x_i) = x_i * (F_i^(v-1) - Fbar_i^(v-1))
                     + (v-1)/n * sum_{j>i} x_j * F_j^(v-2)
                     - (v-1)/n * sum_{j<i} x_j * Fbar_j^(v-2)

    with F_i = i/n, Fbar_i = (n-i)/n, and the function returns the sample
    variance of g_hat over the data, computed in O(n) with prefix/suffix
    sums.  The interior exponent is v-2, as the projection derivation
    gives, not the v-1 of some printed statements: only v-2 matches the
    analytic exponential value 1/3 at v = 2 (g(x) = x + 2 exp(-x) - 1) and
    Monte Carlo.  The sums run on the power-of-two-scaled sample, so they
    cannot overflow; the result reads ``inf``, without a warning, only when
    the variance itself exceeds the float range.

    Parameters
    ----------
    s : IncomeSample or array_like
    v : int
        Subset order.  v = 1 returns exactly 0 (the kernel is constant).

    Returns
    -------
    float
        Sample variance (denominator n-1) of the estimated projection.
    """
    spread, exponent = _scaled_projection_variance(as_sample(s), v)
    return _unscale(spread, 2 * exponent)


def _scaled_projection_variance(s, v):
    """``(variance, exponent)``: :func:`projection_variance` is ``variance * 4**exponent``."""
    n = s.n
    if n < 2:
        raise SampleTooSmall("projection variance needs at least 2 observations")
    v = _check_order(v, n)
    if v == 1 or s.values[0] == s.values[-1]:
        # v = 1: the kernel is constant.  Degenerate sample: the projection
        # is constant, and the rank-based plug-in below would read the tied
        # ranks i/n as spread instead.
        return 0.0, 0
    x, scale = s.scaled()
    # F_i^e is p[1:] and the survival Fbar_i^e is p[:-1] read top-down
    p1, p2 = _powers(n, v - 1), _powers(n, v - 2)
    lead = x * (p1[1:] - p1[:-1][::-1])
    up = x * p2[1:]
    down = x * p2[:-1][::-1]
    # sum over j > i of up[j]; sum over j < i of down[j]
    tail = _running(up[::-1])[::-1][1:]
    head = _running(down)[:-1]
    g_hat = lead + (v - 1) / n * (tail - head)
    return float(np.var(g_hat, ddof=1)), scale


def ustat_variance(s, v):
    """Plug-in large-sample variance of the U-statistic GIM estimate.

    variance = v^2 * projection_variance / (denominator^2 * n), the
    normal-limit variance of the ratio with the denominator treated as
    fixed.  No numerator/denominator covariance enters (see the module
    docstring for what that omission costs); method tag ``"plugin"``.
    Both parts are taken on the same power-of-two-scaled sample, where
    the scale cancels, so the variance stays finite near the float maximum.
    """
    s = as_sample(s)
    e_max, e_min, _ = _ustat_sums(s, v)
    denominator = gim_ratio(e_max, e_min)[2]
    spread, _ = _scaled_projection_variance(s, v)
    variance = float(v * v * spread / (denominator * denominator * s.n))
    return VarianceEstimate(
        variance=variance, method="plugin", std_error=float(np.sqrt(variance))
    )


def leave_one_out(s, v, kind="ustat"):
    """All n delete-1 estimates of GIM(v), in O(n) total.

    Deleting the observation at sorted position k leaves a sorted sample of
    size n-1 in which positions below k keep their weight index and
    positions above k shift down by one.  Prefix/suffix sums over the
    size-(n-1) weight pair of :func:`~gimtools.measures.extreme_weights`
    (its min side read bottom-up) therefore give every leave-one-out max
    and min moment in one pass; this is the exact delete-1 recomputation,
    not an approximation.  The sample is scaled by the power of two that
    brings its maximum into [0.5, 1) first, so the sums cannot overflow.
    Deleting the maximum leaves the n-1 smallest values, which are summed
    at their own scale, in the same running order, so that incomes far
    below the maximum cannot underflow to zero.

    On a constant sample every deletion leaves the same constant sample,
    and each ``out[k]`` is bit for bit the estimator's value on it: 0.0 for
    ``"ustat"``.

    Returns
    -------
    ndarray
        ``out[k]`` is the estimate with sorted observation k removed.
    """
    s = as_sample(s)
    n = s.n
    m = n - 1
    if m < v or m < 1:
        raise SampleTooSmall(
            f"leave-one-out of order v={v} needs at least {v + 1} observations"
        )
    if s.values[-2] == 0.0 < s.values[-1]:
        raise ZeroMean(
            "GIM undefined for a leave-one-out sample: deleting the only nonzero "
            "income leaves an all-zero sample"
        )
    w_hi, w_lo = extreme_weights(kind, m, v)
    if s.values[0] == s.values[-1]:
        # every deletion leaves the same constant sample: estimate it once
        e_max, e_min, _ = extreme_sums(s.values[:m], w_hi, w_lo, v)
        return np.full(n, gim_ratio(e_max, e_min)[0])
    weights = (w_hi, w_lo[::-1])  # both bottom-up, like the sample
    x, _ = s.scaled()

    def loo_sums(w):
        sums = _running(w * x[:m])                 # weight j at position j   (j < k)
        sums += _running((w * x[1:])[::-1])[::-1]  # weight j at position j+1 (j+1 > k)
        return sums

    sums = [loo_sums(w) for w in weights]
    # Deleting the maximum leaves the n-1 smallest values: sum them again at
    # their own scale, in the same running order, so that incomes far below
    # the maximum cannot underflow to zero.
    rest = np.ldexp(s.values[:m], -np.frexp(s.values[m - 1])[1], out=x[:m])
    for total, w in zip(sums, weights):
        total[m] = np.cumsum(w * rest)[-1]
    return gim_ratio(*sums)[0]


def jackknife_variance(s, v, kind="ustat"):
    """Delete-1 jackknife variance of a GIM estimate.

    variance = (n-1)/n * sum_k (theta_k - theta_bar)^2 over the n
    leave-one-out estimates theta_k of the chosen estimator kind
    (``"ustat"`` or ``"edf"``); method tag ``"jackknife"``.

    Requires n >= max(v+1, 3): the subsamples must support order v, and a
    spread of fewer than 3 leave-one-out values says nothing.
    """
    s = as_sample(s)
    v = _check_order(v)
    if s.n < max(v + 1, 3):
        raise SampleTooSmall(
            f"jackknife of order v={v} needs at least {max(v + 1, 3)} observations"
        )
    theta = leave_one_out(s, v, kind)
    # on a constant sample the n estimates are one float, which their
    # rounded mean can miss by an ulp
    centered = theta - (theta[0] if s.values[0] == s.values[-1] else np.mean(theta))
    variance = (s.n - 1) / s.n * float(np.sum(centered * centered))
    return VarianceEstimate(
        variance=variance, method="jackknife", std_error=float(np.sqrt(variance))
    )


def _check_level(level):
    """Raise InvalidLevel unless the confidence ``level`` lies inside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"confidence level must be inside (0, 1), got {level!r}")


def confidence_interval(point, ve, level=0.95):
    """Normal-approximation confidence interval around a GIM estimate.

    Returns a copy of ``ve`` with ``level``, ``ci_low`` and ``ci_high``
    filled: point -/+ z * std_error with z the (1+level)/2 standard normal
    quantile, clamped to [0, 1] since the measure lives there.  A ``point``
    outside [0, 1] (NaN included) raises InvalidArgument, a level outside
    (0, 1) InvalidLevel, and a NaN, infinite or negative ``std_error``
    InvalidStdError.
    """
    if not 0.0 <= point <= 1.0:
        raise InvalidArgument(f"point estimate must lie in [0, 1], got {point!r}")
    _check_level(level)
    if not 0.0 <= ve.std_error < math.inf:
        raise InvalidStdError(
            f"std_error must be finite and non-negative, got {ve.std_error!r}"
        )
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    low = min(max(point - z * ve.std_error, 0.0), 1.0)
    high = min(max(point + z * ve.std_error, 0.0), 1.0)
    return replace(ve, level=level, ci_low=low, ci_high=high)


# panels per block of the within-panel nested rule: its (block, 12, 12)
# temporaries stay small however deep the ladder runs
_NESTED_BLOCK = 128


def _edf_numerator_variance_at(dist, v, levels):
    """Fixed-depth evaluation of the numerator covariance double integral.

    The sqrt(n)-scaled plug-in numerator has limiting variance

        v^2 * int int [min(F(x), F(z)) - F(x) F(z)] J(x) J(z) dx dz,

    J(x) = F(x)^(v-1) - (1-F(x))^(v-1).  Substituting u = F(x), w = F(z)
    and using symmetry reduces it to

        2 v^2 * int_0^1 (1-w) Phi(w) [ int_0^w u Phi(u) du ] dw,

    with Phi(u) = (u^(v-1) - (1-u)^(v-1)) * Q'(u).  Off-diagonal panel
    pairs separate into products (one prefix accumulator), and only the
    within-panel diagonal needs a nested rule.  Phi runs on whole mesh
    arrays; the per-panel sums are accumulated in panel order by ``np.cumsum``.
    """
    xi, wi = quadrature.unit_rule()
    m = quadrature.mesh(levels)

    def phi(u, cu):
        return (u ** (v - 1) - cu ** (v - 1)) * dist._qd(u, cu)

    f = phi(m.u, m.cu)
    # within-panel part: the inner integral up to node k restarts at the
    # panel edge, on nodes [p, k, :] spanning width hk[p, k] = h[p] * xi[k]
    inner = np.empty_like(f)
    for start in range(0, f.shape[0], _NESTED_BLOCK):
        rows = slice(start, start + _NESTED_BLOCK)
        hk = m.h[rows, None] * xi
        step = hk[:, :, None]
        right = m.anchored_right[rows, None, None]
        uu = np.where(right, m.u[rows, :, None] - step * (1.0 - xi), m.a[rows, None, None] + step * xi)
        cuu = np.where(right, m.cu[rows, :, None] + step * (1.0 - xi), m.ca[rows, None, None] - step * xi)
        inner[rows] = hk * np.sum(wi * uu * phi(uu, cuu), axis=2)
    outer = m.w * m.cu * f
    # int_0^a u Phi(u) du over the panels before each one
    prefix = _running(np.sum(m.w * m.u * f, axis=1))[:-1]
    off_diagonal = np.cumsum(2.0 * np.sum(outer, axis=1) * prefix)[-1]
    diagonal = np.cumsum(2.0 * np.sum(outer * inner, axis=1))[-1]
    return v * v * float(off_diagonal + diagonal)


def edf_numerator_variance(dist, v):
    """Asymptotic variance of the sqrt(n)-scaled plug-in numerator.

    Evaluated on endpoint-graded Gauss-Legendre panels, doubling the
    grading depth until two successive values agree to a fixed 1e-6
    relative tolerance (else QuadratureNoConvergence at the depth cap).
    Exact benchmarks: 4/3 for the unit exponential at v = 2, three times
    that at v = 3, and 363/175 for Pareto(shape 3, scale 1) at v = 2.

    Heavy tails slow the ladder down (the integrand's endpoint singularity
    sharpens as the Pareto shape approaches 2); shapes much below 2.5 may
    exhaust the ladder and raise rather than return a bad number.
    """
    v = _check_order(v)
    if v == 1:
        return 0.0
    return quadrature.converge(
        lambda levels: _edf_numerator_variance_at(dist, v, levels), rtol=1e-6
    )
