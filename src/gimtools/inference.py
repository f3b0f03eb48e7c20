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
  with z from the library's own Cephes ``ndtri`` port at the lower tail
  (1 - level)/2, which carries no rounding for level >= 1/2 (scipy is not
  loaded), computed once per level;
* ``edf_numerator_variance`` — the asymptotic variance of the sqrt(n)-scaled
  plug-in numerator, evaluated by graded quadrature of its covariance
  double integral on the family's unit-scale member, then scaled back; its
  inner integral within a panel comes from the panel's own nodes through
  the Gauss-Legendre integration matrix, and Q' on the mesh comes from the
  cache that the population values share.

The plug-in ratio variance carries no covariance correction between the
numerator and denominator statistics, and measurably overstates the
variance (by about 4x for the exponential family at v = 2); the jackknife
tracks the true sampling variance closely and is the recommended default.
Both are reported so the two can be compared side by side.

The jackknife's block sweeps, which keep the bits of one sequential scan
and hold one length-n array beside the weights, are described in
:func:`leave_one_out`.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import quadrature
from .distributions import _ndtri_lower, _on_mesh
from .errors import InvalidArgument, InvalidLevel, InvalidStdError, SampleTooSmall, ZeroMean
from .measures import (_BLOCK, _check_order, _powers, _unscale, _ustat_sums, extreme_sums,
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

    Both sweeps run over the same blocks of ``measures._BLOCK`` positions,
    counted from the top, through one running-sum helper that folds the
    carried total into the block's first term: bit for bit the values of
    one sequential ``np.cumsum`` per side.  The ascending sweep scales each
    block, keeps the max side's prefix sums in the returned array and only
    the min side's total below each block.  The descending sweep treats
    every block alike: it scales the block again, rebuilds the min side's
    prefix sums from that total, adds both sides' suffix sums, and forms
    the block's ratios in place while it is still in cache.  Beside the
    weights, the returned array is the only length-n allocation.

    Deleting the maximum leaves the n-1 smallest values.  When the largest
    of them lies in a lower binade, the ascending sweep runs once more at
    their own scale, so that incomes far below the maximum cannot
    underflow to zero; that deletion's ratio is taken on its own.

    A deletion that leaves a constant sample (any deletion from a constant
    sample, or deleting the one value that differs from the rest at either
    end) gets, bit for bit, the estimator's value on that sample: 0.0 for
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
    values = s.values
    if values[-2] == 0.0 < values[-1]:
        raise ZeroMean(
            "GIM undefined for a leave-one-out sample: deleting the only nonzero "
            "income leaves an all-zero sample"
        )
    w_hi, w_lo = extreme_weights(kind, m, v)

    def estimate(rest):
        return gim_ratio(*extreme_sums(rest, w_hi, w_lo, v)[:2])[0]

    if values[0] == values[-1]:
        # every deletion leaves the same constant sample: estimate it once
        return np.full(n, estimate(values[:m]))
    w_up = w_lo[::-1]  # the min side's weights bottom-up, like the sample
    size = min(m, _BLOCK)
    # one block of the scaled sample and the value above it; the min side's
    # sums for one block of deletions; scratch for suffix sums and ratios
    x, low, scratch = np.empty(size + 1), np.empty(size + 1), np.empty(size)
    blocks = [(max(stop - _BLOCK, 0), stop) for stop in range(m, 0, -_BLOCK)]
    out = np.empty(n)

    def running(w, xs, carry, sums):
        # sums[i] = carry + the sum of w[j] * xs[j], j <= i; returns the last
        np.multiply(w, xs, out=sums)
        sums[0] += carry
        return np.add.accumulate(sums, out=sums)[-1]

    def ascend(exponent):
        # out[k] = the max side's sum of weight j times value j, j < k; returns
        # the min side's total below each block, bottom-up, and over all m
        out[0] = total = 0.0
        below = []
        for start, stop in reversed(blocks):
            t = np.ldexp(values[start:stop], -exponent, out=x[:stop - start])
            below.append(total)
            running(w_hi[start:stop], t, out[start], out[start + 1:stop + 1])
            total = running(w_up[start:stop], t, total, low[:stop - start])
        return below, total

    # Deleting the maximum leaves the n-1 smallest values, summed at the
    # scale of the largest of them; in the maximum's binade these are the
    # sums that the sweeps below use as well
    exponent, top = math.frexp(values[m])[1], math.frexp(values[m - 1])[1]
    below, total = ascend(top)
    # gim_ratio's arithmetic, on Python floats: on numpy scalars its calls
    # cost about as much as all the sums of a small sample
    hi, lo = float(out[m]), float(total)
    theta_top = max(hi - lo, 0.0) / (hi + lo)
    if top != exponent:
        below, _ = ascend(exponent)
    carry_hi = carry_lo = 0.0
    for (start, stop), base in zip(blocks, reversed(below)):  # descending
        width = stop - start
        t = np.ldexp(values[start:stop + 1], -exponent, out=x[:width + 1])
        low[0] = base
        running(w_up[start:stop], t[:width], base, low[1:width + 1])
        # deletion start + i adds weight j times value j + 1, start + i <= j < m
        up = scratch[:width]
        carry_hi = running(w_hi[start:stop][::-1], t[:0:-1], carry_hi, up[::-1])
        out[start:stop] += up
        carry_lo = running(w_up[start:stop][::-1], t[:0:-1], carry_lo, up[::-1])
        low[:width] += up
        # gim_ratio in place, into out.  No denominator is zero: each of
        # these deletions keeps the maximum, scaled into [0.5, 1), at
        # weight w_hi[m - 1] = v/m > 0
        hi, lo = out[start:stop], low[:width]
        denominator = np.add(hi, lo, out=scratch[:width])
        np.maximum(np.subtract(hi, lo, out=hi), 0.0, out=hi)
        np.divide(hi, denominator, out=hi)
    out[m] = theta_top
    # the only deletions that can leave a constant sample
    if values[1] == values[-1]:
        out[0] = estimate(values[1:])
    elif values[0] == values[m - 1]:
        out[m] = estimate(values[:m])
    return out


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
    theta -= theta[0] if s.values[0] == s.values[-1] else np.mean(theta)
    variance = (s.n - 1) / s.n * float(np.sum(np.square(theta, out=theta)))
    return VarianceEstimate(
        variance=variance, method="jackknife", std_error=float(np.sqrt(variance))
    )


def _check_level(level):
    """Raise InvalidLevel unless the confidence ``level`` lies inside (0, 1)."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"confidence level must be inside (0, 1), got {level!r}")


@lru_cache(maxsize=16)
def _two_sided_z(level):
    """z for a two-sided normal interval of ``level``, computed once per level.

    The ndtri port works on arrays: on one scalar it costs about 0.1 ms,
    against well under 1 us for a cached lookup, and a report makes one
    interval per order, all at one level.
    """
    return -float(_ndtri_lower((1.0 - level) / 2.0))


def confidence_interval(point, ve, level=0.95):
    """Normal-approximation confidence interval around a GIM estimate.

    Returns a copy of ``ve`` with ``level``, ``ci_low`` and ``ci_high``
    filled: point -/+ z * std_error with z the (1+level)/2 standard normal
    quantile, taken as minus the (1-level)/2 one so that the tail stays
    exact, clamped to [0, 1] since the measure lives there.  A ``point``
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
    z = _two_sided_z(float(level))
    low = min(max(point - z * ve.std_error, 0.0), 1.0)
    high = min(max(point + z * ve.std_error, 0.0), 1.0)
    return replace(ve, level=level, ci_low=low, ci_high=high)


def _edf_numerator_variance_at(dist, v, levels, lift):
    """Fixed-depth evaluation of the numerator covariance double integral.

    The sqrt(n)-scaled plug-in numerator has limiting variance

        v^2 * int int [min(F(x), F(z)) - F(x) F(z)] J(x) J(z) dx dz,

    J(x) = F(x)^(v-1) - (1-F(x))^(v-1).  Substituting u = F(x), w = F(z)
    and using symmetry reduces it to

        2 v^2 * int_0^1 (1-w) Phi(w) [ int_0^w u Phi(u) du ] dw,

    with Phi(u) = (u^(v-1) - (1-u)^(v-1)) * Q'(u), evaluated once, on the
    mesh.  Off-diagonal panel pairs separate into products (one prefix
    accumulator); within a panel, :func:`~gimtools.quadrature.integration_matrix`
    gives the inner integral from the panel's own nodes.  The per-panel sums
    are accumulated in panel order by ``np.cumsum``.  Phi is taken times
    2**lift, exactly, and so the value times 4**lift.
    """
    m = quadrature.mesh(levels)
    f = np.ldexp((m.u ** (v - 1) - m.cu ** (v - 1)) * _on_mesh(dist, "_qd", levels), lift)
    g = m.u * f
    # int of u Phi(u) du from the panel's left edge to each node, one
    # matrix-vector product per panel: a matrix-matrix product over all
    # panels rounds some rows differently from the per-panel product
    inner = m.h[:, None] * (quadrature.integration_matrix() @ g[:, :, None])[:, :, 0]
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

    The integral runs on the family's unit-scale member (rate 1, scale 1 or
    meanlog 0), and the result is multiplied by the member's scale squared:
    the variance is quadratic in Q', and Q' is the scale times the unit
    member's.  So a scale near the float range's edges neither loses digits
    in the integrand nor stops the ladder, and a variance past the float
    range reads ``inf`` without a warning.  Likewise Phi is lifted by the
    power of two that brings the size of the unit member's Q' (1, 1/shape
    or sdlog) to at least 1/2, one exponent for the whole ladder, which the
    result sheds after convergence.  A lift only scales by a power of two,
    so a member whose unlifted ladder stays out of the subnormals keeps its
    bits, while a tiny sdlog or 1/shape keeps its digits down to the
    subnormal spacing and reads 0.0, not a ladder of zeros, once the
    variance falls below it.

    Heavy tails slow the ladder down (the integrand's endpoint singularity
    sharpens as the Pareto shape approaches 2); shapes much below 2.5 may
    exhaust the ladder and raise rather than return a bad number.
    """
    v = _check_order(v)
    if v == 1:
        return 0.0
    unit = dist._unit_member()
    # Phi is linear in Q' and the variance quadratic; a lift never lowers
    # Phi, so no term that the unlifted ladder keeps normal turns subnormal
    lift = max(0, -math.frexp(unit._unit_qd_size())[1])
    variance = quadrature.converge(
        lambda levels: _edf_numerator_variance_at(unit, v, levels, lift), rtol=1e-6
    )
    # shed last, the result rounds once (a subnormal variance of meanlog 5);
    # past the float range with the lift on, each half is shed before a
    # factor of the scale multiplies it, so no step overflows early
    scaled = dist._times_scale(dist._times_scale(variance))
    if math.isfinite(scaled):
        return math.ldexp(scaled, -2 * lift)
    return dist._times_scale(math.ldexp(dist._times_scale(math.ldexp(variance, -lift)), -lift))
