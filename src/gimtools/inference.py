"""Variance estimation and confidence intervals for the GIM estimators.

Large-sample theory says sqrt(n) * (estimate - GIM(v)) is asymptotically
normal for both estimators.  This module provides:

* ``projection_variance`` — the plug-in estimate of the variance driver of
  the U-statistic numerator (the variance of its one-argument projection);
* ``ustat_variance`` — the plug-in large-sample variance of the U-statistic
  ratio built from it (method tag ``"plugin"``);
* ``jackknife_variance`` — exact delete-1 jackknife for either estimator
  (method tag ``"jackknife"``), computed in O(n) from the deviations of the
  delete-1 estimates from the full-sample one;
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

The jackknife's deviation form, the deletions it takes directly, and its
two block passes are described in :func:`leave_one_out`.  Beside the
weights, ``leave_one_out`` holds only the estimates it returns, and
``jackknife_variance``, which folds the deviations a block at a time, no
length-n array at all.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import quadrature
from .distributions import _ndtri_lower, _on_mesh
from .errors import InvalidArgument, InvalidLevel, InvalidStdError, SampleTooSmall, ZeroMean
from .measures import (_BLOCK, _check_order, _estimate, _powers, _unscale, _ustat_sums,
                       extreme_weights, gim_ratio)
from .samples import IncomeSample, as_sample

METHODS = ("plugin", "jackknife")

# 0, 1, ..., _BLOCK - 1: the offsets within a jackknife block, from which it
# forms the weights' step ratios; one shared array, not a buffer per call
_OFFSETS = np.arange(float(_BLOCK))


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


def _accumulate_from(terms, carry):
    """``terms[i] = carry + terms[0] + ... + terms[i]``, in place; returns the last."""
    terms[0] += carry
    return np.add.accumulate(terms, out=terms)[-1]


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
    the variance itself exceeds the float range.  Five length-n arrays are
    alive at most (the scaled sample, g_hat, one power array and the two
    running sums), and ``np.var``'s mean, centring and squares are taken
    in place, with the same bits.

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
    p = _powers(n, v - 1)
    g_hat = np.subtract(p[1:], p[:-1][::-1])
    g_hat *= x
    p = _powers(n, v - 2)
    # read top-down, tail holds the sums over j > i of x_j p[j + 1], summed
    # from the top; head[i] the sums over j < i of x_j p[n - 1 - j]
    tail, head = np.zeros(n + 1), np.zeros(n + 1)
    np.cumsum(np.multiply(x[::-1], p[:0:-1], out=tail[1:]), out=tail[1:])
    np.cumsum(np.multiply(x, p[-2::-1], out=head[1:]), out=head[1:])
    inner = np.subtract(tail[-2::-1], head[:-1], out=head[:-1])
    inner *= (v - 1) / n
    g_hat += inner
    # np.var(g_hat, ddof=1), centred and squared in place
    g_hat -= np.add.reduce(g_hat) / n
    return float(np.add.reduce(np.square(g_hat, out=g_hat)) / (n - 1)), scale


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


def _deviations(s, v, kind, out=None):
    """``(theta, blocks)``: the n delete-1 deviations of GIM(v), in O(n).

    ``blocks`` yields ``(start, dev, direct)`` over blocks of ``_BLOCK``
    sorted positions counted from the top, top block first.  ``dev[i]`` is
    theta_{-k} - theta for k = start + i: the estimate with sorted
    observation k removed minus ``theta``.  ``direct`` maps the block's
    deletions taken on their own (see :func:`leave_one_out`) to their
    estimates.  Given a length-n ``out``, ``dev`` is ``out[start:stop]``,
    where the ascending pass keeps every block's B_k; without one, ``dev``
    is a block buffer that the next block overwrites, and each lower
    block's B_k is rebuilt from its carry.  On a constant sample, and at
    v = 1, every deletion leaves the same estimate: ``theta`` is that
    estimate and every deviation 0.
    """
    n, m = s.n, s.n - 1
    if m < v or m < 1:
        raise SampleTooSmall(f"leave-one-out of order v={v} needs at least {v + 1} observations")
    values = s.values
    if values[-2] == 0.0 < values[-1]:
        raise ZeroMean("GIM undefined for a leave-one-out sample: deleting the only nonzero "
                       "income leaves an all-zero sample")
    blocks = [(max(stop - _BLOCK, 0), stop) for stop in range(n, 0, -_BLOCK)]
    low = np.empty(min(n, _BLOCK) + 1) if out is None else None

    def held(start, stop):
        # where a block's B_k, and then its deviations, are kept
        return low[:stop - start] if out is None else out[start:stop]

    if v == 1 or values[0] == values[-1]:
        (low if out is None else out).fill(0.0)
        theta = _estimate(kind, IncomeSample(values[:m]), v).value
        return theta, ((start, held(start, stop), {}) for start, stop in blocks)
    # The size-n pair times c = n/(n-v) (ustat) or (n/m)**v (edf) is the
    # size-m build and one entry more: the max side's top and the min
    # side's bottom, the same entry for ustat, v/m (the build's) for edf.
    w_hi, w_lo = extreme_weights(kind, m, v)
    top = v / (n - v) if kind == "ustat" else v / m * (n / m) ** (v - 1)
    bottom = top if kind == "ustat" else v / m
    exponent = math.frexp(values[m])[1]
    x, step, pad = np.empty((3, min(n, _BLOCK) + 1))

    def load(start, stop, core, below, above, first, down):
        # w[i] = core[start - 1 + i], i = 0..stop - start, with below at
        # core's index -1 and above at its index m; and 1 - w[t-1]/w[t], a
        # weight's step over the weight, at t = first -/+ i: (v-1)/t for
        # ustat, 1 - (1 - 1/t)**(v-1) for edf
        size = stop - start
        w = pad[:size + 1]
        w[0], w[-1] = below, above  # kept where the block reaches past core
        w[start == 0:size + (stop < n)] = core[max(start - 1, 0):stop]
        r = (np.subtract if down else np.add)(first, _OFFSETS[:size], out=step[:size])
        np.maximum(r, 1.0, out=r)  # t = 0 only at an end, where the weight is 0
        if kind == "ustat":
            return w, np.divide(v - 1, r, out=r)
        with np.errstate(divide="ignore"):  # t = 1: log1p(-1) = -inf, the step 1
            np.log1p(np.divide(-1.0, r, out=r), out=r)
        return w, np.negative(np.expm1(np.multiply(r, v - 1, out=r), out=r), out=r)

    def rising(start, stop, below):
        # the block scaled into `x`; with b the scaled min side, bottom-up,
        # b x over the block where its B_k are kept, and r_k = below +
        # sum_{j<=k} (b[j] - b[j+1]) x_j
        t = np.ldexp(values[start:stop], -exponent, out=x[:stop - start])
        b, r = load(start, stop, w_lo[::-1], bottom, 0.0, m - start, True)
        own = np.multiply(b[:-1], t, out=held(start, stop))
        return t, b, r, own, _accumulate_from(np.multiply(r, own, out=r), below)

    # ascending: the totals H = sum a x and L = sum b x, pairwise within
    # each block, and the sum that each block's running sums start from;
    # B_k = b[k+1] x_k + r_k is formed for every block into `out`, else for
    # the top block only
    hi = lo = below = 0.0
    carries = []
    for start, stop in reversed(blocks):
        carries.append(below)
        t, b, r, own, below = rising(start, stop, below)
        lo += np.add.reduce(own)
        if stop == n or out is not None:
            np.add(np.multiply(b[1:], t, out=own), r, out=own)
        a = w_hi[start:stop]  # the top block leaves out the top, added below
        hi += np.add.reduce(np.multiply(a, t[:len(a)], out=r[:len(a)]))
    hi += top * math.ldexp(values[m], -exponent)
    theta = float(max(hi - lo, 0.0) / (hi + lo))
    # the deletions that can leave a constant sample
    ends = {k for k, rest in ((0, values[1:]), (m, values[:m])) if rest[0] == rest[-1]}

    def descend():
        # A_k = a[k-1] x_k + sum_{i>=k} (a[i] - a[i-1]) x_i, and in place of
        # B_k, theta_{-k} - theta = 2 (H B_k - L A_k) / (D (D - A_k - B_k))
        # with D = H + L.  Without `out`, a lower block's B_k is rebuilt
        # from its carry, with the same operations as the ascending pass.
        # The deletions that remove most of the mass, where D - A_k - B_k
        # cancels, are taken directly, as are the ends.
        d = hi + lo
        above = 0.0
        for (start, stop), below in zip(blocks, reversed(carries)):
            dev = held(start, stop)
            if stop == n:  # the ascending pass ended on the top block
                t = x[:stop - start]
            elif out is None:
                t, b, r, _, _ = rising(start, stop, below)
                np.add(np.multiply(b[1:], t, out=dev), r, out=dev)
            else:
                t = np.ldexp(values[start:stop], -exponent, out=x[:stop - start])
            a, r = load(start, stop, w_hi, 0.0, top, start + (kind == "edf"), False)
            r *= a[1:]
            above = _accumulate_from(np.multiply(r, t, out=r)[::-1], above)
            np.add(np.multiply(a[:-1], t, out=t), r, out=t)
            np.subtract(np.subtract(d, t, out=r), dev, out=r)
            direct = {k for k in ends if start <= k < stop}
            if r.min() < d / 2:
                far = np.flatnonzero(r < d / 2)
                direct.update(start + far)
                r[far] = d
            dev *= hi
            dev -= np.multiply(t, lo, out=t)
            dev /= np.multiply(r, d / 2, out=r)
            # a deletion from a sorted, valid sample is one too: not validated or sorted again
            direct = {k: _estimate(kind, IncomeSample(np.delete(values, k)), v).value
                      for k in direct}
            for k, estimate in direct.items():
                dev[k - start] = estimate - theta
            yield start, dev, direct

    return theta, descend()


def leave_one_out(s, v, kind="ustat"):
    """All n delete-1 estimates of GIM(v), in O(n) total.

    Deleting sorted observation k leaves n - 1 values whose weights are
    the size-n pair times one constant c, n/(n-v) for ``"ustat"`` and
    (n/(n-1))**v for ``"edf"``: the max side without its top weight, the
    min side (bottom-up) without its bottom one.  So with a and b that
    scaled pair, the size-(n-1) build of
    :func:`~gimtools.measures.extreme_weights` plus one entry, and
    H = sum a x, L = sum b x, D = H + L, the deletion removes two sums of
    non-negative terms,

        A_k = a_k x_k + sum_{i>k} (a_i - a_{i-1}) x_i,
        B_k = b_k x_k + sum_{j<k} (b_j - b_{j+1}) x_j,

    and moves the estimate theta = (H - L) / D by exactly

        theta_{-k} - theta = 2 (H B_k - L A_k) / (D (D - A_k - B_k)).

    The weight differences are formed directly, (v-1)/i times the weight
    for the U-statistic and 1 - (1 - 1/i)**(v-1) times it, through
    ``expm1`` and ``log1p``, for the plug-in weights, never by subtracting
    rounded weights; and theta enters once, added to each deviation at
    the end.  On lognormal samples of 1e4 every deviation lies within
    about 6e-15 of the largest one from an 80-bit reference; a ratio of
    running sums of about n terms, minus theta, missed by about 1e-12.

    The sample is scaled by the power of two that brings its maximum into
    [0.5, 1), so the sums cannot overflow.  Two passes run over blocks of
    ``measures._BLOCK`` positions counted from the top.  The ascending one
    sums H and L and writes the B_k into the returned array; the
    descending one forms the A_k and turns each block of B_k into
    deviations in place while it is in cache.  The running sums A_k and
    B_k are each one sequential scan: a block's first term takes in the
    previous block's last sum, bit for bit one ``np.cumsum``.  H and L
    are needed only as totals, so each block's terms are summed pairwise
    (``np.add.reduce``) and the block totals added bottom block first, the
    top weight's term last for H.  Each block's weights, with the one
    entry past the build where the block reaches it, are copied into a
    block buffer, so beside the build the returned array is the only
    length-n allocation.

    Two kinds of deletion are taken directly, by the estimator on the
    n - 1 values left.  Those with A_k + B_k > D/2 remove most of the
    mass, so that D - A_k - B_k cancels: for the U-statistic the A_k + B_k
    sum to v D, so fewer than 2v deletions qualify, such as the maximum
    when it dwarfs the rest (the incomes far below it, which underflow at
    its scale, are then summed at their own) or any deletion at tiny n.
    And a deletion that leaves a constant sample (deleting the one value
    that differs from the rest at either end) gets, bit for bit, the
    estimator's value on that sample: 0.0 for ``"ustat"``.  Every deletion
    from a constant sample leaves the same sample, estimated once.

    Returns
    -------
    ndarray
        ``out[k]`` is the estimate with sorted observation k removed:
        theta plus its deviation, held to [0, 1].
    """
    s = as_sample(s)
    out = np.empty(s.n)
    theta, blocks = _deviations(s, v, kind, out)
    for _, dev, direct in blocks:
        np.minimum(np.maximum(np.add(dev, theta, out=dev), 0.0, out=dev), 1.0, out=dev)
        out[list(direct)] = list(direct.values())
    return out


def jackknife_variance(s, v, kind="ustat"):
    """Delete-1 jackknife variance of a GIM estimate.

    variance = (n-1)/n * sum_k (d_k - d_bar)^2 over the n deviations
    d_k = theta_{-k} - theta of the leave-one-out estimates of the chosen
    estimator kind (``"ustat"`` or ``"edf"``) from the full-sample one (see
    :func:`leave_one_out`); method tag ``"jackknife"``.  The deviations
    come a block of ``measures._BLOCK`` at a time, top block first, each
    lower block's B_k rebuilt from the running sum that it starts from,
    and are folded as they come: each block is centred on its own mean and
    squared in place, and its sum of squares joins the blocks above it by
    Chan, Golub and LeVeque's update, so no length-n array is held beside
    the weights.  Up to one block that is the two-pass centring of all the
    deviations, bit for bit.  The O(1) estimate never enters the squares:
    on spread samples of 40 the variance lies within 2e-15 of exact
    rational arithmetic, and it is exactly 0 on a constant sample and at
    v = 1.

    Requires n >= max(v+1, 3): the subsamples must support order v, and a
    spread of fewer than 3 leave-one-out values says nothing.
    """
    s = as_sample(s)
    v = _check_order(v)
    if s.n < (least := max(v + 1, 3)):
        raise SampleTooSmall(f"jackknife of order v={v} needs at least {least} observations")
    count = 0
    for _, dev, _ in _deviations(s, v, kind)[1]:
        # np.mean and np.sum, without their wrappers' per-call cost
        mean = float(np.add.reduce(dev)) / len(dev)
        dev -= mean
        squares = float(np.add.reduce(np.square(dev, out=dev)))
        if count:
            # Chan, Golub and LeVeque's update of a mean and a centred sum
            # of squares by another block's
            total = count + len(dev)
            delta = mean - centre
            centre += delta * len(dev) / total
            spread += squares + delta * delta * (count * len(dev) / total)
            count = total
        else:
            count, centre, spread = len(dev), mean, squares
    variance = (s.n - 1) / s.n * spread
    return VarianceEstimate(variance, "jackknife", float(np.sqrt(variance)))


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
