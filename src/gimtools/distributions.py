"""Parametric income distributions: sampling, theory values, quadrature.

Three families cover the usual income-model territory — exponential
(light tail), Pareto (power tail) and lognormal (log-symmetric).  A family
is its parameters plus its math; :class:`Distribution` owns the argument
contract of cdf / density / quantile (a typed error on NaN) and the label.
On top come reproducible inverse-transform sampling and the theoretical
order-v extreme moments E(max of v), E(min of v) that define the
generalized inequality measure

    GIM(v) = (E max_v - E min_v) / (E max_v + E min_v).

Closed forms are used where they exist; otherwise the moments come from
quadrature of the quantile-domain integrals

    E max_v = v * int_0^1 Q(u) u^(v-1) du,
    E min_v = v * int_0^1 Q(u) (1-u)^(v-1) du,

on the endpoint-graded panels of :mod:`gimtools.quadrature` (heavy tails
make the integrand blow up at u -> 1; the grading absorbs that).  A
member's Q and Q' on the nodes of one mesh depth are computed once and
cached (:func:`_on_mesh`): every order v, and the numerator variance of
:mod:`gimtools.inference`, reads the same array, so a profile over many
orders evaluates the quantile once per depth, not once per order.

numpy is the only runtime dependency.  The lognormal's normal quantile is a
numpy port of the Cephes ``ndtri`` rational approximations (the algorithm
behind ``scipy.special.ndtri``), and its normal cdf takes ``math.erf`` /
``math.erfc`` through the Cephes ``ndtr`` branch.
"""

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from . import quadrature
from .errors import InvalidArgument, InvalidProbability, NonFinite, SampleTooSmall, check_integer
from .measures import _check_order
from .samples import IncomeSample

# smallest uniform fed to the inverse transforms; Generator.random() can
# return exactly 0.0, which the quantile contract (0 < u < 1) excludes
_MIN_UNIFORM = 2.0 ** -53


@dataclass(frozen=True)
class SeededStream:
    """Key of a reproducible random stream: (seed, stream_id).

    Identical keys give identical samples on every platform and under any
    thread schedule, because the stream is a counter-based generator keyed
    by the pair rather than a stateful global.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # the key is two 64-bit words: -1 would alias 2**64 - 1, 2.5 seed 2
        check_integer(self.seed, "seed", InvalidArgument, 0, 1 << 64)
        check_integer(self.stream_id, "stream_id", InvalidArgument, 0, 1 << 64)

    def generator(self):
        """A counter-based numpy Generator keyed by (seed, stream_id)."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def fill_stream_rows(out, seed, first):
    """Fill each row j of the 2-D array ``out`` from stream (seed, first + j).

    Row j is bit for bit ``SeededStream(seed, first + j).generator().random(n)``;
    one generator, re-keyed per row, serves them all (see :func:`_stream_rows`).
    Returns ``out``.
    """
    return _stream_rows(SeededStream(seed, first))(out, first)


def _stream_rows(stream):
    """``fill(out, first)``: :func:`fill_stream_rows` of ``stream.seed`` on one generator.

    Philox is counter-based, so a fresh stream is fully described by its key
    and a zero counter: one generator is built here and then re-keyed for
    each row, instead of constructing a generator per stream.  The re-key
    assigns the public ``bit_generator.state`` from a template whose
    ``counter``, ``key`` and ``buffer`` are lists of Python ints rather than
    the numpy arrays numpy hands out; the setter reads those about 2.5x
    faster, so a row costs about 0.5 us of re-key plus the ``random`` call
    itself (about 0.7 us plus 7.5 ns per double).  Building the generator
    and its template costs about 16 us, paid here once rather than per
    ``fill`` call: a Monte Carlo cell keeps one ``fill`` for all its chunks.

    ``fill`` also keeps the row views of the last array it filled, with
    that array's shape and strides, and reuses them while it is handed the
    same array object in the same layout.  A Monte Carlo cell passes one
    view of its workspace for every full chunk, so a replication no longer
    builds a row view (60-80 ns) before its ``random`` call; any other
    array, a prefix of the last one included, gets fresh views.
    """
    rng = stream.generator()
    state = rng.bit_generator.state  # fresh: zero counter, empty buffer
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    bit_generator, random = rng.bit_generator, rng.random
    kept = None, None, ()  # the last array filled, its layout and its row views

    def fill(out, first):
        nonlocal kept
        if len(out):  # the last row's stream id must fit the 64-bit key too
            check_integer(int(first) + len(out) - 1, "last stream_id", InvalidArgument, 0, 1 << 64)
        layout = out.shape, out.strides
        if out is not kept[0] or layout != kept[1]:
            kept = out, layout, list(out)
        for j, row in enumerate(kept[2]):
            key[1] = first + j
            bit_generator.state = state
            random(out=row)
        return out

    return fill


class Distribution:
    """Common behavior of the parametric families.

    A family is its dataclass parameters plus its math: ``_cdf(x)`` and
    ``_pdf(x)`` on float arrays, ``_q(u, cu, out=None, scratch=None)`` (the
    quantile evaluated stably from both u and its complement, as a fresh
    array; or, given ``out``, contiguous and shaped like u or u itself, into
    ``out``, with ``cu`` and the rows of ``scratch`` (see
    :func:`_ndtri_lower`) overwritten as temporaries) and ``_qd(u, cu)`` (the quantile
    density Q'(u) = 1/f(Q(u))), ``_times_scale(x)`` (x times the scale c
    of the member, whose Q is c times its unit-scale member's; ``inf`` past
    the float range), ``_unit_qd_size()`` (the factor that sets the size of
    the unit-scale member's Q': 1, 1/shape or sdlog), ``_closed_extremes(v)``
    ((E max_v, E min_v) in closed form, or None for the quadrature) and,
    where one exists, ``_closed_gim(v)`` (GIM(v) with its numerator taken
    directly, not as a difference of the two moments).  This class
    owns the parameter check, the argument contract of the public methods
    and the ``params_label``.
    """

    name = "?"
    _lower = {}  # field name -> (exclusive lower bound, requirement), per family
    _unit = {}  # the parameter values of the family's unit-scale member

    def __post_init__(self):
        for f in fields(self):  # the bound first: a NaN fails it where one is set
            value = getattr(self, f.name)
            if f.name in self._lower:
                bound, requirement = self._lower[f.name]
                if not value > bound:
                    raise InvalidArgument(f"{f.name} must {requirement}, got {value!r}")
            if not math.isfinite(value):
                raise InvalidArgument(f"{f.name} must be finite, got {value!r}")

    def cdf(self, x):
        """Distribution function F(x); x must not be NaN."""
        return _evaluate(self._cdf, x)

    def density(self, x):
        """Density f(x); x must not be NaN."""
        return _evaluate(self._pdf, x)

    def quantile(self, u):
        """Quantile function Q(u) for u in the open interval (0, 1)."""
        return _evaluate(self._q, u, probability=True)

    def quantile_density(self, u):
        """Quantile density Q'(u) = 1 / f(Q(u)) for u in (0, 1)."""
        return _evaluate(self._qd, u, probability=True)

    def _closed_gim(self, v):
        return None  # no numerator-first form; the ratio of the extreme moments

    def _unit_member(self):
        """The family's member at unit scale (rate 1, scale 1 or meanlog 0), same shape."""
        return replace(self, **self._unit)

    def _theory_member(self):
        """The member whose moments :func:`theoretical_gim` evaluates; the unit-scale one."""
        return self._unit_member()

    def params_label(self):
        """Short deterministic ``key=value`` string for tables and CSV."""
        return ";".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))

    def __repr__(self):
        return f"{type(self).__name__}({self.params_label()})"


def _evaluate(math_of, arg, probability=False):
    """``math_of`` on ``arg`` as a checked float array; a float for 0-d input."""
    a = np.asarray(arg, dtype=float)
    if probability and not np.all((a > 0.0) & (a < 1.0)):  # NaN fails too
        raise InvalidProbability("quantile argument must lie strictly in (0, 1)")
    if not probability and np.any(np.isnan(a)):
        raise InvalidArgument("cdf/density argument must not be NaN")
    out = math_of(a, 1.0 - a) if probability else math_of(a)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, repr=False)
class Exponential(Distribution):
    """Exponential distribution with rate lambda (mean 1/lambda)."""

    rate: float = 1.0
    name = "exponential"
    _lower = {"rate": (0.0, "be positive")}
    _unit = {"rate": 1.0}

    def _cdf(self, x):
        return np.where(x < 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def _pdf(self, x):
        return np.where(x < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))

    def _q(self, u, cu, out=None, scratch=None):
        q = np.log(cu, out=out)
        q = np.negative(q, out=out)
        return np.divide(q, self.rate, out=out)

    def _qd(self, u, cu):
        return 1.0 / (self.rate * cu)

    def _times_scale(self, x):
        return x / self.rate

    def _unit_qd_size(self):
        return 1.0

    def mean(self):
        return 1.0 / self.rate

    def _closed_extremes(self, v):
        # E max_v = (1 + 1/2 + ... + 1/v)/rate, E min_v = 1/(v*rate):
        # the max is a sum of independent spacings with rates v, v-1, .., 1
        harmonic = sum(1.0 / k for k in range(1, v + 1))
        return harmonic / self.rate, 1.0 / (v * self.rate)


@dataclass(frozen=True, repr=False)
class Pareto(Distribution):
    """Pareto distribution: cdf 1 - (scale/x)^shape for x >= scale.

    ``shape`` must exceed 1 so the mean exists.
    """

    shape: float = 3.0
    scale: float = 1.0
    name = "pareto"
    _lower = {"shape": (1.0, "exceed 1 (finite mean required)"), "scale": (0.0, "be positive")}
    _unit = {"scale": 1.0}

    def _cdf(self, x):
        return np.where(x < self.scale, 0.0, 1.0 - (self.scale / np.maximum(x, self.scale)) ** self.shape)

    def _pdf(self, x):
        safe = np.maximum(x, self.scale)
        # (scale / x) ** shape <= 1, where scale ** shape alone can overflow
        return np.where(x >= self.scale, self.shape / safe * (self.scale / safe) ** self.shape, 0.0)

    def _q(self, u, cu, out=None, scratch=None):
        q = np.power(cu, -1.0 / self.shape, out=out)
        return np.multiply(q, self.scale, out=out)

    def _qd(self, u, cu):
        return (self.scale / self.shape) * cu ** (-1.0 - 1.0 / self.shape)

    def _times_scale(self, x):
        return x * self.scale

    def _unit_qd_size(self):
        return 1.0 / self.shape

    def mean(self):
        return self.shape * self.scale / (self.shape - 1.0)

    # the product below has no cancellation at any order.  Quadrature takes
    # over past this one for a single reason: perfbench/tests/test_spans.py
    # needs theoretical_gim(Pareto(3, 1), 40) to run the quadrature ladder.
    # The cap costs the heaviest tails their values: past it, shapes up to
    # 1.03 raise QuadratureNoConvergence (shape 1.04 converges), because the
    # graded mesh does not settle on the (1 - u)**(-1/shape) tail.  Moving
    # that benchmark op to the lognormal lets the cap go
    _CLOSED_FORM_MAX_ORDER = 18

    def _closed_extremes(self, v):
        a, xm = self.shape, self.scale
        e_min = xm * v * a / (v * a - 1.0)  # min of v is Pareto with shape v*a
        if v > self._CLOSED_FORM_MAX_ORDER:
            return None
        # the max of v is the scale times independent Pareto(k*a, 1) factors,
        # k = 1..v (log X is exponential, and so Renyi's representation of
        # its order statistics applies); the k = v factor times the scale is
        # the min.  Every factor exceeds 1, so nothing cancels
        e_max = math.prod((k * a / (k * a - 1.0) for k in range(1, v)), start=e_min)
        return e_max, e_min

    def _closed_gim(self, v):
        if v > self._CLOSED_FORM_MAX_ORDER:
            return None
        # E max / E min - 1 from the product above, as expm1 of a sum of
        # log1p: a large shape leaves no difference of nearly equal moments
        e = math.expm1(math.fsum(math.log1p(1.0 / (k * self.shape - 1.0)) for k in range(1, v)))
        return e / (e + 2.0)


_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)
_SQRT1_2 = math.sqrt(0.5)

# Cephes ndtri (S. L. Moshier) coefficients, highest power first; the Q
# denominators are monic, their leading 1 left out as p1evl expects.
# P0/Q0: the central branch, in (y - 1/2)^2 for exp(-2) < y <= 1/2
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# P1/Q1: the tail in 1/x, x = sqrt(-2 log y) in [2, 8)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# P2/Q2: the far tail, x >= 8 (y < exp(-32))
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2), where the central branch ends
# Cephes' sqrt(2 pi) literal: correctly rounded, one ULP above _SQRT_2PI
_NDTRI_S2PI = 2.50662827463100050242


def _polevl(x, coef, out=None):
    """Horner's rule, highest power first (Cephes ``polevl``), on an array."""
    ans = np.multiply(x, coef[0], out=out)
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef, out=None):
    """Horner's rule for a monic polynomial whose leading 1 is implied."""
    ans = np.add(x, coef[0], out=out)
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


# the rows of scratch that _ndtri_lower, and so any family's _q, may use
_QUANTILE_SCRATCH = 4


def _row(scratch, i, size):
    """The first ``size`` values of row ``i`` of ``scratch``; None (a fresh array) without it."""
    return None if scratch is None else scratch[i, :size]


def _tail_t(flat, tail, out):
    """sqrt(-2 log y) of the elements ``tail`` of ``flat``, in ``out`` (None: a fresh array)."""
    t = np.take(flat, tail, mode="clip", out=out)
    np.log(t, out=t)
    t *= -2.0
    return np.sqrt(t, out=t)


def _ndtri_lower(y, out=None, scratch=None):
    """Standard normal quantile for ``y`` in (0, 0.5], as Cephes ``ndtri``.

    Each branch runs only on its own elements, gathered by index: on random
    uniforms a boolean mask costs a mispredicted branch per element.
    Against ``scipy.special.ndtri`` the central branch is bit-identical and
    the tails are within 2 ULP, down to subnormal ``y``.

    By default the result and every temporary are fresh arrays and ``y`` is
    only read.  A caller that reuses buffers passes ``out``, a contiguous
    array shaped like ``y`` that may be ``y`` itself (each branch gathers its
    elements before any result lands on them), and ``scratch``, a float
    array of ``_QUANTILE_SCRATCH`` rows of at least ``y.size`` values that
    must alias neither: the gathered values and the Horner terms of each
    branch go there.  Only the masks and index arrays are allocated then.
    """
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1)
    x = np.empty_like(flat) if out is None else out.reshape(-1)
    is_central = flat > _EXP_M2
    central = np.flatnonzero(is_central)
    k = central.size
    # mode="clip": the indices are valid, and "raise" would buffer a copy of out
    yc = np.take(flat, central, mode="clip", out=_row(scratch, 0, k))
    yc -= 0.5
    y2 = np.multiply(yc, yc, out=_row(scratch, 1, k))
    # yc and t are gathered twice, so four scratch rows serve both branches
    x_c = _polevl(y2, _NDTRI_P0, yc)
    x_c *= y2
    x_c /= _p1evl(y2, _NDTRI_Q0, _row(scratch, 2, k))
    yc = np.take(flat, central, mode="clip", out=y2)
    yc -= 0.5
    x_c *= yc
    x_c += yc
    x_c *= _NDTRI_S2PI  # (yc + yc * (y2 * P0 / Q0)) * s2pi
    x[central] = x_c

    tail = np.flatnonzero(np.logical_not(is_central, out=is_central))
    k = tail.size
    t = _tail_t(flat, tail, _row(scratch, 0, k))
    is_near = t < 8.0
    z = np.divide(1.0, t, out=t)  # and z's gathered branches write back x1 = z P / Q
    for branch, p, q in (
        (np.flatnonzero(is_near), _NDTRI_P1, _NDTRI_Q1),
        (np.flatnonzero(np.logical_not(is_near, out=is_near)), _NDTRI_P2, _NDTRI_Q2),
    ):
        j = branch.size
        zb = np.take(z, branch, mode="clip", out=_row(scratch, 1, j))
        x1 = _polevl(zb, p, _row(scratch, 2, j))
        x1 *= zb
        x1 /= _p1evl(zb, q, _row(scratch, 3, j))
        z[branch] = x1
    t = _tail_t(flat, tail, _row(scratch, 1, k))
    x0 = np.log(t, out=_row(scratch, 2, k))
    x0 /= t
    np.subtract(t, x0, out=x0)  # t - log(t) / t
    np.subtract(x0, z, out=x0)
    x[tail] = np.negative(x0, out=x0)  # -(x0 - x1)
    return x.reshape(y.shape) if out is None else out


def _ndtr(a):
    """Standard normal cdf Phi(a) for a float, by the Cephes ``ndtr`` branch."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(z)
    return 1.0 - y if x > 0 else y


@dataclass(frozen=True, repr=False)
class Lognormal(Distribution):
    """Lognormal distribution: log X ~ Normal(meanlog, sdlog^2)."""

    meanlog: float = 0.0
    sdlog: float = 1.0
    name = "lognormal"
    _lower = {"sdlog": (0.0, "be positive")}
    _unit = {"meanlog": 0.0}

    def _standardized_log(self, x):
        """``(inside, safe, z)``: the support mask, x with 1 off it, and z."""
        inside = x > 0
        safe = np.where(inside, x, 1.0)
        return inside, safe, (np.log(safe) - self.meanlog) / self.sdlog

    def _cdf(self, x):
        inside, _, z = self._standardized_log(x)
        return np.where(inside, np.vectorize(_ndtr, otypes=[float])(z), 0.0)

    def _pdf(self, x):
        inside, safe, z = self._standardized_log(x)
        return np.where(inside, np.exp(-0.5 * z * z) / (safe * self.sdlog * _SQRT_2PI), 0.0)

    def _z(self, u, cu, out=None, scratch=None):
        # standard normal quantile from whichever tail is accurate, its sign
        # taken from u; where u + cu == 1 this is ndtri(u) bit for bit (a
        # node within a few ULP of 1/2 that breaks it moves z by a few ULP).
        # With out, cu holds min(u, cu) and then its ndtri, and out holds
        # u - 0.5 and then z; u is read before out is written
        buffers = out is not None
        y = np.minimum(u, cu, out=cu if buffers else None)
        sign = np.subtract(u, 0.5, out=out)
        z = _ndtri_lower(y, y if buffers else None, scratch)
        return np.copysign(z, sign, out=out)

    def _q(self, u, cu, out=None, scratch=None):
        q = self._z(u, cu, out, scratch)
        q = np.multiply(q, self.sdlog, out=out)
        q = np.add(q, self.meanlog, out=out)
        return np.exp(q, out=out)

    def _qd(self, u, cu):
        z = self._z(u, cu)
        # Q'(u) = sdlog * Q(u) / phi(z) with phi the standard normal density
        return self.sdlog * _SQRT_2PI * np.exp(self.meanlog + self.sdlog * z + 0.5 * z * z)

    def _times_scale(self, x):
        try:
            return x * math.exp(self.meanlog)
        except OverflowError:  # exp(meanlog) past the float range, the product maybe not
            pass
        try:
            # exp(meanlog) = exp(r) * 2**k with r in (700 - ln 2, 700]: a tiny
            # x times exp(r) stays normal, and only the power of two is left
            k = math.ceil((self.meanlog - 700.0) / _LN2)
            return math.ldexp(x * math.exp(self.meanlog - k * _LN2), k)
        except OverflowError:  # past the float range
            return x * math.inf

    def _unit_qd_size(self):
        return self.sdlog

    def mean(self):
        try:
            return math.exp(self.meanlog + 0.5 * self.sdlog**2)
        except OverflowError:  # past the float range
            return math.inf

    def _theory_member(self):
        # the member with mean 1 (meanlog -sdlog^2/2): its moments stay in the
        # float range where exp(sdlog^2/2) overflows (sdlog past 37.7), and
        # its quantile keeps the deep quadrature panels finite further out
        meanlog = -0.5 * self.sdlog * self.sdlog
        # replace() would reject meanlog -inf too, but its message names a
        # meanlog the caller never gave; this one names the sdlog at fault
        if meanlog == -math.inf:
            raise InvalidArgument(f"population values of {self!r} need sdlog^2 inside the float range")
        return replace(self, meanlog=meanlog)

    def _closed_extremes(self, v):
        if v == 1:
            return self.mean(), self.mean()
        if v == 2:
            # E max_2 = 2 mu Phi(sdlog/sqrt(2)): X1/X2 is lognormal, so
            # P(X1 > X2 given X1) folds into a normal orthant probability
            mu = self.mean()
            p = _ndtr(self.sdlog / math.sqrt(2.0))
            return 2.0 * mu * p, 2.0 * mu * (1.0 - p)
        return None

    def _closed_gim(self, v):
        # GIM(2) = 2 Phi(sdlog/sqrt(2)) - 1 = erf(sdlog/2), with no
        # difference of two moments near the mean at small sdlog
        return math.erf(0.5 * self.sdlog) if v == 2 else None


FAMILIES = {
    "exponential": Exponential,
    "pareto": Pareto,
    "lognormal": Lognormal,
}


def inverse_transform(dist, u, work=None):
    """Sorted draws (last axis) of ``dist`` from uniforms ``u``, clamped in place.

    Without ``work`` the draws are a fresh array.  With it, a float array of
    ``1 + _QUANTILE_SCRATCH`` rows of ``u.size`` values, the draws replace
    ``u`` in place and ``1 - u`` and the quantile's temporaries live in its
    rows, so no array of draws' size is allocated.  A draw past the float
    range raises NonFinite naming ``dist``.
    """
    np.maximum(u, _MIN_UNIFORM, out=u)
    if work is None:
        cu, out, scratch = None, None, None
    else:
        cu, out, scratch = work[0].reshape(u.shape), u, work[1:]
    with np.errstate(over="ignore"):
        x = dist._q(u, np.subtract(1.0, u, out=cu), out, scratch)
    x.sort(axis=-1)
    if not np.isfinite(x[..., -1]).all():  # the sort puts inf and NaN last
        raise NonFinite(f"draws of {dist!r} leave the float range")
    return x


def draw_sample(dist, n, stream):
    """Draw a reproducible IncomeSample of size n from a distribution.

    Uses inverse-transform sampling: n uniforms from the counter-based
    stream are pushed through the quantile function.  The same
    (distribution, n, stream) triple always produces the same sample, on
    any platform, regardless of what other streams are in use — that is
    the property the Monte Carlo harness builds its determinism on.
    """
    n = check_integer(n, "sample size n", SampleTooSmall, 1)
    # the support is non-negative and inverse_transform checks finiteness
    return IncomeSample(inverse_transform(dist, stream.generator().random(n)))


# The theory-profile benchmark's population values (theoretical_gim at
# v = 2..12 on six families, the numerator variance at v = 2..4 on five)
# make 209 evaluations on 37 distinct keys.  Median time of that task list
# over 20 fresh processes each, on one Xeon core: 56 ms uncached; bound 8:
# 50 ms, 16: 42 ms, 32: 36 ms, 64: 33 ms, unbounded: 33 ms.  A depth-900
# mesh is 21,600 nodes (173 KB), so 64 entries cap the cache near 11 MB
@lru_cache(maxsize=64)
def _on_mesh(member, name, levels):
    """``member``'s ``name`` (``"_q"`` or ``"_qd"``) on the nodes of ``quadrature.mesh(levels)``.

    Cached and read-only.  Members are frozen dataclasses that hash by value,
    so every order of one family, and every call on an equal member, shares
    one array per depth.  The method is looked up on the instance, so a
    wrapper set on the class sees each miss.  Only mesh nodes come through
    here: sampling transforms uniforms of its own and sorts the result in
    place.
    """
    m = quadrature.mesh(levels)
    return quadrature._frozen(getattr(member, name)(m.u, m.cu))[0]


def _extremes_by_quadrature(dist, v):
    """Quantile-domain quadrature for (E max_v, E min_v) to 1e-8 relative."""

    def rung(levels):
        q = _on_mesh(dist, "_q", levels)  # shared by both integrals and every order
        return quadrature.integrate_graded(
            lambda u, cu: np.stack((q * u ** (v - 1), q * cu ** (v - 1))), levels
        )

    # ladder the two integrals together: refine until both are stable
    e_max, e_min = quadrature.converge(rung, rtol=1e-8)
    return v * float(e_max), v * float(e_min)


def theoretical_extremes(dist, v, force_quadrature=False):
    """Theoretical (E max_v, E min_v) for a parametric family.

    Closed forms where the family has them; otherwise quantile-domain
    Gauss-Legendre to 1e-8 relative.  ``force_quadrature=True`` skips the
    closed forms (used by tests to cross-check the two paths).  ``v`` must
    be a positive integer, else OrderExceedsSample.
    """
    v = _check_order(v)
    if not force_quadrature:
        closed = dist._closed_extremes(v)
        if closed is not None:
            return closed
    return _extremes_by_quadrature(dist, v)


def theoretical_gim(dist, v, force_quadrature=False):
    """Theoretical GIM(v) = (E max_v - E min_v)/(E max_v + E min_v).

    GIM is scale-free, so it is evaluated on one fixed member of the family
    (rate 1, scale 1, or the lognormal with mean 1): the scale never reaches
    the arithmetic, and a member whose moments leave the float range still
    has its value.  Where a family has a form that gives the numerator
    without subtracting the two moments (Pareto up to the order of its
    closed form, lognormal at v = 2), that form is used: as the spread goes
    to zero the moments agree to ever more digits, and their difference
    would lose them.  ``force_quadrature=True`` skips that form along with
    the closed extremes.
    """
    v = _check_order(v)
    dist = dist._theory_member()
    if not force_quadrature:
        value = dist._closed_gim(v)
        if value is not None:
            return value
    e_max, e_min = theoretical_extremes(dist, v, force_quadrature=force_quadrature)
    return (e_max - e_min) / (e_max + e_min)
