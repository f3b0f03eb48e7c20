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
make the integrand blow up at u -> 1; the grading absorbs that).

numpy is the only runtime dependency.  The lognormal's normal quantile is a
numpy port of the Cephes ``ndtri`` rational approximations (the algorithm
behind ``scipy.special.ndtri``), and its normal cdf takes ``math.erf`` /
``math.erfc`` through the Cephes ``ndtr`` branch.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import quadrature
from .errors import InvalidArgument, InvalidProbability, SampleTooSmall, check_integer
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

    Row j is bit for bit ``SeededStream(seed, first + j).generator().random(n)``.
    Philox is counter-based, so a fresh stream is fully described by its key
    and a zero counter: one generator is built and then re-keyed for each
    row, instead of constructing a generator per stream.  Returns ``out``.
    """
    rng = SeededStream(seed, first).generator()
    if len(out):  # the last row's stream id must fit the 64-bit key too
        check_integer(int(first) + len(out) - 1, "last stream_id", InvalidArgument, 0, 1 << 64)
    state = rng.bit_generator.state  # fresh: zero counter, empty buffer
    key = state["state"]["key"]
    for j, row in enumerate(out):
        key[1] = first + j
        rng.bit_generator.state = state
        rng.random(out=row)
    return out


class Distribution:
    """Common behavior of the parametric families.

    A family is its dataclass parameters plus its math: ``_cdf(x)`` and
    ``_pdf(x)`` on float arrays, ``_q(u, cu)`` (the quantile evaluated
    stably from both u and its complement) and ``_qd(u, cu)`` (the quantile
    density Q'(u) = 1/f(Q(u))), and, where one exists,
    ``_closed_extremes(v)``.  This class owns the argument contract of the
    public methods and the ``params_label`` built from the fields.
    """

    name = "?"

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

    def _closed_extremes(self, v):
        return None  # no closed form; quadrature fallback

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

    def __post_init__(self):
        if not self.rate > 0:
            raise InvalidArgument(f"rate must be positive, got {self.rate!r}")

    def _cdf(self, x):
        return np.where(x < 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def _pdf(self, x):
        return np.where(x < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))

    def _q(self, u, cu):
        return -np.log(cu) / self.rate

    def _qd(self, u, cu):
        return 1.0 / (self.rate * cu)

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

    def __post_init__(self):
        if not self.shape > 1:
            raise InvalidArgument(
                f"shape must exceed 1 (finite mean required), got {self.shape!r}"
            )
        if not self.scale > 0:
            raise InvalidArgument(f"scale must be positive, got {self.scale!r}")

    def _cdf(self, x):
        return np.where(x < self.scale, 0.0, 1.0 - (self.scale / np.maximum(x, self.scale)) ** self.shape)

    def _pdf(self, x):
        safe = np.maximum(x, self.scale)
        return np.where(x >= self.scale, self.shape * self.scale**self.shape / safe ** (self.shape + 1.0), 0.0)

    def _q(self, u, cu):
        return self.scale * cu ** (-1.0 / self.shape)

    def _qd(self, u, cu):
        return (self.scale / self.shape) * cu ** (-1.0 - 1.0 / self.shape)

    def mean(self):
        return self.shape * self.scale / (self.shape - 1.0)

    # inclusion-exclusion is an alternating sum; past this order its
    # cancellation costs more than 1e-11 relative in GIM (first at v = 19,
    # shapes 8 and 20, against exact rational arithmetic) while quadrature
    # stays within 1e-14, so quadrature takes over
    _CLOSED_FORM_MAX_ORDER = 18

    def _closed_extremes(self, v):
        a, xm = self.shape, self.scale
        e_min = xm * v * a / (v * a - 1.0)  # min of v is Pareto with shape v*a
        if v > self._CLOSED_FORM_MAX_ORDER:
            return None
        # P(max <= x) = (1 - (xm/x)^a)^v; expand and integrate term by term
        e_max = 0.0
        for k in range(1, v + 1):
            e_max += math.comb(v, k) * (-1.0) ** (k + 1) * xm * k * a / (k * a - 1.0)
        return e_max, e_min


_SQRT_2PI = math.sqrt(2.0 * math.pi)
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


def _polevl(x, coef):
    """Horner's rule, highest power first (Cephes ``polevl``), on an array."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """Horner's rule for a monic polynomial whose leading 1 is implied."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri_lower(y):
    """Standard normal quantile for ``y`` in (0, 0.5], as Cephes ``ndtri``.

    Each branch runs only on its own elements, gathered by index: on random
    uniforms a boolean mask costs a mispredicted branch per element.
    Against ``scipy.special.ndtri`` the central branch is bit-identical and
    the tails are within 2 ULP, down to subnormal ``y``.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    x = np.empty_like(flat)
    is_central = flat > _EXP_M2
    central = np.flatnonzero(is_central)
    yc = flat[central] - 0.5
    y2 = yc * yc
    x[central] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _NDTRI_S2PI
    tail = np.flatnonzero(~is_central)
    t = np.sqrt(-2.0 * np.log(flat[tail]))
    x0 = t - np.log(t) / t
    z = 1.0 / t
    x1 = np.empty_like(t)
    near = t < 8.0
    zn = z[near]
    x1[near] = zn * _polevl(zn, _NDTRI_P1) / _p1evl(zn, _NDTRI_Q1)
    far = ~near
    zf = z[far]
    x1[far] = zf * _polevl(zf, _NDTRI_P2) / _p1evl(zf, _NDTRI_Q2)
    x[tail] = -(x0 - x1)
    return x.reshape(y.shape)


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

    def __post_init__(self):
        if not self.sdlog > 0:
            raise InvalidArgument(f"sdlog must be positive, got {self.sdlog!r}")

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

    def _z(self, u, cu):
        # standard normal quantile from whichever tail is accurate, its sign
        # taken from u; where u + cu == 1 this is ndtri(u) bit for bit (a
        # node within a few ULP of 1/2 that breaks it moves z by a few ULP)
        return np.copysign(_ndtri_lower(np.minimum(u, cu)), u - 0.5)

    def _q(self, u, cu):
        return np.exp(self.meanlog + self.sdlog * self._z(u, cu))

    def _qd(self, u, cu):
        z = self._z(u, cu)
        # Q'(u) = sdlog * Q(u) / phi(z) with phi the standard normal density
        return self.sdlog * _SQRT_2PI * np.exp(self.meanlog + self.sdlog * z + 0.5 * z * z)

    def mean(self):
        return math.exp(self.meanlog + 0.5 * self.sdlog**2)

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


FAMILIES = {
    "exponential": Exponential,
    "pareto": Pareto,
    "lognormal": Lognormal,
}


def inverse_transform(dist, u):
    """Sorted draws (last axis) of ``dist`` from uniforms ``u``, clamped in place."""
    np.maximum(u, _MIN_UNIFORM, out=u)
    x = dist._q(u, 1.0 - u)
    x.sort(axis=-1)
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
    # already validated by construction: finite, positive support
    return IncomeSample(inverse_transform(dist, stream.generator().random(n)))


def _extremes_by_quadrature(dist, v):
    """Quantile-domain quadrature for (E max_v, E min_v) to 1e-8 relative."""

    def integrands(u, cu):
        q = dist._q(u, cu)  # once per rung, shared by both integrals
        return np.stack((q * u ** (v - 1), q * cu ** (v - 1)))

    # ladder the two integrals together: refine until both are stable
    e_max, e_min = quadrature.converge(
        lambda levels: quadrature.integrate_graded(integrands, levels), rtol=1e-8
    )
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
    """Theoretical GIM(v) = (E max_v - E min_v)/(E max_v + E min_v)."""
    e_max, e_min = theoretical_extremes(dist, v, force_quadrature=force_quadrature)
    return (e_max - e_min) / (e_max + e_min)
