"""Parametric income distributions: sampling, theory values, quadrature.

Three families cover the usual income-model territory — exponential
(light tail), Pareto (power tail) and lognormal (log-symmetric).  Each one
supplies cdf / quantile / density, reproducible inverse-transform sampling,
and the theoretical order-v extreme moments E(max of v), E(min of v) that
define the generalized inequality measure

    GIM(v) = (E max_v - E min_v) / (E max_v + E min_v).

Closed forms are used where they exist; otherwise the moments come from
quadrature of the quantile-domain integrals

    E max_v = v * int_0^1 Q(u) u^(v-1) du,
    E min_v = v * int_0^1 Q(u) (1-u)^(v-1) du,

on the endpoint-graded panels of :mod:`gimtools.quadrature` (heavy tails
make the integrand blow up at u -> 1; the grading absorbs that).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import quadrature
from .errors import InvalidProbability
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

    def generator(self):
        """A counter-based numpy Generator keyed by (seed, stream_id)."""
        key = np.array(
            [self.seed % (1 << 64), self.stream_id % (1 << 64)], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))


class Distribution:
    """Common behavior of the parametric families.

    Subclasses implement ``_q(u, cu)`` (quantile evaluated stably from both
    u and its complement) and ``_qd(u, cu)`` (quantile density, the
    derivative Q'(u) = 1/f(Q(u))), plus cdf/density and, where available,
    ``_closed_extremes(v)``.
    """

    name = "?"

    def quantile(self, u):
        """Quantile function Q(u) for u in the open interval (0, 1)."""
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0.0) | (u >= 1.0)):
            raise InvalidProbability("quantile argument must lie strictly in (0, 1)")
        out = self._q(u, 1.0 - u)
        return float(out) if out.ndim == 0 else out

    def quantile_density(self, u):
        """Quantile density Q'(u) = 1 / f(Q(u)) for u in (0, 1)."""
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0.0) | (u >= 1.0)):
            raise InvalidProbability("quantile argument must lie strictly in (0, 1)")
        out = self._qd(u, 1.0 - u)
        return float(out) if out.ndim == 0 else out

    def _closed_extremes(self, v):
        return None  # no closed form; quadrature fallback

    def params_label(self):
        """Short deterministic ``key=value`` string for tables and CSV."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.params_label()})"


@dataclass(frozen=True, repr=False)
class Exponential(Distribution):
    """Exponential distribution with rate lambda (mean 1/lambda)."""

    rate: float = 1.0
    name = "exponential"

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))
        return float(out) if out.ndim == 0 else out

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))
        return float(out) if out.ndim == 0 else out

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

    def params_label(self):
        return f"rate={self.rate:g}"


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
            raise ValueError("shape must exceed 1 (finite mean required)")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < self.scale, 0.0, 1.0 - (self.scale / np.maximum(x, self.scale)) ** self.shape)
        return float(out) if out.ndim == 0 else out

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = x >= self.scale
        safe = np.maximum(x, self.scale)
        out = np.where(inside, self.shape * self.scale**self.shape / safe ** (self.shape + 1.0), 0.0)
        return float(out) if out.ndim == 0 else out

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

    def params_label(self):
        return f"shape={self.shape:g};scale={self.scale:g}"


_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, repr=False)
class Lognormal(Distribution):
    """Lognormal distribution: log X ~ Normal(meanlog, sdlog^2)."""

    meanlog: float = 0.0
    sdlog: float = 1.0
    name = "lognormal"

    def __post_init__(self):
        if not self.sdlog > 0:
            raise ValueError("sdlog must be positive")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = x > 0
        safe = np.where(inside, x, 1.0)
        out = np.where(inside, ndtr((np.log(safe) - self.meanlog) / self.sdlog), 0.0)
        return float(out) if out.ndim == 0 else out

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = x > 0
        safe = np.where(inside, x, 1.0)
        z = (np.log(safe) - self.meanlog) / self.sdlog
        out = np.where(inside, np.exp(-0.5 * z * z) / (safe * self.sdlog * _SQRT_2PI), 0.0)
        return float(out) if out.ndim == 0 else out

    def _z(self, u, cu):
        # standard normal quantile, computed from whichever tail is accurate
        return np.where(u <= 0.5, ndtri(np.minimum(u, 0.5)), -ndtri(np.minimum(cu, 0.5)))

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
            p = float(ndtr(self.sdlog / math.sqrt(2.0)))
            return 2.0 * mu * p, 2.0 * mu * (1.0 - p)
        return None

    def params_label(self):
        return f"meanlog={self.meanlog:g};sdlog={self.sdlog:g}"


FAMILIES = {
    "exponential": Exponential,
    "pareto": Pareto,
    "lognormal": Lognormal,
}


def draw_sample(dist, n, stream):
    """Draw a reproducible IncomeSample of size n from a distribution.

    Uses inverse-transform sampling: n uniforms from the counter-based
    stream are pushed through the quantile function.  The same
    (distribution, n, stream) triple always produces the same sample, on
    any platform, regardless of what other streams are in use — that is
    the property the Monte Carlo harness builds its determinism on.

    Uniform draws are clamped to [2^-53, 1) so the inverse transform never
    receives an exact 0 (the lognormal quantile would degenerate there).
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    rng = stream.generator()
    u = rng.random(n)
    np.maximum(u, _MIN_UNIFORM, out=u)
    values = dist._q(u, 1.0 - u)
    # already validated by construction: finite, positive support
    return IncomeSample(np.sort(values, kind="stable"))


def _extremes_by_quadrature(dist, v, rtol=1e-8):
    """Quantile-domain quadrature for (E max_v, E min_v) to rtol."""

    def evaluate(levels):
        e_max = quadrature.integrate_graded(
            lambda u, cu: dist._q(u, cu) * u ** (v - 1), levels
        )
        e_min = quadrature.integrate_graded(
            lambda u, cu: dist._q(u, cu) * cu ** (v - 1), levels
        )
        return e_max, e_min

    # ladder the two integrals together: refine until both are stable
    e_max, e_min = quadrature.converge(evaluate, rtol=rtol)
    return v * e_max, v * e_min


def theoretical_extremes(dist, v, force_quadrature=False):
    """Theoretical (E max_v, E min_v) for a parametric family.

    Closed forms where the family has them; otherwise quantile-domain
    Gauss-Legendre to 1e-8 relative.  ``force_quadrature=True`` skips the
    closed forms (used by tests to cross-check the two paths).
    """
    v = int(v)
    if v < 1:
        raise ValueError("order v must be >= 1")
    if not force_quadrature:
        closed = dist._closed_extremes(v)
        if closed is not None:
            return closed
    return _extremes_by_quadrature(dist, v)


def theoretical_gim(dist, v, force_quadrature=False):
    """Theoretical GIM(v) = (E max_v - E min_v)/(E max_v + E min_v)."""
    e_max, e_min = theoretical_extremes(dist, v, force_quadrature=force_quadrature)
    return (e_max - e_min) / (e_max + e_min)
