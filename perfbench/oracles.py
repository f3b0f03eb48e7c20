"""Reference values and output checks of the benchmark.

Nothing here imports gimtools.  Sample estimates come from closed forms over
sorted data; population values come from ``scipy.integrate.quad`` on the
x-axis (survival-function and influence-function forms), a route the library
does not take.  Each ``check_*`` function returns a list of problems; an empty
list means the operation's output is correct.
"""

import csv
import io
import math
import warnings

import numpy as np
from scipy import integrate, special

SAMPLE_RTOL = 1e-9
POPULATION_RTOL = 1e-6
# bias of the U-statistic may not exceed this many Monte Carlo standard errors
BIAS_SIGMAS = 5.0
REPORT_HEADER = "label,gini,v,gim,ci_low,ci_high,level,se_method"
SIMULATE_HEADER = "family,params,v,n,estimator,bias,mse,mc_se,truth"

# exact population values the library is also pinned to
ANCHORS = {
    ("gim", "exponential", (("rate", 1.0),), 2): 1.0 / 2.0,
    ("gim", "exponential", (("rate", 1.0),), 3): 9.0 / 13.0,
    ("gim", "pareto", (("scale", 1.0), ("shape", 3.0)), 2): 1.0 / 5.0,
    ("edf_var", "exponential", (("rate", 1.0),), 2): 4.0 / 3.0,
    ("edf_var", "exponential", (("rate", 1.0),), 3): 3.0,
    ("edf_var", "pareto", (("scale", 1.0), ("shape", 3.0)), 2): 363.0 / 175.0,
}


def task_key(kind, family, params, v):
    """Hashable key of a population task."""
    return (kind, family, tuple(sorted((k, float(x)) for k, x in params.items())), int(v))


# --- sample estimates --------------------------------------------------------

def gini_reference(x):
    """Gini index sum((2i-n-1) x_(i)) / ((n-1) sum x) of raw data."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    rank = np.arange(1, n + 1, dtype=float)
    return float(np.dot(2.0 * rank - n - 1.0, x) / ((n - 1) * np.sum(x)))


def gim_reference(x, v):
    """GIM(v) U-statistic of raw data from log-gamma subset weights.

    The i-th order statistic (1-based) is the maximum of C(i-1, v-1) of the
    C(n, v) size-v subsets and the minimum of C(n-i, v-1) of them.
    """
    if v == 2:
        return gini_reference(x)
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    rank = np.arange(v, n + 1, dtype=float)
    log_comb_n = special.gammaln(n + 1.0) - special.gammaln(v + 1.0) - special.gammaln(n - v + 1.0)
    log_w = special.gammaln(rank) - special.gammaln(v) - special.gammaln(rank - v + 1.0) - log_comb_n
    w_max = np.zeros(n)
    w_max[v - 1:] = np.exp(log_w)
    w_min = w_max[::-1]
    return float(np.dot(w_max - w_min, x) / np.dot(w_max + w_min, x))


def profile_reference(x, orders):
    """``{v: GIM(v)}`` for each order; v = 2 is the Gini index."""
    return {v: gim_reference(x, v) for v in orders}


# --- population values -------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class _Family:
    """cdf F, survival S and density f of one family, in math-module floats.

    ``low`` is the bottom of the support and ``median`` splits every integral
    so each quad call sees one tail.
    """

    def __init__(self, family, params):
        if family == "exponential":
            rate = params["rate"]
            self.low, self.median = 0.0, math.log(2.0) / rate
            self.fs = lambda x: (-math.expm1(-rate * x), math.exp(-rate * x))
            self.pdf = lambda x: rate * math.exp(-rate * x)
        elif family == "pareto":
            a, xm = params["shape"], params["scale"]
            self.low, self.median = xm, xm * 2.0 ** (1.0 / a)
            self.fs = lambda x: (-math.expm1(a * math.log(xm / x)), (xm / x) ** a)
            self.pdf = lambda x: a / x * (xm / x) ** a
        elif family == "lognormal":
            mu, sd = params["meanlog"], params["sdlog"]
            self.low, self.median = 0.0, math.exp(mu)

            def fs(x):
                z = (math.log(x) - mu) / sd
                return 0.5 * math.erfc(-z / _SQRT2), 0.5 * math.erfc(z / _SQRT2)

            def pdf(x):
                z = (math.log(x) - mu) / sd
                return math.exp(-0.5 * z * z) / (x * sd * _SQRT_2PI)

            self.fs, self.pdf = fs, pdf
        else:
            raise ValueError(f"unknown family {family!r}")


def _quad(f, a, b):
    with warnings.catch_warnings():
        # roundoff warnings near 1e-11 are far inside POPULATION_RTOL
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]


def _one_minus_power(F, S, k):
    """1 - F^k without cancellation when F is close to 1."""
    return 1.0 - F**k if F <= 0.5 else -math.expm1(k * math.log1p(-S))


def population_extremes(family, params, v):
    """(E max of v, E min of v) as low + int (1 - F^v) and low + int S^v."""
    d = _Family(family, params)

    def upper(x):
        F, S = d.fs(x)
        return _one_minus_power(F, S, v)

    def lower(x):
        return d.fs(x)[1] ** v

    e_max = d.low + _quad(upper, d.low, d.median) + _quad(upper, d.median, math.inf)
    e_min = d.low + _quad(lower, d.low, d.median) + _quad(lower, d.median, math.inf)
    return e_max, e_min


def population_gim(family, params, v):
    """Population GIM(v) from :func:`population_extremes`."""
    e_max, e_min = population_extremes(family, params, v)
    return (e_max - e_min) / (e_max + e_min)


def population_edf_variance(family, params, v):
    """Asymptotic variance of the sqrt(n)-scaled plug-in GIM numerator.

    The numerator is the L-statistic int x J(F_n(x)) dF_n with
    J = F^(v-1) - S^(v-1), scaled by v.  Its influence function is
    v * psi(X) with psi(y) = int_y^inf S J dx - int_low^y F J dx, so the
    variance is v^2 E[psi(X)^2].  psi' = -J gives psi from its value at the
    median; above the median int J = (y - m) - int (1 - J), whose integrand
    decays.
    """
    d = _Family(family, params)
    m = d.median

    def J(x):
        F, S = d.fs(x)
        return F ** (v - 1) - S ** (v - 1)

    def one_minus_J(x):
        F, S = d.fs(x)
        return _one_minus_power(F, S, v - 1) + S ** (v - 1)

    psi_m = _quad(lambda x: d.fs(x)[1] * J(x), m, math.inf) - _quad(
        lambda x: d.fs(x)[0] * J(x), d.low, m
    )
    gap_total = _quad(one_minus_J, m, math.inf)

    def psi_below(y):
        return psi_m + _quad(J, y, m)

    def psi_above(y):
        return psi_m - ((y - m) - gap_total + _quad(one_minus_J, y, math.inf))

    below = _quad(lambda y: psi_below(y) ** 2 * d.pdf(y), d.low, m)
    above = _quad(lambda y: psi_above(y) ** 2 * d.pdf(y), m, math.inf)
    return v * v * (below + above)


def population_value(kind, family, params, v):
    """Reference for one theory task (see :func:`inputs.theory_tasks`)."""
    if kind == "gim":
        return population_gim(family, params, v)
    if kind == "edf_var":
        return population_edf_variance(family, params, v)
    raise ValueError(f"unknown task kind {kind!r}")


def closed_form_gim(family, params, v):
    """Exact GIM(v) for the exponential and Pareto families, else None.

    Exponential: E max = H_v / rate, E min = 1 / (v rate).  Pareto: E max is
    v xm B(v, 1 - 1/a) and the minimum is Pareto with shape v a.
    """
    if family == "exponential":
        harmonic = math.fsum(1.0 / k for k in range(1, v + 1))
        e_max, e_min = harmonic, 1.0 / v
    elif family == "pareto":
        a, xm = params["shape"], params["scale"]
        e_max = v * xm * math.exp(math.lgamma(v) + math.lgamma(1.0 - 1.0 / a) - math.lgamma(v + 1.0 - 1.0 / a))
        e_min = xm * v * a / (v * a - 1.0)
    else:
        return None
    return (e_max - e_min) / (e_max + e_min)


# --- output checks -----------------------------------------------------------

def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def _printed_close(text, want):
    """A value printed with %.6g matches ``want`` to its printed digits."""
    return _close(float(text), want, 5.0000001e-6)


def _interval_problems(where, value, low, high):
    problems = []
    if not all(0.0 <= x <= 1.0 for x in (value, low, high)):
        problems.append(f"{where}: value or bound outside [0, 1]")
    if not low <= value <= high:
        problems.append(f"{where}: ci_low <= gim <= ci_high fails ({low}, {value}, {high})")
    if not low < high:
        problems.append(f"{where}: empty interval ({low}, {high})")
    return problems


def check_report_csv(stdout, stderr, label, refs, blanks, level=0.95):
    """Output of ``gim report --format csv`` against profile references.

    ``refs`` maps each order to its reference and must hold v = 2, which is
    also the gini column.  Values are printed to 6 significant digits, so they are compared to the
    printed precision.
    """
    lines = stdout.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        return [f"report: bad header {lines[:1]!r}"]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if [int(r[2]) for r in rows] != list(refs):
        return [f"report: orders {[r[2] for r in rows]} != {list(refs)}"]
    problems = []
    for row in rows:
        name, gini, v, gim, low, high, lev, method = row
        v = int(v)
        where = f"report v={v}"
        if name != label or method != "jackknife" or float(lev) != level:
            problems.append(f"{where}: label/level/method {name!r}, {lev}, {method}")
        if not _printed_close(gini, refs[2]):
            problems.append(f"{where}: gini {gini} != {refs[2]:.12g}")
        if not _printed_close(gim, refs[v]):
            problems.append(f"{where}: gim {gim} != {refs[v]:.12g}")
        problems += _interval_problems(where, float(gim), float(low), float(high))
    if f"skipped {blanks} blank cell(s)" not in stderr:
        problems.append(f"report: stderr does not report {blanks} skipped blank cells")
    return problems


def check_groups(rows, refs):
    """groups-panel output (parsed JSON) against per-group references."""
    if len(rows) != len(refs):
        return [f"groups: {len(rows)} groups in output, {len(refs)} expected"]
    problems = []
    for k, (row, (n, want)) in enumerate(zip(rows, refs)):
        where = f"group {k} (n={n})"
        if row["n"] != n:
            problems.append(f"{where}: n {row['n']}")
            continue
        if not _close(row["gini"], want[2], SAMPLE_RTOL):
            problems.append(f"{where}: gini {row['gini']!r} != {want[2]!r}")
        if [e[0] for e in row["entries"]] != list(want):
            problems.append(f"{where}: orders {[e[0] for e in row['entries']]}")
            continue
        for v, value, low, high in row["entries"]:
            if not _close(value, want[v], SAMPLE_RTOL):
                problems.append(f"{where} v={v}: gim {value!r} != {want[v]!r}")
            problems += _interval_problems(f"{where} v={v}", value, low, high)
    return problems


def _parse_params(label):
    return {key: float(value) for key, value in (item.split("=") for item in label.split(";"))}


def simulate_truths(families, orders):
    """Reference GIM(v) for every (family, params label) of a grid.

    Closed forms where they exist, quadrature otherwise.
    """
    truths = {}
    for family, params_label in families:
        params = _parse_params(params_label)
        for v in orders:
            exact = closed_form_gim(family, params, v)
            truths[(family, params_label, v)] = (
                exact if exact is not None else population_gim(family, params, v)
            )
    return truths


def _v2_identity_problems(where, n, truth, ustat, edf):
    """At v = 2, every replication has edf = ((n-1) ustat + 1) / n exactly.

    With a = (n-1)/n and b = (1 - truth)/n the edf row follows from the
    ustat row: bias_e = a bias_u + b, mc_se_e = a mc_se_u and
    mse_e = a^2 mse_u + 2ab bias_u + b^2.  Inputs carry 6 printed digits.
    """
    (bias_u, mse_u, se_u), (bias_e, mse_e, se_e) = ustat, edf
    a, b = (n - 1) / n, (1.0 - truth) / n
    tol = 2e-5
    problems = []
    if abs(bias_e - (a * bias_u + b)) > tol * (abs(a * bias_u) + abs(b)):
        problems.append(f"{where}: edf bias {bias_e} breaks the v=2 identity")
    if abs(se_e - a * se_u) > tol * a * se_u:
        problems.append(f"{where}: edf mc_se {se_e} breaks the v=2 identity")
    terms = (a * a * mse_u, abs(2.0 * a * b * bias_u), b * b)
    if abs(mse_e - (terms[0] + 2.0 * a * b * bias_u + terms[2])) > tol * sum(terms):
        problems.append(f"{where}: edf mse {mse_e} breaks the v=2 identity")
    return problems


def check_simulate(stdout, expected_cells, truths, first_output=None):
    """``gim simulate --format csv`` output.

    ``expected_cells`` lists (family, params label, v, n) in grid order.
    Every cell's truth must match its reference, every v = 2 cell must obey
    the exact edf/ustat identity, and the whole table must be byte-identical
    to ``first_output`` (the run's first operation) when given.

    The U-statistic bias must stay within ``BIAS_SIGMAS`` Monte Carlo
    standard errors on the exponential cells only: numerator and denominator
    are unbiased but their ratio is not, and on the heavier-tailed Pareto(3)
    and lognormal cells that ratio bias is itself several standard errors
    at 5000 replications.
    """
    if first_output is not None and stdout != first_output:
        return ["simulate: output differs from the first operation with the same seed"]
    lines = stdout.splitlines()
    if not lines or lines[0] != SIMULATE_HEADER:
        return [f"simulate: bad header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    want_keys = [(f, p, str(v), str(n), est) for f, p, v, n in expected_cells for est in ("ustat", "edf")]
    if [tuple(r[:5]) for r in rows] != want_keys:
        return ["simulate: cells differ from the default grid"]
    problems = []
    for ustat, edf in zip(rows[0::2], rows[1::2]):
        family, params, v, n = ustat[0], ustat[1], int(ustat[2]), int(ustat[3])
        where = f"simulate {family} {params} v={v} n={n}"
        want = truths[(family, params, v)]
        numbers = [[float(x) for x in row[5:9]] for row in (ustat, edf)]
        for row, (bias, mse, mc_se, truth) in zip((ustat, edf), numbers):
            if not _printed_close(row[8], want):
                problems.append(f"{where} {row[4]}: truth {row[8]} != {want:.12g}")
            if not (mse >= 0.0 and mc_se > 0.0):
                problems.append(f"{where} {row[4]}: mse {mse} / mc_se {mc_se}")
        bias_u, mc_se_u = numbers[0][0], numbers[0][2]
        if family == "exponential" and abs(bias_u) > BIAS_SIGMAS * mc_se_u:
            problems.append(f"{where}: |bias_u| {bias_u} > {BIAS_SIGMAS:g} mc_se {mc_se_u}")
        if v == 2:
            problems += _v2_identity_problems(where, n, want, numbers[0][:3], numbers[1][:3])
    return problems


def check_theory(results, tasks, refs):
    """theory-profile output against quad references and exact anchors."""
    if [r[:4] for r in results] != [list(t) for t in tasks]:
        return ["theory: tasks in output differ from tasks given"]
    problems = []
    for kind, family, params, v, value in results:
        key = task_key(kind, family, params, v)
        where = f"theory {kind} {family} {params} v={v}"
        if not _close(value, refs[key], POPULATION_RTOL):
            problems.append(f"{where}: {value!r} != quad {refs[key]!r}")
        if key in ANCHORS and not _close(value, ANCHORS[key], POPULATION_RTOL):
            problems.append(f"{where}: {value!r} != exact {ANCHORS[key]!r}")
    return problems
