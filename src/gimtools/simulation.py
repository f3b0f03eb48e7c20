"""Monte Carlo bias/MSE study harness for the GIM estimators.

A *cell* is one (distribution, n, v) experiment: ``replications`` samples
are drawn, both estimators are computed on each, and bias / MSE / Monte
Carlo standard errors against the theoretical GIM(v) come out.  A *grid*
is a list of cells, typically n in {20, 40, 60, 80, 100, 200} crossed with
v in {2, 3} for each distribution family.

Determinism contract: replication r of a cell always draws from the
counter-based stream (cell.base_seed, r), so its estimate depends on the
stream key alone, never on which chunk or call computed it.  Chunks run in
index order on the calling thread, and accumulation happens in a fixed
order after all replications are stored by index, so the same seed gives
byte-identical output across runs and machines.
"""

import configparser
from dataclasses import dataclass

import numpy as np

from .distributions import FAMILIES, fill_stream_rows, inverse_transform, theoretical_gim
from .errors import EmptyGrid, InvalidArgument, ParseError, SampleTooSmall, check_integer
from .measures import KINDS, _check_order, extreme_sums, extreme_weights, gim_ratio

_CHUNK = 512  # replications sampled, sorted and summed per batch
DEFAULT_SIZES = (20, 40, 60, 80, 100, 200)
DEFAULT_ORDERS = (2, 3)


@dataclass(frozen=True)
class SimCell:
    """One Monte Carlo experiment: a family, sample size, order and seed."""

    dist: object
    n: int
    v: int
    replications: int = 10_000
    base_seed: int = 0

    def __post_init__(self):
        check_integer(self.replications, "replications", InvalidArgument, 1)
        _check_order(self.v, check_integer(self.n, "sample size n", SampleTooSmall, 1))
        # stream keys are 64-bit: 2.5 would run as seed 2 and -1 as 2**64 - 1
        check_integer(self.base_seed, "base_seed", InvalidArgument, 0, 1 << 64)


@dataclass(frozen=True)
class SimResult:
    """Bias/MSE of both estimators in one cell, with MC standard errors."""

    cell: SimCell
    truth: float
    bias_u: float
    mse_u: float
    mc_se_u: float
    bias_edf: float
    mse_edf: float
    mc_se_edf: float


# the SimResult field suffix of each estimator kind
_FIELD_TAG = dict(zip(KINDS, ("u", "edf")))


def run_cell(cell):
    """Run one Monte Carlo cell and summarize both estimators.

    Replications run in chunks of 512, in index order, on the calling
    thread; replication r draws from the stream (cell.base_seed, r).

    Parameters
    ----------
    cell : SimCell

    Returns
    -------
    SimResult
    """
    truth = theoretical_gim(cell.dist, cell.v)
    weights = tuple(extreme_weights(kind, cell.n, cell.v) for kind in KINDS)

    reps = cell.replications
    estimates = np.empty((len(KINDS), reps))  # one row per estimator kind
    for lo in range(0, reps, _CHUNK):
        hi = min(lo + _CHUNK, reps)
        uniforms = fill_stream_rows(np.empty((hi - lo, cell.n)), cell.base_seed, lo)
        x = inverse_transform(cell.dist, uniforms)
        for est, (w_hi, w_lo) in zip(estimates, weights):
            e_max, e_min, _ = extreme_sums(x, w_hi, w_lo, cell.v)
            est[lo:hi] = gim_ratio(e_max, e_min)[0]

    summary = {}
    for kind, est in zip(KINDS, estimates):
        tag = _FIELD_TAG[kind]
        summary[f"bias_{tag}"] = float(np.mean(est)) - truth
        summary[f"mse_{tag}"] = float(np.mean((est - truth) ** 2))
        summary[f"mc_se_{tag}"] = float(np.std(est, ddof=1)) / np.sqrt(reps) if reps > 1 else 0.0
    return SimResult(cell=cell, truth=float(truth), **summary)


def run_grid(cells):
    """Run a list of cells; results come back in input order."""
    cells = list(cells)
    if not cells:
        raise EmptyGrid("simulation grid has no cells")
    return [run_cell(cell) for cell in cells]


def default_grid(distributions, replications=10_000, base_seed=1,
                 sizes=DEFAULT_SIZES, orders=DEFAULT_ORDERS):
    """Standard study grid: every (family, v, n) combination.

    Cells receive consecutive base seeds (grid seed + cell index) so no two
    cells share replication streams; the last one must fit 64 bits too.
    """
    keys = [(dist, v, n) for dist in distributions for v in orders for n in sizes]
    return _grid(keys, replications, base_seed)


def _grid(keys, replications, seed):
    """Cells of ``(dist, v, n)`` keys on consecutive seeds, the last one below 2**64."""
    cells = len(keys)
    try:
        seed = check_integer(seed, "seed", InvalidArgument, 0, (1 << 64) - max(cells - 1, 0))
    except InvalidArgument as exc:
        raise InvalidArgument(
            f"{exc}; the {cells} cells take consecutive seeds from seed up to seed + {cells - 1}"
        ) from None
    return [
        SimCell(dist=dist, n=n, v=v, replications=replications, base_seed=seed + i)
        for i, (dist, v, n) in enumerate(keys)
    ]


def _parse_numbers(text, cast):
    return [cast(tok) for tok in text.replace(",", " ").split()]


def load_grid_config(path):
    """Load a simulation grid from an INI-style config file.

    One section per distribution family plus an optional ``[run]`` section:

        [run]
        replications = 10000
        seed = 1

        [exponential]
        rate = 1.0
        n = 20 40 60 80 100 200
        v = 2 3

        [pareto]
        shape = 3
        scale = 1

        [lognormal]
        meanlog = 0
        sdlog = 0.5

    Family sections may omit ``n``/``v`` (the defaults above apply) and any
    distribution parameter (family defaults apply).  A second section for
    the same family can be written as e.g. ``[pareto heavy]`` — the first
    word names the family.

    Returns
    -------
    list of SimCell
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ParseError(f"cannot read grid config {path!r}")

    replications = 10_000
    base_seed = 1
    if parser.has_section("run"):
        run = parser["run"]
        try:
            replications = run.getint("replications", replications)
            base_seed = run.getint("seed", base_seed)
        except ValueError as exc:
            raise ParseError(f"bad [run] value in {path!r}: {exc}") from exc

    keys = []
    for section in parser.sections():
        if section == "run":
            continue
        family = section.split()[0].lower()
        if family not in FAMILIES:
            raise ParseError(
                f"unknown family section [{section}] in {path!r}; "
                f"expected one of {sorted(FAMILIES)}"
            )
        options = dict(parser[section])
        sizes_text = options.pop("n", None)
        orders_text = options.pop("v", None)
        try:
            params = {key: float(val) for key, val in options.items()}
            dist = FAMILIES[family](**params)
            sizes = _parse_numbers(sizes_text, int) if sizes_text else DEFAULT_SIZES
            orders = _parse_numbers(orders_text, int) if orders_text else DEFAULT_ORDERS
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad section [{section}] in {path!r}: {exc}") from exc
        keys += [(dist, v, n) for v in orders for n in sizes]
    if not keys:
        raise ParseError(f"no family sections found in {path!r}")
    return _grid(keys, replications, base_seed)


def emit_table(results, format="csv"):
    """Render simulation results as CSV (long) or markdown (wide).

    CSV has one row per (cell, estimator) with full-precision numbers::

        family,params,v,n,estimator,bias,mse,mc_se,truth

    Markdown has one row per cell with both estimators side by side,
    bias/MSE at the conventional 3-decimal display precision.
    """
    results = list(results)
    if not results:
        raise EmptyGrid("no results to render")
    if format == "csv":
        lines = ["family,params,v,n,estimator,bias,mse,mc_se,truth"]
        for res in results:
            cell = res.cell
            prefix = f"{cell.dist.name},{cell.dist.params_label()},{cell.v},{cell.n}"
            for kind in KINDS:
                tag = _FIELD_TAG[kind]
                bias, mse, mc_se = (getattr(res, f"{s}_{tag}") for s in ("bias", "mse", "mc_se"))
                lines.append(f"{prefix},{kind},{bias:.6g},{mse:.6g},{mc_se:.6g},{res.truth:.6g}")
        return "\n".join(lines) + "\n"
    if format == "md":
        header = (
            "| family | params | v | n | bias (ustat) | mse (ustat) "
            "| bias (edf) | mse (edf) | truth |"
        )
        rule = "|---|---|---|---|---|---|---|---|---|"
        lines = [header, rule]
        for res in results:
            cell = res.cell
            lines.append(
                f"| {cell.dist.name} | {cell.dist.params_label()} "
                f"| {cell.v} | {cell.n} "
                f"| {res.bias_u:.3f} | {res.mse_u:.3f} "
                f"| {res.bias_edf:.3f} | {res.mse_edf:.3f} "
                f"| {res.truth:.3f} |"
            )
        return "\n".join(lines) + "\n"
    raise InvalidArgument(f"format must be 'csv' or 'md', got {format!r}")
