"""Data-analysis workflow pieces: CSV ingestion, descriptives, reports.

These are the library halves of the CLI subcommands: read an income column
out of a CSV file, summarize it, estimate Gini/GIM(v) with confidence
intervals, and export histogram/density curves for plotting.
"""

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyColumn, InvalidBandwidth, NegativeIncome, NonFinite, ParseError
from .inference import METHODS, confidence_interval, jackknife_variance, ustat_variance
from .measures import gim_ustat, gini_ustat
from .samples import as_sample, make_sample


class IngestResult(NamedTuple):
    """A parsed income column: the sample plus a count of skipped blanks."""

    sample: object
    skipped: int


def ingest_csv(path, column=0, delimiter=",", has_header=True):
    """Extract one income column from a CSV file.

    Parameters
    ----------
    path : str or Path
        CSV file to read.
    column : str or int
        Column name (requires a header row) or 0-based column index.
    delimiter : str
        Field separator.
    has_header : bool
        Whether the first row is a header.

    Returns
    -------
    IngestResult
        ``(sample, skipped)`` — blank cells are skipped and counted, so a
        caller can warn without failing on sparse survey extracts.

    Raises
    ------
    FileNotFoundError
        If the file does not exist.
    ParseError
        If a cell is not numeric, or the requested column is missing
        (the error carries the 1-based line number where applicable).
    NegativeIncome
        If a cell parses to a negative number (with its line number).
    NonFinite
        If a cell parses to NaN or +inf (with its line number).
    EmptyColumn
        If no usable values remain.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        line = 0
        index = None
        if has_header:
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyColumn(f"{path}: file is empty") from None
            line = 1
            header = [cell.strip() for cell in header]
            if isinstance(column, int):
                index = column
            elif column in header:
                index = header.index(column)
            else:
                try:
                    index = int(column)
                except ValueError:
                    raise ParseError(
                        f"column {column!r} not in header {header}", line=1
                    ) from None
        else:
            try:
                index = column if isinstance(column, int) else int(column)
            except ValueError:
                raise ParseError(
                    f"headerless file needs a numeric column index, got {column!r}"
                ) from None

        values = []
        skipped = 0
        for row in reader:
            line += 1
            if not row:  # entirely blank line
                skipped += 1
                continue
            if index >= len(row):
                raise ParseError(f"row has only {len(row)} columns", line=line)
            cell = row[index].strip()
            if not cell:
                skipped += 1
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"not a number: {cell!r}", line=line) from None
            if not 0.0 <= value < math.inf:
                if value < 0:
                    raise NegativeIncome(f"line {line}: negative income {value!r}")
                raise NonFinite(f"line {line}: non-finite income {value!r}")
            values.append(value)

    if not values:
        raise EmptyColumn(f"{path}: no usable values in column {column!r}")
    return IngestResult(sample=make_sample(values), skipped=skipped)


@dataclass(frozen=True)
class DescriptiveStats:
    """Summary statistics of an income sample.

    ``sd`` uses divisor n-1; ``skewness`` and ``kurtosis`` are the moment
    ratios m3/m2^1.5 and m4/m2^2 (kurtosis non-excess: the normal
    distribution scores 3) with central moments over divisor n.  A field
    whose precondition fails (sd at n < 2, shape moments at n < 3 or zero
    variance) is None rather than NaN.
    """

    n: int
    mean: float
    sd: float
    min: float
    max: float
    range: float
    skewness: float
    kurtosis: float


def _scaled_spread(s):
    """``(sd, centered)``: the sd of ``s`` (divisor n-1), and deviations.

    Both come from the :meth:`IncomeSample.scaled` values, so no square
    overflows near the float maximum or underflows near its minimum.
    ``centered`` stays at that scale (fit for scale-free moment ratios);
    ``sd`` is scaled back.  Needs ``s.n >= 2``.
    """
    x, exponent = s.scaled()
    centered = x - np.mean(x)
    sd = math.sqrt(float(np.sum(centered * centered)) / (s.n - 1))
    return float(np.ldexp(sd, exponent)), centered


def describe(s):
    """Descriptive statistics of a sample (see :class:`DescriptiveStats`)."""
    s = as_sample(s)
    x = s.values
    low = float(x[0])
    high = float(x[-1])
    sd = None
    skewness = None
    kurtosis = None
    if s.n >= 2:
        sd, centered = _scaled_spread(s)
    if s.n >= 3:
        m2 = float(np.mean(centered**2))
        if m2 > 0.0:
            skewness = float(np.mean(centered**3)) / m2**1.5
            kurtosis = float(np.mean(centered**4)) / m2**2
    return DescriptiveStats(
        n=s.n,
        mean=s.mean(),
        sd=sd,
        min=low,
        max=high,
        range=high - low,
        skewness=skewness,
        kurtosis=kurtosis,
    )


class GimReportEntry(NamedTuple):
    """One order's slice of a report: estimate plus confidence interval."""

    v: int
    value: float
    ci_low: float
    ci_high: float
    se_method: str


@dataclass(frozen=True)
class ReportRow:
    """Gini plus GIM(v) estimates with intervals for one dataset."""

    label: str
    gini: float
    entries: tuple


def report(s, v_list, ci_level=0.95, se_method="jackknife", label="sample"):
    """Estimate Gini and GIM(v) for each requested order, with intervals.

    ``se_method`` selects the interval machinery: ``"jackknife"``
    (recommended) or ``"plugin"``.  Entries come back in ``v_list`` order;
    the v = 2 value equals the Gini index exactly.
    """
    s = as_sample(s)
    v_list = list(v_list)
    if not v_list:
        raise ValueError("v_list must name at least one order")
    if se_method not in METHODS:
        raise ValueError(f"se_method must be one of {METHODS}, got {se_method!r}")
    gini = gini_ustat(s)
    entries = []
    for v in v_list:
        estimate = gim_ustat(s, v)
        if se_method == "jackknife":
            spread = jackknife_variance(s, v, kind="ustat")
        else:
            spread = ustat_variance(s, v)
        spread = confidence_interval(estimate.value, spread, ci_level)
        entries.append(
            GimReportEntry(
                v=int(v),
                value=estimate.value,
                ci_low=spread.ci_low,
                ci_high=spread.ci_high,
                se_method=se_method,
            )
        )
    return ReportRow(label=label, gini=gini, entries=tuple(entries))


class DensityResult(NamedTuple):
    """What :func:`emit_density` wrote: row count and the bandwidth used."""

    rows: int
    bandwidth: float


def silverman_bandwidth(s):
    """Silverman's rule-of-thumb kernel bandwidth.

    0.9 * min(sd, IQR/1.34) * n^(-1/5); raises InvalidBandwidth on
    degenerate (constant or too-small) samples where the rule gives 0.
    """
    s = as_sample(s)
    if s.n < 2:
        raise InvalidBandwidth("bandwidth rule needs at least 2 observations")
    sd, _ = _scaled_spread(s)
    q75, q25 = np.percentile(s.values, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    width = 0.9 * spread * s.n ** (-0.2)
    if not width > 0:
        raise InvalidBandwidth(
            "sample spread is zero; pass an explicit bandwidth"
        )
    return width


def emit_density(s, out_path, bins=30, bandwidth=None, svg_path=None):
    """Write histogram counts and a Gaussian kernel density curve as CSV.

    The CSV has exactly ``bins`` rows (columns ``bin_mid,count,density``):
    the kernel density is evaluated at the histogram bin midpoints, so one
    grid serves both curves.  ``bandwidth`` defaults to Silverman's rule.
    With ``svg_path`` set, a small self-contained SVG line plot of the
    density is written as well.  Both curves run on :meth:`IncomeSample.scaled`
    values, so a density reads ``inf`` only past the float range.

    Returns
    -------
    DensityResult
    """
    s = as_sample(s)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(s)
    elif not bandwidth > 0:
        raise InvalidBandwidth(f"bandwidth must be positive, got {bandwidth!r}")

    x, exponent = s.scaled()
    scaled_bandwidth = np.ldexp(bandwidth, -exponent)
    # a bandwidth that vanishes at the sample's scale, or whose kernel
    # normaliser overflows, has no density to give
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / (scaled_bandwidth * math.sqrt(2.0 * math.pi) * s.n)
    if not np.isfinite(inv):
        raise InvalidBandwidth(
            f"bandwidth {bandwidth!r} is too small for a sample of this scale"
        )
    counts, edges = np.histogram(x, bins=bins)
    mids = 0.5 * (edges[:-1] + edges[1:])
    # Gaussian KDE at the midpoints; bins x n kept memory-bounded by
    # chunking over the sample
    scaled_density = np.zeros(bins)
    with np.errstate(over="ignore"):  # an overflowing z * z gives exp(-inf) = 0
        for lo in range(0, s.n, 16_384):
            block = x[lo : lo + 16_384]
            z = (mids[:, None] - block[None, :]) / scaled_bandwidth
            scaled_density += inv * np.sum(np.exp(-0.5 * z * z), axis=1)
        density = np.ldexp(scaled_density, -exponent)
    mids = np.ldexp(mids, exponent)

    lines = ["bin_mid,count,density"]
    for mid, count, dens in zip(mids, counts, density):
        lines.append(f"{mid:.10g},{int(count)},{dens:.10g}")
    with open(out_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")

    if svg_path is not None:
        # the plot's y-axis is relative, and the scaled density stays finite
        _write_density_svg(svg_path, mids, scaled_density, counts)
    return DensityResult(rows=bins, bandwidth=float(bandwidth))


def _write_density_svg(path, grid, density, counts):
    """Self-contained SVG: histogram bars plus the density polyline."""
    width, height, pad = 640, 360, 40
    span_x = grid[-1] - grid[0] if grid[-1] > grid[0] else 1.0
    top = float(density.max()) if density.max() > 0 else 1.0
    bar_top = float(max(counts.max(), 1))
    inner_w = width - 2 * pad
    inner_h = height - 2 * pad

    def sx(value):
        return pad + (value - grid[0]) / span_x * inner_w

    def sy(value, scale):
        return height - pad - value / scale * inner_h

    bar_w = inner_w / len(grid)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for mid, count in zip(grid, counts):
        if count == 0:
            continue
        y = sy(count, bar_top)
        parts.append(
            f'<rect x="{sx(mid) - bar_w / 2:.2f}" y="{y:.2f}" '
            f'width="{bar_w:.2f}" height="{height - pad - y:.2f}" '
            f'fill="#c8d8e8"/>'
        )
    points = " ".join(
        f"{sx(g):.2f},{sy(d, top):.2f}" for g, d in zip(grid, density)
    )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f4e79" stroke-width="1.5"/>'
    )
    axis = f'M {pad} {height - pad} H {width - pad} M {pad} {height - pad} V {pad}'
    parts.append(f'<path d="{axis}" stroke="black" fill="none"/>')
    parts.append(
        f'<text x="{pad}" y="{height - pad + 16}" font-size="10">{grid[0]:.3g}</text>'
    )
    parts.append(
        f'<text x="{width - pad}" y="{height - pad + 16}" font-size="10" '
        f'text-anchor="end">{grid[-1]:.3g}</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as handle:
        handle.write("\n".join(parts) + "\n")
