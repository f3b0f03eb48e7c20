"""Data-analysis workflow pieces: CSV ingestion, descriptives, reports.

These are the library halves of the CLI subcommands: read an income column
out of a CSV file, summarize it, estimate Gini/GIM(v) with confidence
intervals, and export histogram/density curves for plotting.
"""

import csv
import io
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


# characters of CSV text per ``np.loadtxt`` call; each block ends at a line end.
# The per-block buffers of 1 MiB blocks stayed on the heap and raised the
# peak RSS of a 1e6-row `gim report` by 2-6 MB (glibc malloc); 64 KiB blocks
# did not, at the same speed.
_BLOCK = 1 << 16


def ingest_csv(path, column=0, delimiter=",", has_header=True):
    """Extract one income column from a CSV file.

    Two readers share one contract.  A numpy fast path parses the body in
    blocks of 64 KiB with ``np.loadtxt``.  A ``csv.reader`` loop reads
    the whole file again whenever a block holds anything the fast path does
    not vouch for: quotes, carriage returns, blank lines, blank cells other
    than a last-column income cell, whitespace-only cells, text, NaN,
    infinities, negatives, short rows or over-long fields.  Both give the
    same sample, bit for bit, the same skipped count and the same errors;
    only the ``csv.reader`` loop raises, so every error carries its line
    number.

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
        index, _ = _column_index(reader, path, column, has_header)
        try:
            parsed = _read_blocks(handle, delimiter, index)
        except UnicodeDecodeError:  # the row reader may meet a bad cell first
            parsed = None
    if parsed is None:
        parsed = _read_rows(path, column, delimiter, has_header)
    values, skipped = parsed
    if not len(values):
        raise EmptyColumn(f"{path}: no usable values in column {column!r}")
    return IngestResult(sample=make_sample(values), skipped=skipped)


def _column_index(reader, path, column, has_header):
    """``(index, line)``: the income column and the lines the header took."""
    if not has_header:
        try:
            return (column if isinstance(column, int) else int(column)), 0
        except ValueError:
            raise ParseError(
                f"headerless file needs a numeric column index, got {column!r}"
            ) from None
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyColumn(f"{path}: file is empty") from None
    header = [cell.strip() for cell in header]
    if isinstance(column, int):
        return column, 1
    if column in header:
        return header.index(column), 1
    try:
        return int(column), 1
    except ValueError:
        raise ParseError(f"column {column!r} not in header {header}", line=1) from None


def _read_blocks(handle, delimiter, index):
    """``(values, skipped)`` of the body parsed by ``np.loadtxt``, or None.

    A blank income cell in the last column, ``delimiter + "\\n"``, is read
    as the sentinel -1 and counted.  A block is accepted only where
    ``csv.reader`` reads the same cells: it has no quote and no carriage
    return, no blank line (``loadtxt`` skips those silently), no line past
    the csv field size limit, one parsed row per line, and no negative or
    non-finite value but the sentinels.  None sends the caller to
    :func:`_read_rows`.
    """
    if index < 0 or delimiter in "\r\n":
        return None
    blank, sentinel = delimiter + "\n", delimiter + "-1\n"
    limit = csv.field_size_limit()
    column, count, skipped = np.empty(0), 0, 0
    while block := handle.read(_BLOCK) + handle.readline():
        if '"' in block or "\r" in block:
            return None
        if not block.endswith("\n"):
            block += "\n"
        # line lengths plus one, in UTF-8 bytes (at least the character
        # count); 1 is a blank line
        ends = np.flatnonzero(np.frombuffer(block.encode(), np.uint8) == 10)
        spans = np.diff(ends, prepend=-1)
        if spans.min() == 1 or spans.max() > limit + 1:
            return None
        pieces = block.split(blank)
        blanks = len(pieces) - 1
        if blanks:
            block = sentinel.join(pieces)
            # loadtxt needs `index` delimiters on every line; this many in
            # all leaves no more, so each sentinel lands in the income column
            if block.count(delimiter) != spans.size * index:
                return None
        try:
            values = np.loadtxt(
                io.StringIO(block),
                delimiter=delimiter,
                usecols=index,
                comments=None,
                ndmin=1,
                dtype=float,
            )
        except (ValueError, OverflowError):  # a bad cell, or an index past C's
            return None
        negative = values < 0
        if values.size != spans.size or np.count_nonzero(negative) != blanks:
            return None
        values = values[~negative]
        if not np.all(np.isfinite(values)):
            return None
        # one array for the column, grown by doubling: an array kept per
        # block pins heap memory much as 1 MiB blocks do
        if count + values.size > column.size:
            grown = np.empty(max(2 * column.size, count + values.size))
            grown[:count] = column[:count]
            column = grown
        column[count : count + values.size] = values
        count += values.size
        skipped += blanks
    return column[:count], skipped


def _read_rows(path, column, delimiter, has_header):
    """``(values, skipped)`` read row by row by ``csv.reader``, or a typed error."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        index, line = _column_index(reader, path, column, has_header)
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
    return values, skipped


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
    # a bandwidth that vanishes at the sample's scale, or whose kernel
    # normaliser overflows, has no density to give
    with np.errstate(divide="ignore", over="ignore"):
        scaled_bandwidth = np.ldexp(bandwidth, -exponent)
        inv = 1.0 / (scaled_bandwidth * math.sqrt(2.0 * math.pi) * s.n)
    if not np.isfinite(inv):
        raise InvalidBandwidth(
            f"bandwidth {bandwidth!r} is too small for a sample of this scale"
        )
    counts, edges = np.histogram(x, bins=bins)
    mids = 0.5 * (edges[:-1] + edges[1:])
    if inv < np.finfo(float).tiny:
        # a kernel this wide is flat across the sample (every exp(-z*z/2)
        # rounds to 1) and its normaliser underflows at the sample's scale,
        # so the density is the kernel's peak, taken unscaled
        scaled_density = np.ones(bins)
        density = np.full(bins, math.sqrt(0.5 / math.pi) / bandwidth)
    else:
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
