"""Data-analysis workflow pieces: CSV ingestion, descriptives, reports.

These are the library halves of the CLI subcommands: read an income column
out of a CSV file, summarize it, and estimate Gini/GIM(v) with confidence
intervals.
"""

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (EmptyColumn, InvalidArgument, NegativeIncome, NonFinite, ParseError,
                     check_integer)
from .inference import METHODS, _check_level, confidence_interval, jackknife_variance, ustat_variance
from .measures import _check_order, gim_ustat, gini_ustat
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

    The file is decoded once, as UTF-8: a leading byte-order mark is dropped,
    and an undecodable byte reads as a lone surrogate, which passes in another
    column and is a :class:`ParseError` in the income column.  ``np.loadtxt``
    parses the body in blocks of 64 KiB.  A block holding anything the block
    reader does not vouch for (quotes, a lone carriage return, blank or
    whitespace cells other than a last-column income cell, text, NaN,
    infinities, negatives, short rows, over-long fields) goes to a
    ``csv.reader`` loop instead.  Without a quote the block ends at a record
    boundary, so the loop reads that block alone and the next block goes
    back to ``np.loadtxt``; from a block with a quote, the loop reads on to
    the end of the file.  Both readers give the same values, skipped count
    and errors; only the ``csv.reader`` loop raises, so every error carries
    its line number.

    Parameters
    ----------
    path : str or Path
        CSV file to read.
    column : str or int
        Column name (requires a header row) or 0-based column index.
    delimiter : str
        Field separator, one character.
    has_header : bool
        Whether the first row is a header.

    Returns
    -------
    IngestResult
        ``(sample, skipped)`` — blank lines and cells are skipped and counted,
        so a caller can warn without failing on sparse survey extracts.

    Raises
    ------
    InvalidArgument
        If ``delimiter`` is not one character (checked before the file opens).
    FileNotFoundError
        If the file does not exist.
    ParseError
        If a cell is not numeric or over-long, or the requested column is
        missing (the error carries the 1-based line number where applicable).
    NegativeIncome
        If a cell parses to a negative number (with its line number).
    NonFinite
        If a cell parses to NaN or +inf (with its line number).
    EmptyColumn
        If no usable values remain.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise InvalidArgument(f"delimiter must be one character, got {delimiter!r}")
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        index, line = _column_index(reader, path, column, has_header)
        values, count, skipped = np.empty(0), 0, 0
        while text := handle.read(_BLOCK) + handle.readline():
            parsed = _parse_block(text, delimiter, index)
            if parsed is None:
                # csv.reader reads this block; a block without a quote ends at
                # a record boundary, but a quoted cell may run on, so with a
                # quote it reads the rest of the file too
                rows = io.StringIO(text, newline="")
                if '"' in text:
                    rows = itertools.chain(rows, handle)
                reader = csv.reader(rows, delimiter=delimiter)
                rest, blanks = _read_rows(reader, index, line)
                parsed = np.array(rest, dtype=float), blanks, reader.line_num
            block, blanks, lines = parsed
            # one array grown by doubling: arrays kept per block pin heap memory
            if count + block.size > values.size:
                grown = np.empty(max(2 * values.size, count + block.size))
                grown[:count] = values[:count]
                values = grown
            values[count : count + block.size] = block
            count += block.size
            skipped += blanks
            line += lines
    if not count:
        raise EmptyColumn(f"{path}: no usable values in column {column!r}")
    return IngestResult(sample=make_sample(values[:count]), skipped=skipped)


def _column_index(reader, path, column, has_header):
    """``(index, line)``: the income column and the lines the header took.

    A header name wins over a numeric string; an index must be >= 0.
    """
    line = 0
    if has_header:
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise EmptyColumn(f"{path}: file is empty") from None
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
        line = reader.line_num  # a quoted header name may span lines
        if column in header:
            return header.index(column), line
    try:
        index = int(column) if isinstance(column, str) else column
    except ValueError:
        raise ParseError(
            f"column {column!r} not in header {header}" if has_header
            else f"headerless file needs a numeric column index, got {column!r}",
            line=line or None,
        ) from None
    return check_integer(index, "column index", ParseError, 0), line


def _parse_block(text, delimiter, index):
    """``(values, skipped, lines)`` of one block parsed by ``np.loadtxt``, or None.

    ``\\r\\n`` line ends read as ``\\n``.  Blank lines are counted as
    skipped, and so is a blank income cell in the last column,
    ``delimiter + "\\n"``, read as the sentinel -1.  The block is accepted
    only where ``csv.reader`` reads the same cells: it has no quote and no
    other carriage return, no line past the csv field size limit, one parsed
    row per non-blank line, and no negative or non-finite value but the
    sentinels.  None hands the block to :func:`_read_rows`.
    """
    if "\r" in text:  # replace copies the whole block even where it finds no \r\n
        text = text.replace("\r\n", "\n")
    if delimiter in "\r\n" or '"' in text or "\r" in text:
        return None
    if not text.endswith("\n"):
        text += "\n"
    # line lengths plus one, in UTF-8 bytes (at least the character count);
    # 1 is a blank line
    ends = np.flatnonzero(np.frombuffer(text.encode(errors="surrogateescape"), np.uint8) == 10)
    spans = np.diff(ends, prepend=-1)
    if spans.max() > csv.field_size_limit() + 1:
        return None
    empty = int(np.count_nonzero(spans == 1))
    rows = spans.size - empty
    if not rows:  # loadtxt warns on a block with no cells
        return np.empty(0), empty, spans.size
    pieces = text.split(delimiter + "\n")
    blanks = len(pieces) - 1
    if blanks:
        text = (delimiter + "-1\n").join(pieces)
        # loadtxt needs `index` delimiters on every row; this many in all
        # leaves no more, so each sentinel lands in the income column
        if text.count(delimiter) != rows * index:
            return None
    try:
        values = np.loadtxt(io.StringIO(text), delimiter=delimiter, usecols=index,
                            comments=None, ndmin=1, dtype=float)
    except (ValueError, OverflowError):  # a bad cell, or an index past C's
        return None
    negative = values < 0
    if values.size != rows or np.count_nonzero(negative) != blanks:
        return None
    values = values[~negative]
    if not np.all(np.isfinite(values)):
        return None
    return values, blanks + empty, spans.size


def _read_rows(reader, index, line):
    """``(values, skipped)`` of a fresh ``csv.reader`` that starts after file
    line ``line``, read row by row, or a typed error.  The reader's
    ``line_num`` counts file lines, so an error names the line where its
    record ends, after quoted cells that span lines too."""
    values, skipped = [], 0
    try:
        for row in reader:
            if not row:  # entirely blank line
                skipped += 1
                continue
            if index >= len(row):
                raise ParseError(f"row has only {len(row)} columns", line=line + reader.line_num)
            cell = row[index].strip()
            if not cell:
                skipped += 1
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"not a number: {cell!r}", line=line + reader.line_num) from None
            if not 0.0 <= value < math.inf:
                error, what = (NegativeIncome, "negative") if value < 0 else (NonFinite, "non-finite")
                raise error(f"{what} income {value!r}", line=line + reader.line_num)
            values.append(value)
    except csv.Error as exc:  # a field past the csv size limit
        raise ParseError(str(exc), line=line + reader.line_num) from None
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


def describe(s):
    """Descriptive statistics of a sample (see :class:`DescriptiveStats`).

    The mean, the sd and the shape moments all come from one
    :meth:`IncomeSample.scaled` copy, centred in place, so no square
    overflows near the float maximum or underflows near its minimum; the
    mean and the sd are scaled back, and the moment ratios are scale-free.
    """
    s = as_sample(s)
    low, high = float(s.values[0]), float(s.values[-1])
    x, exponent = s.scaled()
    center = np.mean(x)
    x -= center
    sd = skewness = kurtosis = None
    if s.n >= 2:
        sd = float(np.ldexp(math.sqrt(float(np.sum(x * x)) / (s.n - 1)), exponent))
    if s.n >= 3:
        m2 = float(np.mean(x**2))
        if m2 > 0.0:
            skewness = float(np.mean(x**3)) / m2**1.5
            kurtosis = float(np.mean(x**4)) / m2**2
    return DescriptiveStats(
        n=s.n,
        mean=float(np.ldexp(center, exponent)),
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
    the v = 2 value equals the Gini index exactly.  The orders, the level
    and the method are checked before any estimate is computed.
    """
    s = as_sample(s)
    v_list = [_check_order(v, s.n) for v in v_list]
    if not v_list:
        raise InvalidArgument("v_list must name at least one order")
    _check_level(ci_level)
    if se_method not in METHODS:
        raise InvalidArgument(f"se_method must be one of {METHODS}, got {se_method!r}")
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
                v=v,
                value=estimate.value,
                ci_low=spread.ci_low,
                ci_high=spread.ci_high,
                se_method=se_method,
            )
        )
    return ReportRow(label=label, gini=gini, entries=tuple(entries))
