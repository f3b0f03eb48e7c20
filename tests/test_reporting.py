"""CSV ingestion, descriptive statistics, report rows, density output."""

import csv
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gimtools import (
    EmptyColumn,
    Exponential,
    InvalidBandwidth,
    NegativeIncome,
    NonFinite,
    ParseError,
    SeededStream,
    describe,
    draw_sample,
    emit_density,
    gini_ustat,
    ingest_csv,
    make_sample,
    report,
)
from gimtools import reporting
from gimtools.reporting import silverman_bandwidth

# np.loadtxt warns on a body with no cells; the block reader must not call it
# on one
pytestmark = pytest.mark.filterwarnings("error::UserWarning")


# ---------------------------------------------------------------------------
# ingestion


def write(tmp_path, text, name="incomes.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_by_header_name(tmp_path):
    path = write(tmp_path, "region,income\nA,100\nB,250.5\nC,80\n")
    result = ingest_csv(path, column="income")
    assert list(result.sample.values) == [80.0, 100.0, 250.5]
    assert result.skipped == 0


def test_ingest_by_index(tmp_path):
    path = write(tmp_path, "income\n10\n30\n20\n")
    result = ingest_csv(path, column=0)
    assert list(result.sample.values) == [10.0, 20.0, 30.0]


def test_ingest_headerless(tmp_path):
    path = write(tmp_path, "5\n15\n10\n")
    result = ingest_csv(path, column=0, has_header=False)
    assert result.sample.n == 3


def test_ingest_skips_blank_cells_with_count(tmp_path):
    path = write(tmp_path, "income\n10\n\n20\n   \n30\n")
    result = ingest_csv(path, column="income")
    assert result.sample.n == 3
    assert result.skipped == 2


def test_ingest_custom_delimiter(tmp_path):
    path = write(tmp_path, "a;income\n1;10\n2;20\n", name="semi.csv")
    result = ingest_csv(path, column="income", delimiter=";")
    assert list(result.sample.values) == [10.0, 20.0]


def test_ingest_negative_reports_line(tmp_path):
    path = write(tmp_path, "income\n10\n-3\n")
    with pytest.raises(NegativeIncome, match="line 3"):
        ingest_csv(path, column="income")


@pytest.mark.parametrize("cell", ["nan", "inf", "NaN"])
def test_ingest_non_finite_reports_line(tmp_path, cell):
    path = write(tmp_path, f"income\n10\n20\n{cell}\n30\n")
    with pytest.raises(NonFinite, match="line 4"):
        ingest_csv(path, column="income")


def test_ingest_non_numeric_reports_line(tmp_path):
    path = write(tmp_path, "income\n10\ntwenty\n")
    with pytest.raises(ParseError) as info:
        ingest_csv(path, column="income")
    assert info.value.line == 3


def test_ingest_missing_named_column(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(ParseError, match="not in header"):
        ingest_csv(path, column="income")


def test_ingest_short_row_rejected(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(ParseError) as info:
        ingest_csv(path, column=1)
    assert info.value.line == 3


def test_ingest_all_blank_column(tmp_path):
    path = write(tmp_path, "income\n\n\n")
    with pytest.raises(EmptyColumn):
        ingest_csv(path, column="income")


def test_ingest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_csv(tmp_path / "nope.csv", column=0)


def reference_ingest(path, column, delimiter, has_header):
    """What ``ingest_csv`` gave before the block reader: the csv.reader loop
    and a stable sort."""
    values, skipped = reporting._read_rows(path, column, delimiter, has_header)
    if not values:
        raise EmptyColumn(f"{path}: no usable values in column {column!r}")
    return np.sort(np.array(values), kind="stable"), skipped


def outcome(call):
    """``("ok", result)`` or ``("error", type, message, line)``."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return ("error", type(exc), str(exc), getattr(exc, "line", None))


def assert_same_ingest(path, column, delimiter, has_header):
    """``ingest_csv`` gives the reference's sample bits, skipped count or error."""
    got = outcome(lambda: ingest_csv(path, column, delimiter, has_header))
    want = outcome(lambda: reference_ingest(path, column, delimiter, has_header))
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert got[1].sample.values.tobytes() == want[1][0].tobytes()
        assert got[1].skipped == want[1][1]
    else:
        assert got == want


NUMBERS = st.one_of(
    st.floats(min_value=0.0, max_value=1e12).map(repr),
    st.floats(min_value=0.0, max_value=1e6).map("{:.2f}".format),
    st.integers(min_value=0, max_value=10**6).map(str),
)
# cells the fast path must read exactly as csv.reader does, or hand over
SPECIAL_CELLS = [
    "", " ", "  ", "\t", " 7 ", "nan", "NaN", "inf", "-inf", "1e400", "1e-400",
    "0", "-0", "-0.0", "-1", "-2.5", "1_0", "abc", '"5"', '"6,5"', "#5", "5#",
    "0x10", "+3", '"x,5,y"',
]


@st.composite
def csv_files(draw):
    """A CSV text and the ``ingest_csv`` arguments that read it.

    Each file mixes numbers with a few special cells and row shapes, so some
    files stay on the fast path and the rest test one hazard at a time.
    """
    delimiter = draw(st.sampled_from([",", ",", ",", ";", "\t", " "]))
    width = draw(st.integers(min_value=1, max_value=3))
    index = draw(st.integers(min_value=0, max_value=width - 1))
    has_header = draw(st.booleans())
    specials = draw(st.lists(st.sampled_from(SPECIAL_CELLS), max_size=3, unique=True))
    cell = st.one_of(NUMBERS, st.sampled_from(specials)) if specials else NUMBERS
    shapes = ["full"] + draw(st.lists(st.sampled_from(["short", "blank"]), max_size=2))
    lines = []
    if has_header:
        names = [f"c{k}" for k in range(width)]
        names[index] = "income"
        lines.append(delimiter.join(names))
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        shape = draw(st.sampled_from(shapes))
        if shape == "blank":
            lines.append("")
            continue
        cells = [draw(cell) for _ in range(width)]
        if shape == "short":
            cells = cells[: draw(st.integers(min_value=1, max_value=width))]
        lines.append(delimiter.join(cells))
    newline = draw(st.sampled_from(["\n"] * 5 + ["\r\n"]))
    text = newline.join(lines)
    if lines and draw(st.booleans()):  # else no final newline
        text += newline
    column = "income" if has_header and draw(st.booleans()) else index
    return text, column, delimiter, has_header


@settings(max_examples=400, deadline=None)
@given(csv_files(), st.sampled_from([1, 5, 64, 1 << 16]))
@example(("income\n1,\n2\n", 0, ",", True), 1 << 16)
@example(("a,income\n1,\n2,5\n-1,3\n", 0, ",", True), 1 << 16)
@example(("a,income\n1,\n2,\n", 1, ",", True), 1)
@example(('"x,5,y",7\n', 1, ",", False), 1 << 16)
@example(("\r\n0.0", 0, ",", False), 1)
def test_ingest_fast_path_matches_csv_reader(tmp_path_factory, case, block):
    """The block reader gives the csv.reader loop's values in file order, and
    ``ingest_csv`` its sample, skipped count and error, at any block size."""
    text, column, delimiter, has_header = case
    path = tmp_path_factory.mktemp("ingest") / "incomes.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(reporting, "_BLOCK", block):
        assert_same_ingest(path, column, delimiter, has_header)
        with open(path, newline="") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            index, _ = reporting._column_index(reader, path, column, has_header)
            fast = reporting._read_blocks(handle, delimiter, index)
    if fast is not None:
        # accepted blocks hold csv.reader's cells, value for value
        values, skipped = reporting._read_rows(path, column, delimiter, has_header)
        assert fast[0].tobytes() == np.array(values, dtype=float).tobytes()
        assert fast[1] == skipped


def test_ingest_fast_path_reads_clean_files(tmp_path):
    """Blank income cells in the last column stay on the fast path."""
    path = write(tmp_path, "id,income\n1,10\n2,\n3,-0\n4,0\n5,2.5\n6,\n")
    with mock.patch.object(reporting, "_read_rows", side_effect=AssertionError):
        result = ingest_csv(path, column="income")
    assert result.skipped == 2
    assert result.sample.values.tobytes() == np.array([-0.0, 0.0, 2.5, 10.0]).tobytes()


@pytest.mark.parametrize("delimiter", [",", "\n", "\r", '"', "-", "1", "."])
def test_ingest_odd_delimiters_match_csv_reader(tmp_path, delimiter):
    text = "".join(f"{k}{delimiter}{cell}\n" for k, cell in enumerate(["5", "", "7.5"]))
    path = write(tmp_path, "a" + delimiter + "income\n" + text)
    assert_same_ingest(path, 1, delimiter, True)


def test_ingest_bad_cell_before_undecodable_bytes_reports_line(tmp_path):
    """The block reader decodes far ahead; the row reader reports the bad
    cell that comes first."""
    path = tmp_path / "incomes.csv"
    path.write_bytes(b"income\n10\ntwenty\n" + b"5\n" * 10_000 + b"\xff\n")
    with pytest.raises(ParseError) as info:
        ingest_csv(path, column="income")
    assert info.value.line == 3


def test_ingest_keeps_the_csv_field_size_limit(tmp_path):
    path = write(tmp_path, "id,income\n1,12345\n2,123456789\n")
    limit = csv.field_size_limit(8)
    try:
        with pytest.raises(csv.Error, match="field larger than field limit"):
            ingest_csv(path, column="income")
    finally:
        csv.field_size_limit(limit)


def test_ingest_bad_cell_past_the_first_block_reports_line(tmp_path):
    rows = 20_000  # about 250 KB: four blocks
    bad = 15_001  # past the first block
    body = [f"{i},{i % 9973}.25\n" for i in range(rows)]
    body[bad - 2] = f"{bad - 2},-4.5\n"  # line 1 is the header
    path = write(tmp_path, "id,income\n" + "".join(body))
    assert path.stat().st_size > 2 * reporting._BLOCK
    with pytest.raises(NegativeIncome, match=f"line {bad}: negative income -4.5"):
        ingest_csv(path, column="income")


# ---------------------------------------------------------------------------
# describe


def test_describe_hand_fixture():
    st = describe(make_sample([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert st.n == 5
    assert st.mean == 2.0
    assert_allclose(st.sd, np.sqrt(2.5), rtol=1e-14)
    assert st.min == 0.0 and st.max == 4.0 and st.range == 4.0
    assert st.skewness == 0.0
    assert_allclose(st.kurtosis, 1.7, rtol=1e-14)  # m4/m2^2 = 6.8/4


def test_describe_exponential_shape():
    # exp(1): skewness 2, kurtosis 9 (non-excess); large sample within 10%
    s = draw_sample(Exponential(1.0), 100_000, SeededStream(31, 0))
    st = describe(s)
    assert_allclose(st.skewness, 2.0, rtol=0.10)
    assert_allclose(st.kurtosis, 9.0, rtol=0.10)


def test_describe_degenerate_markers():
    one = describe(make_sample([5.0]))
    assert one.sd is None and one.skewness is None and one.kurtosis is None
    assert one.mean == 5.0 and one.range == 0.0
    two = describe(make_sample([1.0, 3.0]))
    assert two.sd is not None
    assert two.skewness is None  # shape moments need n >= 3
    flat = describe(make_sample([2.0, 2.0, 2.0, 2.0]))
    assert flat.sd == 0.0
    assert flat.skewness is None and flat.kurtosis is None  # zero variance


@pytest.mark.parametrize("scale", [1e308, 1e-200])
def test_describe_near_float_extremes_matches_rescaled_sample(scale):
    """Moments are taken at a power-of-two scale: no overflow to inf/nan near
    the float maximum, no underflow to sd 0.0 / None near its minimum."""
    sample = make_sample([scale * u for u in (1.0, 1.7, 1.5, 1.2)])
    big, ref = describe(sample), describe(sample.values / scale)
    assert_allclose(big.mean / scale, ref.mean, rtol=1e-12)
    assert_allclose(big.sd / scale, ref.sd, rtol=1e-12)
    assert big.skewness is not None and big.kurtosis is not None
    assert_allclose(big.skewness, ref.skewness, atol=1e-12)
    assert_allclose(big.kurtosis, ref.kurtosis, rtol=1e-12)


# ---------------------------------------------------------------------------
# report


def test_report_v2_equals_gini():
    s = draw_sample(Exponential(1.0), 200, SeededStream(8, 0))
    row = report(s, [2, 3], label="test")
    assert row.label == "test"
    assert row.entries[0].v == 2 and row.entries[1].v == 3
    assert abs(row.entries[0].value - row.gini) <= 1e-12
    assert abs(row.gini - gini_ustat(s)) == 0.0


def test_report_interval_sanity():
    s = draw_sample(Exponential(1.0), 300, SeededStream(9, 0))
    for method in ("jackknife", "plugin"):
        row = report(s, [2, 3], se_method=method)
        for entry in row.entries:
            assert 0.0 <= entry.ci_low <= entry.value <= entry.ci_high <= 1.0
            assert entry.se_method == method


def test_report_respects_order_list():
    s = draw_sample(Exponential(1.0), 60, SeededStream(10, 0))
    row = report(s, [3, 2])
    assert [e.v for e in row.entries] == [3, 2]


def test_report_rejects_empty_order_list():
    with pytest.raises(ValueError):
        report(make_sample([1.0, 2.0, 3.0]), [])


def test_report_rejects_unknown_method():
    with pytest.raises(ValueError):
        report(make_sample([1.0, 2.0, 3.0, 4.0]), [2], se_method="bootstrap")


def test_report_three_group_fixture_ordering():
    """A stratified synthetic population: widening the comparison group from
    pairs to triples raises the measured inequality."""
    incomes = np.concatenate(
        [np.full(40, 12_000.0), np.full(40, 30_000.0), np.full(20, 95_000.0)]
    )
    row = report(make_sample(incomes), [2, 3])
    gim2, gim3 = row.entries[0].value, row.entries[1].value
    assert gim3 > gim2 > 0.0


# ---------------------------------------------------------------------------
# density


def test_silverman_hand_value():
    xs = [1.0, 2.0, 3.0, 4.0, 100.0]
    s = make_sample(xs)
    sd = np.std(xs, ddof=1)
    q75, q25 = np.percentile(xs, [75, 25])
    expect = 0.9 * min(sd, (q75 - q25) / 1.34) * 5 ** (-0.2)
    assert_allclose(silverman_bandwidth(s), expect, rtol=1e-12)


def test_silverman_rejects_constant_sample():
    with pytest.raises(InvalidBandwidth):
        silverman_bandwidth(make_sample([3.0, 3.0, 3.0]))


@pytest.mark.parametrize("scale", [1e308, 1e-200])
def test_silverman_near_float_extremes_matches_rescaled_sample(scale):
    """The sd behind the default bandwidth neither overflows nor underflows
    to a spurious "spread is zero"."""
    big = make_sample([scale * u for u in (1.0, 1.7, 1.5, 1.2)])
    ref = make_sample(big.values / scale)
    assert_allclose(silverman_bandwidth(big) / scale, silverman_bandwidth(ref), rtol=1e-12)


def test_emit_density_csv_shape(tmp_path):
    s = draw_sample(Exponential(1.0), 500, SeededStream(12, 0))
    out = tmp_path / "density.csv"
    result = emit_density(s, out, bins=25)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "bin_mid,count,density"
    assert len(lines) == 1 + 25
    assert result.rows == 25
    assert result.bandwidth > 0
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 500
    densities = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(d >= 0 for d in densities)


def test_emit_density_deterministic(tmp_path):
    s = draw_sample(Exponential(1.0), 400, SeededStream(13, 0))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_density(s, a)
    emit_density(s, b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_density_explicit_bandwidth(tmp_path):
    s = make_sample([1.0, 2.0, 3.0])
    out = tmp_path / "d.csv"
    result = emit_density(s, out, bins=5, bandwidth=0.75)
    assert result.bandwidth == 0.75
    # a kernel far narrower than the bin spacing: z * z overflows, exp(-inf) = 0
    emit_density(s, out, bins=4, bandwidth=1e-160)
    assert [line.split(",")[2] for line in out.read_text().splitlines()[1:]] == ["0"] * 4
    with pytest.raises(InvalidBandwidth):
        emit_density(s, out, bandwidth=0.0)


@pytest.mark.parametrize(
    "values,bandwidth",
    [
        ([1.0, 2.0, 3.0], 1e-309),  # the kernel normaliser overflows
        ([1e308, 1.5e308], 5e-324),  # the scaled bandwidth underflows to 0
    ],
)
def test_emit_density_rejects_a_vanishing_bandwidth(tmp_path, values, bandwidth):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidBandwidth, match=repr(bandwidth)):
            emit_density(make_sample(values), tmp_path / "d.csv", bandwidth=bandwidth)


@pytest.mark.parametrize(
    "values,bandwidth",
    [
        ([1e-300, 2e-300, 3e-300], 1e10),  # the scaled bandwidth overflows
        ([1.0, 2.0, 3.0], 1.5e308),  # the kernel normaliser overflows
    ],
)
def test_emit_density_huge_bandwidth_gives_the_kernel_peak(tmp_path, values, bandwidth):
    """A kernel far wider than the sample is flat across it: every density
    is its peak, 1 / (h sqrt(2 pi)), not a silent 0."""
    out = tmp_path / "d.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        emit_density(
            make_sample(values), out, bins=3, bandwidth=bandwidth, svg_path=tmp_path / "d.svg"
        )
    peak = 1.0 / math.sqrt(2.0 * math.pi) / bandwidth
    densities = [row.split(",")[2] for row in out.read_text().splitlines()[1:]]
    assert densities == [f"{peak:.10g}"] * 3  # the CSV holds 10 significant digits
    assert "nan" not in (tmp_path / "d.svg").read_text()


@pytest.mark.parametrize("bandwidth", [None, 1e307])
def test_emit_density_near_float_extremes_matches_rescaled_sample(tmp_path, bandwidth):
    """The grid and the kernel run at a power-of-two scale: no midpoint
    overflows near the float maximum."""
    scale = 1e308
    sample = make_sample([scale * u for u in (1.0, 1.7, 1.5, 1.2)])
    ref_bandwidth = None if bandwidth is None else bandwidth / scale
    big, ref = tmp_path / "big.csv", tmp_path / "ref.csv"
    emit_density(sample, big, bins=12, bandwidth=bandwidth)
    emit_density(sample.values / scale, ref, bins=12, bandwidth=ref_bandwidth)
    big_rows = np.loadtxt(big, delimiter=",", skiprows=1)
    ref_rows = np.loadtxt(ref, delimiter=",", skiprows=1)
    assert_allclose(big_rows[:, 0] / scale, ref_rows[:, 0], rtol=1e-12)
    assert_allclose(big_rows[:, 1], ref_rows[:, 1], rtol=0)
    assert_allclose(big_rows[:, 2] * scale, ref_rows[:, 2], rtol=1e-12)


def test_emit_density_near_float_min_keeps_midpoints_finite(tmp_path):
    """Subnormal incomes: finite midpoints, and a density that reads inf
    because it truly exceeds the float range, without a warning."""
    sample = make_sample([1e-310 * u for u in (1.0, 1.7, 1.5, 1.2)])
    out = tmp_path / "tiny.csv"
    emit_density(sample, out, bins=6, svg_path=tmp_path / "tiny.svg")
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows[:, 0])) and np.all(rows[:, 0] > 0)
    assert np.all(np.isinf(rows[:, 2]))
    assert "nan" not in (tmp_path / "tiny.svg").read_text()


def test_emit_density_svg(tmp_path):
    s = draw_sample(Exponential(1.0), 200, SeededStream(14, 0))
    out, svg = tmp_path / "d.csv", tmp_path / "d.svg"
    emit_density(s, out, bins=12, svg_path=svg)
    text = svg.read_text()
    assert text.startswith("<svg") or "<svg" in text
    assert "polyline" in text or "path" in text
