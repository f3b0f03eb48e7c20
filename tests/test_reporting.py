"""CSV ingestion, descriptive statistics, report rows."""

import csv
import io
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gimtools import (
    EmptyColumn,
    Exponential,
    GimError,
    InvalidArgument,
    InvalidLevel,
    NegativeIncome,
    NonFinite,
    ParseError,
    SeededStream,
    describe,
    draw_sample,
    gini_ustat,
    ingest_csv,
    make_sample,
    report,
)
from gimtools import measures, reporting


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


@pytest.mark.parametrize(
    "text,error,line,message",
    [
        ("income\n10\n-3\n", NegativeIncome, 3, "negative income -3.0"),
        ("income\n10\n20\nnan\n30\n", NonFinite, 4, "non-finite income nan"),
        ('name,income\n"Ana\nMaria",5\nBo,inf\n', NonFinite, 4, "non-finite income inf"),
    ],
    ids=["negative", "nan", "after-a-multi-line-name"],
)
def test_ingest_value_errors_carry_their_line(tmp_path, text, error, line, message):
    """Every CSV error has ``.line``, the line its message names."""
    path = write(tmp_path, text)
    with pytest.raises(error) as info:
        ingest_csv(path, column="income")
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_gim_error_without_a_line_keeps_its_message():
    assert GimError("no line").line is None
    assert str(NegativeIncome("negative income at position 0: -1.0")) == (
        "negative income at position 0: -1.0"
    )
    assert str(ParseError("bad", line=7)) == "line 7: bad"


def test_ingest_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(EmptyColumn, match=r"file is empty$") as info:
        ingest_csv(path)
    assert info.value.line is None


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


@pytest.mark.parametrize("column", [-1, -5, "-1"], ids=["int-1", "int-5", "str-1"])
def test_ingest_rejects_a_negative_column_index(tmp_path, column):
    # the index is 0-based, never counted from the end
    path = write(tmp_path, "id,income\n1,10\n2,20\n")
    for has_header in (True, False):
        with pytest.raises(ParseError, match=f"column index must be an integer >= 0, got {int(column)}"):
            ingest_csv(path, column=column, has_header=has_header)


@pytest.mark.parametrize("delimiter", ["", ";;"], ids=["empty", "two-characters"])
def test_ingest_rejects_a_delimiter_that_is_not_one_character(tmp_path, delimiter):
    # checked before the file opens, so a missing file does not mask it
    with pytest.raises(InvalidArgument, match=f"delimiter must be one character, got {delimiter!r}"):
        ingest_csv(tmp_path / "nope.csv", column=0, delimiter=delimiter)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_csv(tmp_path / "nope.csv", column=0)


def read_all_rows(path, column, delimiter, has_header):
    """``(values, skipped)`` of the csv.reader loop over the whole body,
    read by a fresh reader that counts lines after the header's."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        header = csv.reader(handle, delimiter=delimiter)
        index, line = reporting._column_index(header, path, column, has_header)
        return reporting._read_rows(csv.reader(handle, delimiter=delimiter), index, line)


def reference_ingest(path, column, delimiter, has_header):
    """What ``ingest_csv`` gave before the block reader: the csv.reader loop
    and a stable sort."""
    values, skipped = read_all_rows(path, column, delimiter, has_header)
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
    "0x10", "+3", '"x,5,y"', "Zoë",
]


@st.composite
def csv_files(draw):
    """A CSV text and the ``ingest_csv`` arguments that read it.

    Each file mixes numbers with a few special cells and row shapes, so some
    files stay on the fast path and the rest test one hazard at a time.
    """
    delimiter = draw(st.sampled_from([",", ",", ",", ";", "\t", " ", "§"]))
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
@example(("id,income\r\n1,5\r\n\r\n2,\r\n\r\n3,7.5\r\n", "income", ",", True), 5)
@example(("id,income\r\n1,5\r\n\n2,6\r3,7\n", 1, ",", True), 1 << 16)
@example(("id,income\r\n1,5\r\r\n2,6\r\n", 1, ",", True), 1 << 16)
@example(("a,income,b\n1,5,2\n3,,4\n5,6,7\n", "income", ",", True), 1 << 16)
@example(("name,income\nJos\udce9,5\n\udcff,6\n", "income", ",", True), 1 << 16)
@example(("name,income\nJose,5\nAna,6\udcff\n", "income", ",", True), 1 << 16)
def test_ingest_fast_path_matches_csv_reader(tmp_path_factory, case, block):
    """Each block the block reader accepts holds the csv.reader loop's values
    for its text, and ``ingest_csv`` gives that loop's sample, skipped count
    and error over the whole body, at any block size."""
    text, column, delimiter, has_header = case
    path = tmp_path_factory.mktemp("ingest") / "incomes.csv"
    path.write_bytes(text.encode(errors="surrogateescape"))
    with mock.patch.object(reporting, "_BLOCK", block):
        assert_same_ingest(path, column, delimiter, has_header)
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        try:
            index, _ = reporting._column_index(csv.reader(handle, delimiter=delimiter), path, column, has_header)
        except (ParseError, EmptyColumn):
            return
        while chunk := handle.read(block) + handle.readline():
            fast = reporting._parse_block(chunk, delimiter, index)
            if fast is None:
                continue
            # an accepted block holds csv.reader's cells, value for value
            rows = list(csv.reader(io.StringIO(chunk, newline=""), delimiter=delimiter))
            values, skipped = reporting._read_rows(iter(rows), index, 0)
            assert fast[0].tobytes() == np.array(values, dtype=float).tobytes()
            assert fast[1] == skipped
            assert fast[2] == len(rows)


def test_ingest_fast_path_reads_clean_files(tmp_path):
    """Blank income cells in the last column, blank lines and ``\\r\\n`` line
    ends stay on the block reader."""
    want = np.array([-0.0, 0.0, 2.5, 10.0]).tobytes()
    for newline in ("\n", "\r\n"):
        lines = ["id,income", "1,10", "2,", "", "3,-0", "4,0", "", "5,2.5", "6,", ""]
        path = tmp_path / "incomes.csv"
        path.write_bytes(newline.join(lines).encode())
        with mock.patch.object(reporting, "_read_rows", side_effect=AssertionError):
            result = ingest_csv(path, column="income")
        assert result.skipped == 4
        assert result.sample.values.tobytes() == want


def test_ingest_hands_over_at_the_rejected_block(tmp_path):
    """A quote in the third block sends that block and the rest, and nothing
    before them, to the row reader, which counts lines from there."""
    body = [f"{i},{i % 9973}.25\n" for i in range(30_000)]  # about 400 KB: seven blocks
    quoted = 11_000  # about 2.1 blocks in
    body[quoted] = f'"{quoted}",{quoted}.5\n'
    path = write(tmp_path, "id,income\n" + "".join(body))
    assert path.stat().st_size > 4 * reporting._BLOCK
    texts, starts = [], []
    parse_block, read_rows = reporting._parse_block, reporting._read_rows

    def spy_parse(text, delimiter, index):
        texts.append(text)
        return parse_block(text, delimiter, index)

    def spy_rows(rows, index, line):
        first = next(rows)
        starts.append((first, line))
        return read_rows(itertools.chain([first], rows), index, line)

    with mock.patch.object(reporting, "_parse_block", spy_parse), \
            mock.patch.object(reporting, "_read_rows", spy_rows):
        result = ingest_csv(path, column="income")
    assert len(texts) == 3 and '"' in texts[2]
    line = 1 + texts[0].count("\n") + texts[1].count("\n")
    first = next(csv.reader(io.StringIO(texts[2])))
    assert starts == [(first, line)]
    want = reference_ingest(path, "income", ",", True)
    assert result.sample.values.tobytes() == want[0].tobytes()
    assert result.skipped == want[1] == 0


def test_ingest_rejected_block_without_a_quote_stays_local(tmp_path):
    """A blank middle-column income cell sends only its own block to the row
    reader: every later block goes back to the block reader."""
    body = [f"{i},{i % 9973}.25,r{i % 7}\n" for i in range(30_000)]  # about 480 KB
    body[10] = "10,,r3\n"  # file line 12
    path = write(tmp_path, "id,income,region\n" + "".join(body))
    assert path.stat().st_size > 4 * reporting._BLOCK
    texts, local = [], []
    parse_block, read_rows = reporting._parse_block, reporting._read_rows

    def spy_parse(text, delimiter, index):
        texts.append(text)
        return parse_block(text, delimiter, index)

    def spy_rows(rows, index, line):
        local.append(line)
        return read_rows(rows, index, line)

    with mock.patch.object(reporting, "_parse_block", spy_parse), \
            mock.patch.object(reporting, "_read_rows", spy_rows):
        result = ingest_csv(path, column="income")
    assert len(texts) > 4 and "".join(texts) == "".join(body)
    assert "10,,r3\n" in texts[0] and local == [1]
    want = reference_ingest(path, "income", ",", True)
    assert result.sample.values.tobytes() == want[0].tobytes()
    assert result.skipped == want[1] == 1


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("bad", [3_000, 21_000], ids=["same-block", "later-block"])
def test_ingest_error_after_a_block_local_fallback_names_its_line(tmp_path, newline, bad):
    """Line numbers run on across a block the row reader read alone."""
    body = [f"{i},{i % 9973}.25,r{i % 7}" for i in range(30_000)]
    body[10] = "10,,r3"  # file line 12: its block goes to the row reader alone
    body[bad] = f"{bad},n/a,r0"  # file line bad + 2
    path = tmp_path / "incomes.csv"
    path.write_bytes(newline.join(["id,income,region"] + body + [""]).encode())
    with pytest.raises(ParseError, match="not a number: 'n/a'") as info:
        ingest_csv(path, column="income")
    assert info.value.line == bad + 2
    assert_same_ingest(path, "income", ",", True)


@pytest.mark.parametrize("delimiter", [",", "\n", "\r", '"', "-", "1", ".", "\udce9"])
def test_ingest_odd_delimiters_match_csv_reader(tmp_path, delimiter):
    # a lone surrogate (an undecodable byte) has no UTF-8 bytes of its own,
    # so the row reader reads it
    text = "".join(f"{k}{delimiter}{cell}\n" for k, cell in enumerate(["5", "", "7.5"]))
    path = tmp_path / "incomes.csv"
    path.write_bytes(("a" + delimiter + "income\n" + text).encode(errors="surrogateescape"))
    assert_same_ingest(path, 1, delimiter, True)


@pytest.mark.parametrize("repeat", [1, 5000], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("delimiter", [",", "§", "\uff1b"], ids=["comma", "section-sign", "fullwidth-semicolon"])
def test_ingest_non_ascii_stays_on_the_block_reader(tmp_path, delimiter, newline, repeat):
    """Non-ASCII names, blank last-column income cells and a delimiter of
    two or three UTF-8 bytes: the block reader gives csv.reader's values and
    skipped count, and the row reader is never called."""
    rows = [["José", "10"], ["Zoë", ""], [], ["Łukasz", "2.5"], ["李娜", ""], ["Zoë", "0"]]
    lines = [delimiter.join(row) for row in rows] * repeat
    path = tmp_path / "incomes.csv"
    path.write_bytes(newline.join(["name" + delimiter + "income", *lines, ""]).encode())
    if repeat > 1:
        assert path.stat().st_size > 2 * reporting._BLOCK
    want = reference_ingest(path, "income", delimiter, True)
    with mock.patch.object(reporting, "_read_rows", side_effect=AssertionError):
        result = ingest_csv(path, column="income", delimiter=delimiter)
    assert result.sample.values.tobytes() == want[0].tobytes()
    assert result.skipped == want[1] == 3 * repeat


def test_ingest_bad_cell_before_undecodable_bytes_reports_line(tmp_path):
    """The block reader decodes far ahead; the row reader reports the bad
    cell that comes first."""
    path = tmp_path / "incomes.csv"
    path.write_bytes(b"income\n10\ntwenty\n" + b"5\n" * 10_000 + b"\xff\n")
    with pytest.raises(ParseError) as info:
        ingest_csv(path, column="income")
    assert info.value.line == 3


def test_ingest_keeps_the_csv_field_size_limit(tmp_path):
    limit = csv.field_size_limit(8)
    try:
        for text, line in [("id,income\n1,12345\n2,123456789\n", 3), ("id,income_in_cents\n1,5\n", 1)]:
            with pytest.raises(ParseError, match="field larger than field limit") as info:
                ingest_csv(write(tmp_path, text), column="income")
            assert info.value.line == line
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("has_header", [True, False])
def test_ingest_reads_past_a_byte_order_mark(tmp_path, has_header):
    """Excel's "CSV UTF-8" export starts with a byte-order mark."""
    path = tmp_path / "incomes.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (b"income,id\n" if has_header else b"") + b"10,1\n20,2\n")
    column = "income" if has_header else 0
    result = ingest_csv(path, column=column, has_header=has_header)
    assert list(result.sample.values) == [10.0, 20.0]


def test_ingest_undecodable_bytes(tmp_path):
    """A Latin-1 byte passes in another column and is a ParseError with its
    line in the income column."""
    path = tmp_path / "incomes.csv"
    path.write_bytes(b"name,income\nJos\xe9,5\nAna,6\n")
    assert list(ingest_csv(path, column="income").sample.values) == [5.0, 6.0]
    path.write_bytes(b"name,income\nJose,5\nAna,6\xe9\n")
    with pytest.raises(ParseError, match="not a number") as info:
        ingest_csv(path, column="income")
    assert info.value.line == 3


def test_ingest_bad_cell_past_the_first_block_reports_line(tmp_path):
    rows = 20_000  # about 250 KB: four blocks
    bad = 15_001  # past the first block
    body = [f"{i},{i % 9973}.25\n" for i in range(rows)]
    body[bad - 2] = f"{bad - 2},-4.5\n"  # line 1 is the header
    path = write(tmp_path, "id,income\n" + "".join(body))
    assert path.stat().st_size > 2 * reporting._BLOCK
    with pytest.raises(NegativeIncome, match=f"line {bad}: negative income -4.5"):
        ingest_csv(path, column="income")


@pytest.mark.parametrize(
    "row, error, message",
    [
        ("Bo,abc", ParseError, "not a number: 'abc'"),
        ("Bo,-3", NegativeIncome, "negative income -3.0"),
        ("Bo", ParseError, "row has only 1 columns"),
    ],
    ids=["text", "negative", "short"],
)
def test_ingest_error_after_a_multi_line_cell_names_the_file_line(tmp_path, row, error, message):
    """Errors count file lines, not records: the quoted name takes lines 2-3."""
    path = write(tmp_path, f'name,income\n"Ana\nMaria",5\n{row}\n')
    with pytest.raises(error, match=message) as info:
        ingest_csv(path, column="income")
    assert "line 4" in str(info.value)


def test_ingest_error_after_a_multi_line_cell_past_the_hand_over(tmp_path):
    """A record spanning three lines in the third block: the row reader's
    line count starts at the lines the block reader already parsed."""
    body = [f"{i},{i % 9973}.25\n" for i in range(30_000)]  # seven blocks
    quoted = 11_000  # about 2.1 blocks in
    body[quoted] = f'"{quoted}\nsee\nnote",{quoted}.5\n'
    body[quoted + 50] = f"{quoted + 50},n/a\n"
    path = write(tmp_path, "id,income\n" + "".join(body))
    assert path.stat().st_size > 4 * reporting._BLOCK
    with pytest.raises(ParseError, match="not a number: 'n/a'") as info:
        ingest_csv(path, column="income")
    # the header, the rows before, two extra lines for the quoted record
    assert info.value.line == 1 + (quoted + 50 + 1) + 2


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


def test_report_holds_the_sample_and_one_weight_build():
    # past one block: the point estimates sum leaf by leaf in a block buffer
    # and the jackknife folds its deviations a block at a time, so beside
    # the sample only one weight build and a few block buffers are alive
    import tracemalloc

    n = 4 * measures._BLOCK
    s = make_sample(np.random.default_rng(12).lognormal(0.0, 1.0, n))
    tracemalloc.start()
    try:
        report(s, [2, 3, 4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n + 4 * measures._BLOCK) + 16384


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


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        (dict(v_list=[]), InvalidArgument, "v_list must name at least one order"),
        (dict(v_list=[2], se_method="bootstrap"), InvalidArgument, "se_method must be one of"),
        (dict(v_list=[2], ci_level=1.5), InvalidLevel, "confidence level must be inside"),
    ],
    ids=["no-orders", "unknown-method", "bad-level"],
)
def test_report_checks_its_arguments_before_any_estimate(kwargs, error, message):
    """An all-zero sample would fail at the gini: each bad argument is named first."""
    with pytest.raises(GimError, match=message) as info:
        report(make_sample([0.0, 0.0, 0.0]), **kwargs)
    assert isinstance(info.value, error)


def test_report_three_group_fixture_ordering():
    """A stratified synthetic population: widening the comparison group from
    pairs to triples raises the measured inequality."""
    incomes = np.concatenate(
        [np.full(40, 12_000.0), np.full(40, 30_000.0), np.full(20, 95_000.0)]
    )
    row = report(make_sample(incomes), [2, 3])
    gim2, gim3 = row.entries[0].value, row.entries[1].value
    assert gim3 > gim2 > 0.0
