"""End-to-end command-line tests through main()."""

import csv
import io
import math
import subprocess
import sys
from pathlib import Path

import pytest

from gimtools.cli import main

FIXTURE = "income\n0\n1\n2\n3\n4\n"

GRID_INI = """\
[run]
replications = 30
seed = 3

[exponential]
n = 10 15
v = 2
"""


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "incomes.csv"
    path.write_text(FIXTURE)
    return path


# ---------------------------------------------------------------------------
# describe


def test_describe_fixture(fixture_csv, capsys):
    assert main(["describe", "--input", str(fixture_csv), "--column", "income"]) == 0
    out = capsys.readouterr().out
    lines = {line.split()[0]: line.split()[1] for line in out.strip().split("\n")}
    assert lines["n"] == "5"
    assert lines["mean"] == "2.00"
    assert lines["sd"] == "1.58"
    assert lines["range"] == "4.00"
    assert lines["skewness"] == "0.00"


def test_describe_csv_format(fixture_csv, capsys):
    assert main(["describe", "--input", str(fixture_csv), "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].split(",")[:3] == ["n", "mean", "sd"]
    assert out[1].split(",")[:3] == ["5", "2.00", "1.58"]


@pytest.mark.parametrize(
    "incomes, row",
    [
        # two decimals would print 309-digit integers and a minimum of 0.00
        (["1e308", "1.7e308", "5e-324", "1e300"],
         ["4", "6.75e+307", "8.30161e+307", "4.94066e-324", "1.7e+308", "1.7e+308", "0.33", "1.43"]),
        # and 0.00 for every positive income; skewness keeps its two decimals
        (["1e-10", "3e-10", "2e-10"], ["3", "2e-10", "1e-10", "1e-10", "3e-10", "2e-10", "-0.00", "1.50"]),
    ],
    ids=["huge", "tiny"],
)
def test_describe_keeps_the_digits_of_huge_and_tiny_incomes(tmp_path, capsys, incomes, row):
    path = tmp_path / "incomes.csv"
    path.write_text("income\n" + "\n".join(incomes) + "\n")
    names = ["n", "mean", "sd", "min", "max", "range", "skewness", "kurtosis"]
    assert main(["describe", "--input", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out == ",".join(names) + "\n" + ",".join(row) + "\n"
    assert main(["describe", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "".join(f"{name:<8}  {cell}\n" for name, cell in zip(names, row))


def test_describe_undefined_markers(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("income\n42\n")
    assert main(["describe", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "undefined" in out


def test_describe_writes_out_file(fixture_csv, tmp_path, capsys):
    out_path = tmp_path / "stats.txt"
    assert main(["describe", "--input", str(fixture_csv), "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert "mean" in out_path.read_text()


def test_describe_warns_about_skipped_cells(tmp_path, capsys):
    path = tmp_path / "gaps.csv"
    path.write_text("income\n1\n\n2\n")
    assert main(["describe", "--input", str(path)]) == 0
    assert "skipped 1 blank" in capsys.readouterr().err


def _describe_mean(argv, capsys):
    assert main(["describe", *argv, "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    return dict(zip(header.split(","), row.split(",")))["mean"]


def test_column_header_name_wins_over_a_number(tmp_path, capsys):
    path = tmp_path / "numeric_header.csv"
    path.write_text("x,2\n10,1\n20,2\n30,3\n")
    # "2" names the second column here, not a third one by index
    assert _describe_mean(["--input", str(path), "--column", "2"], capsys) == "2.00"


def test_column_number_without_such_a_name_is_an_index(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("x,income\n10,1\n20,2\n30,3\n")
    assert _describe_mean(["--input", str(path), "--column", "1"], capsys) == "2.00"
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("10,1\n20,2\n30,3\n")
    assert _describe_mean(["--input", str(headerless), "--no-header", "--column", "0"], capsys) == "20.00"


# ---------------------------------------------------------------------------
# report


def test_report_markdown(fixture_csv, capsys):
    assert main(["report", "--input", str(fixture_csv), "--column", "income"]) == 0
    out = capsys.readouterr().out
    assert "gini:" in out
    assert "| 2 |" in out and "| 3 |" in out
    assert "jackknife" in out


def test_report_csv(fixture_csv, capsys):
    rc = main(
        ["report", "--input", str(fixture_csv), "--v", "2", "--se", "plugin",
         "--format", "csv", "--label", "toy"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "label,gini,v,gim,ci_low,ci_high,level,se_method"
    cells = lines[1].split(",")
    assert cells[0] == "toy" and cells[2] == "2" and cells[-1] == "plugin"
    assert float(cells[1]) == pytest.approx(0.5)  # pairwise Gini of 0..4
    assert float(cells[4]) <= float(cells[3]) <= float(cells[5])


def test_report_ci_next_to_one(fixture_csv, capsys):
    # 1 - 2**-53: the largest level below 1
    rc = main(["report", "--input", str(fixture_csv), "--v", "2", "--ci", "0.9999999999999999",
               "--format", "csv"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    cells = captured.out.strip().split("\n")[1].split(",")
    assert 0.0 <= float(cells[4]) <= float(cells[3]) <= float(cells[5]) <= 1.0


@pytest.mark.parametrize("level", ["0.9999999", "0.99999995", "0.9999999999999999", "0.95",
                                   "0.123456789"])
def test_report_csv_prints_the_level_as_given(fixture_csv, capsys, level):
    """The level cell reads back as the float given, never a rounded 1 the CLI rejects."""
    rc = main(["report", "--input", str(fixture_csv), "--v", "2,3", "--ci", level,
               "--format", "csv"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert [float(cells[6]) for cells in rows[1:]] == [float(level)] * 2
    if level == "0.95":
        assert rows[1][6] == "0.95"


def test_report_csv_quotes_label_with_comma(fixture_csv, capsys):
    rc = main(
        ["report", "--input", str(fixture_csv), "--v", "2,3", "--format", "csv",
         "--label", "north,south"]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3
    assert all(len(cells) == 8 for cells in rows)
    assert [cells[0] for cells in rows[1:]] == ["north,south", "north,south"]


def test_report_rejects_bad_order_list(fixture_csv, capsys):
    with pytest.raises(SystemExit):
        main(["report", "--input", str(fixture_csv), "--v", "two"])


def test_report_rejects_an_order_list_of_separators_alone(fixture_csv, capsys):
    with pytest.raises(SystemExit) as info:
        main(["report", "--input", str(fixture_csv), "--v", ","])
    assert info.value.code == 2
    assert "argument --v: bad order list ','" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["1", "0", "nan"])
def test_report_checks_the_level_before_reading_the_input(tmp_path, capsys, level):
    # the input does not exist: only an argument check can end the run
    with pytest.raises(SystemExit) as info:
        main(["report", "--input", str(tmp_path / "ghost.csv"), "--ci", level])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --ci: confidence level must be inside (0, 1)" in err
    assert "ghost.csv" not in err


def test_report_jackknife_names_the_leave_one_out_sample(tmp_path, capsys):
    """Deleting the only nonzero income leaves an all-zero sample; the sample
    itself is not all zero, and plug-in intervals still work on it."""
    path = tmp_path / "one_earner.csv"
    path.write_text("income\n0\n0\n0\n5\n")
    assert main(["report", "--input", str(path)]) == 1
    assert capsys.readouterr().err == (
        "gim report: error: GIM undefined for a leave-one-out sample: "
        "deleting the only nonzero income leaves an all-zero sample\n"
    )
    assert main(["report", "--input", str(path), "--se", "plugin", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"{path},1,2,1,")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_grid_deterministic(tmp_path, capsys):
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID_INI)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--grid", str(grid), "--out", str(out1)]) == 0
    assert main(["simulate", "--grid", str(grid), "--out", str(out2),
                 "--workers", "8"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().split("\n")[0]
    assert header == "family,params,v,n,estimator,bias,mse,mc_se,truth"


def test_simulate_workers_warns_and_is_ignored(tmp_path, capsys):
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID_INI)
    plain, flagged = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--grid", str(grid), "--out", str(plain)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["simulate", "--grid", str(grid), "--out", str(flagged),
                 "--workers", "3"]) == 0
    assert capsys.readouterr().err == (
        "warning: --workers is ignored; simulate runs on one thread\n"
    )
    assert flagged.read_bytes() == plain.read_bytes()


def test_simulate_grid_overrides_warn(tmp_path, capsys):
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID_INI)
    assert main(["simulate", "--grid", str(grid), "--reps", "5",
                 "--out", str(tmp_path / "x.csv")]) == 0
    assert "ignored" in capsys.readouterr().err


def test_simulate_default_grid_small(capsys):
    # exercise the built-in grid path with tiny replication counts
    assert main(["simulate", "--reps", "3", "--seed", "2", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| family ")
    assert "exponential" in out and "pareto" in out and "lognormal" in out
    assert len(out.strip().split("\n")) == 2 + 36


def test_simulate_prints_the_golden_table(capsys):
    # byte for byte: a change that moves a printed digit regenerates
    # tests/data/simulate_reps200_seed1.csv and says so
    golden = (Path(__file__).parent / "data" / "simulate_reps200_seed1.csv").read_text()
    assert main(["simulate", "--reps", "200", "--seed", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == golden


def test_simulate_defaults_come_from_the_simulation_module(monkeypatch):
    # a bare `gim simulate` passes no replication count or seed of its own;
    # run_grid is captured, so nothing runs
    from gimtools import simulation

    cells = []
    monkeypatch.setattr(simulation, "run_grid", lambda grid: cells.extend(grid) or [])
    monkeypatch.setattr(simulation, "emit_table", lambda results, format: "")
    assert main(["simulate"]) == 0
    assert simulation.DEFAULT_REPLICATIONS == 10_000 and simulation.DEFAULT_SEED == 1
    assert len(cells) == 36
    assert {cell.replications for cell in cells} == {10_000}
    assert [cell.base_seed for cell in cells] == list(range(1, 37))


def test_simulate_malformed_grid_fails_in_one_line(tmp_path, capsys):
    grid = tmp_path / "incomes.csv"
    grid.write_text("income\n3\n5\n")
    assert main(["simulate", "--grid", str(grid)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"gim simulate: error: line 1: 'income' comes before any [section] header in {str(grid)!r}\n"
    )


def test_simulate_draws_past_the_float_range_fail_cleanly(tmp_path, capsys):
    grid = tmp_path / "grid.ini"
    grid.write_text("[lognormal]\nmeanlog = 0\nsdlog = 300\nn = 20\n")
    assert main(["simulate", "--grid", str(grid)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "gim simulate: error: draws of Lognormal(meanlog=0;sdlog=300) leave the float range\n"
    )


def test_simulate_lognormal_past_the_mean_overflow_prints_finite_rows(tmp_path, capsys):
    # the mean exp(38**2 / 2) overflows, the unit-scale draws exp(38 z) do not
    grid = tmp_path / "grid.ini"
    grid.write_text("[run]\nreplications = 30\nseed = 3\n\n[lognormal]\nsdlog = 38\nn = 20\nv = 2\n")
    assert main(["simulate", "--grid", str(grid), "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2  # one per estimator
    for row in rows:
        assert float(row["truth"]) == 1.0
        assert all(math.isfinite(float(row[key])) for key in ("bias", "mse", "mc_se"))


def test_simulate_lognormal_past_the_quadrature_range_fails_cleanly(tmp_path, capsys):
    # the draws exp(50 z) stay finite; the v = 3 population value does not converge
    grid = tmp_path / "grid.ini"
    grid.write_text("[run]\nreplications = 30\nseed = 3\n\n[lognormal]\nsdlog = 50\nn = 20\nv = 3\n")
    assert main(["simulate", "--grid", str(grid)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gim simulate: error: no convergence to rtol=1e-08")
    assert captured.err.count("\n") == 1


def test_simulate_missing_grid_file(tmp_path, capsys):
    rc = main(["simulate", "--grid", str(tmp_path / "none.ini")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# selftest and plumbing


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_selftest_reports_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr("gimtools.cli.max_moment_u", lambda data, v: 0.0)
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    assert "FAIL  pair extreme moments of [1,2,3]\n" in captured.out
    assert "all checks passed" not in captured.out
    assert captured.err == "1 check(s) failed\n"


def test_missing_input_exits_one(tmp_path, capsys):
    rc = main(["describe", "--input", str(tmp_path / "ghost.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "gim describe: error:" in err


def test_negative_income_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("income\n5\n-1\n")
    rc = main(["describe", "--input", str(path)])
    assert rc == 1
    assert "negative" in capsys.readouterr().err


def test_describe_reads_a_byte_order_mark_and_latin1_names(tmp_path, capsys):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbfname,income\r\nJos\xe9,10\r\nAna,30\r\n")
    assert _describe_mean(["--input", str(path), "--column", "income"], capsys) == "20.00"


@pytest.mark.parametrize(
    "body",
    [b"Ana,6\xe9\n", b"Ana," + b"9" * 200_000 + b"\n"],
    ids=["undecodable", "over-long"],
)
def test_bad_income_cell_fails_in_one_line(tmp_path, capsys, body):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"name,income\nJose,5\n" + body)
    assert main(["describe", "--input", str(path), "--column", "income"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("gim describe: error: line 3: ")
    assert captured.err.count("\n") == 1


def test_bad_cell_after_a_multi_line_name_names_its_file_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text('name,income\n"Ana\nMaria",5\nBo,abc\n')
    assert main(["describe", "--input", str(path), "--column", "income"]) == 1
    assert capsys.readouterr().err == "gim describe: error: line 4: not a number: 'abc'\n"


def test_simulate_seed_without_room_for_every_cell_fails_in_one_line(capsys):
    assert main(["simulate", "--reps", "3", "--seed", str(2**64 - 1)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gim simulate: error: seed must be an integer in [0, 18446744073709551581), got 18446744073709551615; ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--reps", "0"],
        ["simulate", "--reps", "5", "--seed", "-1"],
        ["selftest", "--seed", "-1"],
        ["selftest", "--seed", str(1 << 64)],
        ["report", "--input", "{csv}", "--column", "-5"],
        ["describe", "--input", "{csv}", "--delimiter", ""],
        ["describe", "--input", "{csv}", "--delimiter", ";;"],
    ],
    ids=["reps", "seed", "selftest-seed", "selftest-seed-2**64", "column",
         "delimiter-empty", "delimiter-two-characters"],
)
def test_bad_integer_argument_fails_in_one_line(fixture_csv, capsys, argv):
    argv = [arg.format(csv=fixture_csv) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"gim {argv[0]}: error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gimtools", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gim" in proc.stdout
