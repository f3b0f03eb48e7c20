"""End-to-end command-line tests through main()."""

import csv
import io
import subprocess
import sys

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


# ---------------------------------------------------------------------------
# density


def test_density_writes_csv_and_svg(fixture_csv, tmp_path, capsys):
    out = tmp_path / "d.csv"
    svg = tmp_path / "d.svg"
    rc = main(
        ["density", "--input", str(fixture_csv), "--bins", "4",
         "--out", str(out), "--svg", str(svg)]
    )
    assert rc == 0
    assert out.read_text().startswith("bin_mid,count,density")
    assert len(out.read_text().strip().split("\n")) == 5
    assert "<svg" in svg.read_text()
    assert "wrote 4 rows" in capsys.readouterr().err


def test_density_bad_bandwidth_fails_cleanly(fixture_csv, tmp_path, capsys):
    rc = main(
        ["density", "--input", str(fixture_csv), "--bandwidth", "-1",
         "--out", str(tmp_path / "d.csv")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--reps", "0"],
        ["simulate", "--reps", "5", "--seed", "-1"],
        ["selftest", "--seed", "-1"],
        ["selftest", "--seed", str(1 << 64)],
        ["density", "--input", "{csv}", "--bins", "0", "--out", "{out}"],
        ["report", "--input", "{csv}", "--column", "-5"],
    ],
    ids=["reps", "seed", "selftest-seed", "selftest-seed-2**64", "bins", "column"],
)
def test_bad_integer_argument_fails_in_one_line(fixture_csv, tmp_path, capsys, argv):
    argv = [arg.format(csv=fixture_csv, out=tmp_path / "d.csv") for arg in argv]
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
