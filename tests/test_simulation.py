"""Monte Carlo harness: stream contract, determinism, grids, tables."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gimtools import (
    EmptyGrid,
    Exponential,
    GimError,
    InvalidArgument,
    Lognormal,
    OrderExceedsSample,
    Pareto,
    ParseError,
    SampleTooSmall,
    SeededStream,
    SimCell,
    default_grid,
    draw_sample,
    emit_table,
    gim_edf,
    gim_ustat,
    load_grid_config,
    run_cell,
    run_grid,
    theoretical_gim,
)
from gimtools import simulation
from gimtools.distributions import _stream_rows
from gimtools.measures import _BLOCK


def hand_run(cell):
    """Reference loop: the documented stream-per-replication contract."""
    est_u = np.empty(cell.replications)
    est_e = np.empty(cell.replications)
    for r in range(cell.replications):
        s = draw_sample(cell.dist, cell.n, SeededStream(cell.base_seed, r))
        est_u[r] = gim_ustat(s, cell.v).value
        est_e[r] = gim_edf(s, cell.v).value
    return est_u, est_e


# ---------------------------------------------------------------------------
# cell execution


def test_run_cell_honors_stream_contract():
    """Replication r must use stream (base_seed, r); aggregates line up with
    a literal re-run of that contract."""
    cell = SimCell(Exponential(1.0), n=25, v=2, replications=40, base_seed=314)
    res = run_cell(cell)
    est_u, est_e = hand_run(cell)
    truth = theoretical_gim(cell.dist, cell.v)
    assert_allclose(res.bias_u, est_u.mean() - truth, atol=1e-12)
    assert_allclose(res.bias_edf, est_e.mean() - truth, atol=1e-12)
    assert_allclose(res.mse_u, np.mean((est_u - truth) ** 2), atol=1e-12)
    assert_allclose(res.mse_edf, np.mean((est_e - truth) ** 2), atol=1e-12)
    assert_allclose(res.mc_se_u, est_u.std(ddof=1) / np.sqrt(40), atol=1e-12)
    assert res.truth == truth
    assert res.cell is cell


def test_run_cell_single_replication():
    cell = SimCell(Pareto(3.0, 1.0), n=10, v=2, replications=1, base_seed=9)
    res = run_cell(cell)
    s = draw_sample(cell.dist, 10, SeededStream(9, 0))
    assert_allclose(res.bias_u, gim_ustat(s, 2).value - res.truth, atol=1e-13)
    assert res.mc_se_u == 0.0  # a lone replication has no spread estimate


def test_run_cell_crosses_chunk_boundary():
    """Work is batched in chunks of _BLOCK // n rows (at least one);
    replication indexing and every summary bit must survive the chunk edge."""
    edges = [
        # one row past the first chunk
        (SimCell(Exponential(2.0), n=8, v=2, replications=_BLOCK // 8 + 1, base_seed=77),
         [_BLOCK // 8, 1]),
        # n does not divide _BLOCK: 5 rows per chunk
        (SimCell(Pareto(3.0, 1.0), n=3000, v=2, replications=11, base_seed=21), [5, 5, 1]),
        # past one block, a chunk is a single row
        (SimCell(Exponential(1.0), n=_BLOCK + 1, v=3, replications=3, base_seed=4), [1, 1, 1]),
        (SimCell(Lognormal(0.0, 1.0), n=200, v=3, replications=_BLOCK // 200 + 1, base_seed=8),
         [_BLOCK // 200, 1]),
    ]
    for cell, rows in edges:
        streams, chunks = [], []

        def spy(stream):
            streams.append(stream)
            fill = _stream_rows(stream)

            def counted(out, first):
                chunks.append(len(out))
                return fill(out, first)

            return counted

        with mock.patch.object(simulation, "_stream_rows", spy):
            res = run_cell(cell)
        assert streams == [SeededStream(cell.base_seed)]  # one generator per cell
        assert chunks == rows
        truth = theoretical_gim(cell.dist, cell.v)
        for tag, est in zip(("u", "edf"), hand_run(cell)):
            assert getattr(res, f"bias_{tag}") == float(np.mean(est)) - truth
            assert getattr(res, f"mse_{tag}") == float(np.mean((est - truth) ** 2))
            mc_se = float(np.std(est, ddof=1)) / math.sqrt(cell.replications)
            assert getattr(res, f"mc_se_{tag}") == mc_se


@pytest.mark.parametrize("dist", [Lognormal(0.0, 1.0), Pareto(3.0, 1.0)], ids=lambda d: d.name)
def test_run_cell_working_set_is_bounded_by_the_cache_block(dist):
    """A chunk holds at most _BLOCK draws, so a cell of 600 samples of 4000
    peaks at a few MB of traced memory, not at hundreds of per-draw rows
    (chunks of 512 rows peaked at 140 MB on the lognormal, 49 MB on the
    Pareto)."""
    import tracemalloc

    cell = SimCell(dist, n=4000, v=2, replications=600, base_seed=3)
    theoretical_gim(cell.dist, cell.v)  # the truth first, outside the trace
    tracemalloc.start()
    try:
        run_cell(cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("reps", [1, 50])
def test_sim_result_numbers_are_python_floats(reps):
    """Every summary number is a plain float (no np.float64 in the repr), and
    the table prints the same bytes as from numpy scalars of the same value."""
    cell = SimCell(Lognormal(0.0, 1.0), n=20, v=3, replications=reps, base_seed=6)
    res = run_cell(cell)
    numbers = [f.name for f in dataclasses.fields(res) if f.name != "cell"]
    assert numbers and all(type(getattr(res, name)) is float for name in numbers)
    assert "np." not in repr(res)
    as_numpy = dataclasses.replace(res, **{name: np.float64(getattr(res, name)) for name in numbers})
    for format in ("csv", "md"):
        assert emit_table([res], format) == emit_table([as_numpy], format)


def test_run_cell_deterministic_across_runs_and_workers():
    cell = SimCell(Lognormal(0.0, 0.5), n=30, v=3, replications=600, base_seed=5)
    a = run_cell(cell)
    b = run_cell(cell)
    c = run_cell(cell)
    for field in ("bias_u", "mse_u", "mc_se_u", "bias_edf", "mse_edf", "mc_se_edf", "truth"):
        assert getattr(a, field) == getattr(b, field) == getattr(c, field)


@pytest.mark.parametrize(
    "cell",
    [
        SimCell(Exponential(1.0), n=25, v=2, replications=40, base_seed=314),
        SimCell(Pareto(3.0, 1.0), n=10, v=2, replications=1, base_seed=9),
        SimCell(Exponential(2.0), n=8, v=2, replications=513, base_seed=77),
        SimCell(Lognormal(0.0, 0.5), n=30, v=3, replications=600, base_seed=5),
        SimCell(Pareto(3.0, 1.0), n=60, v=3, replications=600, base_seed=11),
    ],
    ids=lambda cell: f"{cell.dist.name}-n{cell.n}-v{cell.v}",
)
def test_run_cell_equals_library_estimators_exactly(cell):
    """The batched harness and gim_ustat/gim_edf share one core, bit for bit."""
    res = run_cell(cell)
    est_u, est_e = hand_run(cell)
    truth = theoretical_gim(cell.dist, cell.v)
    assert res.bias_u == float(np.mean(est_u)) - truth
    assert res.mse_u == float(np.mean((est_u - truth) ** 2))
    assert res.bias_edf == float(np.mean(est_e)) - truth
    assert res.mse_edf == float(np.mean((est_e - truth) ** 2))


def test_sim_cell_validation():
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="replications must be a positive integer"):
            SimCell(Exponential(1.0), n=10, v=2, replications=bad)
    with pytest.raises(OrderExceedsSample):
        SimCell(Exponential(1.0), n=2, v=3)
    for bad in (0, -1, 2.0, True):
        with pytest.raises(OrderExceedsSample):
            SimCell(Exponential(1.0), n=10, v=bad)
    with pytest.raises(OrderExceedsSample):  # the grid builder does not truncate
        default_grid([Exponential(1.0)], orders=(2.5,))
    for bad in (0, -3, 20.5, 20.0, True):
        with pytest.raises(SampleTooSmall, match="sample size n must be a positive integer"):
            SimCell(Exponential(1.0), n=bad, v=1)
    for sizes in ((20.5,), (True,)):
        with pytest.raises(SampleTooSmall, match=repr(sizes[0])):
            default_grid([Exponential(1.0)], sizes=sizes)
    # a stream key is a 64-bit integer: no truncation, no wrap-around
    for bad in (2.5, True, "3", -1, 2**64):
        with pytest.raises(InvalidArgument, match="base_seed must be an integer") as info:
            SimCell(Exponential(1.0), n=10, v=2, base_seed=bad)
        assert str(info.value).endswith(f"got {bad!r}")
    for good in (0, np.uint64(2**64 - 1)):
        assert SimCell(Exponential(1.0), n=10, v=2, base_seed=good).base_seed == good


# ---------------------------------------------------------------------------
# grids


def test_run_grid_empty_rejected():
    with pytest.raises(EmptyGrid):
        run_grid([])


def test_run_grid_preserves_order():
    cells = [
        SimCell(Exponential(1.0), n=10, v=2, replications=5, base_seed=1),
        SimCell(Exponential(1.0), n=12, v=2, replications=5, base_seed=2),
    ]
    results = run_grid(cells)
    assert [r.cell.n for r in results] == [10, 12]


def test_default_grid_shape_and_seeds():
    dists = [Exponential(1.0), Pareto(3.0, 1.0), Lognormal(0.0, 0.5)]
    cells = default_grid(dists, replications=100, base_seed=50)
    assert len(cells) == 3 * 2 * 6
    assert [c.base_seed for c in cells] == list(range(50, 50 + len(cells)))
    assert {c.n for c in cells} == {20, 40, 60, 80, 100, 200}
    assert {c.v for c in cells} == {2, 3}
    # no two cells share a replication stream axis
    assert len({c.base_seed for c in cells}) == len(cells)


GRID_SEED_REFUSED = (
    r"^seed must be an integer in \[0, 18446744073709551581\), got {seed}; "
    r"the 36 cells take consecutive seeds from seed up to seed \+ 35$"
)


def test_default_grid_seed_leaves_room_for_every_cell():
    """The last of 36 cells takes seed + 35, which must stay below 2**64;
    the error names the grid seed the caller gave, not a cell's."""
    dists = [Exponential(1.0), Pareto(3.0, 1.0), Lognormal(0.0, 0.5)]
    cells = default_grid(dists, replications=10, base_seed=2**64 - 36)
    assert cells[-1].base_seed == 2**64 - 1
    for seed in (2**64 - 35, 2**64 - 1):
        with pytest.raises(InvalidArgument, match=GRID_SEED_REFUSED.format(seed=seed)):
            default_grid(dists, replications=10, base_seed=seed)


def test_load_grid_config_seed_leaves_room_for_every_cell(tmp_path):
    """The ``[run] seed`` is checked against the cells of all sections."""
    path = tmp_path / "grid.ini"
    sections = "[exponential]\n\n[pareto]\n\n[lognormal]\n"  # 12 default cells each
    path.write_text(f"[run]\nseed = {2**64 - 36}\n\n{sections}")
    assert load_grid_config(path)[-1].base_seed == 2**64 - 1
    path.write_text(f"[run]\nseed = {2**64 - 35}\n\n{sections}")
    with pytest.raises(InvalidArgument, match=GRID_SEED_REFUSED.format(seed=2**64 - 35)):
        load_grid_config(path)


# ---------------------------------------------------------------------------
# config files


GRID_INI = """\
[run]
replications = 50
seed = 7

[exponential]
rate = 2.0
n = 10, 20
v = 2

[pareto heavy]
shape = 1.8
n = 15
v = 2 3
"""


def test_load_grid_config_roundtrip(tmp_path):
    path = tmp_path / "grid.ini"
    path.write_text(GRID_INI)
    cells = load_grid_config(path)
    assert len(cells) == 2 + 2  # exponential: 2 sizes x 1 order; pareto: 1 x 2
    assert all(c.replications == 50 for c in cells)
    assert [c.base_seed for c in cells] == [7, 8, 9, 10]
    assert isinstance(cells[0].dist, Exponential) and cells[0].dist.rate == 2.0
    assert [(c.n, c.v) for c in cells[:2]] == [(10, 2), (20, 2)]
    heavy = cells[2].dist
    assert isinstance(heavy, Pareto) and heavy.shape == 1.8
    assert [(c.n, c.v) for c in cells[2:]] == [(15, 2), (15, 3)]
    assert cells == default_grid([cells[0].dist], 50, 7, (10, 20), (2,)) + default_grid(
        [heavy], 50, 9, (15,), (2, 3)
    )


def test_load_grid_config_defaults(tmp_path):
    path = tmp_path / "grid.ini"
    path.write_text("[lognormal]\n")
    cells = load_grid_config(path)
    assert len(cells) == 12  # default sizes x default orders
    assert cells[0].replications == 10_000
    assert isinstance(cells[0].dist, Lognormal)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[weibull]\nn = 10\n", "unknown family"),
        ("[exponential]\nrate = fast\n", "bad section"),
        ("[exponential]\nn = ten\n", "bad section"),
        ("[run]\nreplications = 10\n", "no family sections"),
        ("[exponential]\nrate = -1\n", "bad section"),
        ("[exponential]\nrate = inf\n", "rate must be finite, got inf"),
        ("[pareto]\nshape = inf\n", "shape must be finite, got inf"),
        ("[pareto]\nshape = 2\n[pareto]\n", "line 3: section [pareto] appears twice"),
        ("[pareto]\nshape = 2\nshape = 3\n", "line 3: option 'shape' appears twice in section [pareto]"),
        ("income\n3\n", "line 1: 'income' comes before any [section] header"),
        ("[exponential]\nrate = 5%\n", "bad section [exponential]"),
        ("[run]\nseed = 5%\n[pareto]\n", "bad section [run]"),
        ("[pareto]\nshape\n", "line 2: neither a [section] header nor a 'name = value' option"),
        (b"[pareto]\nshape = 2\xff\n", "can't decode byte 0xff"),
        ("[run]\nreplications = many\n[exponential]\n", "bad [run] value in"),
    ],
)
def test_load_grid_config_rejects(tmp_path, text, fragment):
    path = tmp_path / "grid.ini"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(fragment)):
        load_grid_config(path)


def test_load_grid_config_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_grid_config(tmp_path / "absent.ini")


# ---------------------------------------------------------------------------
# tables


def small_results():
    cells = [
        SimCell(Exponential(1.0), n=10, v=2, replications=20, base_seed=1),
        SimCell(Pareto(3.0, 1.0), n=10, v=3, replications=20, base_seed=2),
    ]
    return run_grid(cells)


def test_emit_table_csv_layout():
    text = emit_table(small_results(), format="csv")
    lines = text.strip().split("\n")
    assert lines[0] == "family,params,v,n,estimator,bias,mse,mc_se,truth"
    assert len(lines) == 1 + 2 * 2  # two rows per cell
    first = lines[1].split(",")
    assert first[0] == "exponential" and first[4] == "ustat"
    assert len(first) == 9
    float(first[5]), float(first[6]), float(first[7]), float(first[8])
    assert lines[2].split(",")[4] == "edf"
    assert text.endswith("\n")


def test_emit_table_csv_preserves_precision():
    results = small_results()
    text = emit_table(results, format="csv")
    row = text.strip().split("\n")[1].split(",")
    # %.6g keeps small mc_se values meaningful instead of printing 0.000
    assert_allclose(float(row[7]), results[0].mc_se_u, rtol=1e-4)
    assert float(row[7]) > 0.0


def test_emit_table_markdown_layout():
    text = emit_table(small_results(), format="md")
    lines = text.strip().split("\n")
    assert lines[0].startswith("| family ")
    assert set(lines[1].replace("|", "")) == {"-"}
    assert len(lines) == 2 + 2  # one row per cell
    assert lines[2].count("|") == lines[0].count("|")


def test_emit_table_bad_format_is_a_gim_error():
    with pytest.raises(GimError, match="format must be 'csv' or 'md', got 'tsv'"):
        emit_table(small_results(), format="tsv")


def test_emit_table_rejects_bad_format_and_empty():
    with pytest.raises(ValueError):
        emit_table(small_results(), format="tsv")
    with pytest.raises(EmptyGrid):
        emit_table([], format="csv")


@pytest.mark.parametrize(
    "family, name, extreme, unit",
    [("exponential", "rate", "1e-320", "1"), ("pareto", "scale", "1e308", "1"),
     ("lognormal", "meanlog", "800", "0")],
)
def test_scale_never_reaches_the_draws(tmp_path, family, name, extreme, unit):
    """A member at the edge of the float range gives the unit-scale rows, params aside."""
    tables = []
    for value in (extreme, unit):
        grid = tmp_path / f"{value}.ini"
        grid.write_text(f"[run]\nreplications = 300\nseed = 3\n\n[{family}]\n{name} = {value}\nn = 20 60\nv = 2 3\n")
        tables.append([row.split(",") for row in emit_table(run_grid(load_grid_config(grid))).splitlines()])
    assert len(tables[0]) == len(tables[1]) == 9
    for row, unit_row in zip(*tables):
        assert row[:1] + row[2:] == unit_row[:1] + unit_row[2:]
