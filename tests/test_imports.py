"""Import discipline: no gimtools path loads scipy, Lognormal included.

A bare ``import gimtools`` loads the estimator core alone.  It leaves
``numpy.random`` unloaded: sampling loads it on first use.  It leaves the CSV
front end (``gimtools.reporting``, with ``csv``), the Monte Carlo harness
(``gimtools.simulation``, with ``configparser``) and ``gimtools.cli``
unloaded too; their names resolve on first access, and each ``gim``
subcommand loads only the one it calls.

No path loads ``numpy.polynomial`` or calls into ``numpy.linalg``: the
Gauss-Legendre rule and its integration matrix are float literals of
``gimtools._gauss_legendre``, itself loaded on the first population value
(a quadrature ``theoretical_gim``, a numerator variance, the truth of a
simulation cell).

Nor does any path load ``statistics``, ``fractions`` or ``decimal``: the
normal quantile behind intervals is the library's own, and those modules
would add several milliseconds to every cold ``import gimtools``.  The test
process already holds scipy and fractions, so the check runs in a fresh
interpreter that asserts none of them is in ``sys.modules`` after each step.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gimtools
from gimtools import Lognormal, SimCell, distributions, edf_numerator_variance, quadrature, run_cell, theoretical_gim

PRELUDE = """
import sys

def clean(step, *more):
    for name in ("scipy", "statistics", "fractions", "decimal", "numpy.polynomial", *more):
        assert name not in sys.modules, f"{name} loaded by {step}"
"""

SCRIPT = PRELUDE + textwrap.dedent(
    """
    import gimtools
    clean("import gimtools", "numpy.random", "gimtools._gauss_legendre", "gimtools.cli",
          "gimtools.reporting", "csv", "gimtools.simulation", "configparser")

    from gimtools.cli import main

    csv_path = sys.argv[1]
    for argv in (
        ["report", "--input", csv_path, "--v", "2,3", "--ci", "0.9"],
        ["report", "--input", csv_path, "--se", "plugin", "--format", "csv"],
        ["describe", "--input", csv_path],
    ):
        assert main(argv) == 0, argv
        clean(" ".join(argv), "gimtools.simulation", "configparser")

    from gimtools import (
        Exponential, Lognormal, Pareto, SeededStream, SimCell, draw_sample,
        edf_numerator_variance, run_cell, theoretical_gim,
    )

    theoretical_gim(Lognormal(0.0, 1.0), 3)
    edf_numerator_variance(Lognormal(0.0, 1.0), 2)
    run_cell(SimCell(Lognormal(0.0, 1.0), n=20, v=3, replications=10))
    clean("population values")

    for dist in (Exponential(1.0), Pareto(3.0, 1.0), Lognormal(0.0, 1.0)):
        theoretical_gim(dist, 2)  # closed form
        theoretical_gim(dist, 3)  # quadrature for the lognormal
        theoretical_gim(dist, 3, force_quadrature=True)
        edf_numerator_variance(dist, 2)
        draw_sample(dist, 50, SeededStream(1, 0))
        dist.quantile([0.01, 0.5, 0.99])
        dist.cdf([0.5, 1.0, 2.0])
        dist.density([0.5, 1.0, 2.0])
        clean(repr(dist))

    assert main(["simulate", "--reps", "20"]) == 0
    clean("simulate --reps 20")
    print("ok")
    """
)

SIMULATE_SCRIPT = PRELUDE + textwrap.dedent(
    """
    from gimtools.cli import main

    assert main(["simulate", "--reps", "20"]) == 0
    clean("simulate --reps 20", "gimtools.reporting", "csv")
    print("ok")
    """
)

VERSION_SCRIPT = PRELUDE + textwrap.dedent(
    """
    from gimtools.cli import main

    try:
        main(["--version"])
    except SystemExit as stop:
        assert stop.code == 0, stop.code
    clean("gim --version", "gimtools.reporting", "csv", "gimtools.simulation", "configparser")

    import gimtools
    assert gimtools.simulation.run_cell is gimtools.run_cell
    assert gimtools.reporting.report is gimtools.report
    print("ok")
    """
)


def _run_fresh(script, cwd, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout's gimtools."""
    env = dict(os.environ, PYTHONPATH=str(Path(gimtools.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")


def test_no_library_path_loads_scipy(tmp_path):
    """A bare import loads the estimator core; report and describe leave the harness unloaded."""
    csv = tmp_path / "incomes.csv"
    csv.write_text("income\n" + "".join(f"{x}\n" for x in (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)))
    _run_fresh(SCRIPT, tmp_path, str(csv))


def test_simulate_leaves_the_csv_front_end_unloaded(tmp_path):
    _run_fresh(SIMULATE_SCRIPT, tmp_path)


def test_version_loads_neither_front_end_nor_harness(tmp_path):
    """``gim --version`` loads neither; each module resolves on first access after it."""
    _run_fresh(VERSION_SCRIPT, tmp_path)


def test_public_surface_resolves_every_name_to_its_modules_object():
    for name in gimtools.__all__:
        value = getattr(gimtools, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
    star = {}
    exec("from gimtools import *", star)
    assert all(star[name] is getattr(gimtools, name) for name in gimtools.__all__)
    assert set(gimtools.__all__) <= set(dir(gimtools))


def test_first_use_names_follow_a_rebinding_in_their_module(monkeypatch):
    """Wrappers installed on ``gimtools.reporting`` (as a tracer does) are what ``gimtools`` hands out."""
    assert gimtools.report is gimtools.reporting.report
    wrapper = object()
    monkeypatch.setattr(gimtools.reporting, "report", wrapper)
    assert gimtools.report is wrapper


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gimtools.no_such_name
    assert not hasattr(gimtools, "no_such_name")


def test_population_values_need_no_lapack(monkeypatch):
    """With every cache cleared, nothing behind a population value calls LAPACK."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for cache in (quadrature.unit_rule, quadrature.integration_matrix, quadrature.mesh,
                  distributions._on_mesh):
        cache.cache_clear()
    assert 0.0 < theoretical_gim(Lognormal(0.0, 1.0), 3) < 1.0
    assert edf_numerator_variance(Lognormal(0.0, 1.0), 2) > 0.0
    result = run_cell(SimCell(Lognormal(0.0, 1.0), n=20, v=3, replications=10))
    assert result.truth == theoretical_gim(Lognormal(0.0, 1.0), 3)
