"""Import discipline: no gimtools path loads scipy, Lognormal included.

A bare ``import gimtools`` leaves ``numpy.random`` unloaded as well: sampling
loads it on first use.  No path loads ``numpy.polynomial`` or calls into
``numpy.linalg``: the Gauss-Legendre rule and its integration matrix are
float literals of ``gimtools._gauss_legendre``, itself loaded on the first
population value (a quadrature ``theoretical_gim``, a numerator variance,
the truth of a simulation cell).

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

import gimtools
from gimtools import Lognormal, SimCell, distributions, edf_numerator_variance, quadrature, run_cell, theoretical_gim

SCRIPT = textwrap.dedent(
    """
    import sys

    def clean(step):
        for name in ("scipy", "statistics", "fractions", "decimal", "numpy.polynomial"):
            assert name not in sys.modules, f"{name} loaded by {step}"

    import gimtools
    clean("import gimtools")
    for name in ("numpy.random", "gimtools._gauss_legendre"):  # loaded on first use
        assert name not in sys.modules, f"{name} loaded by import gimtools"

    from gimtools import (
        Exponential, Lognormal, Pareto, SeededStream, SimCell, draw_sample,
        edf_numerator_variance, run_cell, theoretical_gim,
    )
    from gimtools.cli import main

    theoretical_gim(Lognormal(0.0, 1.0), 3)
    edf_numerator_variance(Lognormal(0.0, 1.0), 2)
    run_cell(SimCell(Lognormal(0.0, 1.0), n=20, v=3, replications=10))
    clean("population values")

    csv = sys.argv[1]
    for argv in (
        ["report", "--input", csv, "--v", "2,3", "--ci", "0.9"],
        ["report", "--input", csv, "--se", "plugin", "--format", "csv"],
        ["describe", "--input", csv],
    ):
        assert main(argv) == 0, argv
        clean(" ".join(argv))

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


def test_no_library_path_loads_scipy(tmp_path):
    csv = tmp_path / "incomes.csv"
    csv.write_text("income\n" + "".join(f"{x}\n" for x in (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)))
    env = dict(os.environ, PYTHONPATH=str(Path(gimtools.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(csv)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")


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
