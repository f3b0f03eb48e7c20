"""gimtools: Gini-family inequality measures from income samples.

The package estimates the generalized inequality measure

    GIM(v) = E(max(X_1..X_v) - min(X_1..X_v)) / E(max(X_1..X_v) + min(X_1..X_v))

(the Gini index when v = 2) with two estimators — an unbiased U-statistic
and an empirical-distribution plug-in — plus variance/confidence-interval
machinery, theoretical values for exponential/Pareto/lognormal families,
a reproducible Monte Carlo bias/MSE harness, and a CSV-facing CLI (``gim``).

A bare ``import gimtools`` loads the estimator core only: ``errors``,
``samples``, ``measures``, ``quadrature``, ``distributions`` and
``inference``, with numpy.  The CSV front end (``reporting``, with ``csv``)
and the Monte Carlo harness (``simulation``, with ``configparser``) load on
first access to one of their names, or to the module itself; every name of
``__all__`` resolves either way.
"""

__version__ = "0.1.0"

import importlib

from .distributions import (
    Exponential,
    Lognormal,
    Pareto,
    SeededStream,
    draw_sample,
    theoretical_extremes,
    theoretical_gim,
)
from .errors import (
    EmptyColumn,
    EmptyGrid,
    EmptySample,
    EnumerationTooLarge,
    GimError,
    InvalidArgument,
    InvalidLevel,
    InvalidProbability,
    InvalidStdError,
    NegativeIncome,
    NonFinite,
    OrderExceedsSample,
    ParseError,
    QuadratureNoConvergence,
    SampleTooSmall,
    ZeroMean,
)
from .inference import (
    VarianceEstimate,
    confidence_interval,
    edf_numerator_variance,
    jackknife_variance,
    leave_one_out,
    projection_variance,
    ustat_variance,
)
from .measures import (
    GimEstimate,
    gim_edf,
    gim_ustat,
    gim_ustat_naive,
    gini_ustat,
    gmd,
    max_moment_u,
    min_moment_u,
    subset_weights,
)
from .samples import IncomeSample, make_sample

# name -> the module that defines it, imported on first access (PEP 562);
# looked up on each access, so a name rebound in its module reads the new object
_LAZY = {
    **dict.fromkeys(("DescriptiveStats", "ReportRow", "describe", "ingest_csv", "report"), "reporting"),
    **dict.fromkeys(
        ("SimCell", "SimResult", "default_grid", "emit_table", "load_grid_config", "run_cell", "run_grid"),
        "simulation",
    ),
}


def __getattr__(name):
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(__getattr__(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY.values()})

__all__ = [
    "__version__",
    # samples
    "IncomeSample",
    "make_sample",
    # measures
    "GimEstimate",
    "subset_weights",
    "max_moment_u",
    "min_moment_u",
    "gmd",
    "gini_ustat",
    "gim_ustat",
    "gim_ustat_naive",
    "gim_edf",
    # inference
    "VarianceEstimate",
    "projection_variance",
    "ustat_variance",
    "jackknife_variance",
    "leave_one_out",
    "confidence_interval",
    "edf_numerator_variance",
    # distributions
    "Exponential",
    "Pareto",
    "Lognormal",
    "SeededStream",
    "draw_sample",
    "theoretical_extremes",
    "theoretical_gim",
    # simulation
    "SimCell",
    "SimResult",
    "run_cell",
    "run_grid",
    "default_grid",
    "load_grid_config",
    "emit_table",
    # reporting
    "DescriptiveStats",
    "ReportRow",
    "describe",
    "report",
    "ingest_csv",
    # errors
    "GimError",
    "EmptySample",
    "NegativeIncome",
    "NonFinite",
    "OrderExceedsSample",
    "SampleTooSmall",
    "ZeroMean",
    "EnumerationTooLarge",
    "InvalidLevel",
    "InvalidStdError",
    "QuadratureNoConvergence",
    "InvalidProbability",
    "EmptyGrid",
    "ParseError",
    "EmptyColumn",
    "InvalidArgument",
]
