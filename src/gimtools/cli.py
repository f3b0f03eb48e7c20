"""Command-line front end.

Subcommands::

    gim describe  --input data.csv --column income
    gim report    --input data.csv --column income --v 2,3 --ci 0.95
    gim simulate  [--grid study.ini] [--reps N] [--seed N]
    gim selftest

All commands exit 0 on success and nonzero with a one-line diagnostic on
stderr otherwise.

Each subcommand loads only the modules it calls: the CSV front end
(``reporting``, with ``csv``) inside ``describe`` and ``report``, and the
Monte Carlo harness (``simulation``, with ``configparser``) inside
``simulate``, so ``gim report`` never loads the harness and ``gim simulate``
never loads the CSV reader.
"""

import argparse
import sys

import numpy as np

from . import __version__
from .distributions import (
    Exponential,
    Lognormal,
    Pareto,
    SeededStream,
    draw_sample,
    theoretical_gim,
)
from .errors import GimError, InvalidArgument, InvalidLevel, check_integer
from .inference import METHODS, _check_level, edf_numerator_variance, jackknife_variance
from .measures import (
    _check_order,
    gim_edf,
    gim_ustat,
    gim_ustat_naive,
    gmd,
    max_moment_u,
    min_moment_u,
)


def _add_input_options(parser):
    parser.add_argument("--input", required=True, help="CSV file to read")
    parser.add_argument(
        "--column",
        default="0",
        help="column name, or 0-based index (default: first column)",
    )
    parser.add_argument("--delimiter", default=",", help="CSV field separator")
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="treat the first row as data, not column names",
    )


def _add_output_options(parser, formats):
    parser.add_argument(
        "--format", choices=formats, default=formats[0], help="output format"
    )
    parser.add_argument("--out", help="write output here instead of stdout")


def _read_sample(args):
    from .reporting import ingest_csv

    result = ingest_csv(
        args.input,
        column=args.column,
        delimiter=args.delimiter,
        has_header=not args.no_header,
    )
    if result.skipped:
        print(
            f"warning: skipped {result.skipped} blank cell(s) in {args.input}",
            file=sys.stderr,
        )
    return result.sample


def _write_output(args, text):
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows):
    """``rows`` as CSV text with ``\n`` line ends; a cell that holds a comma,
    a quote or a newline is quoted, and a float is written ``repr``, its
    shortest round-trip form."""
    import csv
    import io

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _fmt(value, digits):
    return "undefined" if value is None else f"{value:.{digits}f}"


def _cmd_describe(args):
    from .reporting import describe

    stats = describe(_read_sample(args))
    fields = [
        ("n", str(stats.n)),
        ("mean", _fmt(stats.mean, 2)),
        ("sd", _fmt(stats.sd, 2)),
        ("min", _fmt(stats.min, 2)),
        ("max", _fmt(stats.max, 2)),
        ("range", _fmt(stats.range, 2)),
        ("skewness", _fmt(stats.skewness, 2)),
        ("kurtosis", _fmt(stats.kurtosis, 2)),
    ]
    if args.format == "csv":
        text = _csv_text(zip(*fields))
    else:
        width = max(len(name) for name, _ in fields)
        text = "".join(f"{name:<{width}}  {value}\n" for name, value in fields)
    _write_output(args, text)
    return 0


def _parse_orders(text):
    try:
        orders = [_check_order(int(tok)) for tok in text.replace(",", " ").split()]
    except ValueError:  # OrderExceedsSample is a ValueError too
        raise argparse.ArgumentTypeError(f"bad order list {text!r}") from None
    if not orders:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}")
    return orders


def _parse_level(text):
    # checked when the arguments are parsed, before the CSV is read
    try:
        level = float(text)
        _check_level(level)
    except (ValueError, InvalidLevel) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return level


def _cmd_report(args):
    from .reporting import report

    sample = _read_sample(args)
    label = args.label or args.input
    row = report(
        sample,
        v_list=args.v,
        ci_level=args.ci,
        se_method=args.se,
        label=label,
    )
    if args.format == "csv":
        # the level as given: a float cell reads back as the same float
        text = _csv_text([
            ["label", "gini", "v", "gim", "ci_low", "ci_high", "level", "se_method"],
            *([row.label, f"{row.gini:.6g}", entry.v, f"{entry.value:.6g}",
               f"{entry.ci_low:.6g}", f"{entry.ci_high:.6g}", args.ci, entry.se_method]
              for entry in row.entries),
        ])
    else:
        lines = [
            f"dataset: {row.label}",
            f"gini:    {row.gini:.3f}",
            "",
            "| v | GIM(v) | ci_low | ci_high | se method |",
            "|---|--------|--------|---------|-----------|",
        ]
        for entry in row.entries:
            lines.append(
                f"| {entry.v} | {entry.value:.3f} | {entry.ci_low:.3f} "
                f"| {entry.ci_high:.3f} | {entry.se_method} |"
            )
        text = "\n".join(lines) + "\n"
    _write_output(args, text)
    return 0


def _default_distributions():
    return [Exponential(1.0), Pareto(3.0, 1.0), Lognormal(0.0, 0.5)]


def _cmd_simulate(args):
    from .simulation import default_grid, emit_table, load_grid_config, run_grid

    if args.grid:
        cells = load_grid_config(args.grid)
        if args.reps is not None or args.seed is not None:
            print(
                "warning: --reps/--seed are ignored when --grid is given",
                file=sys.stderr,
            )
    else:
        given = {"replications": args.reps, "base_seed": args.seed}
        cells = default_grid(
            _default_distributions(), **{k: val for k, val in given.items() if val is not None}
        )
    if args.workers is not None:
        print("warning: --workers is ignored; simulate runs on one thread", file=sys.stderr)
    results = run_grid(cells)
    _write_output(args, emit_table(results, format=args.format))
    return 0


def _check(name, ok, failures):
    print(f"{'ok  ' if ok else 'FAIL'}  {name}")
    if not ok:
        failures.append(name)


def _cmd_selftest(args):
    """Fast internal consistency suite (the oracle-equivalence checks)."""
    rng = np.random.default_rng(check_integer(args.seed, "seed", InvalidArgument, 0, 1 << 64))
    failures = []

    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 13))
        v = int(rng.integers(1, n + 1))
        data = rng.exponential(size=n) + rng.random() * rng.integers(0, 3)
        fast = gim_ustat(data, v)
        slow = gim_ustat_naive(data, v)
        worst = max(
            worst,
            abs(fast.value - slow.value),
            abs(fast.numerator - slow.numerator),
            abs(fast.denominator - slow.denominator),
        )
    _check(f"subset-enumeration oracle (worst gap {worst:.2e})", worst <= 1e-10, failures)

    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 40))
        data = rng.pareto(3.0, size=n) + 1.0
        gap = abs(gim_ustat(data, 2).value - gmd(data) / (2.0 * np.mean(data)))
        worst = max(worst, gap)
    _check(f"gini identity at v=2 (worst gap {worst:.2e})", worst <= 1e-12, failures)

    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 40))
        data = rng.lognormal(0.0, 0.7, size=n)
        u_est = gim_ustat(data, 2).value
        e_est = gim_edf(data, 2).value
        worst = max(worst, abs(e_est - ((n - 1) * u_est + 1) / n))
    _check(f"edf/ustat link at v=2 (worst gap {worst:.2e})", worst <= 1e-12, failures)

    anchors = [
        ("exp GIM(2) = 1/2", theoretical_gim(Exponential(1.0), 2), 0.5),
        ("exp GIM(3) = 9/13", theoretical_gim(Exponential(1.0), 3), 9.0 / 13.0),
        ("pareto(3) GIM(2) = 1/5", theoretical_gim(Pareto(3.0, 1.0), 2), 0.2),
    ]
    for name, got, want in anchors:
        _check(f"{name} (got {got:.9f})", abs(got - want) <= 1e-9, failures)

    value = edf_numerator_variance(Exponential(1.0), 2)
    _check(
        f"plug-in numerator variance exp v=2 = 4/3 (got {value:.9f})",
        abs(value - 4.0 / 3.0) <= 1e-6,
        failures,
    )

    sample = draw_sample(Exponential(1.0), 400, SeededStream(args.seed, 7))
    spread = jackknife_variance(sample, 2)
    _check(
        f"jackknife runs and is positive (se {spread.std_error:.4f})",
        spread.std_error > 0,
        failures,
    )

    moments_ok = abs(max_moment_u([1, 2, 3], 2) - 8.0 / 3.0) <= 1e-12 and abs(
        min_moment_u([1, 2, 3], 2) - 4.0 / 3.0
    ) <= 1e-12
    _check("pair extreme moments of [1,2,3]", moments_ok, failures)

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gim",
        description="Gini-family inequality measures: estimates, intervals, simulation",
    )
    parser.add_argument("--version", action="version", version=f"gim {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("describe", help="descriptive statistics of a CSV column")
    _add_input_options(p)
    _add_output_options(p, formats=("text", "csv"))
    p.set_defaults(func=_cmd_describe)

    p = commands.add_parser("report", help="Gini and GIM(v) with confidence intervals")
    _add_input_options(p)
    p.add_argument("--v", type=_parse_orders, default=[2, 3],
                   help="comma-separated orders, e.g. 2,3")
    p.add_argument("--ci", type=_parse_level, default=0.95, help="confidence level")
    p.add_argument("--se", choices=METHODS, default="jackknife",
                   help="interval machinery")
    p.add_argument("--label", help="dataset label (default: input path)")
    _add_output_options(p, formats=("md", "csv"))
    p.set_defaults(func=_cmd_report)

    p = commands.add_parser("simulate", help="Monte Carlo bias/MSE study")
    p.add_argument("--grid", help="INI grid config (see load_grid_config)")
    p.add_argument("--reps", type=int, help="replications per cell (default 10000)")
    p.add_argument("--seed", type=int, help="base seed (default 1)")
    p.add_argument("--workers", type=int,
                   help="accepted for compatibility and ignored: simulate runs on one thread")
    _add_output_options(p, formats=("csv", "md"))
    p.set_defaults(func=_cmd_simulate)

    p = commands.add_parser("selftest", help="fast internal consistency checks")
    p.add_argument("--seed", type=int, default=20_260_816, help="check seed")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GimError, OSError) as exc:
        print(f"gim {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
