"""Seeded inputs of the four benchmark workloads.

Every generator is a pure function of the seed: the same seed gives
byte-identical files and identical task lists.  Each workload draws from its
own stream, ``default_rng([seed, tag])``, so inputs of one workload do not
shift when another workload's generator changes.
"""

import numpy as np

# report-1m: the headline user path of the CLI.  One `gim report` on a
# 1e6-row survey extract sends the time to CSV ingest, a sort of 1e6 values,
# seven order-statistic weight builds at n ~ 1e6 and the O(n) jackknife;
# streams, quadrature and simulation stay idle.
CSV_ROWS = 1_000_000
BLANK_SHARE = 0.001
REPORT_ORDERS = (2, 3, 4)

# groups-panel: the same layers as report-1m, reached through many small
# calls instead of one large one, so per-call overhead shows, and so do
# caches that pay off only when (n, v) repeats: sizes are drawn from a wide
# range and are mostly distinct.  No CSV ingest.
GROUPS = 600
GROUP_SIZE_RANGE = (50, 2000)
GROUP_ORDERS = (2, 3, 4, 5, 6)

# simulate-grid: the default 36-cell Monte Carlo grid, single-threaded.  Time
# goes to per-replication stream setup, the quantile transform and the
# batched sort and weighted sums; quadrature is under 1%.
SIM_REPS = 5000
# the CLI's default grid, as (family, params label) x v x n
SIM_FAMILIES = (
    ("exponential", "rate=1"),
    ("pareto", "shape=3;scale=1"),
    ("lognormal", "meanlog=0;sdlog=0.5"),
)
SIM_ORDERS = (2, 3)
SIM_SIZES = (20, 40, 60, 80, 100, 200)

# theory-profile: population values only, the one workload where quadrature
# and the theory half of the distributions module do most of the work.
THEORY_GIM_ORDERS = tuple(range(2, 13))
THEORY_GIM_FAMILIES = (
    ("lognormal", {"meanlog": 0.0, "sdlog": 0.5}),
    ("lognormal", {"meanlog": 0.0, "sdlog": 1.0}),
    ("lognormal", {"meanlog": 0.0, "sdlog": 1.5}),
    ("pareto", {"shape": 3.0, "scale": 1.0}),
    ("pareto", {"shape": 1.8, "scale": 1.0}),
    ("exponential", {"rate": 1.0}),
)
THEORY_VAR_ORDERS = (2, 3, 4)
THEORY_VAR_FAMILIES = (
    ("exponential", {"rate": 1.0}),
    ("pareto", {"shape": 3.0, "scale": 1.0}),
    ("pareto", {"shape": 2.5, "scale": 1.0}),
    ("lognormal", {"meanlog": 0.0, "sdlog": 0.5}),
    ("lognormal", {"meanlog": 0.0, "sdlog": 1.0}),
)

_TAGS = {"report-1m": 1, "groups-panel": 2, "simulate-grid": 3, "theory-profile": 4}


def _rng(seed, workload):
    return np.random.default_rng([int(seed), _TAGS[workload]])


def income_csv(seed, rows=CSV_ROWS):
    """Text of a two-column (id, income) survey extract, and its incomes.

    Incomes are lognormal dollars rounded to cents; about ``BLANK_SHARE`` of
    the income cells are blank.  Returns ``(text, incomes, blanks)`` where
    ``incomes`` holds, in file order, exactly the floats a reader parses from
    the non-blank cells: ``cents / 100`` and the decimal string are both the
    correctly rounded value of the same rational.
    """
    rng = _rng(seed, "report-1m")
    cents = np.rint(rng.lognormal(mean=10.46, sigma=0.9, size=rows) * 100.0)
    blank = rng.random(rows) < BLANK_SHARE
    incomes = cents / 100.0
    body = [
        f"{i},\n" if skip else f"{i},{value:.2f}\n"
        for i, (value, skip) in enumerate(zip(incomes.tolist(), blank.tolist()))
    ]
    text = "id,income\n" + "".join(body)
    return text, incomes[~blank], int(blank.sum())


def group_arrays(seed):
    """Raw, unsorted income arrays of a panel of groups.

    Group sizes are uniform over ``GROUP_SIZE_RANGE``; each group has its own
    lognormal location and spread, in cents.
    """
    rng = _rng(seed, "groups-panel")
    low, high = GROUP_SIZE_RANGE
    sizes = rng.integers(low, high + 1, size=GROUPS)
    meanlogs = rng.uniform(9.5, 11.0, size=GROUPS)
    sdlogs = rng.uniform(0.3, 1.2, size=GROUPS)
    return [
        np.rint(rng.lognormal(mu, sd, size=n) * 100.0) / 100.0
        for n, mu, sd in zip(sizes.tolist(), meanlogs.tolist(), sdlogs.tolist())
    ]


def pack_groups(arrays):
    """One value vector plus offsets: ``values[offsets[k]:offsets[k+1]]``."""
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([a.size for a in arrays])
    return np.concatenate(arrays), offsets


def simulate_cells():
    """(family, params label, v, n) of every default-grid cell, in grid order."""
    return [(f, p, v, n) for f, p in SIM_FAMILIES for v in SIM_ORDERS for n in SIM_SIZES]


def theory_tasks(seed):
    """The population values to compute, in a seeded order.

    The set is fixed: a population value needs no random input.  The seed
    only permutes the order in which the operation visits the tasks.  Each
    task is ``(kind, family, params, v)`` with kind ``"gim"`` or
    ``"edf_var"``.
    """
    tasks = [
        ("gim", family, params, v)
        for family, params in THEORY_GIM_FAMILIES
        for v in THEORY_GIM_ORDERS
    ] + [
        ("edf_var", family, params, v)
        for family, params in THEORY_VAR_FAMILIES
        for v in THEORY_VAR_ORDERS
    ]
    order = _rng(seed, "theory-profile").permutation(len(tasks))
    return [tasks[k] for k in order.tolist()]
