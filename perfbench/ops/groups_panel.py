"""One groups-panel operation: a GIM profile with intervals for every group.

Usage: python groups_panel.py INPUT.npz OUTPUT.json

INPUT holds ``values`` (raw, unsorted incomes of all groups back to back),
``offsets`` (group k is ``values[offsets[k]:offsets[k+1]]``) and ``orders``.
OUTPUT is a JSON list with one ``{"n", "gini", "entries"}`` object per group,
each entry ``[v, gim, ci_low, ci_high]`` at full precision.
"""

import json
import sys

import numpy as np

from gimtools import make_sample, report


def main(argv):
    source, target = argv
    with np.load(source) as data:
        values, offsets, orders = data["values"], data["offsets"], data["orders"]
    orders = orders.tolist()
    rows = []
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        sample = make_sample(values[lo:hi])
        row = report(sample, orders)
        rows.append({
            "n": sample.n,
            "gini": row.gini,
            "entries": [[e.v, e.value, e.ci_low, e.ci_high] for e in row.entries],
        })
    with open(target, "w") as handle:
        json.dump(rows, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
