"""One theory-profile operation: population values and nothing else.

Usage: python theory_profile.py TASKS.json OUTPUT.json

TASKS is a JSON list of ``[kind, family, params, v]``; kind ``"gim"`` asks
for ``theoretical_gim`` and ``"edf_var"`` for ``edf_numerator_variance``.
OUTPUT is the same list with the computed value appended to each task.
"""

import json
import sys

from gimtools import Exponential, Lognormal, Pareto, edf_numerator_variance, theoretical_gim

FAMILIES = {"exponential": Exponential, "pareto": Pareto, "lognormal": Lognormal}


def main(argv):
    source, target = argv
    with open(source) as handle:
        tasks = json.load(handle)
    done = []
    for kind, family, params, v in tasks:
        dist = FAMILIES[family](**params)
        if kind == "gim":
            value = theoretical_gim(dist, v)
        else:
            value = edf_numerator_variance(dist, v)
        done.append([kind, family, params, v, value])
    with open(target, "w") as handle:
        json.dump(done, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
