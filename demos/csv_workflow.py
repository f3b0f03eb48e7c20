"""
From a CSV of incomes to a report
=================================

The same pipeline the `gim` command line runs, called as a library:
ingest a column of incomes, describe it, and estimate GIM(v) with
intervals.
"""

import tempfile
from pathlib import Path

import numpy as np

from gimtools import describe, ingest_csv, report

# Fake a survey file: 500 lognormal household incomes, a few blank cells
# the way real exports have them.
rng = np.random.default_rng(11)
rows = [f"{x:.2f}" for x in rng.lognormal(10.2, 0.6, size=500)]
rows[37] = rows[301] = ""  # nonresponse
with tempfile.TemporaryDirectory(prefix="gim_demo_") as workdir:
    csv_path = Path(workdir) / "survey.csv"
    csv_path.write_text("household_income\n" + "\n".join(rows) + "\n")
    sample, skipped = ingest_csv(csv_path, column="household_income")
print(f"read {sample.n} incomes from {csv_path.name}, skipped {skipped} blanks")

stats = describe(sample)
print(f"\nmean {stats.mean:,.0f}   sd {stats.sd:,.0f}   "
      f"skewness {stats.skewness:.2f}   kurtosis {stats.kurtosis:.2f}")

# GIM at a few orders, jackknife intervals.
row = report(sample, [2, 3, 4], label="survey")
print(f"\nGini coefficient: {row.gini:.3f}")
for entry in row.entries:
    print(f"GIM({entry.v}) = {entry.value:.3f}   "
          f"95% CI [{entry.ci_low:.3f}, {entry.ci_high:.3f}]")
