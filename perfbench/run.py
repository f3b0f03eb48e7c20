"""End-to-end benchmark of gimtools.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: report-1m, groups-panel, simulate-grid, theory-profile.  The
library is imported from ``src/`` of the checkout; without it the run exits
with status 2 and prints no result.  See ``bench.py`` for what is measured.
"""

import signal
import sys
from pathlib import Path

from launcher import Launcher
from probe import operation_cpu

ROOT = Path(__file__).resolve().parent.parent


def main():
    if not (ROOT / "src" / "gimtools" / "__init__.py").is_file():
        print(f"error: no gimtools source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM unwind normally, so the launcher and the work files go too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    with Launcher(operation_cpu()) as launcher:
        # imported only now: the launcher has to be spawned while this
        # process is still small (see launcher.py)
        import bench

        return bench.main(sys.argv[1:], launcher)


if __name__ == "__main__":
    sys.exit(main())
