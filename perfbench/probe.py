"""Host-speed probe: how fast the operations' CPU runs at each moment.

On a shared machine the same operation can take 1.5x longer when a
neighbour loads the core, and those phases last from seconds to minutes, so
run-to-run medians of raw wall time drift by that much.  A thread pinned to
the CPU the operations run on times a fixed pure-Python loop every
``PERIOD_S`` seconds (under 2% of that CPU).  The median loop time over an
operation's interval, divided by ``REFERENCE_S``, is the host's slowdown
during that operation; ``bench`` divides an operation's wall and CPU time by
it to get ``wall_ref_s`` and ``cpu_ref_s``, and a cold import's wall time to
get ``setup_s``: times at the reference speed.  The raw times are printed
beside them.
"""

import os
import statistics
import threading
import time

ITERATIONS = 20000
PERIOD_S = 0.05
# Median loop time on an unloaded core: "Intel(R) Xeon(R) Processor" (2
# vCPUs), CPython 3.11.  Any fixed value works; it only sets the scale.
REFERENCE_S = 0.00085


def operation_cpu():
    """The CPU operations are pinned to: the highest one this process may use."""
    return max(os.sched_getaffinity(0))


class SpeedProbe:
    """Background loop timer on one CPU; use as a context manager."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.samples = []  # (start, duration) of each timed loop
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self):
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.wait(PERIOD_S):
            begin = time.perf_counter()
            total = 0
            for k in range(ITERATIONS):
                total += k
            self.samples.append((begin, time.perf_counter() - begin))

    def slowdown(self, start, end):
        """Median loop time in ``[start, end]`` (``perf_counter``) over the reference.

        Without a sample in the interval, the sample nearest to it is used.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            if not self.samples:
                raise RuntimeError("speed probe has no samples")
            inside = [min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
        return statistics.median(inside) / REFERENCE_S

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
