import time

import pytest

from probe import REFERENCE_S, SpeedProbe, operation_cpu


def test_slowdown_is_the_median_loop_time_in_the_interval_over_the_reference():
    probe = SpeedProbe(operation_cpu())
    probe.samples[:] = [(0.0, REFERENCE_S), (1.0, 2 * REFERENCE_S), (2.0, 3 * REFERENCE_S),
                        (3.0, 2 * REFERENCE_S), (9.0, 5 * REFERENCE_S)]
    assert probe.slowdown(0.5, 3.5) == pytest.approx(2.0)
    # no sample inside: the nearest one stands in
    assert probe.slowdown(7.0, 8.0) == pytest.approx(5.0)


def test_probe_samples_in_the_background_and_stops():
    with SpeedProbe(operation_cpu()) as probe:
        time.sleep(0.3)
    assert len(probe.samples) >= 2
    assert not probe._thread.is_alive()
