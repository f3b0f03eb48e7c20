import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import bench
from spans import Tracer, self_times


def test_self_times_on_a_hand_built_tree():
    # 0 [0, 10] -> 1 [1, 4] -> 3 [2, 3]
    #           -> 2 [5, 9]
    # 4 [20, 21] is a root of its own
    start = [0.0, 1.0, 5.0, 2.0, 20.0]
    end = [10.0, 4.0, 9.0, 3.0, 21.0]
    parent = [-1, 0, 0, 1, -1]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 4.0, 1.0, 1.0])


def test_self_times_clip_children_and_count_overlap_once():
    start = [0.0, -1.0, 2.0, 3.0]
    end = [10.0, 1.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    # children cover [0, 1] and [2, 10] inside the parent
    assert self_times(start, end, parent)[0] == pytest.approx(1.0)


def test_tracer_records_nesting_notes_and_counters():
    tracer = Tracer()
    inner = tracer.span("inner", lambda n, v: n * v, note=lambda a, k, r: [a[0], a[1]])
    outer = tracer.span("outer", lambda: inner(3, 2) + inner(3, 2))
    counted = tracer.counter("count", lambda xs: xs, note=lambda a, k, r: len(r))
    assert outer() == 12
    counted([1, 2, 3])
    assert [tracer.names[i] for i in tracer.name] == ["outer", "inner", "inner"]
    assert tracer.parent == [-1, 0, 0]
    assert tracer.note == [None, [3, 2], [3, 2]]
    assert tracer.counters == {"count": [1, 3]}
    assert all(s <= e for s, e in zip(tracer.start, tracer.end))


def test_op_metrics_counts_and_repeat_ratio(tmp_path):
    tracer = Tracer()
    build = tracer.span("measures.subset_weights", lambda n, v: None, note=layers._orders)
    for n, v in [(10, 2), (10, 2), (9, 2), (10, 3)]:
        build(n, v)
    path = tmp_path / "spans.json"
    tracer.dump(path)
    metrics = layers.op_metrics(json.loads(path.read_text()))
    assert metrics["measures.subset_weights_calls"] == 4
    assert metrics["measures.subset_weights_repeat_ratio"] == 0.25
    assert metrics["quadrature.panels"] == 0


LOG = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | encodings
import time:        50 |         50 |       _weakref
import time:       200 |        250 |     numpy._core
import time:       300 |        550 |   numpy
import time:        70 |         70 |     numpy.linalg
import time:        20 |         20 |     csv
import time:        80 |        170 |   gimtools.reporting
import time:        10 |         10 |       scipy._lib
import time:       400 |        410 |     scipy.special
import time:        40 |        450 |   gimtools.distributions
import time:        30 |       1200 | gimtools
"""


def test_import_metrics_split_the_import_tree():
    got = layers.import_metrics(LOG)
    assert got["import.numpy_s"] == pytest.approx(620e-6)
    assert got["import.scipy_s"] == pytest.approx(410e-6)
    assert got["import.gimtools_self_s"] == pytest.approx((1200 - 620 - 410) * 1e-6)


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.units(trace=False)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.units(trace=True)


SCRIPT = """\
import numpy as np
from gimtools import Pareto, make_sample, report, theoretical_gim

report(make_sample(np.arange(1.0, 41.0)[::-1]), [2, 3])
theoretical_gim(Pareto(3.0, 1.0), 40)
"""


def test_traced_run_wraps_every_namespace_that_bound_a_function(tmp_path):
    script, spans = tmp_path / "op.py", tmp_path / "spans.json"
    script.write_text(SCRIPT)
    env = dict(os.environ, PYTHONPATH=str(Path(bench.ROOT) / "src"))
    done = subprocess.run([sys.executable, str(Path(bench.HERE) / "traced.py"), str(spans), str(script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    metrics = layers.op_metrics(json.loads(spans.read_text()))
    # gini (n, 2), then per order gim_ustat (n, v) and leave_one_out (n-1, v)
    assert metrics["measures.subset_weights_calls"] == 5
    assert metrics["measures.subset_weights_repeat_ratio"] == pytest.approx(1 / 5)
    assert metrics["samples.make_sample_calls"] == 1
    assert metrics["inference.confidence_interval_s"] > 0
    # Pareto v=40 is past the closed form, so the quadrature ladder runs
    assert metrics["distributions.theoretical_gim_calls"] == 1
    assert metrics["quadrature.integrate_graded_calls"] >= 4
    assert metrics["distributions.quantile_s"] > 0
