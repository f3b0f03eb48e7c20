"""The layers of gimtools the traced run measures, and their metrics.

``install`` wraps each layer's public functions from outside the library: a
wrapper replaces the function in every gimtools module namespace that bound
it by name, and methods are replaced on their classes.  ``op_metrics`` turns
the spans of one traced operation into the per-layer metrics below; times
are self times.  ``import_metrics`` splits a ``-X importtime`` log.
"""

import importlib
import statistics
import sys

from spans import self_times


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _orders(args, kwargs, result):
    return [int(_arg(args, kwargs, 0, "n")), int(_arg(args, kwargs, 1, "v"))]


def _rows(args, kwargs, result):
    return result.sample.n + result.skipped


def _replications(args, kwargs, result):
    return result.cell.replications


def _panels(args, kwargs, result):
    return len(result)


# (span name, module, attribute, note); "Class.method" wraps on the class
SPANS = (
    ("cli.main", "cli", "main", None),
    ("reporting.ingest_csv", "reporting", "ingest_csv", _rows),
    ("reporting.report", "reporting", "report", None),
    ("samples.make_sample", "samples", "make_sample", None),
    ("measures.subset_weights", "measures", "subset_weights", _orders),
    ("measures.edf_weights", "measures", "edf_weights", None),
    ("measures.gim_ustat", "measures", "gim_ustat", None),
    ("measures.gini_ustat", "measures", "gini_ustat", None),
    ("measures.gmd", "measures", "gmd", None),
    ("measures.gim_edf", "measures", "gim_edf", None),
    ("inference.leave_one_out", "inference", "leave_one_out", None),
    ("inference.jackknife_variance", "inference", "jackknife_variance", None),
    ("inference.confidence_interval", "inference", "confidence_interval", None),
    ("inference.edf_numerator_variance", "inference", "edf_numerator_variance", None),
    ("distributions.stream_setup", "distributions", "SeededStream.generator", None),
    ("distributions.quantile", "distributions", "Exponential._q", None),
    ("distributions.quantile", "distributions", "Pareto._q", None),
    ("distributions.quantile", "distributions", "Lognormal._q", None),
    ("distributions.theoretical_gim", "distributions", "theoretical_gim", None),
    ("quadrature.integrate_graded", "quadrature", "integrate_graded", None),
    ("simulation.run_cell", "simulation", "run_cell", _replications),
    ("simulation.emit_table", "simulation", "emit_table", None),
)
# counted without a span, so their time stays with the caller: converge runs
# the whole edf-variance ladder, graded_panels only builds a panel list
COUNTERS = (
    ("quadrature.graded_panels", "quadrature", "graded_panels", _panels),
    ("quadrature.converge", "quadrature", "converge", None),
)

# metric name -> (unit, what, span or counter names)
PER_LAYER = {
    "cli.self_s": ("s", "self", ("cli.main",)),
    "reporting.ingest_csv_s": ("s", "self", ("reporting.ingest_csv",)),
    "reporting.rows": ("count", "note_sum", ("reporting.ingest_csv",)),
    "reporting.report_self_s": ("s", "self", ("reporting.report",)),
    "samples.make_sample_s": ("s", "self", ("samples.make_sample",)),
    "samples.make_sample_calls": ("count", "calls", ("samples.make_sample",)),
    "measures.subset_weights_s": ("s", "self", ("measures.subset_weights",)),
    "measures.subset_weights_calls": ("count", "calls", ("measures.subset_weights",)),
    "measures.subset_weights_repeat_ratio": ("ratio", "repeat_ratio", ("measures.subset_weights",)),
    "measures.edf_weights_s": ("s", "self", ("measures.edf_weights",)),
    "measures.edf_weights_calls": ("count", "calls", ("measures.edf_weights",)),
    "measures.estimator_self_s": (
        "s", "self",
        ("measures.gim_ustat", "measures.gini_ustat", "measures.gmd", "measures.gim_edf"),
    ),
    "inference.leave_one_out_s": ("s", "self", ("inference.leave_one_out",)),
    "inference.jackknife_self_s": ("s", "self", ("inference.jackknife_variance",)),
    "inference.confidence_interval_s": ("s", "self", ("inference.confidence_interval",)),
    "inference.edf_numerator_variance_s": ("s", "self", ("inference.edf_numerator_variance",)),
    "inference.edf_numerator_variance_calls": ("count", "calls", ("inference.edf_numerator_variance",)),
    "distributions.stream_setup_s": ("s", "self", ("distributions.stream_setup",)),
    "distributions.streams": ("count", "calls", ("distributions.stream_setup",)),
    "distributions.quantile_s": ("s", "self", ("distributions.quantile",)),
    "distributions.theoretical_gim_s": ("s", "self", ("distributions.theoretical_gim",)),
    "distributions.theoretical_gim_calls": ("count", "calls", ("distributions.theoretical_gim",)),
    "quadrature.integrate_graded_s": ("s", "self", ("quadrature.integrate_graded",)),
    "quadrature.integrate_graded_calls": ("count", "calls", ("quadrature.integrate_graded",)),
    "quadrature.graded_panels_calls": ("count", "counter_calls", ("quadrature.graded_panels",)),
    "quadrature.panels": ("count", "counter_sum", ("quadrature.graded_panels",)),
    "quadrature.converge_calls": ("count", "counter_calls", ("quadrature.converge",)),
    "simulation.run_cell_self_s": ("s", "self", ("simulation.run_cell",)),
    "simulation.emit_table_s": ("s", "self", ("simulation.emit_table",)),
    "simulation.replications": ("count", "note_sum", ("simulation.run_cell",)),
}
IMPORT_METRICS = ("import.numpy_s", "import.scipy_s", "import.gimtools_self_s")
OVERHEAD_METRIC = "trace.overhead_s"


def _resolve(module, attribute):
    owner = module
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer):
    """Import gimtools and wrap every function in SPANS and COUNTERS."""
    modules = {name: importlib.import_module(f"gimtools.{name}") for _, name, _, _ in SPANS + COUNTERS}
    bound = [m for name, m in sys.modules.items() if name == "gimtools" or name.startswith("gimtools.")]
    targets = [(tracer.span, *t) for t in SPANS] + [(tracer.counter, *t) for t in COUNTERS]
    for make, label, module, attribute, note in targets:
        owner, name = _resolve(modules[module], attribute)
        original = getattr(owner, name)
        wrapper = make(label, original, note)
        if owner is modules[module]:
            for namespace in bound:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
        else:
            setattr(owner, name, wrapper)


def op_metrics(trace):
    """Per-layer metrics of one traced operation (see PER_LAYER)."""
    names = trace["names"]
    own = self_times(trace["start"], trace["end"], trace["parent"])
    self_s, calls, note_sum = {}, {}, {}
    orders = []
    for ident, spent, note in zip(trace["name"], own, trace["note"]):
        name = names[ident]
        self_s[name] = self_s.get(name, 0.0) + spent
        calls[name] = calls.get(name, 0) + 1
        if note is None:
            continue
        if name == "measures.subset_weights":
            orders.append(tuple(note))
        else:
            note_sum[name] = note_sum.get(name, 0) + note
    counters = trace["counters"]
    metrics = {}
    for metric, (_, what, sources) in PER_LAYER.items():
        if what == "self":
            value = sum(self_s.get(s, 0.0) for s in sources)
        elif what == "calls":
            value = sum(calls.get(s, 0) for s in sources)
        elif what == "note_sum":
            value = sum(note_sum.get(s, 0) for s in sources)
        elif what == "counter_calls":
            value = sum(counters.get(s, [0, 0])[0] for s in sources)
        elif what == "counter_sum":
            value = sum(counters.get(s, [0, 0])[1] for s in sources)
        else:  # repeat_ratio: calls whose (n, v) was already built in this op
            value = (len(orders) - len(set(orders))) / len(orders) if orders else 0.0
        metrics[metric] = value
    return metrics


def import_metrics(log):
    """numpy, scipy and gimtools' own share of a ``-X importtime`` log.

    A module counts for numpy or scipy when it or an ancestor in the import
    tree is part of that package; everything else below ``gimtools`` counts
    for gimtools itself.  Times are cumulative, in seconds.
    """
    stack = []
    for line in log.splitlines():
        if not line.startswith("import time:"):
            continue
        own, total, label = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue  # column header
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        kids = []
        while stack and stack[-1][2] > depth:
            kids.append(stack.pop())
        stack.append((label.strip(), int(total), depth, kids))

    package_us = {"numpy": 0, "scipy": 0}
    gimtools_us = 0

    def walk(node):
        nonlocal gimtools_us
        name, total, _, kids = node
        top = name.split(".")[0]
        if top in package_us:
            package_us[top] += total
            return
        if name == "gimtools":
            gimtools_us = total
        for kid in kids:
            walk(kid)

    for root in stack:
        walk(root)
    return {
        "import.numpy_s": package_us["numpy"] / 1e6,
        "import.scipy_s": package_us["scipy"] / 1e6,
        "import.gimtools_self_s": (gimtools_us - package_us["numpy"] - package_us["scipy"]) / 1e6,
    }


def median_metrics(per_op):
    """Median of each metric over a list of per-operation metric dicts."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
