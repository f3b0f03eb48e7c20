"""The benchmark proper; ``run.py`` is its entry point.

One client runs a closed loop for S seconds: one operation at a time, each a
fresh child Python process running one user command or script from start to
finish.  The library is imported from ``src/`` of the checkout.  Every output
is checked against ``oracles``, which does not call gimtools.  Set-up is a
cold ``import gimtools`` process, timed once before each operation so that
its samples spread over the whole run.  Operations and imports run on one
CPU, where ``probe`` measures the host's speed during each of them; the
times in the JSON result are taken at the probe's reference speed.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
loop alternates untraced and traced operations and prints the per-layer
metrics of ``layers`` plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import inputs
import layers
import oracles
from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report-1m", "groups-panel", "simulate-grid", "theory-profile")
IMPORTTIME_RUNS = 7     # -X importtime imports per traced run
MIN_OPS = 3             # operations of each kind per run, even past --seconds
OP_TIMEOUT_S = 40.0
RUN_LIMIT_S = 90.0      # start no operation later than this into the run

END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "cpu_ref_s": "s",
    "peak_rss_mb": "MB",
}
# raw times, printed but not in the JSON result; setup_s keeps its name at
# the reference speed
RAW = {"wall_s": "s", "cpu_s": "s", "setup_raw_s": "s"}


class Plan(NamedTuple):
    """What one workload runs and how its output is checked.

    ``args`` follow the Python executable in the child.  ``output`` is the
    file the operation writes, or None when its standard output is the
    result.  ``check(stdout, stderr, output_text)`` returns a problem list.
    """

    args: list
    check: Callable
    sizes: dict
    output: Path = None


def _relative(path):
    return str(path.relative_to(ROOT))


def plan_report(seed, work):
    text, incomes, blanks = inputs.income_csv(seed)
    path = work / "incomes.csv"
    path.write_text(text)
    label = _relative(path)
    refs = oracles.profile_reference(incomes, inputs.REPORT_ORDERS)
    args = ["-m", "gimtools", "report", "--input", label, "--column", "income",
            "--v", ",".join(map(str, inputs.REPORT_ORDERS)), "--ci", "0.95",
            "--se", "jackknife", "--format", "csv"]
    sizes = {"csv_rows": inputs.CSV_ROWS, "blank_cells": blanks, "incomes": int(incomes.size),
             "csv_bytes": len(text), "sorted_array_mb": incomes.nbytes / 2**20}
    return Plan(args, lambda out, err, _: oracles.check_report_csv(out, err, label, refs, blanks), sizes)


def plan_groups(seed, work):
    arrays = inputs.group_arrays(seed)
    values, offsets = inputs.pack_groups(arrays)
    source, target = work / "groups.npz", work / "groups.json"
    np.savez(source, values=values, offsets=offsets, orders=np.array(inputs.GROUP_ORDERS))
    refs = [(a.size, oracles.profile_reference(a, inputs.GROUP_ORDERS)) for a in arrays]
    sizes = [a.size for a in arrays]
    args = [_relative(HERE / "ops" / "groups_panel.py"), _relative(source), _relative(target)]
    stats = {"groups": len(arrays), "values": int(values.size), "distinct_sizes": len(set(sizes)),
             "min_size": min(sizes), "max_size": max(sizes)}
    return Plan(args, lambda out, err, text: oracles.check_groups(json.loads(text), refs), stats, target)


def plan_simulate(seed, work):
    cells = inputs.simulate_cells()
    truths = oracles.simulate_truths(inputs.SIM_FAMILIES, inputs.SIM_ORDERS)
    first = []

    def check(out, err, _):
        problems = oracles.check_simulate(out, cells, truths, first[0] if first else None)
        if not first and not problems:
            first.append(out)
        return problems

    args = ["-m", "gimtools", "simulate", "--reps", str(inputs.SIM_REPS), "--seed", str(seed),
            "--format", "csv"]
    sizes = {"cells": len(cells), "replications_per_cell": inputs.SIM_REPS,
             "replications": len(cells) * inputs.SIM_REPS}
    return Plan(args, check, sizes)


def plan_theory(seed, work):
    tasks = inputs.theory_tasks(seed)
    source, target = work / "tasks.json", work / "theory.json"
    source.write_text(json.dumps(tasks))
    refs = {oracles.task_key(*t): oracles.population_value(*t) for t in tasks}
    args = [_relative(HERE / "ops" / "theory_profile.py"), _relative(source), _relative(target)]
    sizes = {"theoretical_gim_tasks": sum(t[0] == "gim" for t in tasks),
             "edf_variance_tasks": sum(t[0] == "edf_var" for t in tasks)}
    return Plan(args, lambda out, err, text: oracles.check_theory(json.loads(text), tasks, refs),
                sizes, target)


PLANS = {
    "report-1m": plan_report,
    "groups-panel": plan_groups,
    "simulate-grid": plan_simulate,
    "theory-profile": plan_theory,
}


def machine_facts():
    """nproc, CPU model, cache sizes and interpreter/library versions."""
    import scipy

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor() or "unknown"}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            facts[f"L{level}"] = size
    facts.update(python=platform.python_version(), numpy=np.__version__, scipy=scipy.__version__)
    return facts


class Runner:
    """One benchmark run of one workload: set-up, closed loop, checks."""

    def __init__(self, name, seed, seconds, trace, work, launcher, probe):
        self.name, self.seed, self.seconds, self.trace, self.work = name, seed, seconds, trace, work
        self.launcher, self.probe = launcher, probe
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _spawn(self, args):
        """Run one child; returns its exit status and measurements.

        ``wall_ref_s`` and ``cpu_ref_s`` are ``wall_s`` and ``cpu_s`` divided
        by the host's slowdown during the child's run (see ``probe``).
        """
        begin = time.perf_counter()
        reply = self.launcher.run([sys.executable, *args], self.env, ROOT, self.work / "stdout.txt",
                                  self.work / "stderr.txt", OP_TIMEOUT_S)
        slowdown = self.probe.slowdown(begin, time.perf_counter())
        measured = {"wall_s": reply["wall_s"], "cpu_s": reply["cpu_s"],
                    "wall_ref_s": reply["wall_s"] / slowdown, "cpu_ref_s": reply["cpu_s"] / slowdown,
                    "peak_rss_mb": reply["peak_rss_mb"]}
        return reply["status"], measured

    def cold_import(self):
        """Measurements of one cold ``import gimtools`` process."""
        status, measured = self._spawn(["-c", "import gimtools"])
        if status != 0:
            raise RuntimeError("import gimtools failed: " + (self.work / "stderr.txt").read_text())
        return measured

    def import_layers(self):
        """Median numpy / scipy / gimtools import times from ``-X importtime``."""
        per_run = []
        for _ in range(IMPORTTIME_RUNS):
            status, _ = self._spawn(["-X", "importtime", "-c", "import gimtools"])
            if status != 0:
                raise RuntimeError("import gimtools failed: " + (self.work / "stderr.txt").read_text())
            per_run.append(layers.import_metrics((self.work / "stderr.txt").read_text()))
        return layers.median_metrics(per_run)

    def operation(self, plan, spans_path=None):
        """Run one operation and check it.

        Returns ``(measured, ok)``; ``measured`` holds the operation's times
        and ``peak_rss_mb`` whether or not its output passed the check.
        """
        if plan.output is not None and plan.output.exists():
            plan.output.unlink()
        args = plan.args if spans_path is None else [_relative(HERE / "traced.py"), str(spans_path), *plan.args]
        status, measured = self._spawn(args)
        self.attempted += 1
        stdout = (self.work / "stdout.txt").read_text()
        stderr = (self.work / "stderr.txt").read_text()
        if status != 0:
            problems = [f"exit status {status}: {stderr.strip()[-400:]}"]
        else:
            try:
                output = plan.output.read_text() if plan.output is not None else None
                problems = plan.check(stdout, stderr, output)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return measured, not problems

    def run(self):
        started = time.monotonic()
        metrics = {}
        self._spawn(["-c", "import gimtools"])  # compiles bytecode once
        if self.trace:
            metrics.update(self.import_layers())
        plan = PLANS[self.name](self.seed, self.work)
        deadline = time.monotonic() + self.seconds
        plain, traced, layer_runs = [], [], []
        spans_path = self.work / "spans.json"
        kinds = (False, True) if self.trace else (False,)
        walls = {kind: [] for kind in kinds}  # of every attempt, to predict the next one
        setups = []
        for attempt in itertools.count():
            is_traced = kinds[attempt % len(kinds)]
            now = time.monotonic()
            if now - started > RUN_LIMIT_S:
                break
            # past the minimum, start an operation only if it should end by the deadline
            if attempt >= MIN_OPS * len(kinds) and now + statistics.median(walls[is_traced]) > deadline:
                break
            if not self.trace:
                setups.append(self.cold_import())
            measured, ok = self.operation(plan, spans_path if is_traced else None)
            walls[is_traced].append(measured["wall_s"])
            if ok:
                (traced if is_traced else plain).append(measured)
                if is_traced:
                    layer_runs.append(layers.op_metrics(json.loads(spans_path.read_text())))
        if self.trace:
            if layer_runs:
                metrics.update(layers.median_metrics(layer_runs))
            if plain and traced:
                metrics[layers.OVERHEAD_METRIC] = (
                    statistics.median(m["wall_ref_s"] for m in traced)
                    - statistics.median(m["wall_ref_s"] for m in plain)
                )
        elif plain:
            metrics.update(layers.median_metrics(plain))
            metrics["setup_s"] = statistics.median(m["wall_ref_s"] for m in setups)
            metrics["setup_raw_s"] = statistics.median(m["wall_s"] for m in setups)
        return plan, metrics, len(plain), len(traced)


def units(trace):
    """Metrics of the JSON result, with their units."""
    if not trace:
        return END_TO_END
    out = {name: "s" for name in layers.IMPORT_METRICS}
    out.update({name: spec[0] for name, spec in layers.PER_LAYER.items()})
    out[layers.OVERHEAD_METRIC] = "s"
    return out


def run_workload(name, seed, seconds, trace, work, launcher, probe):
    """Run one workload and print its report; returns the result object."""
    runner = Runner(name, seed, seconds, trace, work, launcher, probe)
    plan, metrics, plain_ops, traced_ops = runner.run()
    wanted = units(trace)
    print(f"# workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}  "
          f"operations {plain_ops} untraced, {traced_ops} traced (one client, closed loop, "
          f"on cpu {launcher.cpu})")
    print("# machine " + json.dumps(machine_facts()))
    print("# inputs " + json.dumps(plan.sizes))
    printed = dict(wanted, **({} if trace else RAW))
    for metric, unit in printed.items():
        if metric in metrics:
            print(f"{metric:<42} {metrics[metric]:>14.6g} {unit}")
    rate = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"{'error_rate':<42} {rate:>14.6g} ratio ({runner.failed} of {runner.attempted} operations failed)")
    for problem in runner.problems[:10]:
        print(f"{name}: {problem}", file=sys.stderr)
    complete = all(metric in metrics for metric in wanted)
    return {
        "correct": runner.failed == 0 and runner.attempted > 0 and complete,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in wanted.items() if m in metrics},
    }


def main(argv, launcher):
    parser = argparse.ArgumentParser(prog="run.py", description="End-to-end benchmark of gimtools.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        with SpeedProbe(launcher.cpu) as probe:
            results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), work,
                                          launcher, probe)
                       for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0
