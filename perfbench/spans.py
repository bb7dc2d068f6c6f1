"""Traced in-process run of one `motionsnn` CLI command.

Usage: python perfbench/spans.py OUT.json -- <motionsnn CLI arguments>

With the package importable (PYTHONPATH=src), this wraps the package's stage
functions by module attribute, calls `motionsnn.cli.main(args)` in this
process, and writes the recorded spans and layer counters to OUT.json. The
exit code is the CLI's. Spans stay in memory until the end; a wrapped
function that no longer exists is listed under "absent" instead of failing.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (layer, module, function). Every binding of the function inside the
# package is replaced, so modules that imported it by name are traced too.
TARGETS = (
    ("cli", "motionsnn.cli", "cmd_run"),
    ("cli", "motionsnn.cli", "cmd_sweep"),
    ("experiment", "motionsnn.experiment", "frequency_sweep"),
    ("experiment", "motionsnn.experiment", "run_experiment"),
    ("experiment", "motionsnn.experiment", "evaluate"),
    ("experiment", "motionsnn.experiment", "spectral_summary"),
    ("topology", "motionsnn.config", "build_layout"),
    ("topology", "motionsnn.config", "build_network"),
    ("stimulus", "motionsnn.config", "build_trajectory"),
    ("stimulus", "motionsnn.config", "build_stimulus"),
    ("engine", "motionsnn.engine", "simulate"),
    ("analysis", "motionsnn.analysis", "firing_rate"),
    ("analysis", "motionsnn.analysis", "ideal_rates"),
    ("analysis", "motionsnn.analysis", "accuracy"),
    ("analysis", "motionsnn.analysis", "dominant_frequency"),
    ("analysis", "motionsnn.analysis", "phase_lag_deg"),
    ("core", "motionsnn.core", "write_spikes_csv"),
)


# What the counters need from a call, kept small: holding every result would
# keep the large rate arrays alive and distort the traced process's memory.
KEEP = {
    "config.build_network": lambda args, result: result,
    "config.build_stimulus": lambda args, result: result,
    "engine.simulate": lambda args, result: (args[0], args[2], result),
    "analysis.ideal_rates": lambda args, result: args[2],
}


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


class SpanRecorder:
    """Spans as [name, layer, start, end, parent index]; parent is None at the root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        rec = [name, layer, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, layer: str, fn, keep=None, log: list | None = None):
        """`fn` recorded as a span; with `keep`, `keep(args, result)` is
        appended to `log` after each call, for counting after the run."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, layer, fn, *args, **kwargs)
            if keep is not None:
                try:
                    log.append(keep(args, result))
                except IndexError:  # called with keywords: count reported absent
                    log.append(None)
            return result

        return traced


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "motionsnn" or n.startswith("motionsnn.")]


def install(rec: SpanRecorder) -> tuple[dict[str, list], list[str], list[int]]:
    """Wrap every target; returns the per-target call logs, the absent
    targets and the Trajectory.position call counter."""
    logs: dict[str, list] = {}
    absent: list[str] = []
    modules = _package_modules()
    for layer, module, function in TARGETS:
        name = span_name(module, function)
        try:
            original = getattr(importlib.import_module(module), function)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        logs[name] = []
        wrapped = rec.wrap(name, layer, original, KEEP.get(name), logs[name])
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    position_calls = [0]
    try:
        trajectory_cls = importlib.import_module("motionsnn.stimulus").Trajectory
        position = trajectory_cls.position
    except (ImportError, AttributeError):
        absent.append("stimulus.Trajectory.position")
    else:

        @functools.wraps(position)
        def counted(*args, **kwargs):
            position_calls[0] += 1
            return position(*args, **kwargs)

        trajectory_cls.position = counted
    return logs, absent, position_calls


def _deliveries_and_waves(net, sim, t_end: float) -> tuple[int, int]:
    """A delivery is a spike at time <= t_end times its neuron's out-degree;
    a wave is a distinct delivery time."""
    out_degree = Counter(s.pre for s in net.synapses)
    deliveries = 0
    times: set[float] = set()
    for neuron, train in enumerate(sim.record.spike_times):
        degree = out_degree.get(neuron, 0)
        if degree:
            sent = [t for t in train if t <= t_end]
            deliveries += degree * len(sent)
            times.update(sent)
    return deliveries, len(times)


def counters(logs: dict[str, list], position_calls: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer work counts from the objects the traced calls returned.
    A count whose objects changed shape is reported absent."""
    out: dict[str, float] = {}
    absent: list[str] = []

    def topology():
        c = [net.counts() for net in logs["config.build_network"]]
        return {
            "topology.cells": sum(x["cells"] for x in c),
            "topology.neurons": sum(
                x["input_neurons"] + x["hidden_neurons"] + x["output_neurons"] for x in c
            ),
            "topology.synapses": sum(x["total_synapses"] for x in c),
        }

    def stimulus():
        streams = logs["config.build_stimulus"]
        changes = sum(len({ev.t for ev in s.events}) - 1 for s in streams)
        return {
            "stimulus.events": sum(len(s) for s in streams),
            "stimulus.position_calls": position_calls,
            "stimulus.position_calls_per_change": position_calls / changes if changes else 0.0,
        }

    def engine():
        m = Counter()
        for net, t_end, sim in logs["engine.simulate"]:
            for layer in ("input", "hidden", "output"):
                m[f"engine.spikes.{layer}"] += sim.spike_totals[layer]
            m["engine.dropped_events"] += sim.dropped_events
            m["engine.refractory_dropped"] += sim.refractory_dropped
            deliveries, waves = _deliveries_and_waves(net, sim, t_end)
            m["engine.deliveries"] += deliveries
            m["engine.waves"] += waves
        return dict(m)

    def analysis():
        return {"analysis.grid_samples": sum(grid.n for grid in logs["analysis.ideal_rates"])}

    for group, fn in (("topology", topology), ("stimulus", stimulus), ("engine", engine), ("analysis", analysis)):
        try:
            out.update(fn())
        except (AttributeError, KeyError, TypeError, IndexError):
            absent.append(f"{group} counters")
    return out, absent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    rec = SpanRecorder()
    cli = rec.call("setup.import", "setup", importlib.import_module, "motionsnn.cli")
    logs, absent, position_calls = install(rec)
    code = rec.call("cli.main", "cli", cli.main, cli_argv)
    # Counting is traced work too, so the accounting of the process wall
    # time includes it.
    values, missing = rec.call("trace.counters", "trace", counters, logs, position_calls[0])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"spans": rec.spans, "counters": values, "absent": absent + missing},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
