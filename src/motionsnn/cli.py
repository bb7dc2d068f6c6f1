"""Command-line front end.

Subcommands: `topo` exports the wired network as JSON, `events` encodes the
stimulus as CSV, `run` simulates and scores one experiment, `sweep` maps
scoring accuracy over stimulus frequency.

Exit codes: 0 success, 2 configuration error, an output that cannot be
written, or a forked CSV part writer or sweep worker that cannot be started
or fails, 3 domain error, 4 numeric fault.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import ExitStack

import numpy as np

from .analysis import ideal_rates
from .config import RunConfig, apply_overrides, build_network, build_stimulus
from .core import (
    ConfigError,
    CsvWriter,
    DIRECTION_ORDER,
    DomainError,
    NumericFault,
    write_events_csv,
    write_spikes_csv,
    writing,
)
from .experiment import (
    SweepRow,
    default_sweep_variants,
    evaluate,
    frequency_sweep,
    normalize_rows,
    run_experiment,
    spectral_summary,
)
from .parser import build_parser

SWEEP_HEADER = ["freq_hz", "variant", "s_acc", "s_acc_norm", "status"]


def _load_config(args: argparse.Namespace) -> RunConfig:
    data = (RunConfig.from_json_file(args.config) if args.config else RunConfig()).to_dict()
    if args.set:
        data = apply_overrides(data, args.set)
    return RunConfig.from_dict(data)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with writing(path), open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_topo(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    net = build_network(cfg)
    _write_text(args.out, net.to_json())
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    stream = build_stimulus(cfg)
    write_events_csv(stream, args.out).join()
    print(f"wrote {len(stream)} events to {args.out}")
    return 0


def _write_rates_csv(path: str, traj, ev) -> CsvWriter:
    """rates.csv: the grid's times, the measured curves and the ideal curves
    over the whole grid. The writer of each block makes its times and ideal
    curves over its samples only, the whole grid's values sliced, so the run
    holds no grid-length array for this file but the measured curves."""
    header = ["t_s"]
    header += [f"{d.value}_hz" for d in DIRECTION_ORDER]
    header += [f"{d.value}_ideal_hz" for d in DIRECTION_ORDER]
    measured = [ev.measured[d].values for d in DIRECTION_ORDER]

    def block(i: int, j: int) -> list[np.ndarray]:
        ideal = ideal_rates(traj, ev.f_max_hz, ev.grid, i, j)
        return [ev.grid.axis(i, j), *(v[i:j] for v in measured), *(ideal[d].values for d in DIRECTION_ORDER)]

    return CsvWriter(path, header, ev.grid.n, block)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg)
    ev = evaluate(result)

    with writing(args.out_dir):
        os.makedirs(args.out_dir, exist_ok=True)
    with ExitStack() as writers:
        writers.enter_context(
            write_spikes_csv(result.sim.record, os.path.join(args.out_dir, "spikes.csv"))
        )
        writers.enter_context(
            _write_rates_csv(os.path.join(args.out_dir, "rates.csv"), result.trajectory, ev)
        )
        spectra = spectral_summary(result, ev)

    summary = {
        "config": result.config.to_dict(),
        "network": {"counts": result.network.counts()},
        "stimulus": {
            "n_events": len(result.stream),
            "t_end_s": result.trajectory.t_end,
            "dropped_events": result.sim.dropped_events,
            "refractory_dropped": result.sim.refractory_dropped,
        },
        "spikes": {
            "totals": result.sim.spike_totals,
            "outputs": {d.value: ev.pooled_counts[d] for d in DIRECTION_ORDER},
        },
        "analysis": {
            "f_max_hz": ev.f_max_hz,
            "window_start_s": ev.window_start_s,
            "s_acc": ev.score.clamped,
            "s_acc_raw": ev.score.raw,
            "s_acc_per_channel": {
                d.value: ev.score.per_channel[d] for d in DIRECTION_ORDER
            },
            "spectra": spectra,
        },
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    _write_text(os.path.join(args.out_dir, "summary.json"), text)
    print(
        f"s_acc={ev.score.clamped:.4f} f_max={ev.f_max_hz:.4f}Hz "
        f"output_spikes={sum(ev.pooled_counts.values())} -> {args.out_dir}"
    )
    return 0


def _parse_freqs(args: argparse.Namespace) -> tuple[float, ...]:
    if args.freqs:
        try:
            freqs = tuple(float(tok) for tok in args.freqs.split(",") if tok)
        except ValueError as exc:
            raise ConfigError(f"bad --freqs list: {exc}") from exc
    else:
        if args.n_freqs < 1:
            raise ConfigError("--n-freqs must be >= 1")
        if not (0.0 < args.freq_min <= args.freq_max):
            raise ConfigError("need 0 < --freq-min <= --freq-max")
        freqs = tuple(
            float(f)
            for f in np.logspace(
                math.log10(args.freq_min), math.log10(args.freq_max), args.n_freqs
            )
        )
    if not freqs or any(not (f > 0.0 and math.isfinite(f)) for f in freqs):
        raise ConfigError("sweep frequencies must be positive")
    return freqs


def _read_sweep_csv(path: str) -> dict[tuple[float, str], SweepRow]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    rows: dict[tuple[float, str], SweepRow] = {}
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != SWEEP_HEADER:
        raise ConfigError(f"unexpected sweep header in {path}: {header}")
    for row in reader:
        try:
            freq_s, variant, s_acc_s, _norm, status = row
            freq = float(freq_s)
            s_acc = float(s_acc_s) if s_acc_s else None
            if status == "ok" and (s_acc is None or not math.isfinite(s_acc)):
                raise ValueError("an ok row needs a finite s_acc")
        except ValueError as exc:
            raise ConfigError(f"malformed row {reader.line_num} in {path}: {row}") from exc
        rows[(freq, variant)] = SweepRow(freq, variant, s_acc, status)
    return rows


def _write_sweep_csv(path: str, rows: list[SweepRow]) -> None:
    norms = normalize_rows(rows)
    with writing(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for r in rows:
            norm = norms.get((r.freq_hz, r.variant))
            writer.writerow(
                [
                    format(r.freq_hz, ".17g"),  # exact float round trip for --resume
                    r.variant,
                    # also .17g: resume recomputes norms from this column
                    format(r.s_acc, ".17g") if r.s_acc is not None else "",
                    format(norm + 0.0, ".9g") if norm is not None else "",  # -0.0 as 0
                    r.status,
                ]
            )


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    freqs = _parse_freqs(args)
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    by_label = {v.label: v for v in default_sweep_variants()}
    try:
        variants = tuple(by_label[name] for name in args.variants.split(","))
    except KeyError as exc:
        raise ConfigError(
            f"unknown variant {exc.args[0]!r}, choose from {sorted(by_label)}"
        ) from exc

    precomputed: dict[tuple[float, str], SweepRow] = {}
    if args.resume and os.path.exists(args.out):
        precomputed = {
            key: row for key, row in _read_sweep_csv(args.out).items() if row.status == "ok"
        }

    rows = frequency_sweep(cfg, freqs, variants, jobs=args.jobs, precomputed=precomputed)
    _write_sweep_csv(args.out, rows)
    reused = sum((r.freq_hz, r.variant) in precomputed for r in rows)
    print(f"sweep: {len(rows)} rows ({len(rows) - reused} computed, {reused} reused) -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a wrapper set on this module's cmd_* is called
    commands = {"topo": cmd_topo, "events": cmd_events, "run": cmd_run, "sweep": cmd_sweep}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return 4
