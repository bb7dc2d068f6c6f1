"""Command-line front end.

Subcommands: `topo` exports the wired network as JSON, `events` encodes the
stimulus as CSV, `run` simulates and scores one experiment, `sweep` maps
scoring accuracy over stimulus frequency.

Exit codes: 0 success, 2 configuration error or an output that cannot be
written, 3 domain error, 4 numeric fault.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import replace

import numpy as np

from .config import RunConfig, apply_overrides
from .core import (
    ConfigError,
    CsvWriter,
    DIRECTION_ORDER,
    DomainError,
    NumericFault,
    fmt_float,
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

CONFIG_ENV = "MOTIONSNN_CONFIG"


def _load_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV)
    data = (RunConfig.from_json_file(path) if path else RunConfig()).to_dict()
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
    from .config import build_network

    cfg = _load_config(args)
    net = build_network(cfg)
    _write_text(args.out, net.to_json())
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    from .config import build_stimulus

    cfg = _load_config(args)
    stream = build_stimulus(cfg)
    write_events_csv(stream, args.out).join()
    print(f"wrote {len(stream)} events to {args.out}")
    return 0


def _write_rates_csv(path: str, ev) -> CsvWriter:
    header = ["t_s"]
    header += [f"{d.value}_hz" for d in DIRECTION_ORDER]
    header += [f"{d.value}_ideal_hz" for d in DIRECTION_ORDER]
    columns = [ev.grid.times]
    columns += [ev.measured[d].values for d in DIRECTION_ORDER]
    columns += [ev.ideal[d].values for d in DIRECTION_ORDER]
    return CsvWriter(path, header, columns)


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
        writers.enter_context(_write_rates_csv(os.path.join(args.out_dir, "rates.csv"), ev))
        # The writers hold copies of the curves, so the ideal ones are
        # freed here, before the spectra allocate theirs.
        ev = replace(ev, ideal={})
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
    path = os.path.join(args.out_dir, "summary.json")
    with writing(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    rows: dict[tuple[float, str], SweepRow] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["freq_hz", "variant", "s_acc", "s_acc_norm", "status"]:
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
        writer.writerow(["freq_hz", "variant", "s_acc", "s_acc_norm", "status"])
        for r in rows:
            norm = norms.get((r.freq_hz, r.variant))
            writer.writerow(
                [
                    format(r.freq_hz, ".17g"),  # exact float round trip for --resume
                    r.variant,
                    # also .17g: resume recomputes norms from this column
                    format(r.s_acc, ".17g") if r.s_acc is not None else "",
                    fmt_float(norm) if norm is not None else "",
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionsnn",
        description="Spiking-network motion detector: build, stimulate, simulate, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--config",
            "-c",
            help=f"JSON config file (default: ${CONFIG_ENV} if set, else built-ins)",
        )
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry, dotted keys allowed (repeatable)",
        )

    p_topo = sub.add_parser("topo", help="export the wired network as JSON")
    common(p_topo)
    p_topo.add_argument("--out", "-o", help="output path (default: stdout)")
    p_topo.set_defaults(fn=cmd_topo)

    p_events = sub.add_parser("events", help="encode the stimulus as an event CSV")
    common(p_events)
    p_events.add_argument("--out", "-o", required=True, help="output CSV path")
    p_events.set_defaults(fn=cmd_events)

    p_run = sub.add_parser("run", help="simulate one experiment and score it")
    common(p_run)
    p_run.add_argument("--out-dir", "-d", required=True, help="directory for outputs")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="score accuracy across stimulus frequencies")
    common(p_sweep)
    p_sweep.add_argument("--out", "-o", required=True, help="output CSV path")
    p_sweep.add_argument("--freqs", help="comma-separated frequencies in Hz")
    p_sweep.add_argument("--freq-min", type=float, default=0.01)
    p_sweep.add_argument("--freq-max", type=float, default=1.0)
    p_sweep.add_argument("--n-freqs", type=int, default=9)
    p_sweep.add_argument("--variants", default="n1,n5", help="comma list: n1,n5")
    p_sweep.add_argument("--jobs", "-j", type=int, default=1, help="parallel workers")
    p_sweep.add_argument("--resume", action="store_true", help="reuse rows already in --out")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
