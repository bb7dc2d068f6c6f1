"""Workload configs, their expected sizes, and the checks on their outputs.

Every workload is one `motionsnn` CLI call on a complete config file. Seed 0
gives the configs documented in NOTES.md exactly; other seeds move the circle
centre by a sub-pixel offset and change its radius a little, always keeping
the 3 x 3 footprint inside the field.
"""
from __future__ import annotations

import copy
import csv
import filecmp
import json
import math
import os
import random
from dataclasses import dataclass

DEFAULT_CONFIG = {
    "schema_version": 1,
    "field_width": 10,
    "field_height": 11,
    "trajectory": {"kind": "circle", "cx": 4.5, "cy": 5.0, "radius": 3.0, "freq_hz": 0.15},
    "t_end_s": None,
    "encoding": "onset",
    "samples_per_pixel": 8.0,
    "n_per_dir": 1,
    "output_taus_s": [0.5],
    "grid_dt_s": 0.001,
    "lateral_inhibition": True,
    "network": {},
}

# The default `motionsnn sweep`: 9 log-spaced frequencies from 0.01 to 1 Hz
# times the built-in variants n1 (tau 0.5 s) and n5 (taus log-spaced 5 ms to
# 0.5 s), rows sorted by (variant, frequency).
SWEEP_FREQS = tuple(10.0 ** (-2.0 + 2.0 * i / 8) for i in range(9))
SWEEP_VARIANTS = (
    ("n1", (0.5,)),
    ("n5", tuple(10.0 ** (math.log10(0.005) + 2.0 * i / 4) for i in range(5))),
)
SWEEP_JOBS = 2

# Absolute tolerance on s_acc against the recorded reference: wide enough for
# a change of summation order, far below any change of behaviour.
S_ACC_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    overrides: dict


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("default-run", "run", {}),
        Workload("long-window", "run", {"trajectory": {"freq_hz": 0.01}}),
        Workload(
            "large-field",
            "run",
            {
                "field_width": 100,
                "field_height": 101,
                "trajectory": {"cx": 49.5, "cy": 50.0, "radius": 45.0},
                "encoding": "footprint",
            },
        ),
        Workload("sweep", "sweep", {}),
    )
}


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def make_config(workload: Workload, seed: int) -> dict:
    cfg = _merge(DEFAULT_CONFIG, workload.overrides)
    if seed == 0:
        return cfg
    rng = random.Random(seed)
    traj = cfg["trajectory"]
    traj["cx"] = round(traj["cx"] + rng.uniform(-0.3, 0.3), 3)
    traj["cy"] = round(traj["cy"] + rng.uniform(-0.3, 0.3), 3)
    traj["radius"] = round(traj["radius"] + rng.uniform(-0.3, 0.3), 3)
    # Same in-field rule as the program's Trajectory check; the offsets above
    # cannot break it on these fields, but a new workload might.
    w, h = cfg["field_width"], cfg["field_height"]
    if not (
        traj["cx"] - traj["radius"] >= 0.5
        and traj["cx"] + traj["radius"] < w - 1.5
        and traj["cy"] - traj["radius"] >= 0.5
        and traj["cy"] + traj["radius"] < h - 1.5
    ):
        raise ValueError(f"seed {seed} moves the footprint out of the field: {traj}")
    return cfg


def t_end_s(freq_hz: float, taus: tuple[float, ...]) -> float:
    """Automatic run length of a periodic trajectory: a settling stretch
    (the longer of 4 * mean tau and one period) plus three periods."""
    period = 1.0 / freq_hz
    return max(4.0 * sum(taus) / len(taus), period) + 3.0 * period


def sim_seconds(workload: Workload, cfg: dict) -> float:
    if workload.command == "sweep":
        return sum(t_end_s(f, taus) for _, taus in SWEEP_VARIANTS for f in SWEEP_FREQS)
    return t_end_s(cfg["trajectory"]["freq_hz"], tuple(cfg["output_taus_s"]))


def cli_args(workload: Workload, cfg_path: str, out_dir: str, jobs: int = SWEEP_JOBS) -> list[str]:
    if workload.command == "sweep":
        return ["sweep", "-c", cfg_path, "-o", os.path.join(out_dir, "sweep.csv"), "-j", str(jobs)]
    return ["run", "-c", cfg_path, "-d", out_dir]


def output_files(workload: Workload) -> tuple[str, ...]:
    if workload.command == "sweep":
        return ("sweep.csv",)
    return ("spikes.csv", "rates.csv", "summary.json")


def _count_lines(path: str) -> int:
    n = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            n += chunk.count(b"\n")
    return n


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def reference_values(workload: Workload, out_dir: str) -> dict:
    """The values pinned per seed: exact counts and s_acc."""
    if workload.command == "sweep":
        with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {"s_acc": [float(r["s_acc"]) for r in rows]}
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        s = json.load(fh)
    return {
        "n_events": s["stimulus"]["n_events"],
        "spike_totals": s["spikes"]["totals"],
        "outputs": s["spikes"]["outputs"],
        "s_acc": s["analysis"]["s_acc"],
    }


def _check_reference(got: dict, ref: dict) -> list[str]:
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if key == "s_acc":
            want_l = want if isinstance(want, list) else [want]
            have_l = have if isinstance(have, list) else [have]
            if len(want_l) != len(have_l) or any(
                abs(a - b) > S_ACC_TOL for a, b in zip(have_l, want_l)
            ):
                problems.append(f"s_acc {have} differs from reference {want} by more than {S_ACC_TOL}")
        elif have != want:
            problems.append(f"{key} {have} != reference {want}")
    return problems


def _check_sweep(out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != ["freq_hz", "variant", "s_acc", "s_acc_norm", "status"]:
        return [f"sweep.csv header {header}"]
    want = [(label, f) for label, _ in SWEEP_VARIANTS for f in SWEEP_FREQS]
    if len(rows) != len(want):
        return [f"sweep.csv has {len(rows)} rows, expected {len(want)}"]
    problems = []
    best: dict[str, float] = {}
    for row, (label, freq) in zip(rows, want):
        freq_s, variant, s_acc_s, norm_s, status = row
        if variant != label or not _close(float(freq_s), freq) or status != "ok":
            problems.append(f"sweep row {row} is not an ok {label} point at {freq} Hz")
            continue
        if not 0.0 <= float(s_acc_s) <= 1.0:
            problems.append(f"sweep row {row}: s_acc outside [0, 1]")
        best[variant] = max(best.get(variant, 0.0), float(norm_s))
    if any(not _close(v, 1.0) for v in best.values()):
        problems.append(f"per-variant s_acc_norm maxima {best} are not 1")
    return problems


def _check_run(out_dir: str, cfg: dict) -> list[str]:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        s = json.load(fh)
    problems = []
    t_end = t_end_s(cfg["trajectory"]["freq_hz"], tuple(cfg["output_taus_s"]))
    if not _close(s["stimulus"]["t_end_s"], t_end):
        problems.append(f"t_end_s {s['stimulus']['t_end_s']} != expected {t_end}")
    grid = int(math.floor(t_end / cfg["grid_dt_s"])) + 1
    rate_rows = _count_lines(os.path.join(out_dir, "rates.csv")) - 1
    if rate_rows != grid:
        problems.append(f"rates.csv has {rate_rows} rows, grid has {grid} samples")
    totals = s["spikes"]["totals"]
    spike_rows = _count_lines(os.path.join(out_dir, "spikes.csv")) - 1
    if spike_rows != sum(totals.values()):
        problems.append(f"spikes.csv has {spike_rows} rows, summary totals {totals}")
    stim = s["stimulus"]
    passed = stim["n_events"] - stim["dropped_events"] - stim["refractory_dropped"]
    if totals["input"] != passed:
        problems.append(f"input spikes {totals['input']} != events passed to inputs {passed}")
    if sum(s["spikes"]["outputs"].values()) != totals["output"]:
        problems.append("pooled output counts do not add up to the output spike total")
    if not 0.0 <= s["analysis"]["s_acc"] <= 1.0:
        problems.append(f"s_acc {s['analysis']['s_acc']} outside [0, 1]")
    return problems


def check_outputs(workload: Workload, cfg: dict, out_dir: str, ref: dict | None) -> list[str]:
    """Problems found in one operation's outputs; empty when all checks pass."""
    missing = [f for f in output_files(workload) if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return [f"missing outputs {missing}"]
    try:
        if workload.command == "sweep":
            problems = _check_sweep(out_dir)
        else:
            problems = _check_run(out_dir, cfg)
        if ref is not None:
            problems += _check_reference(reference_values(workload, out_dir), ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable outputs: {exc!r}"]
    return problems


def differing_outputs(workload: Workload, dir_a: str, dir_b: str) -> list[str]:
    """Output files whose bytes differ between two operations' directories."""
    differ = []
    for name in output_files(workload):
        try:
            if not filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False):
                differ.append(name)
        except OSError:
            differ.append(name)
    return differ
