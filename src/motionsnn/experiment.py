"""End-to-end experiment orchestration.

Glues the builders, the simulator and the rate analysis into one call, and
provides the frequency sweep used to map the responsive band.
"""
from __future__ import annotations

import math
import numbers
import pickle
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .analysis import (
    AccuracyScore,
    FilterParams,
    RateGrid,
    calibrate_f_max,
    dominant_frequency,
    firing_rate,
    phase_lag_deg,
    pool_group,
    transient_s,
    window_accuracy,
)
from .config import RunConfig, build_layout, build_network, build_stimulus, build_trajectory
from .core import (
    AXES,
    DIRECTION_ORDER,
    MAX_SAMPLES,
    ConfigError,
    Direction,
    DomainError,
    MotionSnnError,
    Parts,
    RateSeries,
)
from .engine import SimulationOutput, simulate
from .stimulus import EventStream, Trajectory
from .topology import NetworkGraph


@dataclass(frozen=True)
class ExperimentResult:
    config: RunConfig
    network: NetworkGraph
    trajectory: Trajectory
    stream: EventStream
    sim: SimulationOutput


def _grid_samples(t_end: float, dt: float) -> int:
    """Samples of the rate grid over [0, t_end] at step dt, at most MAX_SAMPLES."""
    steps = t_end / dt
    if not steps < MAX_SAMPLES:
        raise ConfigError(
            f"the rate grid needs {steps:.3g} samples, over the limit of "
            f"{MAX_SAMPLES:.0e}: raise grid_dt_s or lower t_end_s"
        )
    return int(math.floor(steps)) + 1


def run_experiment(cfg: RunConfig) -> ExperimentResult:
    traj = build_trajectory(cfg)
    # refuse a rate grid `evaluate` could not hold before any further work
    _grid_samples(traj.t_end, cfg.grid_dt_s)
    layout = build_layout(cfg)
    net = build_network(cfg, layout)
    stream = build_stimulus(cfg, traj)
    sim = simulate(net, stream, traj.t_end)
    return ExperimentResult(cfg, net, traj, stream, sim)


@dataclass(frozen=True)
class RunEvaluation:
    """Measured curves plus the score taken over the settled window, which
    is samples window_index onwards of the grid. The curves hold the whole
    grid, or the window alone (`evaluate(..., whole_grid=False)`); either
    way they end at the grid's last sample, so a curve's window is its last
    grid.n - window_index values."""

    grid: RateGrid
    window_index: int
    f_max_hz: float
    measured: dict[Direction, RateSeries]
    score: AccuracyScore
    pooled_counts: dict[Direction, int]

    @property
    def window_start_s(self) -> float:
        return self.grid.time(self.window_index)


def evaluate(result: ExperimentResult, whole_grid: bool = True) -> RunEvaluation:
    """Filter the output groups' trains and score them over the settled
    window. With whole_grid False the measured curves are filtered from the
    window's first sample on, the same values as the whole grid's sliced."""
    cfg, net, traj = result.config, result.network, result.trajectory
    fp = FilterParams.from_output_taus(net.output_taus_s)
    # refuse a run too short to score before any curve is filtered
    t_w = transient_s(fp, traj.period_s)
    if t_w >= traj.t_end:
        raise DomainError(
            f"run too short to score: needs > {t_w:.3f}s, has {traj.t_end:.3f}s"
        )
    grid = RateGrid(0.0, cfg.grid_dt_s, _grid_samples(traj.t_end, cfg.grid_dt_s))
    k0 = int(grid.at_or_after(t_w))
    if k0 >= grid.n:
        raise DomainError("empty analysis window")
    t0 = grid.time(k0)

    trains = {d: pool_group(result.sim.record, d, net.n_per_dir) for d in DIRECTION_ORDER}
    first = 0 if whole_grid else k0
    measured = {d: firing_rate(trains[d], fp, grid, first) for d in DIRECTION_ORDER}
    measured_w = {d: RateSeries(t0, grid.dt, measured[d].values[k0 - first :]) for d in DIRECTION_ORDER}
    f_max = calibrate_f_max(measured_w)
    score = window_accuracy(traj, f_max, grid, k0, measured_w)
    counts = {d: len(trains[d]) for d in DIRECTION_ORDER}
    return RunEvaluation(
        grid=grid,
        window_index=k0,
        f_max_hz=f_max,
        measured=measured,
        score=score,
        pooled_counts=counts,
    )


def _maybe(fn, *args):
    try:
        return float(fn(*args))
    except MotionSnnError:
        return None


def spectral_summary(result: ExperimentResult, ev: RunEvaluation) -> dict:
    """Dominant frequencies per channel and pooled-pair, plus the phase lags
    around the direction sequence, all over the settled window.

    The phase sums come first, one channel at a time: the basis
    exp(-2 pi i f t) over the window is exponentiated in place, multiplied
    in place by the channel's mean-removed window (the products of window *
    basis in commuted order, so the same bits) and summed, and freed before
    the next basis or any spectrum exists. Then the pooled pairs are
    transformed one at a time, in AXES order: each channel's dominant bin is
    read from its own spectrum, and the second spectrum is added into the
    first. The rate filter is linear, so that sum is the pooled pair's
    spectrum; only its argmax bin is reported.
    """
    m = ev.grid.n - ev.window_index
    span_s = m * ev.grid.dt
    period = result.trajectory.period_s

    def centred(d: Direction) -> np.ndarray:  # a curve's window is its last m values
        w = ev.measured[d].values[-m:]
        return w - np.mean(w)

    if period:
        z = {}
        for d in DIRECTION_ORDER:
            basis = -2j * math.pi * (1.0 / period) * RateGrid(ev.window_start_s, ev.grid.dt, m).axis()
            np.exp(basis, out=basis)
            basis *= centred(d)
            z[d] = np.sum(basis)
            del basis
    dom, pooled = {}, {}
    for first, second in AXES:
        spectrum = np.fft.rfft(centred(first))
        dom[first.value] = _maybe(dominant_frequency, spectrum, span_s)
        other = np.fft.rfft(centred(second))
        dom[second.value] = _maybe(dominant_frequency, other, span_s)
        spectrum += other
        pooled[first] = _maybe(dominant_frequency, spectrum, span_s)
        del spectrum, other
    lr_hz, ud_hz = pooled[Direction.LEFT], pooled[Direction.UP]
    ratio = lr_hz / ud_hz if lr_hz and ud_hz else None

    lags = None
    if period:
        seq = (Direction.RIGHT, Direction.DOWN, Direction.LEFT, Direction.UP)
        lags = {
            f"{a.value}_to_{b.value}": _maybe(phase_lag_deg, z[a], z[b])
            for a, b in zip(seq, seq[1:])
        }
    return {
        "bin_hz": 1.0 / span_s,
        "dominant_hz": dom,
        "pooled": {"lr_hz": lr_hz, "ud_hz": ud_hz, "lr_over_ud": ratio},
        "phase_lags_deg": lags,
    }


@dataclass(frozen=True)
class SweepVariant:
    """A named output layer: one rank per entry of output_taus_s."""

    label: str
    output_taus_s: tuple[float, ...]


def default_sweep_variants() -> tuple[SweepVariant, ...]:
    spread = tuple(float(t) for t in np.logspace(math.log10(0.005), math.log10(0.5), 5))
    return (
        SweepVariant("n1", (0.5,)),
        SweepVariant("n5", spread),
    )


@dataclass(frozen=True)
class SweepRow:
    freq_hz: float
    variant: str
    s_acc: float | None
    status: str  # "ok" or "error: ..."


def sweep_config(base: RunConfig, freq_hz: float, variant: SweepVariant) -> RunConfig:
    traj = dict(base.trajectory)
    if traj.get("kind") not in ("circle", "eight"):
        raise DomainError("frequency sweep needs a periodic trajectory")
    traj["freq_hz"] = freq_hz
    return replace(
        base,
        trajectory=traj,
        t_end_s=None,
        n_per_dir=len(variant.output_taus_s),
        output_taus_s=variant.output_taus_s,
    )


def _sweep_worker(args: tuple[RunConfig, float, str]) -> SweepRow:
    cfg, freq, label = args
    try:
        ev = evaluate(run_experiment(cfg), whole_grid=False)
        return SweepRow(freq, label, ev.score.clamped, "ok")
    except MotionSnnError as exc:
        return SweepRow(freq, label, None, f"error: {exc}")


def _run_share(fd: int, tasks: Iterable[tuple[RunConfig, float, str]]) -> None:
    """Score each task and pickle the rows, in order, into the file open at `fd`."""
    with open(fd, "wb", closefd=False) as fh:
        pickle.dump([_sweep_worker(t) for t in tasks], fh)


def frequency_sweep(
    base: RunConfig,
    freqs: tuple[float, ...],
    variants: tuple[SweepVariant, ...] | None = None,
    jobs: int = 1,
    precomputed: dict[tuple[float, str], SweepRow] | None = None,
) -> list[SweepRow]:
    """One scored row per requested (variant, frequency) point, sorted by
    variant order and then frequency. A repeated frequency or variant label
    is one point (the first variant with a label wins); a point found in
    `precomputed` is reused instead of run."""
    if not (isinstance(jobs, numbers.Integral) and jobs >= 1):
        raise ConfigError(f"jobs must be a whole number >= 1, got {jobs!r}")
    by_label: dict[str, SweepVariant] = {}
    for v in variants if variants is not None else default_sweep_variants():
        by_label.setdefault(v.label, v)
    points = [(f, v) for v in by_label.values() for f in sorted(set(freqs))]
    done = dict(precomputed or {})
    tasks = [(sweep_config(base, f, v), f, v.label) for f, v in points if (f, v.label) not in done]
    # child k gets every n-th task from k, which spreads each variant's slow low frequencies
    n = min(jobs, len(tasks))
    shares = [tasks[k::n] for k in range(n)]
    try:
        with Parts(_run_share, shares) as parts:
            for share, part in zip(shares, parts.join()):
                # keyed by each task's own point, which a NaN frequency only equals by identity
                done.update(zip([(f, label) for _, f, label in share], pickle.load(part)))
    except OSError as exc:
        raise ConfigError(f"cannot run a sweep worker: {exc.strerror or exc}") from exc
    return [done[(f, v.label)] for f, v in points]


def normalize_rows(rows: list[SweepRow]) -> dict[tuple[float, str], float]:
    """Per-variant s_acc / max(s_acc); empty when a variant never scored > 0."""
    best: dict[str, float] = {}
    for r in rows:
        if r.s_acc is not None:
            best[r.variant] = max(best.get(r.variant, 0.0), r.s_acc)
    out: dict[tuple[float, str], float] = {}
    for r in rows:
        if r.s_acc is not None and best.get(r.variant, 0.0) > 0.0:
            out[(r.freq_hz, r.variant)] = r.s_acc / best[r.variant]
    return out
