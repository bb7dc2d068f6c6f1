"""End-to-end experiment orchestration.

Glues the builders, the simulator and the rate analysis into one call, and
provides the frequency sweep used to map the responsive band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    AccuracyScore,
    FilterParams,
    RateGrid,
    accuracy,
    calibrate_f_max,
    dominant_frequency,
    firing_rate,
    ideal_rates,
    phase_lag_deg,
    pool_group,
    transient_s,
)
from .config import RunConfig, build_layout, build_network, build_stimulus, build_trajectory
from .config import resolve_t_end
from .core import (
    DIRECTION_ORDER,
    MAX_SAMPLES,
    ConfigError,
    Direction,
    DomainError,
    MotionSnnError,
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
    # refuse a rate grid `evaluate` could not hold before doing any work
    _grid_samples(resolve_t_end(cfg), cfg.grid_dt_s)
    layout = build_layout(cfg)
    net = build_network(cfg, layout)
    traj = build_trajectory(cfg)
    stream = build_stimulus(cfg, traj)
    sim = simulate(net, stream, traj.t_end)
    return ExperimentResult(cfg, net, traj, stream, sim)


@dataclass(frozen=True)
class RunEvaluation:
    """Full-grid rate curves plus the score taken over the settled window,
    which is samples window_index onwards of the grid."""

    grid: RateGrid
    window_index: int
    f_max_hz: float
    measured: dict[Direction, RateSeries]
    ideal: dict[Direction, RateSeries]
    score: AccuracyScore
    pooled_counts: dict[Direction, int]

    @property
    def window_start_s(self) -> float:
        return float(self.grid.times[self.window_index])


def evaluate(result: ExperimentResult) -> RunEvaluation:
    cfg, net, traj = result.config, result.network, result.trajectory
    fp = FilterParams.from_output_taus(net.output_taus_s)
    grid = RateGrid(0.0, cfg.grid_dt_s, _grid_samples(traj.t_end, cfg.grid_dt_s))

    trains = {d: pool_group(result.sim.record, d, net.n_per_dir) for d in DIRECTION_ORDER}
    measured = {d: firing_rate(trains[d], fp, grid) for d in DIRECTION_ORDER}

    t_w = transient_s(fp, traj.period_s)
    if t_w >= traj.t_end:
        raise DomainError(
            f"run too short to score: needs > {t_w:.3f}s, has {traj.t_end:.3f}s"
        )
    k0 = int(np.searchsorted(grid.times, t_w, side="left"))
    if k0 >= grid.n:
        raise DomainError("empty analysis window")
    t0 = float(grid.times[k0])

    def window(series: dict[Direction, RateSeries]) -> dict[Direction, RateSeries]:
        return {d: RateSeries(t0, grid.dt, series[d].values[k0:]) for d in DIRECTION_ORDER}

    measured_w = window(measured)
    f_max = calibrate_f_max(measured_w)
    ideal_full = ideal_rates(traj, f_max, grid)
    score = accuracy(window(ideal_full), measured_w)
    counts = {d: len(trains[d]) for d in DIRECTION_ORDER}
    return RunEvaluation(
        grid=grid,
        window_index=k0,
        f_max_hz=f_max,
        measured=measured,
        ideal=ideal_full,
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

    The phase sums come first: the basis exp(-2 pi i f t) over the window is
    exponentiated in place, each channel's mean-removed window is summed
    against it, and the basis is freed before any spectrum exists. Then the
    pooled pairs are transformed one at a time, UP and DOWN before LEFT and
    RIGHT: each channel's dominant bin is read from its own spectrum, and the
    second spectrum is added into the first. The rate filter is linear, so
    that sum is the pooled pair's spectrum; only its argmax bin is reported.
    """
    m = ev.grid.n - ev.window_index
    span_s = m * ev.grid.dt
    period = result.trajectory.period_s

    def centred(d: Direction) -> np.ndarray:
        w = ev.measured[d].values[ev.window_index :]
        return w - np.mean(w)

    if period:
        basis = -2j * math.pi * (1.0 / period) * RateGrid(ev.window_start_s, ev.grid.dt, m).times
        np.exp(basis, out=basis)
        z = {d: np.sum(centred(d) * basis) for d in DIRECTION_ORDER}
        del basis
    dom, pooled = {}, {}
    for first, second in ((Direction.UP, Direction.DOWN), (Direction.LEFT, Direction.RIGHT)):
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
    label: str
    n_per_dir: int
    output_taus_s: tuple[float, ...]


def default_sweep_variants() -> tuple[SweepVariant, ...]:
    spread = tuple(float(t) for t in np.logspace(math.log10(0.005), math.log10(0.5), 5))
    return (
        SweepVariant("n1", 1, (0.5,)),
        SweepVariant("n5", 5, spread),
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
        n_per_dir=variant.n_per_dir,
        output_taus_s=variant.output_taus_s,
    )


def _sweep_worker(args: tuple[RunConfig, float, str]) -> SweepRow:
    cfg, freq, label = args
    try:
        ev = evaluate(run_experiment(cfg))
        return SweepRow(freq, label, ev.score.clamped, "ok")
    except MotionSnnError as exc:
        return SweepRow(freq, label, None, f"error: {exc}")


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
    by_label: dict[str, SweepVariant] = {}
    for v in variants if variants is not None else default_sweep_variants():
        by_label.setdefault(v.label, v)
    points = [(f, v) for v in by_label.values() for f in sorted(set(freqs))]
    done = precomputed or {}
    tasks = [(sweep_config(base, f, v), f, v.label) for f, v in points if (f, v.label) not in done]
    if jobs > 1 and len(tasks) > 1:
        # imported only for a pooled sweep, to keep it out of every start-up
        from concurrent.futures import ProcessPoolExecutor

        # under fork every worker starts up front, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    else:
        rows = [_sweep_worker(t) for t in tasks]
    fresh = iter(rows)
    return [done[(f, v.label)] if (f, v.label) in done else next(fresh) for f, v in points]


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
