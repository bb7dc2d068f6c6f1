"""Rate estimation and scoring of simulated runs.

Spike trains are turned into smooth rates with a causal difference-of-
exponentials kernel of unit area; measured rates are compared against the
velocity-derived ideal response channel by channel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    ConfigError,
    DIRECTION_ORDER,
    Direction,
    DomainError,
    RateSeries,
    SpikeRecord,
    TIME_QUANTUM,
)
from .stimulus import Trajectory, channel_velocities


@dataclass(frozen=True)
class FilterParams:
    """Kernel h(t) = lam * (exp(-t/tau1) - exp(-t/tau2)) for t >= 0.

    tau2 is pinned at twice tau1; lam = 1/(tau1 - tau2) is negative, which
    flips the (negative) bracket so h stays non-negative with unit area.
    """

    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        if not (self.tau1 > 0.0 and math.isfinite(self.tau1)):
            raise ConfigError("tau1 must be positive and finite")
        if self.tau2 != 2.0 * self.tau1:
            raise ConfigError("tau2 must equal 2 * tau1")

    @classmethod
    def from_output_taus(cls, taus: Sequence[float]) -> "FilterParams":
        if not taus:
            raise ConfigError("need at least one output time constant")
        tau1 = float(np.mean(np.asarray(taus, dtype=np.float64)))
        return cls(tau1, 2.0 * tau1)

    @property
    def lam(self) -> float:
        return 1.0 / (self.tau1 - self.tau2)

    def kernel(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=np.float64)
        h = self.lam * (np.exp(-t / self.tau1) - np.exp(-t / self.tau2))
        return np.where(t >= 0.0, h, 0.0)


@dataclass(frozen=True)
class RateGrid:
    """n samples from t0 in steps of dt; `times` is the time axis, built once
    with the grid and shared by every series and export on it."""

    t0: float
    dt: float
    n: int
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError("grid dt must be positive")
        if self.n < 1:
            raise ConfigError("grid needs at least one sample")
        times = self.t0 + self.dt * np.arange(self.n)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)


def pool_group(record: SpikeRecord, direction: Direction, n_per_dir: int) -> tuple[float, ...]:
    """The sorted spike times of one direction's output group, in seconds; a
    time two ranks share appears twice.

    Relies on the id convention: outputs are the last 4 * n_per_dir neurons,
    grouped by direction in DIRECTION_ORDER, ranks contiguous.
    """
    if n_per_dir < 1 or record.n_neurons < 4 * n_per_dir:
        raise ConfigError("record too small for the requested output group")
    base = record.n_neurons - 4 * n_per_dir
    start = base + DIRECTION_ORDER.index(direction) * n_per_dir
    group = (record.neuron >= start) & (record.neuron < start + n_per_dir)
    return tuple((record.t[group] * TIME_QUANTUM).tolist())


def decay_accumulate(n: int, bins: np.ndarray, c: np.ndarray, r: float) -> np.ndarray:
    """y[k] = x[k] + r * y[k-1] over n samples, y[-1] = 0, where x is zero
    except x[bins] = c (bins non-empty and strictly increasing).

    Between two input bins the recursion is repeated multiplication by r, so
    each segment is one cumulative product seeded with the recursion's own
    value at its first bin; the result matches the sample-by-sample loop
    (scipy.signal.lfilter([1], [1, -r], x)) bit for bit.
    """
    y = np.full(n, r)
    y[: bins[0]] = 0.0
    ends = [*bins[1:].tolist(), n]
    prev = 0.0
    for b, e, cb in zip(bins.tolist(), ends, c.tolist()):
        y[b] = cb + r * prev
        np.multiply.accumulate(y[b:e], out=y[b:e])
        prev = y[e - 1]
    return y


def firing_rate(train: Sequence[float], fp: FilterParams, grid: RateGrid) -> RateSeries:
    """Causal rate estimate: the kernel summed over all past spikes, evaluated
    in closed form at every grid point."""
    times = grid.times
    spikes = np.asarray(sorted(train), dtype=np.float64)
    spikes = spikes[spikes <= times[-1]]
    if len(spikes) == 0:
        return RateSeries(grid.t0, grid.dt, np.zeros(grid.n))
    bins = np.searchsorted(times, spikes, side="left")
    spike_bins, slot = np.unique(bins, return_inverse=True)
    # Per-step recursion A_k = A_{k-1} * exp(-dt/tau) + (new spikes decayed to t_k)
    acc = []
    for tau in (fp.tau1, fp.tau2):
        c = np.zeros(len(spike_bins))
        np.add.at(c, slot, np.exp(-(times[bins] - spikes) / tau))
        acc.append(decay_accumulate(grid.n, spike_bins, c, math.exp(-grid.dt / tau)))
    # Both sums are >= 0, so acc1 - acc2 in acc1's buffer is bit for bit the
    # same as 0 + acc1 + (-1 * acc2).
    values = np.subtract(acc[0], acc[1], out=acc[0])
    values *= fp.lam
    np.maximum(values, 0.0, out=values)  # clip float dust below zero
    return RateSeries(grid.t0, grid.dt, values)


def _ideal_curves(
    traj: Trajectory, f_max_hz: float, times: np.ndarray
) -> Iterator[tuple[Direction, np.ndarray]]:
    """Each channel's ideal rate at `times`, in DIRECTION_ORDER, computed in
    the buffer of its velocity projection and yielded before the next exists."""
    if not (f_max_hz > 0.0 and math.isfinite(f_max_hz)):
        raise ConfigError("f_max_hz must be positive")
    for d, values, p_dot_max in channel_velocities(traj, times):
        if p_dot_max == 0.0:
            values.fill(f_max_hz / 2.0)
        else:
            np.divide(values, p_dot_max, out=values)
            values += 1.0
            np.abs(values, out=values)
            values *= f_max_hz / 2.0
        yield d, values


def ideal_rates(
    traj: Trajectory, f_max_hz: float, grid: RateGrid
) -> dict[Direction, RateSeries]:
    """Velocity-proportional target rate per channel:
    f = (f_max / 2) * |p_dot / p_dot_max + 1|; motionless axes hold f_max / 2.
    The four curves returned are the only grid-sized arrays held at the end."""
    return {d: RateSeries(grid.t0, grid.dt, v) for d, v in _ideal_curves(traj, f_max_hz, grid.times)}


def calibrate_f_max(measured: Mapping[Direction, RateSeries]) -> float:
    """Peak measured rate across all channels; the ideal curves are scaled to it."""
    peak = max(float(np.max(series.values)) for series in measured.values())
    if peak <= 0.0:
        raise DomainError("cannot calibrate f_max: no measured activity")
    return peak


@dataclass(frozen=True)
class AccuracyScore:
    raw: float
    clamped: float
    per_channel: dict[Direction, float]


def _score(
    ideal: Iterable[tuple[Direction, np.ndarray]], measured: Mapping[Direction, RateSeries]
) -> AccuracyScore:
    """Mean over the channels `ideal` yields, summed in DIRECTION_ORDER, of
    1 - |ideal - measured|^2 / |ideal|^2, each found in one scratch array."""
    per: dict[Direction, float] = {}
    for d, curve in ideal:
        scratch = np.square(curve)
        denom = float(np.sum(scratch))
        if denom <= 0.0:
            raise DomainError(f"accuracy undefined: zero ideal signal on {d.value}")
        np.subtract(curve, measured[d].values, out=scratch)
        np.square(scratch, out=scratch)
        per[d] = 1.0 - float(np.sum(scratch)) / denom
        del scratch  # before the next curve is made
    raw = sum(per[d] for d in DIRECTION_ORDER) / 4.0
    return AccuracyScore(raw=raw, clamped=max(raw, 0.0), per_channel=per)


def accuracy(
    ideal: Mapping[Direction, RateSeries], measured: Mapping[Direction, RateSeries]
) -> AccuracyScore:
    """Mean over channels of 1 - |ideal - measured|^2 / |ideal|^2 over the samples given."""
    for d in DIRECTION_ORDER:
        if not ideal[d].same_grid(measured[d]):
            raise ConfigError(f"grids differ on channel {d.value}")
    return _score(((d, ideal[d].values) for d in DIRECTION_ORDER), measured)


def window_accuracy(
    traj: Trajectory, f_max_hz: float, times: np.ndarray, measured: Mapping[Direction, RateSeries]
) -> AccuracyScore:
    """`accuracy` of the ideal curves at `times` against `measured` on the same
    samples, bit for bit, with one channel's ideal curve held at a time."""
    return _score(_ideal_curves(traj, f_max_hz, times), measured)


def transient_s(fp: FilterParams, period_s: float | None) -> float:
    """Length of the start-up stretch excluded from scoring."""
    return max(2.0 * fp.tau2, period_s or 0.0)


def dominant_frequency(spectrum: np.ndarray, span_s: float) -> float:
    """Frequency (Hz) of the largest non-DC magnitude in the rfft `spectrum`
    of a mean-removed window `span_s` seconds long (samples times dt)."""
    mags = np.abs(spectrum)
    if len(mags) < 2:
        raise DomainError("series too short for spectral analysis")
    k = int(np.argmax(mags[1:])) + 1
    if mags[k] <= 0.0:
        raise DomainError("flat spectrum")
    return k / span_s


def phase_lag_deg(za: complex, zb: complex) -> float:
    """Phase of zb minus phase of za, in (-180, 180] degrees, where each is a
    mean-removed window summed against one basis exp(-2 pi i f t).

    A window delayed relative to the one behind `za` comes out negative.
    """
    if abs(za) == 0.0 or abs(zb) == 0.0:
        raise DomainError("no component at the phase frequency")
    lag = math.degrees(np.angle(zb) - np.angle(za))
    wrapped = (lag + 180.0) % 360.0 - 180.0
    return 180.0 if wrapped == -180.0 else wrapped
