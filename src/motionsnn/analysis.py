"""Rate estimation and scoring of simulated runs.

Spike trains are turned into smooth rates with a causal difference-of-
exponentials kernel of unit area; measured rates are compared against the
velocity-derived ideal response channel by channel.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import (
    AXES,
    ConfigError,
    DIRECTION_ORDER,
    Direction,
    DomainError,
    RateSeries,
    SpikeRecord,
    TIME_QUANTUM,
)
from .stimulus import Trajectory


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
    """n samples from t0 in steps of dt: sample k is at `time(k)`, t0 + dt * k.
    The grid holds no time axis. `at_or_after` finds samples by that formula,
    and `axis` builds the times of a run of samples for a caller that needs
    them as an array."""

    t0: float
    dt: float
    n: int

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError("grid dt must be positive")
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise ConfigError(f"grid needs a whole number of samples >= 1, got {self.n!r}")

    def time(self, k):
        """The time of sample k, or of each sample index in an int array k."""
        return self.t0 + self.dt * k

    def at_or_after(self, t):
        """The first sample at or after each time in t (n where there is
        none): np.searchsorted(axis, t, side="left") on the whole axis,
        found by bisection on `time`, which never decreases in k."""
        t = np.asarray(t, dtype=np.float64)
        lo = np.zeros(t.shape, dtype=np.int64)
        hi = np.full(t.shape, self.n, dtype=np.int64)
        while (live := lo < hi).any():
            mid = (lo + hi) // 2
            below = self.time(mid) < t
            lo = np.where(live & below, mid + 1, lo)
            hi = np.where(live & ~below, mid, hi)
        return lo

    def axis(self, k0: int = 0, k1: int | None = None) -> np.ndarray:
        """A new array of the times of samples k0 .. k1 - 1 (k1 defaults to
        n), made in place: the same bits as `time` gives."""
        times = np.arange(k0, self.n if k1 is None else k1, dtype=np.float64)
        times *= self.dt
        times += self.t0
        return times


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


DECAY_SCRATCH = 8192  # samples in decay_accumulate's scratch for those before k0


def decay_accumulate(n: int, bins: np.ndarray, c: np.ndarray, r: float, k0: int = 0) -> np.ndarray:
    """y[k] = x[k] + r * y[k-1] over n samples, y[-1] = 0, where x is zero
    except x[bins] = c (bins non-empty and strictly increasing); returns
    y[k0:], samples k0 .. n - 1.

    Between two input bins the recursion is repeated multiplication by r, so
    each segment is one cumulative product seeded with the recursion's own
    value at its first bin; the result matches the sample-by-sample loop
    (scipy.signal.lfilter([1], [1, -r], x)) bit for bit. The samples of a
    segment before k0 are multiplied out in chunks of one scratch array of
    DECAY_SCRATCH samples, made only if some bin lies before k0: each chunk
    starts with r times the previous chunk's last value, the multiplication
    the cumulative product makes at that step, so y[k0:] has the bits of
    the whole recursion sliced.
    """
    y = np.full(n - k0, r)
    y[: max(bins[0] - k0, 0)] = 0.0
    scratch = np.empty(min(DECAY_SCRATCH, k0 - bins[0])) if bins[0] < k0 else None
    ends = [*bins[1:].tolist(), n]
    prev = 0.0
    for b, e, cb in zip(bins.tolist(), ends, c.tolist()):
        first = cb + r * prev
        while b < min(e, k0):
            chunk = scratch[: min(e, k0, b + len(scratch)) - b]
            chunk.fill(r)
            chunk[0] = first
            np.multiply.accumulate(chunk, out=chunk)
            b += len(chunk)
            prev = chunk[-1]
            first = r * prev
        if b < e:
            seg = y[b - k0 : e - k0]
            seg[0] = first
            np.multiply.accumulate(seg, out=seg)
            prev = seg[-1]
    return y


def firing_rate(train: Sequence[float], fp: FilterParams, grid: RateGrid, k0: int = 0) -> RateSeries:
    """Causal rate estimate: the kernel summed over all past spikes, evaluated
    in closed form at samples k0 .. n - 1 of the grid, by default all. A
    sample's value does not depend on k0, so the series is the whole grid's
    sliced, bit for bit."""
    spikes = np.asarray(sorted(train), dtype=np.float64)
    bins = grid.at_or_after(spikes)
    inside = bins < grid.n  # a spike after the last sample adds nothing
    spikes, bins = spikes[inside], bins[inside]
    if len(spikes) == 0:
        return RateSeries(grid.time(k0), grid.dt, np.zeros(grid.n - k0))
    spike_bins, slot = np.unique(bins, return_inverse=True)
    # Per-step recursion A_k = A_{k-1} * exp(-dt/tau) + (new spikes decayed to t_k)
    acc = []
    for tau in (fp.tau1, fp.tau2):
        c = np.zeros(len(spike_bins))
        np.add.at(c, slot, np.exp(-(grid.time(bins) - spikes) / tau))
        acc.append(decay_accumulate(grid.n, spike_bins, c, math.exp(-grid.dt / tau), k0))
    # Both sums are >= 0, so acc1 - acc2 in acc1's buffer is bit for bit the
    # same as 0 + acc1 + (-1 * acc2).
    values = np.subtract(acc[0], acc[1], out=acc[0])
    values *= fp.lam
    np.maximum(values, 0.0, out=values)  # clip float dust below zero
    return RateSeries(grid.time(k0), grid.dt, values)


def _ideal_axes(traj: Trajectory, f_max_hz: float, grid: RateGrid, k0: int, k1: int | None = None) -> Iterator:
    """The ideal detector one axis of motion at a time, in AXES order (y, then
    x), as (u, f_max / 2, the axis's two channels with their signs): u is the
    velocity along the axis at samples k0 .. k1 - 1 over its run maximum.

    Each u is made in a new buffer of sample times, only once the caller asks
    for its axis, and is the caller's to keep or overwrite. A motionless axis
    has a run maximum of 0 and a velocity of exactly +-0.0, which is left as
    it is: half * |1 +- 0| is half, bit for bit."""
    if not (f_max_hz > 0.0 and math.isfinite(f_max_hz)):
        raise ConfigError("f_max_hz must be positive")
    bound = traj.speed_bound()
    for pair in AXES:
        # i: the axis the pair's steps move along; each step's sign on it is its channel's
        i = 0 if pair[0].step[0] else 1
        u = traj.velocity("xy"[i], grid.axis(k0, k1))
        if bound[i] != 0.0:
            u /= bound[i]
        yield u, f_max_hz / 2.0, tuple((d, float(d.step[i])) for d in pair)


def _write_curve(u: np.ndarray, sign: float, half: float, out: np.ndarray) -> np.ndarray:
    """half * |sign * u + 1| into `out`, with u from `_ideal_axes`. For sign
    -1 that is 1 - u: (-v) / v_max is -(v / v_max) bit for bit."""
    if sign > 0.0:
        np.add(u, 1.0, out=out)
    else:
        np.subtract(1.0, u, out=out)
    np.abs(out, out=out)
    out *= half
    return out


def ideal_rates(
    traj: Trajectory, f_max_hz: float, grid: RateGrid, k0: int = 0, k1: int | None = None
) -> dict[Direction, RateSeries]:
    """Velocity-proportional target rate per channel at samples k0 .. k1 - 1
    of `grid`, by default all: f = (f_max / 2) * |p_dot / p_dot_max + 1|;
    motionless axes hold f_max / 2. A sample's value does not depend on k0
    or k1, so the curves are the whole grid's sliced, bit for bit.

    One axis at a time, from `_ideal_axes`: the axis's first curve gets a
    new array and its second is made in the velocity's buffer. The four
    curves returned are the only such arrays held at the end."""
    curves: dict[Direction, np.ndarray] = {}
    for u, half, ((first, s1), (second, s2)) in _ideal_axes(traj, f_max_hz, grid, k0, k1):
        curves[first] = _write_curve(u, s1, half, np.empty_like(u))
        curves[second] = _write_curve(u, s2, half, u)
    return {d: RateSeries(grid.time(k0), grid.dt, curves[d]) for d in DIRECTION_ORDER}


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


def _channel_score(
    d: Direction, denom: float, curve: np.ndarray, measured: np.ndarray, out: np.ndarray
) -> float:
    """1 - |curve - measured|^2 / denom, with denom |curve|^2, found in `out`,
    which may be `curve` itself."""
    if denom <= 0.0:
        raise DomainError(f"accuracy undefined: zero ideal signal on {d.value}")
    np.subtract(curve, measured, out=out)
    np.square(out, out=out)
    return 1.0 - float(np.sum(out)) / denom


def _mean_score(per: dict[Direction, float]) -> AccuracyScore:
    raw = sum(per[d] for d in DIRECTION_ORDER) / 4.0
    return AccuracyScore(raw=raw, clamped=max(raw, 0.0), per_channel=per)


def accuracy(
    ideal: Mapping[Direction, RateSeries], measured: Mapping[Direction, RateSeries]
) -> AccuracyScore:
    """Mean over channels of 1 - |ideal - measured|^2 / |ideal|^2 over the
    samples given, each channel found in one scratch array."""
    for d in DIRECTION_ORDER:
        if not ideal[d].same_grid(measured[d]):
            raise ConfigError(f"grids differ on channel {d.value}")
    per: dict[Direction, float] = {}
    for d in DIRECTION_ORDER:
        curve = ideal[d].values
        scratch = np.square(curve)
        per[d] = _channel_score(d, float(np.sum(scratch)), curve, measured[d].values, scratch)
        del scratch  # before the next channel's is made
    return _mean_score(per)


def window_accuracy(
    traj: Trajectory, f_max_hz: float, grid: RateGrid, k0: int, measured: Mapping[Direction, RateSeries]
) -> AccuracyScore:
    """`accuracy` of the ideal curves at samples k0 .. n - 1 of `grid` against
    `measured` on the same samples, bit for bit, one axis at a time.

    It holds two arrays of the window's length: the axis's velocity from
    `_ideal_axes` and one more buffer. Each of the axis's channels is written
    there as its ideal curve, squared in place for |ideal|^2, written again
    and scored."""
    per: dict[Direction, float] = {}
    for u, half, channels in _ideal_axes(traj, f_max_hz, grid, k0):
        buf = np.empty_like(u)
        for d, sign in channels:
            np.square(_write_curve(u, sign, half, buf), out=buf)
            denom = float(np.sum(buf))
            _write_curve(u, sign, half, buf)
            per[d] = _channel_score(d, denom, buf, measured[d].values, buf)
        del u, buf  # before the next axis is made
    return _mean_score(per)


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
