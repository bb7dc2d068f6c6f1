"""Moving-object stimulus: parametric trajectories and their event encoding.

The object is a 3x3 pixel block centered on the rounded (half-up) continuous
position. A vision-sensor-style encoder emits one event per pixel that becomes
covered when the rounded position changes ("onset" mode) or re-emits the whole
footprint at every change ("footprint" mode). The y axis points upward.
Event times are int64 counts of 1 ns ticks: each change is stamped with the
first tick at which the rounded position differs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .core import MAX_SAMPLES, TIME_QUANTUM, ConfigError, Direction, DomainError, EventStream


def round_half_up(v: np.ndarray | float) -> np.ndarray | float:
    return np.floor(v + 0.5)


class EmitMode(Enum):
    ONSET = "onset"
    FOOTPRINT = "footprint"


@dataclass(frozen=True)
class Trajectory:
    """Continuous object path on a bounded field, defined for t in [0, t_end]."""

    field_width: int
    field_height: int
    t_end: float

    def __post_init__(self) -> None:
        if self.t_end < 0.0 or not math.isfinite(self.t_end):
            raise ConfigError("t_end must be finite and >= 0")
        x_lo, x_hi, y_lo, y_hi = self.extent()
        # The 3x3 footprint around the rounded center must stay in-field.
        if not (x_lo >= 0.5 and x_hi < self.field_width - 1.5):
            raise DomainError(
                f"x range [{x_lo}, {x_hi}] leaves the {self.field_width}x"
                f"{self.field_height} field"
            )
        if not (y_lo >= 0.5 and y_hi < self.field_height - 1.5):
            raise DomainError(
                f"y range [{y_lo}, {y_hi}] leaves the {self.field_width}x"
                f"{self.field_height} field"
            )

    # Subclasses implement vectorized kinematics; scalar queries reuse them so
    # every caller sees bit-identical values.
    def positions(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def extent(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) over the whole run."""
        raise NotImplementedError

    def speed_bound(self) -> tuple[float, float]:
        """Upper bounds on |dx/dt| and |dy/dt| (px/s)."""
        raise NotImplementedError

    @property
    def period_s(self) -> float | None:
        return None

    def position(self, t: float) -> tuple[float, float]:
        xs, ys = self.positions(np.asarray([t], dtype=np.float64))
        return float(xs[0]), float(ys[0])


@dataclass(frozen=True)
class CircleTrajectory(Trajectory):
    """Counterclockwise circle starting at the leftmost point moving upward:
    x = cx - r cos(2 pi f t), y = cy + r sin(2 pi f t)."""

    cx: float = 4.5
    cy: float = 5.0
    radius: float = 3.0
    freq_hz: float = 1.0

    def __post_init__(self) -> None:
        if not (self.freq_hz > 0.0 and math.isfinite(self.freq_hz)):
            raise ConfigError("freq_hz must be positive")
        if not (self.radius > 0.0):
            raise ConfigError("radius must be positive")
        super().__post_init__()

    def positions(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = 2.0 * math.pi * self.freq_hz
        return self.cx - self.radius * np.cos(w * ts), self.cy + self.radius * np.sin(w * ts)

    def velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = 2.0 * math.pi * self.freq_hz
        return self.radius * w * np.sin(w * ts), self.radius * w * np.cos(w * ts)

    def extent(self) -> tuple[float, float, float, float]:
        return (
            self.cx - self.radius,
            self.cx + self.radius,
            self.cy - self.radius,
            self.cy + self.radius,
        )

    def speed_bound(self) -> tuple[float, float]:
        v = 2.0 * math.pi * self.freq_hz * self.radius
        return v, v

    @property
    def period_s(self) -> float:
        return 1.0 / self.freq_hz


@dataclass(frozen=True)
class EightTrajectory(Trajectory):
    """Figure-eight: two horizontal oscillations per vertical one.
    x = cx + ax sin(4 pi f t), y = cy + ay sin(2 pi f t)."""

    cx: float = 4.5
    cy: float = 5.0
    ax: float = 3.0
    ay: float = 4.0
    freq_hz: float = 1.0

    def __post_init__(self) -> None:
        if not (self.freq_hz > 0.0 and math.isfinite(self.freq_hz)):
            raise ConfigError("freq_hz must be positive")
        if not (self.ax > 0.0 and self.ay > 0.0):
            raise ConfigError("amplitudes must be positive")
        super().__post_init__()

    def positions(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = 2.0 * math.pi * self.freq_hz
        return self.cx + self.ax * np.sin(2.0 * w * ts), self.cy + self.ay * np.sin(w * ts)

    def velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = 2.0 * math.pi * self.freq_hz
        return 2.0 * w * self.ax * np.cos(2.0 * w * ts), w * self.ay * np.cos(w * ts)

    def extent(self) -> tuple[float, float, float, float]:
        return self.cx - self.ax, self.cx + self.ax, self.cy - self.ay, self.cy + self.ay

    def speed_bound(self) -> tuple[float, float]:
        w = 2.0 * math.pi * self.freq_hz
        return 2.0 * w * self.ax, w * self.ay

    @property
    def period_s(self) -> float:
        return 1.0 / self.freq_hz


@dataclass(frozen=True)
class LinearTrajectory(Trajectory):
    """Constant-velocity segment from (x0, y0)."""

    x0: float = 1.5
    y0: float = 5.0
    vx: float = 10.0
    vy: float = 0.0

    def positions(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.x0 + self.vx * ts, self.y0 + self.vy * ts

    def velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ones = np.ones_like(ts)
        return self.vx * ones, self.vy * ones

    def extent(self) -> tuple[float, float, float, float]:
        x1, y1 = self.x0 + self.vx * self.t_end, self.y0 + self.vy * self.t_end
        return min(self.x0, x1), max(self.x0, x1), min(self.y0, y1), max(self.y0, y1)

    def speed_bound(self) -> tuple[float, float]:
        return abs(self.vx), abs(self.vy)


@dataclass(frozen=True)
class WaypointTrajectory(Trajectory):
    """Piecewise-linear path through timed waypoints (t, x, y), t ascending from 0."""

    points: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ConfigError("waypoints must contain at least one point")
        if self.points[0][0] != 0.0:
            raise ConfigError("first waypoint must be at t = 0")
        for (ta, _, _), (tb, _, _) in zip(self.points, self.points[1:]):
            if tb <= ta:
                raise ConfigError("waypoint times must be strictly increasing")
        object.__setattr__(self, "t_end", self.points[-1][0])
        super().__post_init__()

    def positions(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        knots = np.asarray([p[0] for p in self.points])
        xs = np.asarray([p[1] for p in self.points])
        ys = np.asarray([p[2] for p in self.points])
        return np.interp(ts, knots, xs), np.interp(ts, knots, ys)

    def velocities(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Right-sided derivative; constant within each segment.
        knots = np.asarray([p[0] for p in self.points])
        seg = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, max(len(knots) - 2, 0))
        vx = np.zeros_like(ts)
        vy = np.zeros_like(ts)
        if len(self.points) > 1:
            dt = np.diff(knots)
            dx = np.diff(np.asarray([p[1] for p in self.points])) / dt
            dy = np.diff(np.asarray([p[2] for p in self.points])) / dt
            vx, vy = dx[seg], dy[seg]
        return vx, vy

    def extent(self) -> tuple[float, float, float, float]:
        xs = [p[1] for p in self.points]
        ys = [p[2] for p in self.points]
        return min(xs), max(xs), min(ys), max(ys)

    def speed_bound(self) -> tuple[float, float]:
        if len(self.points) < 2:
            return 0.0, 0.0
        vx = vy = 0.0
        for (ta, xa, ya), (tb, xb, yb) in zip(self.points, self.points[1:]):
            vx = max(vx, abs((xb - xa) / (tb - ta)))
            vy = max(vy, abs((yb - ya) / (tb - ta)))
        return vx, vy


def channel_velocities(
    traj: Trajectory, ts: np.ndarray
) -> Iterator[tuple[Direction, np.ndarray, float]]:
    """Object velocity at times ts projected onto each channel in
    DIRECTION_ORDER, with the channel's run maximum: UP reads +dy/dt, DOWN
    -dy/dt, LEFT -dx/dt, RIGHT +dx/dt. One velocities() pass serves all four,
    and each projection is made only when the caller asks for it.

    Every array yielded is the caller's to keep or overwrite: UP is a copy,
    DOWN is negated in the y buffer itself, LEFT is a fresh array and RIGHT
    is the x buffer. So the four projections cost two arrays beyond the
    two velocities."""
    vxs, vys = traj.velocities(ts)
    vx_max, vy_max = traj.speed_bound()
    yield Direction.UP, vys.copy(), vy_max
    yield Direction.DOWN, np.negative(vys, out=vys), vy_max
    yield Direction.LEFT, -vxs, vx_max
    yield Direction.RIGHT, vxs, vx_max


def footprint(px: int, py: int) -> tuple[tuple[int, int], ...]:
    """The 9 pixels of the 3x3 block centered on (px, py)."""
    return tuple((px + dx, py + dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1))


def _rounded_positions(traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    """Rounded (half-up) object centers at times ts, as an (n, 2) int array."""
    xs, ys = traj.positions(ts)
    return np.stack([round_half_up(xs), round_half_up(ys)], axis=1).astype(np.int64)


def _locate_changes(
    traj: Trajectory, t0: np.ndarray, t1: np.ndarray, p_lo: np.ndarray, p_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every scan step (t0, t1] over which the rounded position goes
    from p_lo to p_hi, in whole ticks, until each change sits in a one-tick
    bracket. All brackets of one depth share a single positions() call.

    Returns the first tick at or after each change and the position it
    enters, ordered by (tick, bracket): adjacent brackets share an end tick,
    so two changes can land on the same tick.
    """
    # The bracket (lo, hi] runs from the last tick whose time is at most t0 to
    # the first at least t1; tick * TIME_QUANTUM can round past either end.
    lo = np.floor(t0 / TIME_QUANTUM).astype(np.int64)
    hi = np.ceil(t1 / TIME_QUANTUM).astype(np.int64)
    while (late := lo * TIME_QUANTUM > t0).any():
        lo -= late
    while (early := hi * TIME_QUANTUM < t1).any():
        hi += early
    bracket = np.arange(len(lo))
    done = []
    while True:
        fin = hi - lo <= 1
        done.append((bracket[fin], hi[fin], p_hi[fin]))
        live = ~fin
        if not live.any():
            break
        bracket, lo, hi, p_lo, p_hi = bracket[live], lo[live], hi[live], p_lo[live], p_hi[live]
        mid = (lo + hi) // 2
        pm = _rounded_positions(traj, mid * TIME_QUANTUM)
        left = (pm != p_lo).any(axis=1)  # a change in (lo, mid]
        right = (p_hi != pm).any(axis=1)  # a change in (mid, hi]
        bracket = np.concatenate([bracket[left], bracket[right]])
        lo, hi = np.concatenate([lo[left], mid[right]]), np.concatenate([mid[left], hi[right]])
        p_lo, p_hi = np.concatenate([p_lo[left], pm[right]]), np.concatenate([pm[left], p_hi[right]])
    bracket, ticks, after = (np.concatenate(parts) for parts in zip(*done))
    order = np.lexsort((bracket, ticks))
    return ticks[order], after[order]


# Offsets of the footprint's pixels from its center, in (y, x) order.
_FOOT_DX, _FOOT_DY = np.array(footprint(0, 0)).T


def generate_events(
    traj: Trajectory,
    mode: EmitMode | str = EmitMode.ONSET,
    samples_per_pixel: float = 8.0,
    oversample: int = 1,
) -> EventStream:
    """Encode a trajectory as stimulus events.

    The path is scanned densely enough that the rounded center moves well
    under one pixel per sample. Every scan step over which it moves is
    bisected in whole ticks down to the first tick of each change, so a
    denser scan moves no event. It can still add one: a touch of a rounding
    boundary shorter than a scan step is seen only by scans that sample it.
    At t = 0 and, in footprint mode, at every change, all 9 covered pixels
    emit; in onset mode only pixels that just became covered emit.
    """
    mode = EmitMode(mode)
    if oversample < 1:
        raise ConfigError("oversample must be >= 1")
    if not (samples_per_pixel > 0.0 and math.isfinite(samples_per_pixel)):
        raise ConfigError("samples_per_pixel must be positive and finite")

    vx_max, vy_max = traj.speed_bound()
    vmax = max(vx_max, vy_max)
    scan = traj.t_end * vmax * samples_per_pixel
    if not scan * oversample <= MAX_SAMPLES:
        raise ConfigError(
            f"the trajectory scan needs {scan * oversample:.3g} samples, over the "
            f"limit of {MAX_SAMPLES:.0e}: lower samples_per_pixel, t_end_s or the speed"
        )
    n = max(16, int(math.ceil(scan)))
    n += n % 2  # even count keeps shared midpoints across scan densities
    n *= oversample

    ts = (np.arange(n + 1, dtype=np.float64) * traj.t_end) / n if traj.t_end > 0 else np.zeros(1)
    ts[-1] = traj.t_end  # n * t_end / n can round one ulp past the path's end
    ps = _rounded_positions(traj, ts)
    moved = np.nonzero((ps[1:] != ps[:-1]).any(axis=1))[0]
    if len(moved) and not traj.t_end / TIME_QUANTUM < 2.0**62:
        raise DomainError("t_end overflows the encoder's 1 ns clock")
    ticks, after = _locate_changes(traj, ts[moved], ts[moved + 1], ps[moved], ps[moved + 1])

    # Row 0 is the footprint at t = 0, row j the one entered at change j.
    centers = np.concatenate([ps[:1], after])
    xs = centers[:, :1] + _FOOT_DX
    ys = centers[:, 1:] + _FOOT_DY
    emit = np.ones(xs.shape, dtype=bool)
    if mode is EmitMode.ONSET:
        # a pixel is fresh when it lies outside the previous 3x3 block
        prev = centers[:-1]
        emit[1:] = (np.abs(xs[1:] - prev[:, :1]) > 1) | (np.abs(ys[1:] - prev[:, 1:]) > 1)
    t_ev = np.broadcast_to(np.concatenate([[0], ticks])[:, None], xs.shape)
    xs, ys, t_ev = xs[emit], ys[emit], t_ev[emit]
    order = np.lexsort((xs, ys, t_ev))
    return EventStream(traj.field_width, traj.field_height, xs[order], ys[order], t_ev[order])
