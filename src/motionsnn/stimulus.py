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

import numpy as np

from .core import MAX_SAMPLES, TIME_QUANTUM, ConfigError, DomainError, EventStream


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
        for axis, lo, hi, size in (("x", x_lo, x_hi, self.field_width), ("y", y_lo, y_hi, self.field_height)):
            if not (lo >= 0.5 and hi < size - 1.5):
                field = f"{self.field_width}x{self.field_height}"
                raise DomainError(f"{axis} range [{lo}, {hi}] leaves the {field} field")

    # Subclasses implement vectorized kinematics; scalar queries reuse them so
    # every caller sees bit-identical values.
    def positions(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def velocity(self, axis: str, ts: np.ndarray) -> np.ndarray:
        """dx/dt (axis "x") or dy/dt (axis "y") at the float64 times ts,
        computed in ts's own buffer, which is returned."""
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
    """Clockwise circle (y up) starting at the leftmost point moving upward,
    so left, top, right and bottom at t = 0, P/4, P/2 and 3P/4:
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

    def velocity(self, axis: str, ts: np.ndarray) -> np.ndarray:
        # r w sin(w t) and r w cos(w t)
        w = 2.0 * math.pi * self.freq_hz
        ts *= w
        (np.sin if axis == "x" else np.cos)(ts, out=ts)
        ts *= self.radius * w
        return ts

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

    def velocity(self, axis: str, ts: np.ndarray) -> np.ndarray:
        # 2 w ax cos(2 w t) and w ay cos(w t)
        w = 2.0 * math.pi * self.freq_hz
        w, a = (2.0 * w, self.ax) if axis == "x" else (w, self.ay)
        ts *= w
        np.cos(ts, out=ts)
        ts *= w * a
        return ts

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

    def velocity(self, axis: str, ts: np.ndarray) -> np.ndarray:
        ts.fill(self.vx if axis == "x" else self.vy)
        return ts

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

    def velocity(self, axis: str, ts: np.ndarray) -> np.ndarray:
        # Right-sided derivative; constant within each segment.
        if len(self.points) < 2:
            ts.fill(0.0)
            return ts
        knots = np.asarray([p[0] for p in self.points])
        seg = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, len(knots) - 2)
        coord = np.asarray([p[1 if axis == "x" else 2] for p in self.points])
        return np.take(np.diff(coord) / np.diff(knots), seg, out=ts)

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
    try:
        mode = EmitMode(mode)
    except ValueError:
        raise ConfigError(f"unknown mode {mode!r}: one of {', '.join(m.value for m in EmitMode)}") from None
    if not (samples_per_pixel > 0.0 and math.isfinite(samples_per_pixel)):
        raise ConfigError("samples_per_pixel must be positive and finite")

    vx_max, vy_max = traj.speed_bound()
    vmax = max(vx_max, vy_max)
    scan = traj.t_end * vmax * samples_per_pixel
    if not scan <= MAX_SAMPLES:
        raise ConfigError(
            f"the trajectory scan needs {scan:.3g} samples, over the "
            f"limit of {MAX_SAMPLES:.0e}: lower samples_per_pixel, t_end_s or the speed"
        )
    n = max(16, int(math.ceil(scan)))
    n += n % 2  # even count keeps shared midpoints across scan densities

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
