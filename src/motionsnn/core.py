"""Shared domain types: stimulus events, spike trains, synapses and rate series.

Times are seconds, positions are integer pixel coordinates with y increasing
upward, membrane potentials are dimensionless (rest = 0).
"""
from __future__ import annotations

import math
import os
import shutil
import signal
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NoReturn, Sequence, TextIO

import numpy as np


# The most samples a trajectory scan or a rate grid may hold. A config
# that asks for more is refused as a config error before anything is
# allocated.
MAX_SAMPLES = 10**9

# The engine's clock tick and the grid every stimulus event is stamped on.
TIME_QUANTUM = 1e-9


class MotionSnnError(Exception):
    """Base for every error this package raises on purpose."""


class ConfigError(MotionSnnError, ValueError):
    """Invalid configuration or parameter value (CLI exit code 2)."""


class DomainError(MotionSnnError, ValueError):
    """Request outside the model's domain, e.g. out-of-field trajectory (exit code 3)."""


class NumericFault(MotionSnnError, ArithmeticError):
    """Non-finite state or impossible numeric request (exit code 4)."""


class Direction(Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.UP: Direction.DOWN,
    Direction.DOWN: Direction.UP,
    Direction.LEFT: Direction.RIGHT,
    Direction.RIGHT: Direction.LEFT,
}

# Fixed ordering used for neuron ids, CSV columns and JSON exports.
DIRECTION_ORDER: tuple[Direction, ...] = (
    Direction.UP,
    Direction.DOWN,
    Direction.LEFT,
    Direction.RIGHT,
)


class Role(Enum):
    """Position of a pixel inside its plus-shaped unit cell."""

    CENTER = "center"
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"


ROLE_ORDER: tuple[Role, ...] = (Role.CENTER, Role.UP, Role.DOWN, Role.LEFT, Role.RIGHT)


def role_of(direction: Direction) -> Role:
    return Role(direction.value)


@dataclass(frozen=True)
class Event:
    """One stimulus spike: pixel (x, y) active at time t (seconds)."""

    x: int
    y: int
    t: float


@dataclass(frozen=True, eq=False)
class EventStream:
    """Stimulus events on a bounded pixel field as three read-only arrays:
    pixel `x`, `y` (int64) and time `t` (float64, seconds), ordered by
    (t, y, x); duplicates are preserved.
    """

    field_width: int
    field_height: int
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.field_width < 1 or self.field_height < 1:
            raise ConfigError("field dimensions must be positive")
        for name, dtype in (("x", np.int64), ("y", np.int64), ("t", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype).reshape(-1)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        x, y, t = self.x, self.y, self.t
        if not len(x) == len(y) == len(t):
            raise ConfigError("event x, y and t must have the same length")
        outside = (x < 0) | (x >= self.field_width) | (y < 0) | (y >= self.field_height)
        if outside.any():
            i = int(np.argmax(outside))
            raise ConfigError(f"event pixel ({x[i]}, {y[i]}) outside field")
        bad_t = ~(np.isfinite(t) & (t >= 0.0))
        if bad_t.any():
            raise ConfigError(f"event time {float(t[np.argmax(bad_t)])!r} must be finite and >= 0")
        dt, dy, dx = np.diff(t), np.diff(y), np.diff(x)
        if ((dt < 0) | ((dt == 0) & ((dy < 0) | ((dy == 0) & (dx < 0))))).any():
            raise ConfigError("events not sorted by (t, y, x)")

    @classmethod
    def from_events(cls, events: Iterable[Event], field_width: int, field_height: int) -> "EventStream":
        xyt = np.array([(e.x, e.y, e.t) for e in events], dtype=np.float64).reshape(-1, 3)
        return cls(field_width, field_height, *xyt[np.lexsort(xyt.T)].T)

    @cached_property
    def events(self) -> tuple[Event, ...]:
        """The stream as `Event`s, built on first access."""
        return tuple(map(Event, self.x.tolist(), self.y.tolist(), self.t.tolist()))

    def __len__(self) -> int:
        return len(self.t)


class Sign(Enum):
    EXCITATORY = "exc"
    INHIBITORY = "inh"


@dataclass(frozen=True)
class Synapse:
    """Directed connection pre -> post with a non-negative weight and a sign."""

    pre: int
    post: int
    weight: float
    sign: Sign

    def __post_init__(self) -> None:
        if self.weight < 0.0 or not math.isfinite(self.weight):
            raise ConfigError("synapse weight must be finite and >= 0")

    @property
    def signed_weight(self) -> float:
        return self.weight if self.sign is Sign.EXCITATORY else -self.weight


@dataclass(frozen=True, eq=False)
class SpikeRecord:
    """Every spike of a run on `n_neurons` neurons as two read-only arrays in
    (t, neuron) order, the row order of spikes.csv: `neuron` id (int64) and
    time `t` (float64, seconds). Each neuron's times are strictly increasing.
    """

    n_neurons: int
    neuron: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name, dtype in (("neuron", np.int64), ("t", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype).reshape(-1)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        neuron, t = self.neuron, self.t
        if len(neuron) != len(t):
            raise ConfigError("spike neuron and t must have the same length")
        if ((neuron < 0) | (neuron >= self.n_neurons)).any():
            raise ConfigError(f"spike neuron id outside 0..{self.n_neurons - 1}")
        dt, dn = np.diff(t), np.diff(neuron)
        if ((dt < 0) | ((dt == 0) & (dn < 0))).any():
            raise ConfigError("spikes not sorted by (t, neuron)")
        _require_increasing(neuron[1:], (dt == 0) & (dn == 0))

    @classmethod
    def from_trains(cls, trains: Sequence[Sequence[float]]) -> "SpikeRecord":
        """The record of per-neuron trains; neuron k spikes at trains[k]."""
        counts = [len(train) for train in trains]
        t = np.fromiter(chain.from_iterable(trains), dtype=np.float64, count=sum(counts))
        neuron = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        _require_increasing(neuron[1:], (neuron[1:] == neuron[:-1]) & (np.diff(t) <= 0))
        order = np.lexsort((neuron, t))
        return cls(len(counts), neuron[order], t[order])

    @cached_property
    def spike_times(self) -> tuple[tuple[float, ...], ...]:
        """Per-neuron spike trains, built on first access."""
        t = self.t[np.argsort(self.neuron, kind="stable")].tolist()
        ends = np.cumsum(self.counts()).tolist()
        return tuple(tuple(t[a:b]) for a, b in zip([0, *ends], ends))

    def counts(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.neuron, minlength=self.n_neurons).tolist())

    def total(self) -> int:
        return len(self.t)


def _require_increasing(neuron: np.ndarray, repeat: np.ndarray) -> None:
    """Raise for the first neuron whose train fails to increase, flagged
    in `repeat`."""
    if repeat.any():
        raise ConfigError(f"neuron {neuron[np.argmax(repeat)]}: spike times not strictly increasing")


@dataclass(frozen=True)
class RateSeries:
    """Uniformly sampled rate signal: value k is at time t0 + k*dt."""

    t0: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError("dt must be positive and finite")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ConfigError("values must be one-dimensional")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def same_grid(self, other: "RateSeries") -> bool:
        return (
            self.t0 == other.t0
            and self.dt == other.dt
            and len(self.values) == len(other.values)
        )


def fmt_float(v: float) -> str:
    """Canonical float formatting for exports: 9 significant digits."""
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, ".9g")


CSV_BLOCK_ROWS = 4096

# Exit status of a part writer that failed other than with an OSError; one
# that failed with an OSError exits with its errno.
_WRITER_FAILED = 255


@contextmanager
def writing(path: str) -> Iterator[None]:
    """Report an OSError raised while `path` is written as a ConfigError
    that names the path and the reason."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _format_block(row: str, columns: Sequence[np.ndarray], i: int) -> str:
    """Rows i .. i + CSV_BLOCK_ROWS as text: one %-format of `row` repeated."""
    # + 0.0 turns -0.0 into 0.0, as fmt_float does
    block = np.column_stack([c[i : i + CSV_BLOCK_ROWS] for c in columns]) + 0.0
    return (row * len(block)) % tuple(block.ravel().tolist())


def _write_part(fh: TextIO, row: str, columns: Sequence[np.ndarray], starts: range) -> NoReturn:
    """Body of a forked part writer: write the blocks at `starts` to `fh`
    and end the process, never returning into the caller's code. The exit
    status is 0, the errno of a failed write, or _WRITER_FAILED."""
    status = _WRITER_FAILED
    try:
        with fh:
            fh.writelines(_format_block(row, columns, i) for i in starts)
        status = 0
    except OSError as exc:
        if exc.errno and exc.errno < _WRITER_FAILED:
            status = exc.errno
    finally:
        os._exit(status)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class CsvWriter:
    """Equal-length columns written to `path` as CSV, byte for byte what
    `csv.writer` makes of the rows with each float passed through
    `fmt_float`: integer columns print as `%d`, float columns as `%.9g`,
    lines end in CRLF.

    The columns are stacked as float64, so integer values must stay below
    2**53 in magnitude (ids and pixel coordinates do). Each block of
    CSV_BLOCK_ROWS rows is one %-format of a repeated row template, so the
    whole text is never held at once.

    Where the platform can fork and more than one CPU is usable, a table of
    more than one block is cut into contiguous shares of blocks, one per
    usable CPU. A forked child formats each share into its own hidden part
    file beside `path`, and the constructor returns as soon as the children
    run. Each child holds a copy-on-write copy of the columns, so the caller
    may drop them and work on meanwhile; that is why the children are forked
    rather than spawned. A child runs only `_format_block` and file writes,
    and ends with `os._exit`. `join` waits for the children and joins the
    parts, in order, into `path`. Otherwise the constructor writes the table
    itself and `join` has nothing left to do. Both paths share
    `_format_block`, so the bytes are the same.

    Call `join` or use the writer as a context manager. The part files are
    removed on every exit path; a writer left by an exception stops its
    children and does not write `path`. A path that cannot be written, or a
    failed child, raises ConfigError.
    """

    def __init__(self, path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
        self.path = path
        self._pids: list[int] = []
        self._parts: list[str] = []
        head = ",".join(header) + "\r\n"
        row = ",".join("%d" if c.dtype.kind in "iu" else "%.9g" for c in columns) + "\r\n"
        starts = range(0, len(columns[0]), CSV_BLOCK_ROWS)
        workers = min(_usable_cpus(), len(starts)) if hasattr(os, "fork") else 1
        if workers < 2:
            with writing(path), open(path, "w", newline="") as fh:
                fh.write(head)
                fh.writelines(_format_block(row, columns, i) for i in starts)
            return
        folder, name = os.path.split(path)
        try:
            for k in range(workers):
                share = starts[k * len(starts) // workers : (k + 1) * len(starts) // workers]
                part = os.path.join(folder, f".{name}.{os.getpid()}.{k}.part")
                with writing(path):
                    fh = open(part, "w", newline="")
                self._parts.append(part)
                with fh:  # the parent's copy; the child writes and closes its own
                    if k == 0:
                        fh.write(head)
                        fh.flush()
                    pid = os.fork()
                    if pid == 0:
                        _write_part(fh, row, columns, share)
                    self._pids.append(pid)
        except BaseException:
            self._close()
            raise

    def join(self) -> None:
        """Wait for the part writers and join their parts, in order, into
        `path`; raise ConfigError for a child that failed."""
        try:
            failed = 0
            while self._pids:
                _, status = os.waitpid(self._pids[0], 0)
                del self._pids[0]
                failed = failed or os.waitstatus_to_exitcode(status)
            if failed:
                reason = (
                    os.strerror(failed)
                    if 0 < failed < _WRITER_FAILED
                    else f"part writer exited with status {failed}"
                )
                raise ConfigError(f"cannot write {self.path}: {reason}")
            if self._parts:
                with writing(self.path), open(self.path, "wb") as out:
                    for part in self._parts:
                        with open(part, "rb") as src:
                            shutil.copyfileobj(src, out, 1 << 20)
        finally:
            self._close()

    def _close(self) -> None:
        """Stop and reap every child not yet reaped and remove the parts."""
        while self._pids:
            os.kill(self._pids[0], signal.SIGKILL)
            os.waitpid(self._pids[0], 0)
            del self._pids[0]
        while self._parts:
            with suppress(FileNotFoundError):
                os.remove(self._parts[-1])
            del self._parts[-1]

    def __enter__(self) -> "CsvWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.join()
        else:
            self._close()


def write_events_csv(stream: EventStream, path: str) -> CsvWriter:
    """All events as `x,y,t_s` rows in stream order; see CsvWriter."""
    return CsvWriter(path, ["x", "y", "t_s"], [stream.x, stream.y, stream.t])


def write_spikes_csv(record: SpikeRecord, path: str) -> CsvWriter:
    """All spikes as `neuron_id,t_s` rows ordered by (time, neuron id); see
    CsvWriter."""
    return CsvWriter(path, ["neuron_id", "t_s"], [record.neuron, record.t])
