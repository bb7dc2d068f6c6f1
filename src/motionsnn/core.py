"""Shared domain types: stimulus events, spike trains, synapses and rate series.

Streams and records hold times as int64 counts of 1 ns ticks (TIME_QUANTUM),
in seconds only for the CSVs, `pool_group` and two views. Positions are
integer pixels, y upward; potentials are dimensionless (rest = 0).
"""
from __future__ import annotations

import itertools
import math
import numbers
import os
import shutil
import signal
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, Sequence

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
        return next(b if a is self else a for a, b in AXES if self in (a, b))


# The two axes of motion as opposite pairs, in the order the lateral
# inhibition is wired and the pooled spectra are taken.
AXES = ((Direction.UP, Direction.DOWN), (Direction.LEFT, Direction.RIGHT))

# Fixed ordering used for neuron ids, CSV columns and JSON exports.
DIRECTION_ORDER: tuple[Direction, ...] = tuple(Direction)


@dataclass(frozen=True)
class Event:
    """One stimulus spike: pixel (x, y) active at time t (seconds)."""

    x: int
    y: int
    t: float


def _whole_numbers(obj: object, *names: str) -> None:
    """Store the named fields of `obj` as read-only 1-D int64 copies of one
    length; a value that is not a non-negative integer is refused, not rounded."""
    for name in names:
        given = np.asarray(getattr(obj, name)).reshape(-1)
        try:
            with np.errstate(invalid="ignore"):  # NaN and out-of-range casts are refused below
                arr = given.astype(np.int64)
        except (TypeError, ValueError, OverflowError):
            # objects or strings, cast one at a time: -1 stands for a value
            # that is no number in int64's range
            cast = [int(v) if isinstance(v, numbers.Real) and 0 <= v < 2**63 else -1 for v in given]
            arr = np.array(cast, dtype=np.int64)
        if (bad := (arr != given) | (arr < 0)).any():
            raise ConfigError(f"{name} value {given[bad][:1].item()!r} is not a non-negative integer")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    if len({len(getattr(obj, name)) for name in names}) > 1:
        raise ConfigError(f"{', '.join(names)} must have the same length")


@dataclass(frozen=True, eq=False)
class EventStream:
    """Stimulus events on a bounded pixel field as three read-only int64
    arrays: pixel `x`, `y` and time `t` in ticks, ordered by (t, y, x);
    duplicates are preserved.
    """

    field_width: int
    field_height: int
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.field_width < 1 or self.field_height < 1:
            raise ConfigError("field dimensions must be positive")
        _whole_numbers(self, "x", "y", "t")
        x, y, t = self.x, self.y, self.t
        if (outside := (x >= self.field_width) | (y >= self.field_height)).any():
            i = int(np.argmax(outside))
            raise ConfigError(f"event pixel ({x[i]}, {y[i]}) outside field")
        dt, dy, dx = np.diff(t), np.diff(y), np.diff(x)
        if ((dt < 0) | ((dt == 0) & ((dy < 0) | ((dy == 0) & (dx < 0))))).any():
            raise ConfigError("events not sorted by (t, y, x)")

    @cached_property
    def events(self) -> tuple[Event, ...]:
        """The stream as `Event`s in seconds, built on first access."""
        return tuple(map(Event, self.x.tolist(), self.y.tolist(), (self.t * TIME_QUANTUM).tolist()))

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class Synapse:
    """Directed connection pre -> post as `topo` exports it: the weight's
    magnitude and its sign, "exc" or "inh"."""

    pre: int
    post: int
    weight: float
    sign: str


@dataclass(frozen=True, eq=False)
class SpikeRecord:
    """Every spike of a run on `n_neurons` neurons as two read-only int64
    arrays in (t, neuron) order, the row order of spikes.csv: `neuron` id and
    time `t` in ticks. Each neuron's times are strictly increasing.
    """

    n_neurons: int
    neuron: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _whole_numbers(self, "neuron", "t")
        neuron, t = self.neuron, self.t
        if (neuron >= self.n_neurons).any():
            raise ConfigError(f"spike neuron id outside 0..{self.n_neurons - 1}")
        dt, dn = np.diff(t), np.diff(neuron)
        if ((dt < 0) | ((dt == 0) & (dn < 0))).any():
            raise ConfigError("spikes not sorted by (t, neuron)")
        if (repeat := (dt == 0) & (dn == 0)).any():
            raise ConfigError(f"neuron {neuron[1:][np.argmax(repeat)]}: spike times not strictly increasing")

    @cached_property
    def spike_times(self) -> tuple[tuple[float, ...], ...]:
        """Per-neuron spike trains in seconds, built on first access."""
        t = (self.t[np.argsort(self.neuron, kind="stable")] * TIME_QUANTUM).tolist()
        ends = np.cumsum(self.counts()).tolist()
        return tuple(tuple(t[a:b]) for a, b in zip([0, *ends], ends))

    def counts(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.neuron, minlength=self.n_neurons).tolist())


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


def _write_part(work: Callable, fd: int, share: Iterable, parent: int) -> NoReturn:
    """Body of a forked part writer: run `work` on its share and end the
    process, never returning into the caller's code. The exit status is 0,
    the errno of an OSError, or _WRITER_FAILED after the traceback of any
    other error. A writer whose parent pid is no longer `parent` has been
    orphaned, so no one will read its part: it stops before its next item."""
    status = _WRITER_FAILED
    try:
        work(fd, itertools.takewhile(lambda _: os.getppid() == parent, share))
        status = 0
    except OSError as exc:
        if exc.errno and exc.errno < _WRITER_FAILED:
            status = exc.errno
    except Exception:
        import traceback  # only a failing child loads it, to keep it out of start-up
        traceback.print_exc()
    finally:
        os._exit(status)


class Parts:
    """`work(fd, share)` run on each share into its own part: an unnamed
    temporary file in `folder`, which the kernel frees however the process
    ends. Where the platform can fork and there is more than one share, a
    forked child, a part writer, runs each share on a copy-on-write copy of
    the caller's memory, and the caller goes on meanwhile; otherwise the
    constructor runs the shares in order. `join` returns the parts, rewound,
    in share order. A failed fork or child raises OSError, at the first
    failure and after every other child is stopped and reaped. Leaving the
    context stops every child left and closes the parts."""

    def __init__(self, work: Callable, shares: Sequence[Iterable], folder: str | None = None) -> None:
        self._pids: list[int] = []
        self._parts: list[BinaryIO] = []
        fork = len(shares) > 1 and hasattr(os, "fork")
        parent = os.getpid()
        try:
            for share in shares:
                self._parts.append(tempfile.TemporaryFile(buffering=0, dir=folder))
                fd = self._parts[-1].fileno()
                if not fork:
                    work(fd, share)
                elif (pid := os.fork()) == 0:
                    _write_part(work, fd, share, parent)
                else:
                    self._pids.append(pid)
        except BaseException:
            self.close()
            raise

    def join(self) -> list[BinaryIO]:
        while self._pids:  # polled, so the first child to fail is found at once
            for pid in self._pids[:]:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    self._pids.remove(pid)
                if code := done and os.waitstatus_to_exitcode(status):
                    self.close()
                    reason = f"part writer exited with status {code}"
                    raise OSError(code, os.strerror(code) if 0 < code < _WRITER_FAILED else reason)
            if self._pids:
                time.sleep(0.005)
        for part in self._parts:
            part.seek(0)
        return self._parts

    def close(self) -> None:
        """Stop and reap every child not yet reaped and close the parts."""
        while self._pids:
            os.kill(self._pids[0], signal.SIGKILL)
            os.waitpid(self._pids[0], 0)
            del self._pids[0]
        while self._parts:
            self._parts.pop().close()

    def __enter__(self) -> "Parts":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class CsvWriter:
    """Equal-length columns written to `path` as CSV, byte for byte what
    `csv.writer` makes of the rows with each float passed through
    `fmt_float`: integer columns print as `%d`, float columns as `%.9g`,
    lines end in CRLF. The columns are stacked as float64, so integer values
    must stay below 2**53 in magnitude (ids and pixel coordinates do). Each
    block of CSV_BLOCK_ROWS rows is one %-format of a repeated row template,
    so the whole text is never held at once.

    The blocks are cut into one contiguous share per usable CPU, at most one
    per block, and formatted as `Parts` in the directory of `path`. `join`
    is the only code that opens `path`: it writes the header and copies the
    parts into it. Call `join` or use the writer as a context manager; one
    left by an exception does not write `path`. A path that cannot be
    written, a failed fork or a failed child raises ConfigError.
    """

    def __init__(self, path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
        self.path = path
        self._head = (",".join(header) + "\r\n").encode()
        row = ",".join("%d" if c.dtype.kind in "iu" else "%.9g" for c in columns) + "\r\n"
        starts = range(0, len(columns[0]), CSV_BLOCK_ROWS)
        n = max(1, min(_usable_cpus(), len(starts)))
        shares = [starts[k * len(starts) // n : (k + 1) * len(starts) // n] for k in range(n)]

        def write_share(fd: int, share: Iterable[int]) -> None:
            with open(fd, "w", newline="", closefd=False) as fh:
                fh.writelines(_format_block(row, columns, i) for i in share)

        with writing(path):
            self._parts = Parts(write_share, shares, os.path.dirname(path) or os.curdir)

    def join(self) -> None:
        """Wait for the shares and write the header and then the parts, in
        order, to `path`; raise ConfigError for a child that failed."""
        with self._parts, writing(self.path):
            parts = self._parts.join()
            with open(self.path, "wb") as out:
                out.write(self._head)
                for part in parts:
                    shutil.copyfileobj(part, out)

    def __enter__(self) -> "CsvWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.join()
        else:
            self._parts.close()


def write_events_csv(stream: EventStream, path: str) -> CsvWriter:
    """All events as `x,y,t_s` rows in stream order; see CsvWriter."""
    return CsvWriter(path, ["x", "y", "t_s"], [stream.x, stream.y, stream.t * TIME_QUANTUM])


def write_spikes_csv(record: SpikeRecord, path: str) -> CsvWriter:
    """All spikes as `neuron_id,t_s` rows ordered by (time, neuron id); see
    CsvWriter."""
    return CsvWriter(path, ["neuron_id", "t_s"], [record.neuron, record.t * TIME_QUANTUM])
