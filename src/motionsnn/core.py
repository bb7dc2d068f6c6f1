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


# `_format_block` lays each value out in a 32-byte slot, four little-endian
# 8-byte words, in which a 0 byte stands for no byte:
#
#   sign, "0.000" prefix, d0 p0 d1 p1 ... p7 d8, "e", exponent sign and
#   2-3 digits, "," or "\r\n", two 0 bytes
#
# d0 .. d8 are the value's 9 significant digits, D = round(|v| * 10**(8 - x))
# for x = floor(log10 |v|), and p0 .. p7 the places the point may take.
# Word 0 holds the sign, the prefix, d0 and p0; word 1 d1 .. p4; word 2
# d5 .. d8 and the "e"; word 3 the exponent and the separator. The digits
# of D's three 3-digit groups come from 1000-entry tables with 0xFF in
# every other byte, and a table of patterns indexed by (sign, notation,
# significant digits) masks them: 0xFF where a digit shows, 0 where it is a
# trailing zero, and the sign, prefix, point and "e" elsewhere.
_X = np.arange(-324, 309)  # floor(log10 |v|) of every finite nonzero double
# 10**(8 - x), each power correctly rounded; capped at 1e308, so every value
# below 1e-300 in magnitude scales to below 1e8 and is formatted by %
_SCALE = np.array(["1e%d" % (8 - x) for x in _X.tolist()], dtype=np.float64).clip(max=1e308)
_CSV_PASS = 8192  # values formatted per pass, so the work arrays stay in cache


def _words(slots: np.ndarray) -> np.ndarray:
    """(k, 32) slot bytes as a (4, k) array of little-endian words."""
    return np.ascontiguousarray(slots, dtype=np.uint8).view("<u8").T.copy()


def _slot_tables() -> tuple[np.ndarray, ...]:
    """The digit words of a 3-digit group n at each group place, (3, 4,
    1000); the significant digits of D up to and including group place g
    when that group is n, (3, 1000), 0 when n is 0; the pattern words of
    each (sign, notation, significant digits), (4, 280); the pattern index
    of each decimal exponent x, (x + 4) * 10 for fixed notation (x in -4 ..
    8) and 130 for exponent notation; and the exponent word of each x."""
    n = np.arange(1000)
    digits = np.full((3, 1000, 32), 0xFF, dtype=np.uint8)
    for g in range(3):
        digits[g, :, 6 + 6 * g : 12 + 6 * g : 2] = np.stack([n // 100, n // 10 % 10, n % 10], axis=1) + ord("0")
    shown = 3 - (n % 10 == 0) - (n % 100 == 0)
    keep = np.stack([np.where(n == 0, 0, shown + 3 * g) for g in range(3)]).astype(np.uint8)

    # x = 9 stands for exponent notation, x = -4 .. 8 for fixed notation
    sign, x, k = np.ix_(range(2), range(-4, 10), range(10))
    fixed = x <= 8
    last = np.where(fixed & (x >= 0), np.maximum(k - 1, x), np.maximum(k - 1, 0))  # last digit shown
    point = np.where(fixed, x, 0)  # the digit the point follows, if any digit after it shows
    i = np.arange(9)[:, None, None, None]
    j = np.arange(5)[:, None, None, None]
    slots = np.zeros((32, 2, 14, 10), dtype=np.uint8)
    slots[0] = sign * ord("-")
    slots[1:6] = np.where((x < 0) & (j < 1 - x), np.where(j == 1, ord("."), ord("0")), 0)
    slots[6:23:2] = np.where(i <= last, 0xFF, 0)
    slots[7:23:2] = np.where((i[:8] == point) & (i[:8] < last), ord("."), 0)
    slots[23] = np.where(fixed, 0, ord("e"))
    patterns = _words(slots.reshape(32, -1).T)

    fixed_x = (_X >= -4) & (_X <= 8)
    e = np.abs(_X)
    big = e >= 100
    exponent = np.zeros((len(_X), 32), dtype=np.uint8)
    exponent[:, 24] = np.where(_X < 0, ord("-"), ord("+"))
    exponent[:, 25] = np.where(big, e // 100, e // 10 % 10) + ord("0")
    exponent[:, 26] = np.where(big, e // 10 % 10, e % 10) + ord("0")
    exponent[:, 27] = np.where(big, e % 10 + ord("0"), 0)
    exponent[fixed_x] = 0
    place = np.where(fixed_x, (_X + 4) * 10, 130)
    return np.stack([_words(d) for d in digits]), keep, patterns, place, _words(exponent)[3]


_DIGITS, _KEEP, _PATTERNS, _PLACE, _EXPONENT = _slot_tables()


def _format_block(columns: Sequence[np.ndarray]) -> bytes:
    """Equal-length columns as the bytes of CSV rows, each value as `%d`
    formats it for an integer column and as `%.9g` for a float one, with
    -0.0 as 0; see CsvWriter for the method and the values % formats."""
    ints = [c.dtype.kind in "iu" for c in columns]
    m = len(columns)
    block = np.column_stack(columns).astype(np.float64, copy=False)
    limit = np.where(ints, 1e9, np.inf)  # %d and %.9g differ from 1e9 on
    sep = np.array([ord(",") << 32] * (m - 1) + [(ord("\r") | ord("\n") << 8) << 32], dtype="<u8")
    rows = max(1, _CSV_PASS // m)
    out = np.empty((min(rows, len(block)), m, 4), dtype="<u8")
    text = []
    for r in range(0, len(block), rows):
        v = block[r : r + rows]
        a = np.abs(v)
        zero, finite = a == 0, a < np.inf
        a[zero | ~finite] = 1.0
        x = np.floor(np.log10(a)).astype(np.intp)
        x -= _X[0]
        s = a * _SCALE[x]
        d = np.rint(s)
        # below 1e9, s carries at most two roundings of 2**-53 each, so it lies within
        # 1e9 * 2**-52 < 2.3e-7 of |v| * 10**(8 - x): inside the band (1e8 + 0.5,
        # 1e9 - 1.5), x is the exact exponent and D stays below 1e9, and more than
        # 2**-20 from a half, rint(s) is the correctly rounded D
        fallback = ~((s > 100000000.5) & (s < 999999998.5) & finite)
        fallback |= (np.abs(s - d) >= 0.5 - 2.0**-20) | (a >= limit)
        fallback &= ~zero
        d[fallback | zero] = 0  # D of a zero, and in-range digits for the slots % overwrites
        lo = d.astype(np.int64)
        hi = lo // 1000000
        lo -= hi * 1000000
        mid = lo // 1000
        lo -= mid * 1000
        idx = _PLACE[x]
        idx += np.maximum(np.maximum(_KEEP[0][hi], _KEEP[1][mid]), _KEEP[2][lo])
        idx += 140 * (v < 0)
        o = out[: len(v)]
        o[..., 0] = _DIGITS[0, 0][hi] & _PATTERNS[0][idx]
        o[..., 1] = _DIGITS[0, 1][hi] & _DIGITS[1, 1][mid] & _PATTERNS[1][idx]
        o[..., 2] = _DIGITS[1, 2][mid] & _DIGITS[2, 2][lo] & _PATTERNS[2][idx]
        o[..., 3] = _EXPONENT[x] | sep
        slot = o.view(np.uint8)
        for i, j in zip(*np.nonzero(fallback)):
            value = (("%d" if ints[j] else "%.9g") % v[i, j].item()).encode()
            slot[i, j, :28] = np.frombuffer(value.ljust(28, b"\0"), dtype=np.uint8)
        text.append(o.tobytes().translate(None, b"\0"))
    return b"".join(text)


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
    """A table of `n` rows written to `path` as CSV, byte for byte what
    `csv.writer` makes of the rows with each float passed through
    `fmt_float`: integer columns print as `%d`, float columns as `%.9g`,
    lines end in CRLF. `block(i, j)` returns the equal-length columns of rows
    i .. j - 1, at most CSV_BLOCK_ROWS of them, stacked as float64, so
    integer values must stay below 2**53 in magnitude (ids and pixel
    coordinates do). Each block is made and formatted in turn, so neither the
    text nor a column that exists only for the file is ever held whole.

    A block is formatted in numpy, at most 8,192 values per pass: each value
    gets a 32-byte slot (sign, "0.000" prefix, nine digits with the places a
    point may take, exponent, separator) in which 0 bytes stand for no byte
    and are deleted. The digits are D = round(|v| * 10**(8 - x)) for
    x = floor(log10 |v|), scaled in float64 with at most two roundings, so
    within 2.3e-7. Python's `%` formats a value instead when it is not finite
    or below 1e-300 in magnitude, when its scaled value lies within 2**-20 of
    a rounding half or outside (1e8 + 0.5, 1e9 - 1.5), or when an integer
    column holds 1e9 or more in magnitude; so every byte is the one `%`
    writes.

    The blocks are cut into one contiguous share per usable CPU, at most one
    per block, and made as `Parts` in the directory of `path`. `join` is the
    only code that opens `path`: it writes the header and copies the parts
    into it. Call `join` or use the writer as a context manager; one left by
    an exception does not write `path`. A path that cannot be written, a
    failed fork or a failed child raises ConfigError.
    """

    def __init__(self, path: str, header: Sequence[str], n: int, block: Callable) -> None:
        self.path = path
        self._head = (",".join(header) + "\r\n").encode()
        starts = range(0, n, CSV_BLOCK_ROWS)
        k = max(1, min(_usable_cpus(), len(starts)))
        shares = [starts[s * len(starts) // k : (s + 1) * len(starts) // k] for s in range(k)]

        def write_share(fd: int, share: Iterable[int]) -> None:
            with open(fd, "wb", closefd=False) as fh:
                fh.writelines(_format_block(block(i, min(i + CSV_BLOCK_ROWS, n))) for i in share)

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
    x, y, t = stream.x, stream.y, stream.t
    return CsvWriter(path, ["x", "y", "t_s"], len(t), lambda i, j: (x[i:j], y[i:j], t[i:j] * TIME_QUANTUM))


def write_spikes_csv(record: SpikeRecord, path: str) -> CsvWriter:
    """All spikes as `neuron_id,t_s` rows ordered by (time, neuron id); see
    CsvWriter."""
    neuron, t = record.neuron, record.t
    return CsvWriter(path, ["neuron_id", "t_s"], len(t), lambda i, j: (neuron[i:j], t[i:j] * TIME_QUANTUM))
