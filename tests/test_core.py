"""Value types and CSV writers."""

import csv
import errno
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motionsnn
from motionsnn import (
    ConfigError,
    Direction,
    DIRECTION_ORDER,
    Event,
    EventStream,
    NetworkParams,
    RateSeries,
    SpikeRecord,
    assemble_network,
    tessellate,
)
from motionsnn import core
from motionsnn.core import (
    CSV_BLOCK_ROWS,
    TIME_QUANTUM,
    CsvWriter,
    Parts,
    fmt_float,
    write_events_csv,
    write_spikes_csv,
)

from oracles import event_stream, spike_record


def test_direction_opposite_is_involution():
    for d in Direction:
        assert d.opposite.opposite is d
    assert Direction.UP.opposite is Direction.DOWN
    assert Direction.LEFT.opposite is Direction.RIGHT
    assert DIRECTION_ORDER == (
        Direction.UP,
        Direction.DOWN,
        Direction.LEFT,
        Direction.RIGHT,
    )


def test_event_stream_sorts_by_time_then_row_then_column():
    evs = [Event(2, 1, 0.0), Event(1, 2, 0.0), Event(1, 1, 0.0), Event(0, 0, 1e-4)]
    s = event_stream(evs, 4, 4)
    assert [(e.x, e.y, e.t) for e in s.events] == [
        (1, 1, 0.0),
        (2, 1, 0.0),
        (1, 2, 0.0),
        (0, 0, 1e-4),
    ]
    assert len(s) == 4
    # the same events in (t, x, y) order are refused
    with pytest.raises(ConfigError, match=r"not sorted by \(t, y, x\)"):
        EventStream(4, 4, [1, 1, 2, 0], [1, 2, 1, 0], [0, 0, 0, 100_000])


def test_event_stream_rejects_bad_input():
    with pytest.raises(ConfigError, match=r"not sorted by \(t, y, x\)"):
        EventStream(3, 3, [1, 1], [1, 1], [2_000_000, 1_000_000])
    with pytest.raises(ConfigError, match=r"event pixel \(3, 1\) outside field"):
        EventStream(3, 3, [3], [1], [0])
    with pytest.raises(ConfigError, match="t value nan is not a non-negative integer"):
        EventStream(3, 3, [1], [1], [math.nan])
    with pytest.raises(ConfigError, match="field dimensions must be positive"):
        EventStream(0, 3, [], [], [])


# A stream or a record holds whole ticks and ids: anything else is refused,
# never truncated or rounded to the grid.
NOT_WHOLE = {
    "stream-fractional-x": (lambda: EventStream(3, 3, [1.7], [1], [0]), "x value 1.7"),
    "stream-fractional-y": (lambda: EventStream(3, 3, [1], [0.5], [0]), "y value 0.5"),
    "stream-seconds": (lambda: EventStream(3, 3, [1], [1], [1e-3]), "t value 0.001"),
    "stream-negative-tick": (lambda: EventStream(3, 3, [1], [1], [-1]), "t value -1"),
    "stream-negative-x": (lambda: EventStream(3, 3, [-1], [1], [0]), "x value -1"),
    "record-fractional-id": (lambda: SpikeRecord(2, [0.9, 1], [0, 1]), "neuron value 0.9"),
    "record-nan-tick": (lambda: SpikeRecord(2, [0, 1], [math.nan, 1]), "t value nan"),
    "record-negative-tick": (lambda: SpikeRecord(2, [0], [-1]), "t value -1"),
    "record-seconds": (lambda: SpikeRecord(2, [0], [0.25]), "t value 0.25"),
    "record-past-int64": (lambda: SpikeRecord(2, [0], [2.0**63]), "t value 9.223372036854776e+18"),
    # values that numpy cannot cast to int64 at all
    "stream-int-past-int64": (lambda: EventStream(3, 3, [1], [1], [2**70]), f"t value {2**70}"),
    "stream-string": (lambda: EventStream(3, 3, [1], [1], ["a"]), "t value 'a'"),
    "stream-none": (lambda: EventStream(3, 3, [1], [1], [None]), "t value None"),
    "stream-none-after-a-tick": (lambda: EventStream(3, 3, [1, 1], [1, 1], [0, None]), "t value None"),
    "record-int-past-int64": (lambda: SpikeRecord(3, [2**70], [0]), f"neuron value {2**70}"),
}


@pytest.mark.parametrize("build, message", NOT_WHOLE.values(), ids=NOT_WHOLE.keys())
def test_records_refuse_anything_but_whole_ticks_and_ids(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}.* is not a non-negative integer$"):
        build()


def test_whole_floats_are_taken_as_ticks():
    s = EventStream(3, 3, [1.0], [2.0], [5.0])
    assert (s.x.tolist(), s.y.tolist(), s.t.tolist(), s.t.dtype) == ([1], [2], [5], np.int64)


def test_event_stream_holds_read_only_arrays_in_order():
    # ties on t fall back to y, then x; unequal lengths are refused
    s = EventStream(4, 4, [2, 1, 3, 0], [1, 2, 2, 0], [0, 0, 0, 100_000])
    assert (s.x.dtype, s.y.dtype, s.t.dtype) == (np.int64, np.int64, np.int64)
    for arr in (s.x, s.y, s.t):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert "events" not in vars(s)
    assert s.events == (Event(2, 1, 0.0), Event(1, 2, 0.0), Event(3, 2, 0.0), Event(0, 0, 1e-4))
    with pytest.raises(ConfigError, match="same length"):
        EventStream(4, 4, [1, 2], [1], [0])
    with pytest.raises(ConfigError, match="not sorted"):
        EventStream(4, 4, [2, 1], [1, 1], [0, 0])
    assert len(EventStream(4, 4, [], [], [])) == 0


def test_lif_defaults():
    # the floor sits v_floor_factor = 2 thresholds below rest in every layer
    net = assemble_network(tessellate(10, 11))
    output_base = net.n_inputs + net.n_hidden
    assert net.v_floor[:output_base].tolist() == [-1.0] * output_base
    assert net.v_floor[output_base:].tolist() == [-3.0] * net.n_outputs
    p = net.params
    assert p.v_reset == 0.0
    assert p.t_ref_s == 2e-4 and p.d_out_s == 1e-4


LIF_CASES = [
    (dict(tau_center_s=0.0), "tau_m must be positive and finite"),
    (dict(tau_directional_s=-0.1), "tau_m must be positive and finite"),
    (dict(hidden_v_th=0.0), "require v_th > v_reset"),  # threshold not above reset
    (dict(t_ref_s=0.0), "t_ref must be finite and at least 1e-9 s"),
    (dict(t_ref_s=1e-10), "t_ref must be finite and at least 1e-9 s"),  # under one 1 ns tick
    (dict(t_ref_s=math.inf), "t_ref must be finite and at least 1e-9 s"),
    (dict(d_out_s=math.inf), "d_out must be finite and >= 0"),
    (dict(t_ref_s=math.nan), "t_ref must be finite and at least 1e-9 s"),
    (dict(d_out_s=-1e-5), "d_out must be finite and >= 0"),
    (dict(v_floor_factor=-0.5), "require v_th > v_reset >= v_floor"),  # floor above reset
    (dict(w_lateral=math.nan), "synapse weight must be finite and >= 0"),
]


@pytest.mark.parametrize(
    "kw, message", LIF_CASES, ids=[f"kw{i}" for i in range(len(LIF_CASES))]
)
def test_lif_validation(kw, message):
    with pytest.raises(ConfigError, match=message):
        NetworkParams(**kw)


def test_a_refractory_period_may_last_one_tick():
    # spikes are instantaneous, so nothing but the 1 ns clock bounds t_ref
    assert NetworkParams(t_ref_s=1e-9).t_ref_s == 1e-9
    assert NetworkParams(t_ref_s=1e-5, d_out_s=0.0).t_ref_s == 1e-5

def test_spike_record_counts():
    r = SpikeRecord(3, [2, 0, 0], [50_000_000, 100_000_000, 200_000_000])
    assert r.n_neurons == 3
    assert r.counts() == (2, 0, 1)
    assert len(r.t) == 3


def test_spike_record_holds_read_only_arrays_in_time_then_neuron_order():
    r = SpikeRecord(3, [2, 0, 2, 0], [50_000_000, 100_000_000, 100_000_000, 200_000_000])
    assert r.neuron.dtype == np.int64 and r.t.dtype == np.int64
    with pytest.raises(ValueError):
        r.t[0] = 1
    # the trains are in seconds
    assert r.spike_times == ((0.1, 0.2), (), (0.05, 0.1))
    assert SpikeRecord(2, [], []).spike_times == ((), ())


def test_spike_record_requires_strictly_increasing_trains():
    with pytest.raises(ConfigError, match="neuron 0: spike times not strictly increasing"):
        SpikeRecord(1, [0, 0], [2, 2])
    with pytest.raises(ConfigError, match="neuron 2: spike times not strictly increasing"):
        SpikeRecord(3, [0, 2, 2], [1, 1, 1])
    with pytest.raises(ConfigError, match="neuron 1: spike times not strictly increasing"):
        SpikeRecord(2, [0, 1, 1], [1, 2, 2])


def test_spike_record_validation():
    with pytest.raises(ConfigError, match=r"not sorted by \(t, neuron\)"):
        SpikeRecord(2, [0, 1], [2, 1])
    with pytest.raises(ConfigError, match=r"not sorted by \(t, neuron\)"):
        SpikeRecord(2, [1, 0], [1, 1])
    with pytest.raises(ConfigError, match=r"outside 0\.\.1"):
        SpikeRecord(2, [2], [1])
    with pytest.raises(ConfigError, match="same length"):
        SpikeRecord(2, [0, 1], [1])


def test_rate_series_grid():
    s = RateSeries(1.0, 0.5, [0.0, 1.0, 2.0])
    assert s.same_grid(RateSeries(1.0, 0.5, [9.0, 9.0, 9.0]))
    assert not s.same_grid(RateSeries(0.0, 0.5, [9.0, 9.0, 9.0]))
    assert not s.same_grid(RateSeries(1.0, 0.5, [9.0, 9.0]))
    with pytest.raises(ConfigError):
        RateSeries(0.0, 0.0, [1.0])
    with pytest.raises(ConfigError):
        RateSeries(0.0, 0.5, [[1.0, 2.0]])


def test_fmt_float():
    assert fmt_float(-0.0) == "0"
    assert fmt_float(2.0) == "2"
    assert fmt_float(0.15) == "0.15"
    assert fmt_float(1.0 / 3.0) == "0.333333333"


def test_events_csv_round_trip(tmp_path):
    evs = [Event(1, 2, 0.0), Event(2, 2, 0.000123457), Event(4, 0, 0.5)]
    stream = event_stream(evs, 5, 5)
    path = tmp_path / "ev.csv"
    write_events_csv(stream, str(path)).join()
    text = path.read_text().splitlines()
    assert text == ["x,y,t_s", "1,2,0", "2,2,0.000123457", "4,0,0.5"]


def test_spikes_csv_round_trip(tmp_path):
    rec = spike_record(((1e-4, 0.25), (), (0.1,)))
    path = tmp_path / "spikes.csv"
    write_spikes_csv(rec, str(path)).join()
    lines = path.read_text().splitlines()
    assert lines[0] == "neuron_id,t_s"
    # rows come out sorted by time, not by neuron
    assert lines[1:] == ["0,0.0001", "2,0.1", "0,0.25"]


def _tied_spike_record(rng):
    """Spike trains over four and a half CSV blocks, with shared times."""
    pool = np.round(rng.uniform(0.0, 5.0, 400), 4)
    trains = tuple(
        tuple(sorted(set(rng.choice(pool, 45).tolist()))) for _ in range(CSV_BLOCK_ROWS // 10)
    )
    return spike_record(((0.0,),) + trains)


def _reference_spikes_csv(rec, path):
    """The row-by-row csv.writer export that write_spikes_csv replaces."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["neuron_id", "t_s"])
        rows = sorted((t, n) for n, train in enumerate(rec.spike_times) for t in train)
        for t, n in rows:
            writer.writerow([n, fmt_float(t)])


def _random_stream(rng, n):
    events = [Event(int(x), int(y), float(t)) for x, y, t in zip(
        rng.integers(0, 9, n), rng.integers(0, 9, n), rng.uniform(0.0, 3.0, n))]
    return event_stream(events + [Event(0, 0, 0.0)], 9, 9)


def _reference_events_csv(stream, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "t_s"])
        for ev in stream.events:
            writer.writerow([ev.x, ev.y, fmt_float(ev.t)])


def test_spikes_and_events_csv_match_the_row_by_row_writer(tmp_path):
    rng = np.random.default_rng(4)
    # crosses block boundaries; shared times exercise the neuron-id tie break
    rec = _tied_spike_record(rng)
    write_spikes_csv(rec, str(tmp_path / "spikes.csv")).join()
    _reference_spikes_csv(rec, tmp_path / "spikes_ref.csv")
    assert len(rec.t) > CSV_BLOCK_ROWS
    assert (tmp_path / "spikes.csv").read_bytes() == (tmp_path / "spikes_ref.csv").read_bytes()

    stream = _random_stream(rng, CSV_BLOCK_ROWS + 5)
    write_events_csv(stream, str(tmp_path / "ev.csv")).join()
    _reference_events_csv(stream, tmp_path / "ev_ref.csv")
    assert (tmp_path / "ev.csv").read_bytes() == (tmp_path / "ev_ref.csv").read_bytes()


def test_forked_spikes_and_events_csv_match_the_row_by_row_writer(tmp_path, usable_cpus, forks):
    rng = np.random.default_rng(4)
    rec = _tied_spike_record(rng)
    stream = _random_stream(rng, 4 * CSV_BLOCK_ROWS + 5)
    _reference_spikes_csv(rec, tmp_path / "spikes_ref.csv")
    _reference_events_csv(stream, tmp_path / "ev_ref.csv")
    # both tables end mid-block, in the fifth block
    assert 4 * CSV_BLOCK_ROWS < len(rec.t) < 5 * CSV_BLOCK_ROWS
    for parts in (2, 3, 4):
        usable_cpus(parts)
        for write, table, name in ((write_spikes_csv, rec, "spikes"), (write_events_csv, stream, "ev")):
            del forks[:]
            before = sorted(os.listdir(tmp_path))
            writer = write(table, str(tmp_path / f"{name}.csv"))
            # the parts are unnamed: nothing appears before join
            assert sorted(os.listdir(tmp_path)) == before
            writer.join()
            assert len(forks) == parts
            assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()
            for pid in forks:  # every child was reaped
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)
        assert sorted(os.listdir(tmp_path)) == ["ev.csv", "ev_ref.csv", "spikes.csv", "spikes_ref.csv"]


def test_one_usable_cpu_formats_serially(tmp_path, usable_cpus, no_fork):
    usable_cpus(1)
    rec = _tied_spike_record(np.random.default_rng(4))
    write_spikes_csv(rec, str(tmp_path / "spikes.csv")).join()
    _reference_spikes_csv(rec, tmp_path / "spikes_ref.csv")
    assert (tmp_path / "spikes.csv").read_bytes() == (tmp_path / "spikes_ref.csv").read_bytes()


def test_host_without_fork_formats_serially(tmp_path, monkeypatch, usable_cpus):
    usable_cpus(2)
    monkeypatch.delattr(os, "fork")
    rec = _tied_spike_record(np.random.default_rng(4))
    write_spikes_csv(rec, str(tmp_path / "spikes.csv")).join()
    _reference_spikes_csv(rec, tmp_path / "spikes_ref.csv")
    assert (tmp_path / "spikes.csv").read_bytes() == (tmp_path / "spikes_ref.csv").read_bytes()


def test_a_table_of_one_block_is_formatted_in_the_caller(tmp_path, usable_cpus, no_fork):
    usable_cpus(4)
    for n in (0, 1, CSV_BLOCK_ROWS):
        ids = np.arange(n) % 7
        rec = SpikeRecord(7, ids, np.arange(n) * 1_000_000)
        write_spikes_csv(rec, str(tmp_path / "spikes.csv")).join()
        lines = (tmp_path / "spikes.csv").read_bytes().split(b"\r\n")
        assert len(lines) == n + 2 and lines[0] == b"neuron_id,t_s" and lines[-1] == b""


def test_csv_writer_asks_for_each_block_once_in_order(tmp_path, usable_cpus, no_fork):
    usable_cpus(1)
    for n in (0, 5, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 5):
        calls = []

        def block(i, j):
            calls.append((i, j))
            return np.arange(i, j), np.arange(i, j) * 0.5

        CsvWriter(str(tmp_path / "t.csv"), ["i", "v"], n, block).join()
        assert calls == [(i, min(i + CSV_BLOCK_ROWS, n)) for i in range(0, n, CSV_BLOCK_ROWS)]
        lines = (tmp_path / "t.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"i,v" and lines[-1] == b""
        assert lines[1:-1] == [f"{i},{fmt_float(i * 0.5)}".encode() for i in range(n)]


@pytest.mark.parametrize("error, reason", [
    (OSError(errno.ENOSPC, "No space left on device"), "No space left on device"),
    (RuntimeError("not an OSError"), "part writer exited with status 255"),
], ids=["oserror", "other-error"])
def test_a_failed_part_writer_raises_and_leaves_no_file(
    tmp_path, capfd, usable_cpus, forks, failing_children, error, reason
):
    usable_cpus(3)
    failing_children(error)
    rec = _tied_spike_record(np.random.default_rng(4))
    path = str(tmp_path / "spikes.csv")
    writer = write_spikes_csv(rec, path)
    assert len(forks) == 3
    with pytest.raises(ConfigError, match=f"^cannot write {re.escape(path)}: {reason}$"):
        writer.join()
    assert os.listdir(tmp_path) == []
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    if not isinstance(error, OSError):  # a child prints the traceback of its error
        assert "RuntimeError: not an OSError" in capfd.readouterr().err


def test_a_writer_left_by_an_exception_stops_its_children(tmp_path, usable_cpus, forks):
    usable_cpus(2)
    rec = _tied_spike_record(np.random.default_rng(4))
    with pytest.raises(KeyboardInterrupt):
        with write_spikes_csv(rec, str(tmp_path / "spikes.csv")):
            raise KeyboardInterrupt
    assert len(forks) == 2
    assert os.listdir(tmp_path) == []
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    # a table of one block, formatted in the caller, does not reach its path either
    del forks[:]
    one_block = SpikeRecord(7, np.arange(10) % 7, np.arange(10) * 1_000_000)
    with pytest.raises(KeyboardInterrupt):
        with write_spikes_csv(one_block, str(tmp_path / "spikes.csv")):
            raise KeyboardInterrupt
    assert forks == []
    assert not (tmp_path / "spikes.csv").exists()


def test_a_process_that_ends_before_join_leaves_no_file(tmp_path):
    # five blocks forked in two parts, then the process ends without join
    code = (
        "import os, sys\n"
        "import numpy as np\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from motionsnn.core import CSV_BLOCK_ROWS, CsvWriter\n"
        "n = 4 * CSV_BLOCK_ROWS + 5\n"
        "def block(i, j):\n"
        "    return np.arange(i, j), np.arange(i, j) * 0.5\n"
        "CsvWriter(sys.argv[1] + '/t.csv', ['i', 'v'], n, block)\n"
        "os._exit(0)\n"
    )
    src = str(Path(motionsnn.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                   env=dict(os.environ, PYTHONPATH=src), check=True)
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_part_writers_stop_when_their_process_ends(tmp_path):
    # 20 blocks of 0.1 s each in two shares, so each writer has about 1 s of
    # work; the process records the writers' pids and ends at once. The pids
    # go to a file: the writers would hold a captured stdout pipe open.
    code = (
        "import os, sys, time\n"
        "import numpy as np\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from motionsnn import core\n"
        "format_block = core._format_block\n"
        "def slow_format_block(columns):\n"
        "    time.sleep(0.1)\n"
        "    return format_block(columns)\n"
        "core._format_block = slow_format_block\n"
        "fork, pids = os.fork, []\n"
        "def recording_fork():\n"
        "    pid = fork()\n"
        "    pids.append(pid)\n"
        "    return pid\n"
        "os.fork = recording_fork\n"
        "n = 20 * core.CSV_BLOCK_ROWS\n"
        "core.CsvWriter(sys.argv[1] + '/t.csv', ['i'], n, lambda i, j: (np.arange(i, j),))\n"
        "with open(sys.argv[1] + '/pids', 'w') as fh:\n"
        "    fh.write(' '.join(map(str, pids)))\n"
        "os._exit(0)\n"
    )
    src = str(Path(motionsnn.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                   env=dict(os.environ, PYTHONPATH=src), check=True)
    pids = [int(pid) for pid in (tmp_path / "pids").read_text().split()]
    assert len(pids) == 2
    time.sleep(0.5)
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue  # ended and reaped
        state = stat.rsplit(")", 1)[1].split()[0]
        assert state == "Z", f"part writer {pid} still running 0.5 s after its process ended"
    assert os.listdir(tmp_path) == ["pids"]


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="waits for the children with os.waitid")
def test_join_sleeps_only_while_a_child_is_running(monkeypatch, forks):
    # WNOWAIT leaves every exited child to join to reap, so join finds them
    # all done and must return without a single poll interval
    def work(fd, share):
        os.write(fd, bytes(share))

    with Parts(work, [b"first", b"second"]) as parts:
        assert len(forks) == 2
        for pid in forks:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        sleeps = []
        monkeypatch.setattr(core.time, "sleep", sleeps.append)
        assert [part.read() for part in parts.join()] == [b"first", b"second"]
    assert sleeps == []


sorted_train = st.lists(st.integers(0, 10**10), max_size=8, unique=True).map(sorted)


@given(st.lists(sorted_train, max_size=5))
def test_spike_record_round_trips_its_trains(trains):
    # trains of ticks, handed over and given back in seconds
    rec = spike_record([[t * TIME_QUANTUM for t in train] for train in trains])
    assert rec.spike_times == tuple(tuple(t * TIME_QUANTUM for t in train) for train in trains)
    rows = sorted((t, n) for n, train in enumerate(trains) for t in train)
    assert list(zip(rec.t.tolist(), rec.neuron.tolist())) == rows


def _percent_block(columns):
    """The per-value reference: `%d` or `%.9g` of each value, -0.0 as 0,
    joined with "," and "\r\n"."""
    fmts = ["%d" if c.dtype.kind in "iu" else "%.9g" for c in columns]
    rows = zip(*(c.tolist() for c in columns))
    cells = (",".join(f % (v + 0.0 if f == "%.9g" else v) for f, v in zip(fmts, row)) for row in rows)
    return "".join(cell + "\r\n" for cell in cells).encode()


def _ulps(v, k):
    """v moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


_bit_floats = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
# up to 2 ulps either side of 10**k and of 9.9999999995 * 10**k, where the 9 digits carry into a new power
_near_powers = st.builds(
    lambda m, k, u: _ulps(float(f"{m}e{k}"), u),
    st.sampled_from(["1", "9.9999999995"]), st.integers(-323, 307), st.integers(-2, 2),
)
# the doubles nearest to a decimal tie at the 10th significant digit, and their neighbours
_near_ties = st.builds(
    lambda b, x, u: _ulps(float(f"{b}5e{x - 9}"), u),
    st.integers(10**8, 10**9 - 1), st.integers(-300, 300), st.integers(-1, 1),
)
# the fixed/exponent switches at x = -5/-4 and 8/9
_switches = st.one_of(st.floats(5e-6, 2e-4), st.floats(5e7, 2e9))
_float_values = st.one_of(
    st.floats(width=64), _bit_floats, _near_powers, _near_ties, _switches,
).flatmap(lambda v: st.sampled_from([v, -v]))
_int_values = st.one_of(
    st.integers(-(2**53 - 1), 2**53 - 1), st.integers(10**9 - 3, 10**9 + 3).flatmap(lambda v: st.sampled_from([v, -v])),
)
_columns = st.lists(
    st.one_of(
        st.lists(_float_values, min_size=1, max_size=20).map(lambda vs: np.array(vs, dtype=np.float64)),
        st.lists(_int_values, min_size=1, max_size=20).map(lambda vs: np.array(vs, dtype=np.int64)),
    ),
    min_size=1, max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(_columns, st.sampled_from([(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2.5, 0)]))
def test_a_block_is_formatted_as_percent_formats_each_value(columns, rows):
    # a block of one or two rows, or of passes + extra rows across the
    # per-pass chunk boundary
    passes, extra = rows
    n = int(passes * (core._CSV_PASS // len(columns))) + extra
    block = [np.resize(c, n) for c in columns]
    assert core._format_block(block) == _percent_block(block)


# One or more values for each case `_format_block` leaves to `%`.
_LEFT_TO_PERCENT = {
    "not finite": [math.nan, math.inf, -math.inf],
    "below 1e-300 in magnitude": [9.99e-301, -2.5e-308, 5e-324],
    # scaled, these lie within 2**-20 of a half and round the other way in float64
    "near a decimal tie": [8.872909265e-73, 9.512271425e79, 9.901803385e-21, 9.139958325e216],
    "an exact decimal tie, rounded half to even": [1234567885.0, 123456788.5, -98765432.25, 12345678850.0],
    "at the bottom of the band": [1.0, 10.0, 1e-3, -1e100, 100000000.4, _ulps(1e5, -1)],
    "at the top of the band, where the digits carry": [9.999999995e5, 999999998.7, -9.9999999996e-7, 9.9999999999e299],
}


@pytest.mark.parametrize("case", _LEFT_TO_PERCENT)
def test_each_value_left_to_percent_is_formatted_by_it(case):
    values = np.array(_LEFT_TO_PERCENT[case])
    columns = [values, values[::-1].copy(), np.arange(len(values))]
    assert core._format_block(columns) == _percent_block(columns)


def test_an_integer_column_from_1e9_on_is_formatted_by_percent_d():
    ints = np.array([10**9 - 1, 10**9, -(10**9), 1234567890, 2**53 - 1, -(2**53 - 1)])
    floats = ints.astype(np.float64)
    text = core._format_block([ints, floats]).decode()
    assert text.splitlines()[1] == "1000000000,1e+09"
    assert core._format_block([ints, floats]) == _percent_block([ints, floats])
