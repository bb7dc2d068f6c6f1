"""Value types and CSV writers."""

import csv
import errno
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motionsnn import (
    ConfigError,
    Direction,
    DIRECTION_ORDER,
    Event,
    EventStream,
    NetworkParams,
    RateSeries,
    Role,
    Sign,
    SpikeRecord,
    Synapse,
    assemble_network,
    tessellate,
)
from motionsnn.core import (
    CSV_BLOCK_ROWS,
    fmt_float,
    role_of,
    write_events_csv,
    write_spikes_csv,
)


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


def test_role_of_maps_onto_matching_role():
    for d in Direction:
        assert role_of(d).value == d.value
    assert Role.CENTER.value not in {d.value for d in Direction}


def test_event_stream_sorts_by_time_then_row_then_column():
    evs = [Event(2, 1, 0.0), Event(1, 2, 0.0), Event(1, 1, 0.0), Event(0, 0, 1e-4)]
    s = EventStream.from_events(evs, 4, 4)
    assert [(e.x, e.y, e.t) for e in s.events] == [
        (1, 1, 0.0),
        (2, 1, 0.0),
        (1, 2, 0.0),
        (0, 0, 1e-4),
    ]
    assert len(s) == 4


def test_event_stream_rejects_bad_input():
    with pytest.raises(ConfigError, match=r"not sorted by \(t, y, x\)"):
        EventStream(3, 3, [1, 1], [1, 1], [0.002, 0.001])
    with pytest.raises(ConfigError, match=r"event pixel \(3, 1\) outside field"):
        EventStream(3, 3, [3], [1], [0.0])
    with pytest.raises(ConfigError, match="event time -1e-09 must be finite"):
        EventStream(3, 3, [1], [1], [-1e-9])
    with pytest.raises(ConfigError, match="event time nan must be finite"):
        EventStream(3, 3, [1], [1], [math.nan])
    with pytest.raises(ConfigError, match="field dimensions must be positive"):
        EventStream(0, 3, [], [], [])


def test_event_stream_holds_read_only_arrays_in_order():
    # ties on t fall back to y, then x; unequal lengths are refused
    s = EventStream(4, 4, [2, 1, 3, 0], [1, 2, 2, 0], [0.0, 0.0, 0.0, 1e-4])
    assert (s.x.dtype, s.y.dtype, s.t.dtype) == (np.int64, np.int64, np.float64)
    for arr in (s.x, s.y, s.t):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert "events" not in vars(s)
    assert s.events == (Event(2, 1, 0.0), Event(1, 2, 0.0), Event(3, 2, 0.0), Event(0, 0, 1e-4))
    with pytest.raises(ConfigError, match="same length"):
        EventStream(4, 4, [1, 2], [1], [0.0])
    with pytest.raises(ConfigError, match="not sorted"):
        EventStream(4, 4, [2, 1], [1, 1], [0.0, 0.0])
    assert len(EventStream.from_events([], 4, 4)) == 0


def test_lif_defaults():
    # the floor sits v_floor_factor = 2 thresholds below rest in every layer
    net = assemble_network(tessellate(10, 11))
    output_base = net.n_inputs + net.n_hidden
    assert net.v_floor[:output_base].tolist() == [-1.0] * output_base
    assert net.v_floor[output_base:].tolist() == [-3.0] * net.n_outputs
    p = net.params
    assert p.v_reset == 0.0
    assert p.t_ref_s == 2e-4 and p.t_pw_s == 1e-4 and p.d_out_s == 1e-4


LIF_CASES = [
    (dict(tau_center_s=0.0), "tau_m must be positive and finite"),
    (dict(tau_directional_s=-0.1), "tau_m must be positive and finite"),
    (dict(hidden_v_th=0.0), "require v_th > v_reset"),  # threshold not above reset
    (dict(t_pw_s=0.0), "t_pw must be at least 1e-9 s"),
    (dict(t_pw_s=1e-10, t_ref_s=1e-10), "t_pw must be at least"),  # under one 1 ns tick
    (dict(t_ref_s=math.inf), "t_ref must be finite and >= t_pw"),
    (dict(d_out_s=math.inf), "d_out must be finite and >= 0"),
    (dict(t_ref_s=1e-5), "t_ref must be finite and >= t_pw"),  # shorter than the pulse
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


def test_synapse_signed_weight():
    assert Synapse(0, 1, 0.9, Sign.EXCITATORY).signed_weight == 0.9
    assert Synapse(0, 1, 1.1, Sign.INHIBITORY).signed_weight == -1.1
    with pytest.raises(ConfigError):
        Synapse(0, 1, -0.5, Sign.EXCITATORY)
    with pytest.raises(ConfigError):
        Synapse(0, 1, math.inf, Sign.EXCITATORY)


def test_spike_record_counts():
    r = SpikeRecord.from_trains(((0.1, 0.2), (), (0.05,)))
    assert r.n_neurons == 3
    assert r.counts() == (2, 0, 1)
    assert r.total() == 3


def test_spike_record_holds_read_only_arrays_in_time_then_neuron_order():
    r = SpikeRecord.from_trains(((0.1, 0.2), (), (0.05, 0.1)))
    assert r.neuron.tolist() == [2, 0, 2, 0]
    assert r.t.tolist() == [0.05, 0.1, 0.1, 0.2]
    assert r.neuron.dtype == np.int64 and r.t.dtype == np.float64
    with pytest.raises(ValueError):
        r.t[0] = 1.0
    assert r.spike_times == ((0.1, 0.2), (), (0.05, 0.1))
    direct = SpikeRecord(3, [2, 0, 2, 0], [0.05, 0.1, 0.1, 0.2])
    assert direct.spike_times == r.spike_times
    assert SpikeRecord(2, [], []).spike_times == ((), ())


def test_spike_record_requires_strictly_increasing_trains():
    with pytest.raises(ConfigError, match="neuron 0: spike times not strictly increasing"):
        SpikeRecord.from_trains(((0.2, 0.2),))
    with pytest.raises(ConfigError, match="neuron 1: spike times not strictly increasing"):
        SpikeRecord.from_trains(((0.1,), (0.2, 0.1)))
    with pytest.raises(ConfigError, match="neuron 1: spike times not strictly increasing"):
        SpikeRecord(2, [0, 1, 1], [0.1, 0.2, 0.2])


def test_spike_record_validation():
    with pytest.raises(ConfigError, match=r"not sorted by \(t, neuron\)"):
        SpikeRecord(2, [0, 1], [0.2, 0.1])
    with pytest.raises(ConfigError, match=r"not sorted by \(t, neuron\)"):
        SpikeRecord(2, [1, 0], [0.1, 0.1])
    with pytest.raises(ConfigError, match=r"outside 0\.\.1"):
        SpikeRecord(2, [2], [0.1])
    with pytest.raises(ConfigError, match="same length"):
        SpikeRecord(2, [0, 1], [0.1])


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
    stream = EventStream.from_events(evs, 5, 5)
    path = tmp_path / "ev.csv"
    write_events_csv(stream, str(path)).join()
    text = path.read_text().splitlines()
    assert text == ["x,y,t_s", "1,2,0", "2,2,0.000123457", "4,0,0.5"]


def test_spikes_csv_round_trip(tmp_path):
    rec = SpikeRecord.from_trains(((1e-4, 0.25), (), (0.1,)))
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
    return SpikeRecord.from_trains(((0.0,),) + trains)


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
    return EventStream.from_events(events + [Event(0, 0, 0.0)], 9, 9)


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
    assert rec.total() > CSV_BLOCK_ROWS
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
    assert 4 * CSV_BLOCK_ROWS < rec.total() < 5 * CSV_BLOCK_ROWS
    for parts in (2, 3, 4):
        usable_cpus(parts)
        for write, table, name in ((write_spikes_csv, rec, "spikes"), (write_events_csv, stream, "ev")):
            del forks[:]
            write(table, str(tmp_path / f"{name}.csv")).join()
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
        rec = SpikeRecord(7, ids, np.arange(n) * 1e-3)
        write_spikes_csv(rec, str(tmp_path / "spikes.csv")).join()
        lines = (tmp_path / "spikes.csv").read_bytes().split(b"\r\n")
        assert len(lines) == n + 2 and lines[0] == b"neuron_id,t_s" and lines[-1] == b""


@pytest.mark.parametrize("error, reason", [
    (OSError(errno.ENOSPC, "No space left on device"), "No space left on device"),
    (RuntimeError("not an OSError"), "part writer exited with status 255"),
], ids=["oserror", "other-error"])
def test_a_failed_part_writer_raises_and_leaves_no_file(
    tmp_path, usable_cpus, forks, failing_children, error, reason
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


sorted_train = st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=8, unique=True).map(sorted)


@given(st.lists(sorted_train, max_size=5))
def test_spike_record_round_trips_its_trains(trains):
    rec = SpikeRecord.from_trains(trains)
    assert rec.spike_times == tuple(map(tuple, trains))
    rows = sorted((t, n) for n, train in enumerate(trains) for t in train)
    assert list(zip(rec.t.tolist(), rec.neuron.tolist())) == rows
