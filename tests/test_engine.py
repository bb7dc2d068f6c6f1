"""Event-driven LIF engine semantics, checked against a fixed-step oracle."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from motionsnn import (
    CellLayout,
    Direction,
    RunConfig,
    DomainError,
    Event,
    EventStream,
    NetworkParams,
    assemble_network,
    simulate,
)

from motionsnn.config import build_network, build_stimulus, build_trajectory
from motionsnn.core import TIME_QUANTUM
from motionsnn.engine import _summed_arrivals
from motionsnn.topology import Layer

from oracles import (
    engine_spike_steps,
    event_stream,
    fixed_step_spikes,
    per_edge_heap_simulate,
    random_single_cell,
    tie_heavy_single_cell,
)

# One cell on a 3 x 3 field: center (1, 1), edge pixels one step out.
CENTER = (1, 1)
UP_PX, DOWN_PX = (1, 2), (1, 0)
LEFT_PX, RIGHT_PX = (0, 1), (2, 1)


def one_cell(params=None, **kw):
    layout = CellLayout(3, 3, -1, (CENTER,))
    return assemble_network(layout, params=params or NetworkParams(), **kw)


def input_id(net, pixel):
    return net.input_pixels.tolist().index(list(pixel))


def stream(*events):
    return event_stream([Event(x, y, t) for (x, y), t in events], 3, 3)


def out_train(net, sim, direction):
    nid = net.output_ids[direction][0]
    return sim.record.spike_times[nid]


def test_empty_stimulus_is_silent():
    net = one_cell()
    sim = simulate(net, EventStream(3, 3, [], [], []), t_end=1.0)
    assert len(sim.record.t) == 0
    assert sim.dropped_events == 0 and sim.refractory_dropped == 0


def test_simulate_validation():
    net = one_cell()
    with pytest.raises(DomainError):
        simulate(net, EventStream(3, 3, [], [], []), t_end=-1.0)
    with pytest.raises(DomainError):
        simulate(net, EventStream(4, 4, [], [], []), t_end=1.0)
    # the engine's clock counts 1 ns ticks in an int64
    with pytest.raises(DomainError, match="1 ns clock"):
        simulate(net, EventStream(3, 3, [], [], []), t_end=1e10)
    # zero-length runs are legal and empty
    assert simulate(net, EventStream(3, 3, [], [], []), t_end=0.0).record.t.size == 0


def test_inputs_pass_through_and_relays_lag_by_the_output_delay():
    net = one_cell()
    sim = simulate(net, stream((CENTER, 0.0)), t_end=0.1)
    center_input = input_id(net, CENTER)
    assert sim.record.spike_times[center_input] == (0.0,)
    hidden = [
        sim.record.spike_times[nid] for nid in net.layer_ids()[Layer.HIDDEN]
        if sim.record.spike_times[nid]
    ]
    assert hidden == [(1e-4,)]  # only the center relay fires
    # a single excitatory delivery keeps every output below threshold
    for d in Direction:
        assert out_train(net, sim, d) == ()


def test_two_spike_coincidence_window():
    # pair fires iff the gap stays within tau * ln 2 (1.0 decayed + 1.0 >= 1.5)
    tau_ln2 = 0.5 * math.log(2.0)
    for gap, fires in [(0.9 * tau_ln2, True), (1.1 * tau_ln2, False)]:
        net = one_cell()
        sim = simulate(net, stream((LEFT_PX, 0.0), (CENTER, gap)), t_end=gap + 0.01)
        right = out_train(net, sim, Direction.RIGHT)
        if fires:
            assert right == (pytest.approx(gap + 2e-4),)
        else:
            assert right == ()
        assert out_train(net, sim, Direction.LEFT) == ()
        assert out_train(net, sim, Direction.UP) == ()


def test_same_wave_deliveries_aggregate_before_the_threshold_check():
    # two half-weight EPSPs landing on the same instant act as a coincidence
    net = one_cell(NetworkParams(w_hidden_output=0.75))
    sim = simulate(net, stream((LEFT_PX, 0.0), (CENTER, 0.0)), t_end=0.01)
    assert out_train(net, sim, Direction.RIGHT) == (pytest.approx(2e-4),)
    assert out_train(net, sim, Direction.UP) == ()
    assert out_train(net, sim, Direction.DOWN) == ()


def test_same_instant_deliveries_are_summed_in_presynaptic_id_order():
    # (1.2 + 1.2) - 0.3 rounds to 2.1, but -0.3 + 1.2 + 1.2 and
    # (1.2 - 0.3) + 1.2 round below it: with the threshold at 2.1 the RIGHT
    # output fires only if its three relays are added in id order
    params = NetworkParams(w_hidden_output=1.2, w_hidden_output_inh=0.3, output_v_th=2.1)
    net = one_cell(params)
    right = net.output_ids[Direction.RIGHT][0]
    # the relays' CSR rows, in relay id order
    hidden = net.layer_ids()[Layer.HIDDEN]
    lo, hi = net.indptr[hidden.start], net.indptr[hidden.stop]
    assert net.signed_w[lo:hi][net.post[lo:hi] == right].tolist() == [1.2, 1.2, -0.3]
    sim = simulate(net, stream((CENTER, 0.0), (LEFT_PX, 0.0), (RIGHT_PX, 0.0)), t_end=0.01)
    assert out_train(net, sim, Direction.RIGHT) == (pytest.approx(2e-4),)


def test_same_instant_input_arrivals_are_summed_in_presynaptic_id_order():
    # Built networks give every relay one input, so this graph adds two
    # input edges to the CENTER relay. Its three same-instant deliveries
    # must be summed in input-id order, (1.2 + 1.2) - 0.3 = 2.1, although
    # the stream lists the pixels in (y, x) order, DOWN, LEFT, CENTER.
    net = one_cell(NetworkParams(w_input_hidden=1.2, hidden_v_th=2.1))
    center, down, left = (input_id(net, px) for px in (CENTER, DOWN_PX, LEFT_PX))
    assert center < down < left
    relay = int(net.post[net.indptr[center]])
    rows = [list(zip(net.post[a:b].tolist(), net.signed_w[a:b].tolist()))
            for a, b in zip(net.indptr[:-1], net.indptr[1:])]
    rows[down].append((relay, 1.2))
    rows[left].append((relay, -0.3))
    edges = [e for row in rows for e in row]
    wired = dataclasses.replace(
        net,
        indptr=np.cumsum([0] + [len(row) for row in rows]),
        post=np.array([p for p, _ in edges]),
        signed_w=np.array([w for _, w in edges]),
        edge_index=np.arange(len(edges)),
    )
    stim = stream((CENTER, 0.0), (DOWN_PX, 0.0), (LEFT_PX, 0.0))
    sim = simulate(wired, stim, t_end=0.01)
    assert sim.record.spike_times[relay] == (1e-4,)
    assert_same_simulation(sim, per_edge_heap_simulate(wired, stim, 0.01))


def test_inhibition_shortly_before_the_pair_vetoes_it():
    # an IPSP of weight 1.0 right before the excitatory pair blocks the
    # output no matter how tight the pair is
    params = NetworkParams(w_hidden_output_inh=1.0)
    for gap in (1e-4, 5e-4, 0.01, 0.1, 0.3):
        net = one_cell(params)
        vetoed = simulate(
            net,
            stream((RIGHT_PX, 0.0), (LEFT_PX, 1e-3), (CENTER, 1e-3 + gap)),
            t_end=gap + 0.01,
        )
        assert out_train(net, vetoed, Direction.RIGHT) == ()
        control = simulate(
            net,
            stream((LEFT_PX, 1e-3), (CENTER, 1e-3 + gap)),
            t_end=gap + 0.01,
        )
        assert (out_train(net, control, Direction.RIGHT) != ()) == (
            gap <= 0.5 * math.log(2.0)
        )


def test_rightward_sequence_drives_right_only():
    net = one_cell()
    sim = simulate(
        net, stream((LEFT_PX, 0.0), (CENTER, 0.05), (RIGHT_PX, 0.1)), t_end=0.2
    )
    assert len(out_train(net, sim, Direction.RIGHT)) >= 1
    assert out_train(net, sim, Direction.LEFT) == ()
    assert out_train(net, sim, Direction.UP) == ()
    assert out_train(net, sim, Direction.DOWN) == ()


def test_input_refractory_gate():
    net = one_cell()
    sim = simulate(net, stream((CENTER, 0.0), (CENTER, 1e-4)), t_end=0.01)
    center_input = input_id(net, CENTER)
    assert sim.record.spike_times[center_input] == (0.0,)
    assert sim.refractory_dropped == 1
    # a gap of exactly t_ref is allowed again
    sim2 = simulate(net, stream((CENTER, 0.0), (CENTER, 2e-4)), t_end=0.01)
    assert sim2.record.spike_times[center_input] == (0.0, 2e-4)
    assert sim2.refractory_dropped == 0


def test_input_gate_compares_exact_ticks():
    # in float seconds 1.4e-3 - 1.2e-3 < 2e-4, which used to drop the
    # second event; on the nanosecond tick grid the gap is exactly t_ref
    net = one_cell()
    sim = simulate(net, stream((CENTER, 1.2e-3), (CENTER, 1.4e-3)), t_end=0.01)
    assert sim.refractory_dropped == 0
    # spike times are the ticks in seconds: 1200000 * 1e-9 is not 1.2e-3
    assert sim.record.spike_times[input_id(net, CENTER)] == (1200000 * 1e-9, 1400000 * 1e-9)


def test_events_off_the_tiling_are_dropped():
    layout_net = one_cell()
    sim = simulate(layout_net, stream(((0, 0), 0.0), (CENTER, 0.0)), t_end=0.01)
    assert sim.dropped_events == 1
    assert sim.record.spike_times[input_id(layout_net, CENTER)] == (0.0,)


def test_events_up_to_t_end_are_taken():
    net = one_cell()
    sim = simulate(
        net,
        stream((CENTER, 0.0), ((0, 0), 0.01), (CENTER, 0.01), ((0, 0), 0.02), (CENTER, 0.02)),
        t_end=0.01,
    )
    assert sim.record.spike_times[input_id(net, CENTER)] == (0.0, 0.01)
    assert sim.dropped_events == 1


def test_one_end_tick_cuts_the_events():
    # t_end = 0.0100000006 s is off the grid; the run ends at its nearest
    # tick, 10_000_001. An event on that tick is taken, though its time in
    # seconds lies after t_end, and one a tick later is not.
    net = one_cell()
    (cx, cy), (lx, ly) = CENTER, LEFT_PX
    stim = EventStream(3, 3, [cx, lx], [cy, ly], [10_000_001, 10_000_002])
    sim = simulate(net, stim, t_end=0.01 + 0.6e-9)
    inputs = net.layer_ids()[Layer.INPUT]
    taken = np.isin(sim.record.neuron, inputs)
    assert sim.record.neuron[taken].tolist() == [input_id(net, CENTER)]
    assert sim.record.t[taken].tolist() == [10_000_001]
    assert sim.dropped_events == sim.refractory_dropped == 0
    assert_same_simulation(sim, per_edge_heap_simulate(net, stim, 0.01 + 0.6e-9))
    assert engine_spike_steps(sim.record) == fixed_step_spikes(net, stim, 0.01 + 0.6e-9)


def test_ticks_stay_distinct_in_a_long_run():
    # Two events one tick apart, 9e6 s into a run. In seconds both ticks
    # read 9000000.000000002; the engine and the record keep them apart.
    net = one_cell()
    (cx, cy), (lx, ly) = CENTER, LEFT_PX
    first = 9_000_000_000_000_001
    stim = EventStream(3, 3, [lx, cx], [ly, cy], [first, first + 1])
    sim = simulate(net, stim, t_end=9e6 + 1e-3)
    d_out = round(net.params.d_out_s / TIME_QUANTUM)
    inputs = net.layer_ids()[Layer.INPUT]
    taken = np.isin(sim.record.neuron, inputs)
    assert sim.record.t[taken].tolist() == [first, first + 1]
    assert sim.record.neuron[taken].tolist() == [input_id(net, LEFT_PX), input_id(net, CENTER)]
    # the relays fire one output delay later, still a tick apart
    relays = ~taken & (sim.record.t < first + d_out + 2)
    assert sorted(set(sim.record.t[relays].tolist())) == [first + d_out, first + 1 + d_out]


def test_potential_floor_limits_inhibition_depth():
    # a huge lateral IPSP must saturate at v_floor = -2 * v_th, so the
    # silenced channel recovers on schedule instead of staying dead
    net = one_cell(NetworkParams(w_lateral=10.0))
    sim = simulate(
        net,
        stream(
            (DOWN_PX, 0.0), (CENTER, 1e-3),       # UP fires, lateral -10 at DOWN
            (UP_PX, 1.0), (CENTER, 1.0 + 1e-3),   # DOWN pair one second later
        ),
        t_end=1.2,
    )
    assert len(out_train(net, sim, Direction.UP)) == 1
    # unclamped the potential would sit near -10 * e^-2 + 2 < v_th here
    assert len(out_train(net, sim, Direction.DOWN)) == 1


def test_spike_totals_match_the_record():
    net = one_cell()
    sim = simulate(
        net, stream((LEFT_PX, 0.0), (CENTER, 0.05), (RIGHT_PX, 0.1)), t_end=0.2
    )
    # the engine sums by layer_ids; count by each neuron's exported label
    neurons = net.to_json_dict()["neurons"]
    by_layer = {"input": 0, "hidden": 0, "output": 0}
    for nid, train in enumerate(sim.record.spike_times):
        by_layer[neurons[nid]["layer"]] += len(train)
    assert sim.spike_totals == by_layer


def test_simulation_is_deterministic():
    net, stim, t_end = random_single_cell(4242)
    a = simulate(net, stim, t_end)
    b = simulate(net, stim, t_end)
    assert a.record.spike_times == b.record.spike_times


@pytest.mark.parametrize("seed", range(1000, 1020))
def test_engine_matches_fixed_step_oracle(seed):
    net, stim, t_end = random_single_cell(seed)
    sim = simulate(net, stim, t_end)
    assert engine_spike_steps(sim.record) == fixed_step_spikes(net, stim, t_end)


@pytest.mark.parametrize("seed", [7, 77])
def test_per_neuron_trains_respect_the_refractory_gap(seed):
    net, stim, t_end = random_single_cell(seed)
    sim = simulate(net, stim, t_end)
    t_ref = net.params.t_ref_s
    for train in sim.record.spike_times:
        for a, b in zip(train, train[1:]):
            assert b - a >= t_ref - 1e-12


def assert_same_simulation(sim, ref):
    assert sim.record.spike_times == ref.record.spike_times
    assert sim.dropped_events == ref.dropped_events
    assert sim.refractory_dropped == ref.refractory_dropped
    assert sim.spike_totals == ref.spike_totals


def test_per_spike_queue_sums_ties_like_the_per_edge_heap():
    # exact float equality: same-instant deliveries must be summed in the
    # per-edge heap's (t, pre, seq) order
    refractory_dropped = output_spikes = 0
    for seed in range(60):
        net, stim, t_end = tie_heavy_single_cell(seed)
        sim = simulate(net, stim, t_end)
        assert_same_simulation(sim, per_edge_heap_simulate(net, stim, t_end))
        refractory_dropped += sim.refractory_dropped
        output_spikes += sim.spike_totals["output"]
    # the streams really exercise the gate and reach the outputs
    assert refractory_dropped > 0 and output_spikes > 0


@pytest.mark.parametrize("seed", range(60))
def test_engine_matches_fixed_step_oracle_on_tie_heavy_streams(seed):
    # simultaneous arrivals and events exactly t_ref apart, on the 100 us grid
    net, stim, t_end = tie_heavy_single_cell(seed)
    sim = simulate(net, stim, t_end)
    assert engine_spike_steps(sim.record) == fixed_step_spikes(net, stim, t_end)


def test_per_spike_queue_matches_the_per_edge_heap_on_five_ranks():
    taus = tuple(float(t) for t in np.logspace(np.log10(0.005), np.log10(0.5), 5))
    cfg = RunConfig(n_per_dir=5, output_taus_s=taus, lateral_inhibition=False)
    net, stim, t_end = build_network(cfg), build_stimulus(cfg), build_trajectory(cfg).t_end
    sim = simulate(net, stim, t_end)
    assert sim.spike_totals["output"] > 0
    assert_same_simulation(sim, per_edge_heap_simulate(net, stim, t_end))


def footprint_circle(n_per_dir, **kw):
    """A 12 x 13 field of 22 cells under a footprint circle: every change
    enters several pixels, so many relays of many cells receive each instant.
    Five ranks get the sweep's n5 time constants."""
    taus = np.logspace(np.log10(0.005), np.log10(0.5), n_per_dir) if n_per_dir > 1 else [0.5]
    cfg = RunConfig(
        field_width=12,
        field_height=13,
        encoding="footprint",
        trajectory={"kind": "circle", "cx": 5.5, "cy": 6.0, "radius": 3.5, "freq_hz": 1.0},
        n_per_dir=n_per_dir,
        output_taus_s=tuple(float(t) for t in taus),
        **kw,
    )
    return build_network(cfg), build_stimulus(cfg), build_trajectory(cfg).t_end


@pytest.mark.parametrize("n_per_dir", [1, 5])
@pytest.mark.parametrize("lateral", [True, False])
def test_multi_cell_footprint_streams_match_the_per_edge_heap(n_per_dir, lateral):
    net, stim, t_end = footprint_circle(n_per_dir, lateral_inhibition=lateral)
    assert net.layout.n_cells > 1
    sim = simulate(net, stim, t_end)
    # the stream exercises the gate's drops and reaches the outputs
    assert sim.dropped_events > 0 and sim.refractory_dropped > 0
    assert sim.spike_totals["output"] > 0
    assert_same_simulation(sim, per_edge_heap_simulate(net, stim, t_end))


@pytest.mark.parametrize("n_per_dir", [1, 5])
def test_zero_output_delay_matches_the_per_edge_heap(n_per_dir):
    net, stim, t_end = footprint_circle(n_per_dir, network={"d_out_s": 0.0})
    sim = simulate(net, stim, t_end)
    layers = net.layer_ids()
    spikes_at = {
        name: set(sim.record.t[np.isin(sim.record.neuron, ids)].tolist())
        for name, ids in (("input", layers[Layer.INPUT]), ("hidden", layers[Layer.HIDDEN]))
    }
    # relay spikes land on their input's instant, and outputs still fire
    assert spikes_at["hidden"] and spikes_at["hidden"] <= spikes_at["input"]
    assert sim.spike_totals["output"] > 0
    assert_same_simulation(sim, per_edge_heap_simulate(net, stim, t_end))


def test_a_graph_that_breaks_the_layering_rule_is_refused():
    # the engine evaluates the input gate and the relay layer before the
    # outputs, so a relay that feeds a relay is refused, not mis-simulated
    net = one_cell()
    relays = net.layer_ids()[Layer.HIDDEN]
    rows = [list(zip(net.post[a:b].tolist(), net.signed_w[a:b].tolist()))
            for a, b in zip(net.indptr[:-1], net.indptr[1:])]
    rows[relays[0]].append((relays[1], 1.0))
    edges = [e for row in rows for e in row]
    wired = dataclasses.replace(
        net,
        indptr=np.cumsum([0] + [len(row) for row in rows]),
        post=np.array([p for p, _ in edges]),
        signed_w=np.array([w for _, w in edges]),
        edge_index=np.arange(len(edges)),
    )
    with pytest.raises(DomainError, match="feed only"):
        simulate(wired, stream((CENTER, 0.0)), t_end=0.01)


def per_edge_sums(net, pre, ticks):
    """(target, tick, sum) arrays in that order, each sum 0.0 plus its edges
    one at a time in (pre, CSR row) order."""
    sums = {}
    for p, t in zip(pre.tolist(), ticks.tolist()):
        for e in range(net.indptr[p], net.indptr[p + 1]):
            key = (int(net.post[e]), t)
            sums[key] = sums.get(key, 0.0) + float(net.signed_w[e])
    keys = sorted(sums)
    return (
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([sums[k] for k in keys], dtype=np.float64),
    )


@pytest.mark.parametrize("seed", range(8))
def test_summed_arrivals_add_each_edge_like_a_per_edge_loop(seed):
    rng = np.random.default_rng(seed)
    n = 12
    # neurons 0-10 have 0-4 out-edges onto 0-10, of mixed sign and magnitude
    # so that the order of the additions shows in the last bits; neuron 11
    # has one edge, of weight -0.0, onto neuron 11, which 0.0 + w makes 0.0
    degree = np.r_[rng.integers(0, 5, n - 1), 1]
    indptr = np.r_[0, np.cumsum(degree)]
    post = np.r_[rng.integers(0, n - 1, indptr[-2]), n - 1]
    signed_w = np.r_[rng.normal(0.0, 1.0, indptr[-2]) * 10.0 ** rng.integers(-8, 9, indptr[-2]), -0.0]
    net = SimpleNamespace(indptr=indptr, post=post, signed_w=signed_w)
    # 40 spikes sorted by pre on four ticks, so different spikes meet on
    # one (target, tick)
    pre = np.sort(np.r_[rng.integers(0, n, 39), n - 1])
    ticks = rng.integers(0, 4, 40) * 1000
    senders = {}
    for i, (p, t) in enumerate(zip(pre.tolist(), ticks.tolist())):
        for q in post[indptr[p] : indptr[p + 1]].tolist():
            senders.setdefault((q, t), set()).add(i)
    assert max(map(len, senders.values())) > 1

    target, t, sums = _summed_arrivals(net, pre, ticks)
    want = per_edge_sums(net, pre, ticks)
    assert target.tolist() == want[0].tolist() and t.tolist() == want[1].tolist()
    assert sums.view(np.int64).tolist() == want[2].view(np.int64).tolist()
    assert sums[target == n - 1].view(np.int64).tolist() == [0] * int(np.sum(target == n - 1))


def test_simulate_holds_few_records_at_its_peak(peak_bytes):
    # The large-field benchmark config: 27,178 neurons, 12,969 events and
    # 39,206 spikes, a record of 0.63 MB. Holding every stage's arrays to the
    # end, simulate peaked at 10.8 records above its inputs; releasing each
    # stage once the next has its input brings that to 3.8: the input and
    # relay spikes and the sort of the relay spikes' deliveries to the
    # outputs. Keeping the relay layer's arrays or the output layer's lists
    # to the end, or expanding the deliveries through a per-delivery spike
    # index, each takes it to 5.7-6.0, so the bound sits below those, with
    # room for other numpy versions' temporaries.
    cfg = RunConfig(
        field_width=100,
        field_height=101,
        trajectory={"kind": "circle", "cx": 49.5, "cy": 50.0, "radius": 45.0, "freq_hz": 0.15},
        encoding="footprint",
    )
    net, stim, t_end = build_network(cfg), build_stimulus(cfg), build_trajectory(cfg).t_end
    record = simulate(net, stim, t_end).record
    assert (net.n_neurons, len(stim), len(record.t)) == (27_178, 12_969, 39_206)
    records = peak_bytes(simulate, net, stim, t_end) / (record.neuron.nbytes + record.t.nbytes)
    assert records <= 5.0
