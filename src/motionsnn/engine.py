"""Event-driven simulation of the spiking network.

Potentials decay lazily; synapses are instantaneous deltas. Deliveries that
share an exact timestamp are summed per target before a single threshold
check, so simultaneous excitation acts as a coincidence. A neuron whose
potential crosses threshold at time t emits its spike at t + d_out, which is
also when downstream targets receive it.

Every time in `simulate` is an int64 count of 1 ns ticks, as the stimulus and
the record hold it, so instants compare exactly. One end tick, t_end rounded,
bounds the events taken and the spikes delivered; only the decay uses seconds.

The engine relies on one layering rule, which `assemble_network` guarantees
and `simulate` checks: inputs feed only hidden neurons, and hidden and output
neurons feed only outputs. So the input gate and the relay layer depend on
the stimulus alone and are evaluated as arrays, the k-th event of every
pixel and then the k-th arrival of every relay at a time. Only the output
layer, recurrent through lateral inhibition, runs as a loop of waves. Every
stage applies the same IEEE operations in the same order as an event-by-event
run, so the layered evaluation changes no bit of the result. Each stage's
working arrays are released as soon as the next stage has its input, so the
run holds one stage's arrays at a time besides the spikes it will record.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    TIME_QUANTUM,
    DomainError,
    EventStream,
    NumericFault,
    SpikeRecord,
)
from .topology import NetworkGraph


@dataclass(frozen=True)
class SimulationOutput:
    record: SpikeRecord
    dropped_events: int
    refractory_dropped: int
    spike_totals: dict[str, int]


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Where each run of equal key tuples begins, in arrays sorted by them."""
    start = np.ones(len(keys[0]), dtype=bool)
    start[1:] = False
    for key in keys:
        start[1:] |= key[1:] != key[:-1]
    return start


def _by_rank(group: np.ndarray) -> list[np.ndarray]:
    """Positions of the sorted `group` split by rank within their group: the
    k-th array holds the k-th member of every group that has one."""
    head = np.flatnonzero(_run_starts(group))
    rank = np.arange(len(group)) - np.repeat(head, np.diff(np.r_[head, len(group)]))
    return np.split(np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank))[:-1])


def _summed_arrivals(
    net: NetworkGraph, pre: np.ndarray, ticks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The out-edges of the spikes (pre[i] at ticks[i], sorted by pre) summed
    per (target, tick), as (target, tick, sum) arrays in that order. Each sum
    is 0.0 plus the edges in (pre, CSR row) order: the spikes list them in
    that order and the sort is stable. `np.add.at` adds them one at a time."""
    count = net.indptr[pre + 1] - net.indptr[pre]
    # delivery j of a spike whose first delivery is j0 takes its edge j - j0 on
    edge = np.repeat(net.indptr[pre] - (np.cumsum(count) - count), count) + np.arange(count.sum())
    t = np.repeat(ticks, count)
    order = np.lexsort((t, net.post[edge]))
    edge = edge[order]
    t = t[order]
    del count, order
    target, w = net.post[edge], net.signed_w[edge]
    del edge
    new = _run_starts(target, t)
    target, t = target[new], t[new]
    sums = np.zeros(len(t))
    with np.errstate(over="ignore", invalid="ignore"):  # a fault, reported later
        np.add.at(sums, np.cumsum(new) - 1, w)
    return target, t, sums


def simulate(net: NetworkGraph, stim: EventStream, t_end: float) -> SimulationOutput:
    """Run the network against a stimulus for t_end seconds.

    Stimulus events map to input neurons by pixel; events on uncovered pixels
    are dropped and counted. Input neurons are pass-through sources limited
    only by their refractory period. A graph that breaks the layering rule
    (see the module docstring) is refused.
    """
    if t_end < 0.0 or not math.isfinite(t_end):
        raise DomainError("t_end must be finite and >= 0")
    if (t_end + net.params.d_out_s) / TIME_QUANTUM >= 2.0**62:
        raise DomainError("t_end + d_out overflows the engine's 1 ns clock")
    if (
        stim.field_width != net.layout.field_width
        or stim.field_height != net.layout.field_height
    ):
        raise DomainError("stimulus field does not match the network layout")
    output_base = net.n_inputs + net.n_hidden
    split = net.indptr[net.n_inputs]  # the first out-edge of a hidden neuron
    if (
        ((net.post[:split] < net.n_inputs) | (net.post[:split] >= output_base)).any()
        or (net.post[split:] < output_base).any()
    ):
        raise DomainError(
            "the engine needs inputs to feed only hidden neurons, and hidden "
            "and output neurons to feed only outputs"
        )

    n = net.n_neurons
    # LIF constants every neuron shares; times in ticks from here on
    v_reset = net.params.v_reset
    # (a refractory period past the clock's range never ends within a run)
    t_ref = round(min(net.params.t_ref_s / TIME_QUANTUM, 2.0**62))
    d_out = round(net.params.d_out_s / TIME_QUANTUM)
    end = round(t_end / TIME_QUANTUM)

    # Input neuron id at pixel (x, y), stored at y * width + x; -1 where no
    # cell covers the pixel. Only events up to the end tick are looked up.
    width = net.layout.field_width
    id_at = np.full(width * net.layout.field_height, -1, dtype=np.int64)
    px, py = net.input_pixels.T
    id_at[py * width + px] = np.arange(net.n_inputs)
    n_ev = int(np.searchsorted(stim.t, end, side="right"))
    owners = id_at[stim.y[:n_ev] * width + stim.x[:n_ev]]
    covered = owners >= 0
    dropped = n_ev - int(np.count_nonzero(covered))

    # The input gate: each pixel's events in tick order, the k-th of every
    # pixel at a time. An event passes at least t_ref after the last one
    # that passed.
    by_pixel = np.argsort(owners[covered], kind="stable")
    in_pre, in_t = owners[covered][by_pixel], stim.t[:n_ev][covered][by_pixel]
    passed = np.ones(len(in_t), dtype=bool)
    last = np.full(net.n_inputs, -t_ref, dtype=np.int64)
    for k in _by_rank(in_pre):
        ok = in_t[k] - last[in_pre[k]] >= t_ref
        passed[k] = ok
        last[in_pre[k][ok]] = in_t[k][ok]
    refractory_dropped = len(in_t) - int(np.count_nonzero(passed))
    in_pre, in_t = in_pre[passed], in_t[passed]
    del id_at, owners, covered, by_pixel, passed, last

    # The relay layer: each relay's summed arrivals in tick order, the k-th
    # of every relay at a time, with the arithmetic of the wave loop below.
    # math.exp, not np.exp, gives the decay: numpy's SIMD exp may differ
    # from libm in the last bit.
    relay, r_t, r_sum = _summed_arrivals(net, in_pre, in_t)
    v_relay = np.zeros(n)
    ref_relay = np.zeros(n, dtype=np.int64)
    fired = np.zeros(len(r_t), dtype=bool)
    bad = np.zeros(len(r_t), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # a fault, reported below
        x = (r_t - np.where(_run_starts(relay), 0, np.roll(r_t, 1))) * -TIME_QUANTUM
        x /= net.tau_m[relay]
        decay = np.fromiter(map(math.exp, x), np.float64, len(x))
        del x
        for k in _by_rank(relay):
            post, t_now = relay[k], r_t[k]
            v_new = v_relay[post] * decay[k] + r_sum[k]
            v_new = np.where(v_new < net.v_floor[post], net.v_floor[post], v_new)
            bad[k] = ~np.isfinite(v_new)
            spike = (v_new >= net.v_th[post]) & (t_now >= ref_relay[post])
            fired[k] = spike
            v_relay[post] = np.where(spike, v_reset, v_new)
            ref_relay[post[spike]] = t_now[spike] + t_ref
    hid_pre, hid_t = relay[fired], r_t[fired] + d_out
    # The first relay fault in (tick, id) order ends the run at its tick: at
    # one instant the relays update before any output does.
    stop, fault = min(zip(r_t[bad].tolist(), relay[bad].tolist()), default=(end + 1, -1))
    del relay, r_t, r_sum, decay, v_relay, ref_relay, fired, bad

    # The output layer, the only recurrent one. Its delivery queue is a merge
    # of two sorted sequences: the relay spikes summed per (instant, output),
    # and a FIFO of (delivery time, spiker) output spikes. Every neuron
    # shares d_out and waves run at non-decreasing instants, so the FIFO's
    # times never decrease either. Output ids count from output_base here.
    # Relay spikes delivered after the end tick are summed too, but no wave
    # reaches them: `stop` is at most end + 1.
    arr_post, arr_t, arr_sum = _summed_arrivals(net, hid_pre, hid_t)
    order = np.lexsort((arr_post, arr_t))
    arr_t, arr_sum = arr_t[order].tolist(), arr_sum[order].tolist()
    arr_post = (arr_post[order] - output_base).tolist()
    e0 = net.indptr[output_base]
    indptr = (net.indptr[output_base:] - e0).tolist()
    out_post = (net.post[e0:] - output_base).tolist()
    out_w = net.signed_w[e0:].tolist()
    tau = net.tau_m[output_base:].tolist()
    v_th = net.v_th[output_base:].tolist()
    v_floor = net.v_floor[output_base:].tolist()
    spike_n: list[int] = []
    spike_t: list[int] = []
    v = [0.0] * len(tau)
    t_last = [0] * len(tau)
    ref_until = [0] * len(tau)
    fifo: deque[tuple[int, int]] = deque()

    i, n_arr = 0, len(arr_t)
    arr_t.append(stop)  # sentinel: no wave runs at or after it
    while i < n_arr or fifo:
        t_now = arr_t[i]
        if fifo and fifo[0][0] < t_now:
            t_now = fifo[0][0]
        if t_now >= stop:
            break
        # One wave: the relay sums for this exact instant, then the out-edges
        # of the outputs whose spikes arrive now, in (pre, CSR row) order.
        # t_ref > 0 keeps one neuron's spikes apart. Spikes triggered now
        # deliver at t_now + d_out (a later wave when d_out = 0).
        sums: dict[int, float] = {}
        while arr_t[i] == t_now:
            sums[arr_post[i]] = arr_sum[i]
            i += 1
        # `pres` is in pre order: the spikes due now come from one wave, in
        # its sorted(sums) order. With d_out > 0 waves run at distinct
        # instants, and it is the wave at t_now - d_out; with d_out = 0 it is
        # the wave just run, which popped every spike due now before its own.
        pres = []
        while fifo and fifo[0][0] == t_now:
            pres.append(fifo.popleft()[1])
        for pre in pres:
            for k in range(indptr[pre], indptr[pre + 1]):
                post = out_post[k]
                sums[post] = sums.get(post, 0.0) + out_w[k]
        for post in sorted(sums):
            dt = (t_now - t_last[post]) * TIME_QUANTUM
            v_new = v[post] * math.exp(-dt / tau[post]) + sums[post]
            if v_new < v_floor[post]:
                v_new = v_floor[post]
            if not math.isfinite(v_new):
                raise NumericFault(f"non-finite potential on neuron {post + output_base}")
            v[post] = v_new
            t_last[post] = t_now
            if v_new >= v_th[post] and t_now >= ref_until[post]:
                t_spike = t_now + d_out
                spike_n.append(post)
                spike_t.append(t_spike)
                v[post] = v_reset
                ref_until[post] = t_now + t_ref
                if t_spike <= end:
                    fifo.append((t_spike, post))
    if fault >= 0:
        raise NumericFault(f"non-finite potential on neuron {fault}")

    totals = {layer.value: len(s) for layer, s in zip(net.layer_ids(), (in_pre, hid_pre, spike_n))}
    neuron = np.concatenate([in_pre, hid_pre, np.array(spike_n, dtype=np.int64) + output_base])
    t_ticks = np.concatenate([in_t, hid_t, np.array(spike_t, dtype=np.int64)])
    del in_pre, in_t, hid_pre, hid_t, spike_n, spike_t
    del arr_post, arr_t, arr_sum, indptr, out_post, out_w
    order = np.lexsort((neuron, t_ticks))
    neuron, t_ticks = neuron[order], t_ticks[order]
    record = SpikeRecord(n, neuron, t_ticks)
    return SimulationOutput(
        record=record,
        dropped_events=dropped,
        refractory_dropped=refractory_dropped,
        spike_totals=totals,
    )
