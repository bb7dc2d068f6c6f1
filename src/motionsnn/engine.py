"""Event-driven simulation of the spiking network.

Potentials decay lazily; synapses are instantaneous deltas. Deliveries that
share an exact timestamp are summed per target before a single threshold
check, so simultaneous excitation acts as a coincidence. A neuron whose
potential crosses threshold at time t emits its spike at t + d_out, which is
also when downstream targets receive it.

Inside `simulate` every time is an integer count of nanosecond ticks (the
stimulus's time grid), so instants compare exactly; spike times are turned
back into seconds once, at the end.
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


def simulate(net: NetworkGraph, stim: EventStream, t_end: float) -> SimulationOutput:
    """Run the network against a stimulus for t_end seconds.

    Stimulus events map to input neurons by pixel; events on uncovered pixels
    are dropped and counted. Input neurons are pass-through sources limited
    only by their refractory period.
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

    n = net.n_neurons
    indptr = net.indptr.tolist()
    out_post = net.post.tolist()
    out_w = net.signed_w.tolist()
    tau = net.tau_m.tolist()
    v_th = net.v_th.tolist()
    v_floor = net.v_floor.tolist()
    # LIF constants every neuron shares; times in ticks from here on
    v_reset = net.params.v_reset
    # (a refractory period past the clock's range never ends within a run)
    t_ref = round(min(net.params.t_ref_s / TIME_QUANTUM, 2.0**62))
    d_out = round(net.params.d_out_s / TIME_QUANTUM)
    end = round(t_end / TIME_QUANTUM)

    # Input neuron id at pixel (x, y), stored at y * width + x; -1 where no
    # cell covers the pixel. Only events at or before t_end are looked up.
    width = net.layout.field_width
    id_at = np.full(width * net.layout.field_height, -1, dtype=np.int64)
    px, py = net.input_pixels.T
    id_at[py * width + px] = np.arange(net.n_inputs)
    n_ev = int(np.searchsorted(stim.t, t_end, side="right"))
    ticks = np.rint(stim.t[:n_ev] / TIME_QUANTUM).astype(np.int64)
    owners = id_at[stim.y[:n_ev] * width + stim.x[:n_ev]]

    v = [0.0] * n
    t_last = [0] * n
    ref_until = [0] * n
    # Every spike as (neuron, time) in the order it is emitted.
    spike_n: list[int] = []
    spike_t: list[int] = []

    # The delivery queue is a merge of two sorted sequences: the accepted
    # input arrivals, and a FIFO of (delivery time, spiker) pairs. Every
    # neuron shares d_out and waves run at non-decreasing instants, so the
    # FIFO's times never decrease either.
    in_t: list[int] = []
    in_pre: list[int] = []
    dropped = int(np.count_nonzero(owners < 0))
    refractory_dropped = 0
    last_input_spike: dict[int, int] = {}
    for t, owner in zip(ticks.tolist(), owners.tolist()):
        if owner < 0:
            continue
        prev = last_input_spike.get(owner)
        if prev is not None and t - prev < t_ref:
            refractory_dropped += 1
            continue
        last_input_spike[owner] = t
        in_t.append(t)
        in_pre.append(owner)
    spike_n += in_pre
    spike_t += in_t
    fifo: deque[tuple[int, int]] = deque()

    i, n_in = 0, len(in_t)
    in_t.append(end + 1)  # sentinel: later than anything queued
    while i < n_in or fifo:
        t_now = in_t[i]
        if fifo and fifo[0][0] < t_now:
            t_now = fifo[0][0]
        # One wave: everything already queued for this exact instant, its
        # spikers' out-edges summed in (pre, CSR row) order. The pair is
        # unique: the input gate drops a second event on a pixel at the same
        # instant, and t_ref > 0 keeps one neuron's spikes apart. Spikes
        # triggered now deliver at t_now + d_out (a later wave when d_out = 0).
        pres = []
        while in_t[i] == t_now:
            pres.append(in_pre[i])
            i += 1
        while fifo and fifo[0][0] == t_now:
            pres.append(fifo.popleft()[1])
        pres.sort()
        sums: dict[int, float] = {}
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
                raise NumericFault(f"non-finite potential on neuron {post}")
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

    neuron = np.array(spike_n, dtype=np.int64)
    t_ticks = np.array(spike_t, dtype=np.int64)
    order = np.lexsort((neuron, t_ticks))
    record = SpikeRecord(n, neuron[order], t_ticks[order] * TIME_QUANTUM)
    per_neuron = np.bincount(neuron, minlength=n)
    totals = {
        layer.value: int(per_neuron[ids.start : ids.stop].sum())
        for layer, ids in net.layer_ids().items()
    }
    return SimulationOutput(
        record=record,
        dropped_events=dropped,
        refractory_dropped=refractory_dropped,
        spike_totals=totals,
    )
