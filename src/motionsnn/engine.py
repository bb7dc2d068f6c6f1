"""Event-driven simulation of the spiking network.

Potentials decay lazily; synapses are instantaneous deltas. Deliveries that
share an exact timestamp are summed per target before a single threshold
check, so simultaneous excitation acts as a coincidence. A neuron whose
potential crosses threshold at time t emits its spike at t + d_out, which is
also when downstream targets receive it.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import (
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
    # LIF constants every neuron shares
    v_reset = net.params.v_reset
    t_ref = net.params.t_ref_s
    d_out = net.params.d_out_s

    # Input neuron id at pixel (x, y), stored at y * width + x; -1 where no
    # cell covers the pixel. Only events at or before t_end are looked up.
    width = net.layout.field_width
    id_at = np.full(width * net.layout.field_height, -1, dtype=np.int64)
    px, py = net.input_pixels.T
    id_at[py * width + px] = np.arange(net.n_inputs)
    n_ev = int(np.searchsorted(stim.t, t_end, side="right"))
    owners = id_at[stim.y[:n_ev] * width + stim.x[:n_ev]]

    v = [0.0] * n
    t_last = [0.0] * n
    ref_until = [-math.inf] * n
    spikes: list[list[float]] = [[] for _ in range(n)]

    # Heap entries: (delivery time, presynaptic id), one per spike; a wave
    # sums the popped neurons' out-edges in (pre, CSR row) order. The pair
    # is unique: the input gate drops a second event on a pixel at the same
    # instant, and t_ref > 0 keeps one neuron's spikes apart.
    heap: list[tuple[float, int]] = []

    dropped = int(np.count_nonzero(owners < 0))
    refractory_dropped = 0
    last_input_spike: dict[int, float] = {}
    for t, owner in zip(stim.t[:n_ev].tolist(), owners.tolist()):
        if owner < 0:
            continue
        prev = last_input_spike.get(owner)
        if prev is not None and t - prev < t_ref:
            refractory_dropped += 1
            continue
        last_input_spike[owner] = t
        spikes[owner].append(t)
        heap.append((t, owner))
    heapq.heapify(heap)

    while heap:
        t_now = heap[0][0]
        # One wave: everything already queued for this exact instant. Spikes
        # triggered now deliver at t_now + d_out (a later wave when d_out = 0).
        sums: dict[int, float] = {}
        while heap and heap[0][0] == t_now:
            pre = heapq.heappop(heap)[1]
            for k in range(indptr[pre], indptr[pre + 1]):
                post = out_post[k]
                sums[post] = sums.get(post, 0.0) + out_w[k]
        for post in sorted(sums):
            dt = t_now - t_last[post]
            v_new = v[post] * math.exp(-dt / tau[post]) + sums[post]
            if v_new < v_floor[post]:
                v_new = v_floor[post]
            if not math.isfinite(v_new):
                raise NumericFault(f"non-finite potential on neuron {post}")
            v[post] = v_new
            t_last[post] = t_now
            if v_new >= v_th[post] and t_now >= ref_until[post]:
                t_spike = t_now + d_out
                spikes[post].append(t_spike)
                v[post] = v_reset
                ref_until[post] = t_now + t_ref
                if t_spike <= t_end:
                    heapq.heappush(heap, (t_spike, post))

    record = SpikeRecord(tuple(tuple(train) for train in spikes))
    totals = {
        layer.value: sum(map(len, spikes[ids.start : ids.stop]))
        for layer, ids in net.layer_ids().items()
    }
    return SimulationOutput(
        record=record,
        dropped_events=dropped,
        refractory_dropped=refractory_dropped,
        spike_totals=totals,
    )
