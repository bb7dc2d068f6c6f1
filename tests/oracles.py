"""Reference implementations the test suite checks the package against.

Everything in here is written the slow, obvious way on purpose: a fixed-step
integrator for the network and direct kernel superposition for the rate
filter. The package has to agree with these, not the other way around.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from types import SimpleNamespace

import numpy as np

from motionsnn import (
    DIRECTION_ORDER,
    CellLayout,
    CircleTrajectory,
    Direction,
    DomainError,
    EightTrajectory,
    EmitMode,
    Event,
    EventStream,
    FilterParams,
    LinearTrajectory,
    MotionSnnError,
    NetworkGraph,
    NetworkParams,
    NumericFault,
    RateGrid,
    RateSeries,
    SimulationOutput,
    SpikeRecord,
    WaypointTrajectory,
    accuracy,
    assemble_network,
    dominant_frequency,
    phase_lag_deg,
)
from motionsnn.config import build_network, build_trajectory
from motionsnn.core import TIME_QUANTUM
from motionsnn.stimulus import footprint, round_half_up

STEP_S = 1e-6


def fixed_step_spikes(
    net: NetworkGraph, stream: EventStream, t_end: float, step_s: float = STEP_S
) -> list[tuple[int, ...]]:
    """March the whole network on a fixed 1 us grid.

    Returns integer spike steps per neuron. Decay is applied one step at a
    time, so the only things shared with the event-driven engine are the
    network description and the run's end: t_end rounded to a whole tick,
    after which no event is taken and no spike delivered.
    """
    n = net.n_neurons
    step = round(step_s / TIME_QUANTUM)  # ticks per step
    end = round(t_end / TIME_QUANTUM)
    v_th, v_floor = net.v_th, net.v_floor
    factor = np.exp(-step_s / net.tau_m)
    # constants every neuron shares
    v_reset = net.params.v_reset
    d_out = int(round(net.params.d_out_s / step_s))
    t_ref = int(round(net.params.t_ref_s / step_s))

    # each neuron's out-edges as (post, signed weight), from its CSR row
    outgoing = [
        list(zip(net.post[a:b].tolist(), net.signed_w[a:b].tolist()))
        for a, b in zip(net.indptr[:-1], net.indptr[1:])
    ]
    input_id = {(x, y): nid for nid, (x, y) in enumerate(net.input_pixels.tolist())}

    # Input layer: pass-through sources, gated only by their refractory time.
    pending: dict[int, dict[int, float]] = {}
    trains: list[list[int]] = [[] for _ in range(n)]
    prev_input: dict[int, int] = {}
    for x, y, t in zip(stream.x.tolist(), stream.y.tolist(), stream.t.tolist()):
        if t > end:
            break
        nid = input_id.get((x, y))
        if nid is None:
            continue
        s = round(t / step)
        prev = prev_input.get(nid)
        if prev is not None and s - prev < t_ref:
            continue
        prev_input[nid] = s
        trains[nid].append(s)
        bucket = pending.setdefault(s, {})
        for post, w in outgoing[nid]:
            bucket[post] = bucket.get(post, 0.0) + w

    v = np.zeros(n)
    ref_until = [0] * n
    last_step = end // step
    for s in range(last_step + 1):
        if s > 0:
            v *= factor
        bucket = pending.pop(s, None)
        if bucket is None:
            continue
        for post in sorted(bucket):
            v[post] = max(v[post] + bucket[post], v_floor[post])
            if v[post] >= v_th[post] and s >= ref_until[post]:
                spike = s + d_out
                trains[post].append(spike)
                v[post] = v_reset
                ref_until[post] = s + t_ref
                if spike * step <= end:
                    late = pending.setdefault(spike, {})
                    for q, w in outgoing[post]:
                        late[q] = late.get(q, 0.0) + w
    return [tuple(t) for t in trains]


def engine_spike_steps(
    record: SpikeRecord, step_s: float = STEP_S
) -> list[tuple[int, ...]]:
    return [tuple(int(round(t / step_s)) for t in train) for train in record.spike_times]


# Pixels of the single cell centered at (2, 2) on a 5 x 5 field.
_CELL_PIXELS = ((2, 2), (2, 3), (2, 1), (1, 2), (3, 2))


def random_single_cell(seed: int) -> tuple[NetworkGraph, EventStream, float]:
    """One randomized single-cell network plus a stimulus stream.

    Event times are drawn on the microsecond grid with pairwise distinct
    residues modulo 100 us (the spike output delay), so no causal chain from
    one stimulus event can land on the same instant as another event's chain.
    That keeps simultaneity, refractory and end-of-run comparisons free of
    floating-point tie-breaking, in both integrators.
    """
    rng = np.random.default_rng(seed)
    params = NetworkParams(
        hidden_v_th=float(rng.uniform(0.3, 0.8)),
        tau_center_s=float(rng.uniform(0.001, 0.004)),
        tau_directional_s=float(rng.uniform(0.005, 0.05)),
        output_v_th=float(rng.uniform(1.2, 2.2)),
        w_input_hidden=float(rng.uniform(0.6, 1.4)),
        w_hidden_output=float(rng.uniform(0.6, 1.4)),
        w_hidden_output_inh=float(rng.uniform(0.6, 1.6)),
        w_lateral=float(rng.uniform(0.5, 2.0)),
        input_tau_s=float(rng.uniform(0.005, 0.05)),
    )
    n_per = int(rng.integers(1, 3))
    taus = tuple(
        float(t) for t in np.exp(rng.uniform(math.log(0.003), math.log(0.6), n_per))
    )
    layout = CellLayout(5, 5, -1, ((2, 2),))
    net = assemble_network(layout, output_taus_s=taus, params=params)

    n_ev = int(rng.integers(18, 40))
    residues = rng.choice(np.arange(1, 100), size=n_ev, replace=False)
    span = int(rng.integers(60, 400))  # smaller spans stress the refractory gate
    times_us = np.sort(residues + 100 * rng.integers(0, span, size=n_ev))
    events = []
    for us in times_us:
        k = 2 if rng.random() < 0.3 else 1
        for i in rng.choice(len(_CELL_PIXELS), size=k, replace=False):
            x, y = _CELL_PIXELS[i]
            events.append(Event(x=x, y=y, t=float(us) * 1e-6))
    stream = event_stream(events, 5, 5)
    t_end = (float(times_us.max()) + 357.0) * 1e-6 + 5e-7
    return net, stream, t_end


def tie_heavy_single_cell(seed: int) -> tuple[NetworkGraph, EventStream, float]:
    """One single-cell network and a stream full of exact ties.

    Unlike `random_single_cell`, events sit on the 100 us grid (the spike
    output delay), two or three pixels share most instants, and some pixels
    fire again exactly t_ref later, so delivery chains from different events
    land on the same instant and the order of same-instant sums matters.
    """
    rng = np.random.default_rng(seed)
    params = NetworkParams(
        hidden_v_th=float(rng.uniform(0.3, 0.8)),
        output_v_th=float(rng.uniform(1.2, 2.2)),
        w_hidden_output=float(rng.uniform(0.6, 1.4)),
        w_hidden_output_inh=float(rng.uniform(0.6, 1.6)),
        w_lateral=float(rng.uniform(0.5, 2.0)),
    )
    layout = CellLayout(5, 5, -1, ((2, 2),))
    taus = tuple(float(t) for t in rng.uniform(0.003, 0.6, int(rng.integers(1, 3))))
    net = assemble_network(layout, output_taus_s=taus, params=params)
    ref_ticks = int(round(params.t_ref_s / 1e-4))
    events = []
    for tick in np.sort(rng.integers(0, 60, size=int(rng.integers(10, 25)))):
        k = int(rng.integers(2, 4))
        for i in rng.choice(len(_CELL_PIXELS), size=k, replace=False):
            x, y = _CELL_PIXELS[i]
            events.append(Event(x, y, float(tick) * 1e-4))
            if rng.random() < 0.3:
                events.append(Event(x, y, float(tick + ref_ticks) * 1e-4))
    stream = event_stream(events, 5, 5)
    return net, stream, stream.events[-1].t + 1e-3


# Output-to-output weights that excite, inhibit or do both within one graph.
MIXED_LATERAL_WEIGHTS = (-1.3, -0.7, 0.4, 0.9, 1.7)


def mixed_lateral_single_cell(seed: int) -> tuple[NetworkGraph, EventStream, float]:
    """`tie_heavy_single_cell` with each output-to-output weight drawn from
    MIXED_LATERAL_WEIGHTS. `assemble_network` gives every such edge one
    inhibitory weight, but `simulate` accepts any sign there; an excitatory
    delivery can fire an output, at the end tick too."""
    net, stream, t_end = tie_heavy_single_cell(seed)
    lateral = int(net.indptr[net.n_inputs + net.n_hidden])  # the first output's first edge
    signed_w = net.signed_w.copy()
    rng = np.random.default_rng([seed, 1])
    signed_w[lateral:] = rng.choice(MIXED_LATERAL_WEIGHTS, size=len(signed_w) - lateral)
    return dataclasses.replace(net, signed_w=signed_w), stream, t_end


def per_edge_heap_simulate(net: NetworkGraph, stim: EventStream, t_end: float) -> SimulationOutput:
    """The event-driven engine with one heap entry per delivered edge, keyed
    (t, pre, seq, post, w). That key fixes the order in which same-instant
    deliveries are summed; `simulate`'s queue of one (t, pre) pair per spike
    has to reproduce it bit for bit. Times are integer nanosecond ticks, with
    the engine's tick arithmetic, so only the queue differs.
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
    # LIF constants every neuron shares; times in ticks from here on
    v_reset = net.params.v_reset
    t_ref = round(net.params.t_ref_s / TIME_QUANTUM)
    d_out = round(net.params.d_out_s / TIME_QUANTUM)
    end = round(t_end / TIME_QUANTUM)

    # Input neuron id at pixel (x, y), stored at y * width + x; -1 where no
    # cell covers the pixel.
    width = net.layout.field_width
    id_at = np.full(width * net.layout.field_height, -1, dtype=np.int64)
    px, py = net.input_pixels.T
    id_at[py * width + px] = np.arange(net.n_inputs)
    id_at = id_at.tolist()

    v = [0.0] * n
    t_last = [0] * n
    ref_until = [0] * n
    spikes: list[list[int]] = [[] for _ in range(n)]

    # Heap entries: (delivery time, presynaptic id, sequence, target, signed weight).
    heap: list[tuple[int, int, int, int, float]] = []
    seq = 0

    dropped = 0
    refractory_dropped = 0
    last_input_spike: dict[int, int] = {}
    for x, y, t in zip(stim.x.tolist(), stim.y.tolist(), stim.t.tolist()):
        if t > end:
            break
        owner = id_at[y * width + x]
        if owner < 0:
            dropped += 1
            continue
        prev = last_input_spike.get(owner)
        if prev is not None and t - prev < t_ref:
            refractory_dropped += 1
            continue
        last_input_spike[owner] = t
        spikes[owner].append(t)
        for k in range(indptr[owner], indptr[owner + 1]):
            heap.append((t, owner, seq, out_post[k], out_w[k]))
            seq += 1
    heapq.heapify(heap)

    while heap:
        t_now = heap[0][0]
        # One wave: everything already queued for this exact instant. Spikes
        # triggered now deliver at t_now + d_out (a later wave when d_out = 0).
        sums: dict[int, float] = {}
        while heap and heap[0][0] == t_now:
            _, _, _, post, w = heapq.heappop(heap)
            sums[post] = sums.get(post, 0.0) + w
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
                spikes[post].append(t_spike)
                v[post] = v_reset
                ref_until[post] = t_now + t_ref
                if t_spike <= end:
                    for k in range(indptr[post], indptr[post + 1]):
                        heapq.heappush(heap, (t_spike, post, seq, out_post[k], out_w[k]))
                        seq += 1

    record = tick_record(spikes)
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


def ticks(seconds) -> np.ndarray:
    """Times in seconds as int64 engine ticks, each rounded to the nearest:
    the one place where the builders below leave seconds."""
    return np.rint(np.asarray(seconds, dtype=np.float64) / TIME_QUANTUM).astype(np.int64)


def on_grid(seconds) -> tuple[float, ...]:
    """What a stream or record built from these times gives back in seconds:
    each time's tick times TIME_QUANTUM."""
    return tuple((ticks(seconds) * TIME_QUANTUM).tolist())


def event_stream(events, field_width: int, field_height: int) -> EventStream:
    """The stream of `Event`s, with times in seconds, on the field, sorted
    into (t, y, x) order."""
    events = list(events)
    x, y = np.array([e.x for e in events]), np.array([e.y for e in events])
    t = ticks([e.t for e in events])
    order = np.lexsort((x, y, t))
    return EventStream(field_width, field_height, x[order], y[order], t[order])


def spike_record(trains) -> SpikeRecord:
    """The record in which neuron k spikes at trains[k], in seconds, sorted
    into (t, neuron) order."""
    return tick_record([ticks(train).tolist() for train in trains])


def tick_record(trains) -> SpikeRecord:
    """The record in which neuron k spikes at ticks trains[k], sorted into (t,
    neuron) order."""
    neuron = np.repeat(np.arange(len(trains)), np.array([len(tr) for tr in trains], dtype=np.int64))
    t = np.array([t for train in trains for t in train], dtype=np.int64)
    order = np.lexsort((neuron, t))
    return SpikeRecord(len(trains), neuron[order], t[order])


def grid_times(grid) -> np.ndarray:
    """The whole time axis of a `RateGrid`, by the formula of its docstring."""
    return grid.t0 + grid.dt * np.arange(grid.n)


def brute_force_rate(train, fp, grid) -> np.ndarray:
    """Direct superposition of the biphasic kernel, O(spikes * samples)."""
    times = grid_times(grid)
    out = np.zeros(grid.n)
    for t_s in train:
        dt = times - t_s
        mask = dt >= 0.0
        out[mask] += fp.lam * (np.exp(-dt[mask] / fp.tau1) - np.exp(-dt[mask] / fp.tau2))
    return out


def reference_velocities(traj, ts) -> tuple[np.ndarray, np.ndarray]:
    """dx/dt and dy/dt at times ts, each path kind's formula written out as
    new arrays, the form the in-place `Trajectory.velocity` must match."""
    if isinstance(traj, CircleTrajectory):
        w = 2.0 * math.pi * traj.freq_hz
        return traj.radius * w * np.sin(w * ts), traj.radius * w * np.cos(w * ts)
    if isinstance(traj, EightTrajectory):
        w = 2.0 * math.pi * traj.freq_hz
        return 2.0 * w * traj.ax * np.cos(2.0 * w * ts), w * traj.ay * np.cos(w * ts)
    if isinstance(traj, LinearTrajectory):
        ones = np.ones_like(ts)
        return traj.vx * ones, traj.vy * ones
    assert isinstance(traj, WaypointTrajectory)
    knots = np.asarray([p[0] for p in traj.points])
    seg = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, max(len(knots) - 2, 0))
    vx = np.zeros_like(ts)
    vy = np.zeros_like(ts)
    if len(traj.points) > 1:
        dt = np.diff(knots)
        dx = np.diff(np.asarray([p[1] for p in traj.points])) / dt
        dy = np.diff(np.asarray([p[2] for p in traj.points])) / dt
        vx, vy = dx[seg], dy[seg]
    return vx, vy


def channel_projections(traj, ts) -> dict[Direction, tuple[np.ndarray, float]]:
    """All four channels' velocity projections at times ts at once, each with
    its run maximum: UP +dy/dt, DOWN -dy/dt, LEFT -dx/dt, RIGHT +dx/dt."""
    vxs, vys = reference_velocities(traj, ts)
    vx_max, vy_max = traj.speed_bound()
    return {
        Direction.UP: (vys, vy_max),
        Direction.DOWN: (-vys, vy_max),
        Direction.LEFT: (-vxs, vx_max),
        Direction.RIGHT: (vxs, vx_max),
    }


def ideal_curves(traj, f_max_hz: float, grid) -> dict[Direction, np.ndarray]:
    """f = (f_max / 2) * |p_dot / p_dot_max + 1| per channel, each from a
    fresh array; a motionless axis holds f_max / 2."""
    out = {}
    for d, (p_dot, p_dot_max) in channel_projections(traj, grid_times(grid)).items():
        if p_dot_max == 0.0:
            out[d] = np.full(grid.n, f_max_hz / 2.0)
        else:
            out[d] = f_max_hz / 2.0 * np.abs(p_dot / p_dot_max + 1.0)
    return out


def spectral_summary_all_at_once(result, ev) -> dict:
    """The spectral summary with every array held at once: the four
    mean-removed windows, their four spectra, the pooled sums and the phase
    basis over a `RateGrid` of the window."""

    def maybe(fn, *args):
        try:
            return float(fn(*args))
        except MotionSnnError:
            return None

    m = ev.grid.n - ev.window_index
    span_s = m * ev.grid.dt
    period = result.trajectory.period_s
    xs = {}
    for d in DIRECTION_ORDER:
        w = ev.measured[d].values[-m:]  # the window ends every curve, whole grid or not
        xs[d] = w - np.mean(w)
    spectra = {d: np.fft.rfft(x) for d, x in xs.items()}
    lr_hz = maybe(dominant_frequency, spectra[Direction.LEFT] + spectra[Direction.RIGHT], span_s)
    ud_hz = maybe(dominant_frequency, spectra[Direction.UP] + spectra[Direction.DOWN], span_s)
    lags = None
    if period:
        times = grid_times(RateGrid(ev.window_start_s, ev.grid.dt, m))
        basis = np.exp(-2j * math.pi * (1.0 / period) * times)
        z = {d: np.sum(x * basis) for d, x in xs.items()}
        seq = (Direction.RIGHT, Direction.DOWN, Direction.LEFT, Direction.UP)
        lags = {
            f"{a.value}_to_{b.value}": maybe(phase_lag_deg, z[a], z[b])
            for a, b in zip(seq, seq[1:])
        }
    dom = {d.value: maybe(dominant_frequency, spectra[d], span_s) for d in DIRECTION_ORDER}
    return {
        "bin_hz": 1.0 / span_s,
        "dominant_hz": dom,
        "pooled": {
            "lr_hz": lr_hz,
            "ud_hz": ud_hz,
            "lr_over_ud": lr_hz / ud_hz if lr_hz and ud_hz else None,
        },
        "phase_lags_deg": lags,
    }


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def _rounded_position(traj, t: float) -> tuple[int, int]:
    x, y = traj.position(t)
    return int(round_half_up(x)), int(round_half_up(y))


def _locate_changes(traj, lo: int, hi: int, p_lo, p_hi, out) -> None:
    # Bisect the tick bracket (lo, hi] until each change sits in a one-tick
    # bracket, whose upper tick is the change's stamp.
    if hi - lo <= 1:
        out.append((hi, p_hi))
        return
    mid = (lo + hi) // 2
    pm = _rounded_position(traj, mid * TIME_QUANTUM)
    if pm != p_lo:
        _locate_changes(traj, lo, mid, p_lo, pm, out)
    if p_hi != pm:
        _locate_changes(traj, mid, hi, pm, p_hi, out)


def reference_events(traj, mode=EmitMode.ONSET, samples_per_pixel: float = 8.0) -> tuple[Event, ...]:
    """The event encoder one change at a time: the same dense scan, then a
    recursive bisection of each moved scan step in nanosecond ticks, each
    probe one scalar `Trajectory.position` call. Scan steps are taken in
    order and each one's changes in time order, which is the encoder's
    (tick, scan step) order."""
    mode = EmitMode(mode)
    vmax = max(traj.speed_bound())
    n = max(16, int(math.ceil(traj.t_end * vmax * samples_per_pixel)))
    n += n % 2
    ts = (np.arange(n + 1, dtype=np.float64) * traj.t_end) / n if traj.t_end > 0 else np.zeros(1)
    ts[-1] = traj.t_end  # the path ends at t_end, which n * t_end / n can pass by one ulp
    xs, ys = traj.positions(ts)
    pxs = round_half_up(xs).astype(np.int64)
    pys = round_half_up(ys).astype(np.int64)

    changes: list = []
    moved = np.nonzero((pxs[1:] != pxs[:-1]) | (pys[1:] != pys[:-1]))[0]
    for i in moved:
        # from the last tick whose time is at most ts[i] to the first at least ts[i + 1]
        lo, hi = math.floor(ts[i] / TIME_QUANTUM), math.ceil(ts[i + 1] / TIME_QUANTUM)
        while lo * TIME_QUANTUM > ts[i]:
            lo -= 1
        while hi * TIME_QUANTUM < ts[i + 1]:
            hi += 1
        _locate_changes(
            traj,
            lo,
            hi,
            (int(pxs[i]), int(pys[i])),
            (int(pxs[i + 1]), int(pys[i + 1])),
            changes,
        )

    covered = set(footprint(int(pxs[0]), int(pys[0])))
    events = [Event(x, y, 0.0) for x, y in sorted(covered, key=lambda p: (p[1], p[0]))]
    for tick, pos in changes:
        t_snap = tick * TIME_QUANTUM
        new_cover = set(footprint(*pos))
        fresh = new_cover if mode is EmitMode.FOOTPRINT else new_cover - covered
        for x, y in sorted(fresh, key=lambda p: (p[1], p[0])):
            events.append(Event(x, y, t_snap))
        covered = new_cover
    return event_stream(events, traj.field_width, traj.field_height).events


def reference_run(cfg) -> SimpleNamespace:
    """One run of `cfg` with an oracle at every stage; only the path, the
    network and the filter's time constants come from the package.

    `reference_events` encodes the path and `per_edge_heap_simulate` runs it.
    Each output group is pooled from `net.output_ids` and filtered by
    `brute_force_rate`. The window starts at the `np.searchsorted` of the
    settling time on the materialised time axis, f_max is the largest rate
    in the window, and `ideal_curves`, sliced to the window, are scored by
    `accuracy`. `spectral_summary_all_at_once` takes the spectra.

    The fields run up to the first stage the package must refuse: f_max is
    None when no output fires before the window's end, and `zero` names
    the first channel whose ideal curve is zero over the window, in place
    of a score and spectra."""
    traj = build_trajectory(cfg)
    net = build_network(cfg)
    events = reference_events(traj, cfg.encoding, cfg.samples_per_pixel)
    sim = per_edge_heap_simulate(net, event_stream(events, cfg.field_width, cfg.field_height), traj.t_end)
    tau1 = float(np.mean(cfg.output_taus_s))
    fp = FilterParams(tau1, 2.0 * tau1)
    grid = RateGrid(0.0, cfg.grid_dt_s, int(math.floor(traj.t_end / cfg.grid_dt_s)) + 1)
    k0 = int(np.searchsorted(grid_times(grid), max(2.0 * fp.tau2, traj.period_s or 0.0), side="left"))
    trains = sim.record.spike_times
    pooled = {d: sorted(t for i in net.output_ids[d] for t in trains[i]) for d in DIRECTION_ORDER}
    out = SimpleNamespace(
        sim=sim,
        grid=grid,
        k0=k0,
        pooled_counts={d: len(pooled[d]) for d in DIRECTION_ORDER},
        measured={d: brute_force_rate(pooled[d], fp, grid) for d in DIRECTION_ORDER},
        f_max=None,
        zero=None,
        score=None,
        spectra=None,
    )
    peak = max(float(np.max(out.measured[d][k0:])) for d in DIRECTION_ORDER)
    if not peak > 0.0:
        return out
    out.f_max = peak
    ideal = ideal_curves(traj, peak, grid)
    out.zero = next((d for d in DIRECTION_ORDER if not ideal[d][k0:].any()), None)
    if out.zero is not None:
        return out

    def window(curves):
        return {d: RateSeries(grid.time(k0), grid.dt, curves[d][k0:]) for d in DIRECTION_ORDER}

    out.score = accuracy(window(ideal), window(out.measured))
    ev = SimpleNamespace(
        grid=grid,
        window_index=k0,
        window_start_s=grid.time(k0),
        measured={d: RateSeries(0.0, grid.dt, out.measured[d]) for d in DIRECTION_ORDER},
    )
    out.spectra = spectral_summary_all_at_once(SimpleNamespace(trajectory=traj), ev)
    return out
