"""A whole run against `oracles.reference_run`, which composes the slow,
obvious oracle of every stage: the encoder, the engine, the rate filter, the
window, f_max, the ideal detector's score and the spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionsnn import (
    DIRECTION_ORDER,
    Direction,
    DomainError,
    Event,
    RunConfig,
    evaluate,
    run_experiment,
    simulate,
    spectral_summary,
)
from motionsnn.analysis import pool_group
from motionsnn.config import build_network, build_trajectory

from oracles import (
    engine_spike_steps,
    event_stream,
    fixed_step_spikes,
    grid_times,
    reference_events,
    reference_run,
)

# f_max and s_acc: the package filters by a per-sample recursion and the
# oracle sums each spike's kernel directly, so the curves agree to rounding
PRECISION = 1e-12
# degrees a phase lag may move beyond the bound `_turn_deg` gives it: the
# rounding of the angles themselves
LAG_DEG = 1e-9


@st.composite
def paths(draw, t_end_s: float) -> dict:
    """A path that stays inside the 10 x 11 field; a linear or waypoint
    path runs for t_end_s."""
    kind = draw(st.sampled_from(["circle", "eight", "linear", "waypoints"]))
    freq = draw(st.floats(0.4, 2.5))
    if kind == "circle":
        return {"kind": kind, "freq_hz": freq, "radius": draw(st.floats(1.0, 3.0))}
    if kind == "eight":
        return {"kind": kind, "freq_hz": freq, "ax": draw(st.floats(1.0, 3.0)), "ay": draw(st.floats(1.0, 4.0))}
    if kind == "linear":
        # at most 2 px/s for at most 1.8 s from the middle of the field
        v = st.floats(-2.0, 2.0)
        return {"kind": kind, "x0": 4.5, "y0": 5.0, "vx": draw(v), "vy": draw(v)}
    # one to four gaps, each at least 1/61 of the run, the last knot at t_end_s
    gaps = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4)))
    knots = [0.0, *(gaps[:-1] / gaps[-1] * t_end_s).tolist(), t_end_s]
    return {
        "kind": kind,
        "points": [[t, draw(st.floats(1.0, 8.0)), draw(st.floats(1.0, 9.0))] for t in knots],
    }


@st.composite
def configs(draw) -> RunConfig:
    taus = draw(st.lists(st.sampled_from([0.02, 0.05, 0.1, 0.2]), min_size=1, max_size=3))
    # the scoring window starts 4 * tau1 in, or one period in
    t_end_s = 4.0 * float(np.mean(taus)) + draw(st.floats(0.3, 1.0))
    traj = draw(paths(t_end_s))
    return RunConfig(
        trajectory=traj,
        t_end_s=t_end_s if traj["kind"] == "linear" else None,
        encoding=draw(st.sampled_from(["onset", "footprint"])),
        n_per_dir=len(taus),
        output_taus_s=tuple(taus),
        grid_dt_s=draw(st.sampled_from([1e-3, 2.5e-3])),
        lateral_inhibition=draw(st.booleans()),
    )


def _turn_deg(ev, want, period_s: float) -> dict:
    """The most that the difference between the two runs' curves can turn
    each channel's phase sum, in degrees. The sum is taken against a basis
    of modulus 1, so it moves by at most the summed |difference| of the two
    mean-removed windows (plus its own rounding), and its angle by at most
    the asin of that over |z|. A channel with almost no component at the
    phase frequency gets a wide bound: its angle is set by rounding."""
    k0 = want.k0
    basis = np.exp(-2j * math.pi / period_s * grid_times(want.grid)[k0:])
    bound = {}
    for d in DIRECTION_ORDER:
        got, ref = ev.measured[d].values[k0:], want.measured[d][k0:]
        x, y = got - np.mean(got), ref - np.mean(ref)
        moved = float(np.sum(np.abs(x - y)) + PRECISION * np.sum(np.abs(y)))
        z = abs(np.sum(y * basis))
        bound[d] = math.degrees(math.asin(min(1.0, moved / z))) if z > 0.0 else 90.0
    return bound


@settings(max_examples=150, deadline=None)
@given(cfg=configs())
def test_a_run_matches_the_composed_oracles(cfg):
    result = run_experiment(cfg)
    want = reference_run(cfg)
    record, ref = result.sim.record, want.sim.record
    assert np.array_equal(record.neuron, ref.neuron) and np.array_equal(record.t, ref.t)
    pooled = {d: len(pool_group(record, d, cfg.n_per_dir)) for d in DIRECTION_ORDER}
    assert pooled == want.pooled_counts
    if want.f_max is None:
        with pytest.raises(DomainError, match="no measured activity$"):
            evaluate(result)
        return
    if want.zero is not None:
        with pytest.raises(DomainError, match=f"zero ideal signal on {want.zero.value}$"):
            evaluate(result)
        return
    ev = evaluate(result)
    assert ev.window_index == want.k0 and ev.pooled_counts == want.pooled_counts
    assert math.isclose(ev.f_max_hz, want.f_max, rel_tol=PRECISION)
    for a, b in ((ev.score.raw, want.score.raw), (ev.score.clamped, want.score.clamped)):
        assert math.isclose(a, b, rel_tol=PRECISION, abs_tol=PRECISION)
    got = spectral_summary(result, ev)
    lags, want_lags = got.pop("phase_lags_deg"), want.spectra.pop("phase_lags_deg")
    assert got == want.spectra
    assert (lags is None) == (want_lags is None)
    if lags is None:
        return
    assert list(lags) == list(want_lags)
    turn = _turn_deg(ev, want, result.trajectory.period_s)
    for key, lag in lags.items():
        a, b = (Direction(name) for name in key.split("_to_"))
        assert (lag is None) == (want_lags[key] is None)
        if lag is not None:
            apart = abs((lag - want_lags[key] + 180.0) % 360.0 - 180.0)
            assert apart <= turn[a] + turn[b] + LAG_DEG, (key, lag, want_lags[key])


def test_a_run_snapped_to_the_microsecond_grid_matches_the_fixed_step_oracle():
    # the fixed-step integrator sees one stimulus per 1 us step, so the
    # encoder's stream is moved to its nearest microsecond first
    cfg = RunConfig(trajectory={"kind": "circle", "freq_hz": 2.5}, t_end_s=0.25)
    traj = build_trajectory(cfg)
    net = build_network(cfg)
    events = reference_events(traj, cfg.encoding, cfg.samples_per_pixel)
    snapped = [Event(e.x, e.y, round(e.t * 1e6) * 1e-6) for e in events]
    stream = event_stream(snapped, cfg.field_width, cfg.field_height)
    assert np.all(stream.t % 1000 == 0)
    sim = simulate(net, stream, traj.t_end)
    assert sim.spike_totals["output"] > 0
    assert engine_spike_steps(sim.record) == fixed_step_spikes(net, stream, traj.t_end)
