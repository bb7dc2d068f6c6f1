"""`ideal_rates` and `spectral_summary` compute in buffers they own or
reuse. They must give the bytes of the all-at-once formulas in
tests/oracles.py, and at their peak hold little more than what they return."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from motionsnn import (
    DIRECTION_ORDER,
    CircleTrajectory,
    EightTrajectory,
    LinearTrajectory,
    RateGrid,
    RateSeries,
    RunEvaluation,
    WaypointTrajectory,
    ideal_rates,
    spectral_summary,
)
from motionsnn.stimulus import channel_velocities

from oracles import channel_projections, ideal_curves, spectral_summary_all_at_once

F_MAX_HZ = 1.3


def _periodic_t_end(freq_hz: float) -> float:
    # the automatic run length for one output of tau 0.5 s
    return max(2.0, 1.0 / freq_hz) + 3.0 / freq_hz


# name: (trajectory, noise on the measured curves, start of the window in s)
PATHS = {
    "circle": (CircleTrajectory(10, 11, _periodic_t_end(0.15), freq_hz=0.15), 0.1, 1.0 / 0.15),
    "circle-large-field": (
        CircleTrajectory(
            100, 101, _periodic_t_end(0.15), cx=49.5, cy=50.0, radius=45.0, freq_hz=0.15
        ),
        0.1,
        1.0 / 0.15,
    ),
    "eight": (EightTrajectory(10, 11, _periodic_t_end(0.15), freq_hz=0.15), 0.1, 1.0 / 0.15),
    # vy = 0: UP and DOWN hold f_max / 2; without noise every window is flat
    "linear": (LinearTrajectory(10, 11, 0.5, x0=1.5, y0=5.0, vx=10.0, vy=0.0), 0.0, 0.1),
    "waypoints": (
        WaypointTrajectory(
            10, 11, 0.0, points=((0.0, 4.5, 5.0), (1.0, 6.0, 5.0), (2.5, 6.0, 7.5), (4.0, 4.5, 5.0))
        ),
        0.1,
        1.0,
    ),
}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _grid(traj, dt: float = 1e-3) -> RateGrid:
    return RateGrid(0.0, dt, int(np.floor(traj.t_end / dt)) + 1)


def _evaluation(traj, noise: float, window_s: float, dt: float = 1e-3) -> RunEvaluation:
    """Measured curves made from the ideal ones, lagged and with multiplicative
    noise. spectral_summary reads only the grid, the window and the measured
    curves, so the other fields stay empty."""
    grid = _grid(traj, dt)
    rng = np.random.default_rng(7)
    # f_max = 2 makes every constant curve a small integer, so a window
    # without noise has an exact mean and centres to zeros
    ideal = ideal_curves(traj, 2.0, grid)
    measured = {}
    for i, d in enumerate(DIRECTION_ORDER):
        gain = 1.0 + noise * rng.standard_normal(grid.n)
        measured[d] = RateSeries(0.0, dt, np.roll(ideal[d], 50 + 40 * i) * gain)
    k0 = int(np.searchsorted(grid.times, window_s, side="left"))
    return RunEvaluation(grid, k0, 2.0, measured, ideal={}, score=None, pooled_counts={})


@pytest.mark.parametrize("name", sorted(PATHS))
def test_ideal_rates_match_the_all_at_once_formula_bit_for_bit(name):
    traj = PATHS[name][0]
    grid = _grid(traj)
    got = ideal_rates(traj, F_MAX_HZ, grid)
    want = ideal_curves(traj, F_MAX_HZ, grid)
    assert list(got) == list(DIRECTION_ORDER)
    for d in DIRECTION_ORDER:
        assert _same_bits(got[d].values, want[d])


@pytest.mark.parametrize("name", sorted(PATHS))
def test_each_velocity_projection_belongs_to_the_caller(name):
    # overwriting each array as it comes must leave the later ones intact
    traj = PATHS[name][0]
    ts = _grid(traj).times
    want = channel_projections(traj, ts)
    seen = []
    for d, p_dot, p_dot_max in channel_velocities(traj, ts):
        seen.append(d)
        assert p_dot_max == want[d][1]
        assert _same_bits(p_dot, want[d][0])
        p_dot.fill(np.nan)
    assert seen == list(DIRECTION_ORDER)


@pytest.mark.parametrize("name", sorted(PATHS))
def test_spectral_summary_matches_the_all_at_once_formula_bit_for_bit(name):
    traj, noise, window_s = PATHS[name]
    result = SimpleNamespace(trajectory=traj)
    ev = _evaluation(traj, noise, window_s)
    got = spectral_summary(result, ev)
    assert got == spectral_summary_all_at_once(result, ev)
    assert (got["phase_lags_deg"] is None) == (traj.period_s is None)


def test_the_oracle_inputs_reach_every_branch():
    spectra = {
        name: spectral_summary(SimpleNamespace(trajectory=traj), _evaluation(traj, noise, window_s))
        for name, (traj, noise, window_s) in PATHS.items()
    }
    # the eight's LR pair runs at twice the UD pair's frequency
    eight = spectra["eight"]["pooled"]
    assert eight["lr_hz"] != eight["ud_hz"] and eight["lr_over_ud"] is not None
    # flat windows have no dominant bin
    assert spectra["linear"]["pooled"] == {"lr_hz": None, "ud_hz": None, "lr_over_ud": None}
    assert spectra["waypoints"]["phase_lags_deg"] is None
    # the motionless y axis takes the constant branch of ideal_rates
    assert PATHS["linear"][0].speed_bound()[1] == 0.0


def _peak_bytes(fn, *args) -> int:
    """Peak of the memory traced while fn(*args) runs, above what was traced
    before; numpy reports its data buffers to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_ideal_rates_hold_no_more_than_the_four_curves_they_return():
    traj = CircleTrajectory(10, 11, _periodic_t_end(0.05), freq_hz=0.05)
    grid = _grid(traj)  # 80,001 samples: the arrays dominate the peak
    arrays = _peak_bytes(ideal_rates, traj, F_MAX_HZ, grid) / (8 * grid.n)
    assert arrays <= 4.01


def test_spectral_summary_holds_about_five_window_sized_arrays():
    traj = CircleTrajectory(10, 11, _periodic_t_end(0.05), freq_hz=0.05)
    ev = _evaluation(traj, 0.1, 20.0)
    m = ev.grid.n - ev.window_index
    arrays = _peak_bytes(spectral_summary, SimpleNamespace(trajectory=traj), ev) / (8 * m)
    assert arrays <= 5.5
