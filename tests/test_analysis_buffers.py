"""`ideal_rates`, `evaluate`'s window score and `spectral_summary` compute
in buffers they own or reuse. They must give the bytes of the all-at-once
formulas in tests/oracles.py and of `accuracy`, and at their peak hold
little more than what they return."""

from types import SimpleNamespace

import numpy as np
import pytest

from motionsnn import (
    DIRECTION_ORDER,
    CircleTrajectory,
    DomainError,
    EightTrajectory,
    LinearTrajectory,
    RateGrid,
    RateSeries,
    RunConfig,
    RunEvaluation,
    WaypointTrajectory,
    accuracy,
    evaluate,
    ideal_rates,
    run_experiment,
    spectral_summary,
)
from motionsnn.analysis import window_accuracy
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
    return RunEvaluation(grid, k0, 2.0, measured, score=None, pooled_counts={})


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


# window starts: index 1, small odd offsets, multiples of numpy's 8,192-element
# buffer and of the 4,096-row CSV block, and one past each
WINDOW_STARTS = (1, 7, 100, 4096, 4097, 8192, 8193, 16_384, 20_001)


@pytest.mark.parametrize("name", sorted(PATHS))
def test_window_scoring_matches_accuracy_on_views_of_the_full_curves(name):
    # evaluate makes each ideal curve over the window's samples only; numpy's
    # sin and cos give an element the same value wherever its array starts,
    # so the score keeps every bit of scoring views of the full-grid curves
    traj, noise, window_s = PATHS[name]
    ev = _evaluation(traj, noise, window_s)
    grid = ev.grid
    full = ideal_rates(traj, F_MAX_HZ, grid)
    starts = [k0 for k0 in WINDOW_STARTS if k0 < grid.n] + [ev.window_index]
    for k0 in starts:
        t0 = float(grid.times[k0])

        def window(series):
            return {d: RateSeries(t0, grid.dt, series[d].values[k0:]) for d in DIRECTION_ORDER}

        measured = window(ev.measured)
        try:
            want = accuracy(window(full), measured)
        except DomainError as exc:
            # the linear path moves LEFT at full speed, so its ideal LEFT is zero
            with pytest.raises(DomainError, match=f"^{exc}$"):
                window_accuracy(traj, F_MAX_HZ, grid.times[k0:], measured)
            continue
        got = window_accuracy(traj, F_MAX_HZ, grid.times[k0:], measured)
        assert got.raw.hex() == want.raw.hex() and got.clamped.hex() == want.clamped.hex()
        assert list(got.per_channel) == list(DIRECTION_ORDER)
        for d in DIRECTION_ORDER:
            assert got.per_channel[d].hex() == want.per_channel[d].hex(), (k0, d)


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


def test_ideal_rates_hold_no_more_than_the_four_curves_they_return(peak_bytes):
    traj = CircleTrajectory(10, 11, _periodic_t_end(0.05), freq_hz=0.05)
    grid = _grid(traj)  # 80,001 samples: the arrays dominate the peak
    arrays = peak_bytes(ideal_rates, traj, F_MAX_HZ, grid) / (8 * grid.n)
    assert arrays <= 4.01


def test_spectral_summary_holds_about_five_window_sized_arrays(peak_bytes):
    traj = CircleTrajectory(10, 11, _periodic_t_end(0.05), freq_hz=0.05)
    ev = _evaluation(traj, 0.1, 20.0)
    m = ev.grid.n - ev.window_index
    arrays = peak_bytes(spectral_summary, SimpleNamespace(trajectory=traj), ev) / (8 * m)
    assert arrays <= 5.5


def test_evaluate_holds_the_measured_curves_and_four_window_sized_arrays(peak_bytes):
    # at its peak, while it scores, evaluate holds the grid axis, the four
    # measured curves and four arrays of the window's length: two
    # velocities, one channel's ideal curve and its scratch
    result = run_experiment(RunConfig(trajectory={"kind": "circle", "freq_hz": 0.05}))
    ev = evaluate(result)
    n, m = ev.grid.n, ev.grid.n - ev.window_index
    assert n == 80_001 and m < n
    del ev
    assert peak_bytes(evaluate, result) <= (5 * n + 4 * m) * 8 * 1.01
