"""`ideal_rates`, `evaluate`'s window score and `spectral_summary` compute
in buffers they own or reuse. They must give the bytes of the all-at-once
formulas in tests/oracles.py and of `accuracy`, and at their peak hold
little more than what they return."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionsnn import (
    DIRECTION_ORDER,
    CircleTrajectory,
    Direction,
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
from motionsnn.analysis import DECAY_SCRATCH, _ideal_axes, window_accuracy
from motionsnn.core import CSV_BLOCK_ROWS

from oracles import (
    grid_times,
    ideal_curves,
    reference_velocities,
    spectral_summary_all_at_once,
)

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
    k0 = int(np.searchsorted(grid_times(grid), window_s, side="left"))
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


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(PATHS)),
    t0=st.floats(0.0, 5.0),
    dt=st.floats(1e-4, 2e-2),
    n=st.integers(1, 3 * CSV_BLOCK_ROWS + 100),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_a_run_of_samples_is_the_whole_grid_sliced_bit_for_bit(name, t0, dt, n, cuts):
    # rates.csv's writers make each block's times and ideal curves over the
    # block's samples only; numpy's sin and cos give an element the same
    # value wherever it sits in its array, so every run of samples, the
    # writers' blocks with their short last one among them, must be the
    # whole grid's arrays sliced
    traj = PATHS[name][0]
    grid = RateGrid(t0, dt, n)
    axis = grid.axis()
    full = ideal_rates(traj, F_MAX_HZ, grid)
    ends = sorted({0, n, *(int(c * n) for c in cuts), *range(0, n, CSV_BLOCK_ROWS)})
    for k0, k1 in zip(ends, ends[1:]):
        assert np.array_equal(grid.axis(k0, k1).view(np.int64), axis[k0:k1].view(np.int64))
        part = ideal_rates(traj, F_MAX_HZ, grid, k0, k1)
        assert list(part) == list(DIRECTION_ORDER)
        for d in DIRECTION_ORDER:
            assert part[d].t0 == grid.time(k0) and part[d].dt == dt
            assert np.array_equal(part[d].values.view(np.int64), full[d].values[k0:k1].view(np.int64))


@pytest.mark.parametrize("name", sorted(PATHS))
def test_each_velocity_projection_belongs_to_the_caller(name, monkeypatch):
    # each axis's velocity is made in a new buffer of the sample times, the
    # x axis's only once the y axis's has been taken; the in-place kinematics
    # and division keep every bit of the all-at-once formulas, and
    # overwriting one axis must leave the next intact
    traj = PATHS[name][0]
    grid = _grid(traj)
    vx, vy = reference_velocities(traj, grid_times(grid))
    vx_max, vy_max = traj.speed_bound()
    buffers = []
    axis = RateGrid.axis

    def spy(self, *args):
        buffers.append(axis(self, *args))
        return buffers[-1]

    monkeypatch.setattr(RateGrid, "axis", spy)
    signs = (((Direction.UP, 1.0), (Direction.DOWN, -1.0)), ((Direction.LEFT, -1.0), (Direction.RIGHT, 1.0)))
    for i, (u, half, channels) in enumerate(_ideal_axes(traj, F_MAX_HZ, grid, 0)):
        assert len(buffers) == i + 1 and u is buffers[i]
        v, v_max = ((vy, vy_max), (vx, vx_max))[i]
        assert _same_bits(u, v / v_max if v_max != 0.0 else v)
        assert half == F_MAX_HZ / 2.0 and channels == signs[i]
        u.fill(np.nan)
    assert len(buffers) == 2


# paths whose y axis is motionless: its velocity is +0.0 or -0.0 throughout
MOTIONLESS_Y = {
    "linear-vy+0": LinearTrajectory(10, 11, 0.5, x0=1.5, y0=5.0, vx=10.0, vy=0.0),
    "linear-vy-0": LinearTrajectory(10, 11, 0.5, x0=1.5, y0=5.0, vx=10.0, vy=-0.0),
    "one-point": WaypointTrajectory(10, 11, 0.0, points=((0.0, 4.5, 5.0),)),
    "flat-y": WaypointTrajectory(
        10, 11, 0.0, points=((0.0, 2.5, 5.0), (1.0, 6.0, 5.0), (2.0, 3.0, 5.0))
    ),
}


@pytest.mark.parametrize("name", sorted(MOTIONLESS_Y))
def test_a_motionless_axis_holds_half_f_max_bit_for_bit(name):
    # a motionless axis's velocity is left undivided: half * |1 +- 0| must be
    # f_max / 2 by its bytes, on every channel that reads such an axis
    traj = MOTIONLESS_Y[name]
    grid = RateGrid(0.0, 1e-3, 2_001)
    vx_max, vy_max = traj.speed_bound()
    still = [d for d, v_max in zip(DIRECTION_ORDER, (vy_max, vy_max, vx_max, vx_max)) if v_max == 0.0]
    assert still[:2] == [Direction.UP, Direction.DOWN]
    assert (len(still) == 4) == (name == "one-point")
    half = np.full(grid.n, F_MAX_HZ / 2.0)
    curves = ideal_rates(traj, F_MAX_HZ, grid)
    want = ideal_curves(traj, F_MAX_HZ, grid)
    for d in DIRECTION_ORDER:
        assert _same_bits(curves[d].values, want[d])
    for d in still:
        assert _same_bits(curves[d].values, half)
    # the window score reads the same curves
    measured = {d: RateSeries(0.0, grid.dt, np.linspace(0.0, F_MAX_HZ, grid.n)) for d in DIRECTION_ORDER}
    try:
        score = accuracy(curves, measured)
    except DomainError as exc:
        # a linear path moves RIGHT at full speed, so its ideal LEFT is zero
        with pytest.raises(DomainError, match=f"^{exc}$"):
            window_accuracy(traj, F_MAX_HZ, grid, 0, measured)
        return
    got = window_accuracy(traj, F_MAX_HZ, grid, 0, measured)
    assert [x.hex() for x in got.per_channel.values()] == [x.hex() for x in score.per_channel.values()]


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
        t0 = grid.time(k0)

        def window(series):
            return {d: RateSeries(t0, grid.dt, series[d].values[k0:]) for d in DIRECTION_ORDER}

        measured = window(ev.measured)
        try:
            want = accuracy(window(full), measured)
        except DomainError as exc:
            # the linear path moves LEFT at full speed, so its ideal LEFT is zero
            with pytest.raises(DomainError, match=f"^{exc}$"):
                window_accuracy(traj, F_MAX_HZ, grid, k0, measured)
            continue
        got = window_accuracy(traj, F_MAX_HZ, grid, k0, measured)
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
    # the motionless y axis is left undivided by its zero run maximum
    assert PATHS["linear"][0].speed_bound()[1] == 0.0


def test_ideal_rates_hold_no_more_than_the_four_curves_they_return(peak_bytes):
    traj = CircleTrajectory(10, 11, _periodic_t_end(0.05), freq_hz=0.05)
    grid = _grid(traj)  # 80,001 samples: the arrays dominate the peak
    arrays = peak_bytes(ideal_rates, traj, F_MAX_HZ, grid) / (8 * grid.n)
    assert arrays <= 4.01


def test_spectral_summary_holds_about_three_window_sized_arrays(peak_bytes):
    # the complex phase basis (two arrays) and one channel's mean-removed
    # window, which multiplies the basis in place; a design that holds the
    # complex product beside the basis needs about five
    traj = CircleTrajectory(10, 11, _periodic_t_end(0.05), freq_hz=0.05)
    ev = _evaluation(traj, 0.1, 20.0)
    m = ev.grid.n - ev.window_index
    arrays = peak_bytes(spectral_summary, SimpleNamespace(trajectory=traj), ev) / (8 * m)
    assert arrays <= 3.5


def test_window_scoring_holds_two_window_sized_arrays(peak_bytes):
    # one axis's velocity, and one buffer in which each of the axis's
    # channels is written as its ideal curve, squared, written again and
    # scored
    traj = CircleTrajectory(10, 11, _periodic_t_end(0.05), freq_hz=0.05)
    ev = _evaluation(traj, 0.1, 20.0)
    k0, m = ev.window_index, ev.grid.n - ev.window_index
    t0 = ev.grid.time(k0)
    measured = {d: RateSeries(t0, ev.grid.dt, ev.measured[d].values[k0:]) for d in DIRECTION_ORDER}
    arrays = peak_bytes(window_accuracy, traj, F_MAX_HZ, ev.grid, k0, measured) / (8 * m)
    assert arrays <= 2.01


def test_evaluate_holds_the_measured_curves_and_three_window_sized_arrays(peak_bytes):
    # at its peak, while it scores, evaluate holds the four measured curves
    # and at most three arrays of the window's length (two today: one axis's
    # velocity and one buffer for each channel's curve); it holds no time axis of the
    # grid. A design that holds a grid axis, both velocities, a copy of
    # one and a scratch array needs 5n + 4m.
    result = run_experiment(RunConfig(trajectory={"kind": "circle", "freq_hz": 0.05}))
    ev = evaluate(result)
    n, m = ev.grid.n, ev.grid.n - ev.window_index
    assert n == 80_001 and m < n
    del ev
    assert peak_bytes(evaluate, result) <= (4 * n + 3 * m) * 8 * 1.01


def test_a_window_only_evaluation_holds_six_window_sized_arrays(peak_bytes):
    # a sweep point: the four measured curves over the window alone, and
    # while it scores one axis's velocity and one buffer, 6m in all. While
    # the last channel is filtered it holds three curves, the channel's two
    # decay sums and the scratch that chains the samples before the window.
    # Filtering the whole grid holds 4n + 2m at its peak.
    result = run_experiment(RunConfig(trajectory={"kind": "circle", "freq_hz": 0.05}))
    ev = evaluate(result, whole_grid=False)
    n, m = ev.grid.n, ev.grid.n - ev.window_index
    assert (n, m) == (80_001, 60_001)
    del ev
    slack = 16_384  # the dicts, RateSeries and small arrays of the score
    assert peak_bytes(lambda: evaluate(result, whole_grid=False)) <= 6 * 8 * m + 8 * DECAY_SCRATCH + slack
