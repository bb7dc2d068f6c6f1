"""Rate filtering, ideal channels, accuracy scoring and spectra."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from motionsnn import (
    CircleTrajectory,
    ConfigError,
    Direction,
    DomainError,
    FilterParams,
    LinearTrajectory,
    RateGrid,
    RateSeries,
    accuracy,
    calibrate_f_max,
    dominant_frequency,
    firing_rate,
    ideal_rates,
    phase_lag_deg,
    pool_group,
)
import motionsnn
from motionsnn.analysis import DECAY_SCRATCH, decay_accumulate, transient_s

from oracles import brute_force_rate, grid_times, on_grid, rel_err, spike_record

FP = FilterParams(tau1=0.05, tau2=0.1)
# argmax of FP's kernel: tau1*tau2/(tau2-tau1) * ln(tau2/tau1) = 2*tau1*ln 2
FP_PEAK_S = 2.0 * 0.05 * math.log(2.0)


def test_filter_params_shape():
    assert FP.lam == pytest.approx(1.0 / (0.05 - 0.1))
    assert FP.lam < 0
    with pytest.raises(ConfigError):
        FilterParams(tau1=0.05, tau2=0.11)
    fp = FilterParams.from_output_taus((0.1, 0.2, 0.3))
    assert fp.tau1 == pytest.approx(0.2) and fp.tau2 == pytest.approx(0.4)


def test_kernel_is_causal_nonnegative_and_unit_area():
    ts = np.linspace(-0.1, 2.0, 4001)
    h = FP.kernel(ts)
    assert np.all(h[ts < 0] == 0.0)
    assert float(FP.kernel(0.0)) == 0.0
    assert np.all(h >= 0.0)
    area, err = quad(FP.kernel, 0.0, 5.0, limit=200)
    tail, _ = quad(FP.kernel, 5.0, np.inf, limit=200)
    assert area + tail == pytest.approx(1.0, abs=1e-9)
    # peak sits where the closed form says it does
    tp = FP_PEAK_S
    assert FP.kernel(tp) >= FP.kernel(tp - 1e-4)
    assert FP.kernel(tp) >= FP.kernel(tp + 1e-4)


def test_firing_rate_matches_brute_force_superposition():
    rng = np.random.default_rng(11)
    train = tuple(np.sort(rng.uniform(0.0, 2.0, size=60)))
    grid = RateGrid(0.0, 1e-3, 3000)
    fast = firing_rate(train, FP, grid)
    slow = brute_force_rate(train, FP, grid)
    assert rel_err(fast.values, slow) < 1e-6


def test_firing_rate_of_single_spike_is_the_kernel():
    grid = RateGrid(0.0, 1e-3, 1500)
    series = firing_rate((0.0,), FP, grid)
    expect = FP.kernel(grid_times(grid))
    assert rel_err(series.values, expect) < 1e-9
    peak_at = grid.time(int(np.argmax(series.values)))
    assert peak_at == pytest.approx(FP_PEAK_S, abs=grid.dt)


def test_firing_rate_is_linear_in_the_train():
    rng = np.random.default_rng(3)
    a = tuple(np.sort(rng.uniform(0.0, 1.0, 25)))
    b = tuple(np.sort(rng.uniform(0.0, 1.0, 35)))
    grid = RateGrid(0.0, 2e-3, 800)
    merged = firing_rate(sorted(a + b), FP, grid)
    summed = firing_rate(a, FP, grid).values + firing_rate(b, FP, grid).values
    assert rel_err(merged.values, summed) < 1e-9


def test_firing_rate_long_run_mean_recovers_the_rate():
    rate_hz = 20.0
    train = tuple(np.arange(0.0, 30.0, 1.0 / rate_hz))
    grid = RateGrid(0.0, 1e-3, 30001)
    series = firing_rate(train, FP, grid)
    window = series.values[5000:25000]
    assert float(np.mean(window)) == pytest.approx(rate_hz, rel=0.01)


def test_firing_rate_edge_cases():
    grid = RateGrid(0.0, 1e-3, 100)
    assert np.all(firing_rate((), FP, grid).values == 0.0)
    # spikes after the grid end contribute nothing
    inside = firing_rate((0.01,), FP, grid).values
    with_late = firing_rate((0.01, 0.5), FP, grid).values
    assert np.array_equal(inside, with_late)


def _lfilter_rate(train, fp, grid):
    """firing_rate as a dense scipy.signal.lfilter recursion, the reference
    the sparse segment form must reproduce bit for bit."""
    lfilter = pytest.importorskip("scipy.signal").lfilter
    times = grid_times(grid)
    spikes = np.asarray(sorted(train), dtype=np.float64)
    spikes = spikes[spikes <= times[-1]]
    values = np.zeros(grid.n)
    if len(spikes) == 0:
        return values
    bins = np.searchsorted(times, spikes, side="left")
    for tau, sign in ((fp.tau1, 1.0), (fp.tau2, -1.0)):
        c = np.zeros(grid.n)
        np.add.at(c, bins, np.exp(-(times[bins] - spikes) / tau))
        values += sign * lfilter([1.0], [1.0, -math.exp(-grid.dt / tau)], c)
    values *= fp.lam
    np.maximum(values, 0.0, out=values)
    return values


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


# fast taus so the long case decays through the subnormal range to zero
FAST_FP = FilterParams(tau1=0.01, tau2=0.02)


@pytest.mark.parametrize(
    "train, n",
    [
        ((0.0123,), 400),  # single spike
        ((0.0101, 0.0104, 0.0107), 400),  # three spikes in one bin
        ((0.0101, 0.0111, 0.0121), 400),  # spikes in adjacent bins
        ((0.0, 0.05), 400),  # a spike in bin 0
        ((0.002, 0.003), 20000),  # decays into subnormals and on to 0
        (tuple(np.sort(np.random.default_rng(5).uniform(0.0, 3.0, 300))), 3000),
    ],
    ids=["single", "same-bin", "adjacent-bins", "bin-0", "subnormal", "dense"],
)
def test_firing_rate_matches_lfilter_bit_for_bit(train, n):
    grid = RateGrid(0.0, 1e-3, n)
    for fp in (FP, FAST_FP):
        got = firing_rate(train, fp, grid).values
        assert np.array_equal(_bits(got), _bits(_lfilter_rate(train, fp, grid)))


def test_decay_accumulate_matches_lfilter_bit_for_bit():
    lfilter = pytest.importorskip("scipy.signal").lfilter
    rng = np.random.default_rng(17)
    cases = [
        (np.array([0]), 50),  # input in bin 0
        (np.array([3, 4, 5]), 50),  # adjacent bins
        (np.array([49]), 50),  # input in the last bin only
        (np.array([0, 10]), 80000),  # long enough to reach subnormals
    ]
    cases += [(np.unique(rng.integers(0, 5000, 40)), 5000) for _ in range(5)]
    for bins, n in cases:
        c = rng.uniform(0.1, 2.0, len(bins))
        for r in (math.exp(-1e-3 / 0.01), math.exp(-1e-3 / 0.5), 0.5):
            x = np.zeros(n)
            x[bins] = c
            got = decay_accumulate(n, bins, c, r)
            assert np.array_equal(_bits(got), _bits(lfilter([1.0], [1.0, -r], x)))
    y = decay_accumulate(80000, np.array([0, 10]), np.array([1.0, 1.0]), 0.99)
    assert np.any((y > 0.0) & (y < np.finfo(np.float64).tiny))
    # Repeated rounding stalls at a subnormal fixed point, where the closed
    # form r ** m has long reached 0: only the stepwise product matches.
    assert y[-1] > 0.0 and 0.99 ** (80000 - 10) == 0.0


# Gaps between spike bins: none (one bin), short, and longer than three
# scratch chunks, so a prefix is chained through the scratch chunk by chunk.
SPIKE_GAPS = st.integers(0, 3) | st.integers(4, 200) | st.integers(3 * DECAY_SCRATCH + 1, 3 * DECAY_SCRATCH + 500)


@settings(max_examples=150, deadline=None)
@given(
    gaps=st.lists(SPIKE_GAPS, max_size=6),
    lead=st.integers(0, 50),
    offsets=st.lists(st.floats(0.0, 0.999), max_size=3),
    tail=st.integers(-100, 300),
    fp=st.sampled_from([FP, FAST_FP, FilterParams(tau1=0.5, tau2=1.0)]),
    extra_k0=st.floats(0.0, 1.0),
)
def test_a_rate_from_sample_k0_is_the_whole_grid_sliced_bit_for_bit(gaps, lead, offsets, tail, fp, extra_k0):
    # no spike, one, or several per bin, each a fraction of a sample before
    # its bin's time; a negative tail puts the last bins past the grid's
    # end, where they add nothing. k0 sits before the first spike bin, on
    # each bin, between bins, after the last, at n - 1 and at one drawn
    # sample.
    bins = np.cumsum([lead, *gaps])
    n = max(int(bins[-1]) + 1 + tail, 1)
    grid = RateGrid(0.0, 1e-3, n)
    train = [grid.time(int(b)) - u * grid.dt for b in bins for u in offsets]
    full = firing_rate(train, fp, grid).values
    spike_bins = [b for b in np.unique(grid.at_or_after(train)).tolist() if b < n]
    starts = {0, n - 1, min(int(extra_k0 * n), n - 1)}
    for a, b in zip([0, *spike_bins], [*spike_bins, n]):
        starts.update((a, (a + b) // 2, max(b - 1, 0), min(b + 1, n - 1)))
    for k0 in sorted(starts):
        got = firing_rate(train, fp, grid, k0)
        assert got.t0 == grid.time(k0) and got.dt == grid.dt
        assert np.array_equal(got.values.view(np.uint64), full[k0:].view(np.uint64)), k0


def test_importing_the_cli_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(motionsnn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import motionsnn.cli, sys; assert 'scipy' not in sys.modules, 'scipy loaded'"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_ideal_rates_circle():
    traj = CircleTrajectory(field_width=10, field_height=11, t_end=4.0,
                            radius=3.0, freq_hz=0.5)
    grid = RateGrid(0.0, 1e-2, 401)
    f_max = 2.0
    ideals = ideal_rates(traj, f_max, grid)
    up, down = ideals[Direction.UP].values, ideals[Direction.DOWN].values
    left, right = ideals[Direction.LEFT].values, ideals[Direction.RIGHT].values
    for vals in (up, down, left, right):
        assert np.all(vals >= 0.0) and np.all(vals <= f_max + 1e-12)
    # opposite channels always share the budget
    assert np.allclose(up + down, f_max)
    assert np.allclose(left + right, f_max)
    # the orbit starts at the leftmost point moving straight up
    assert up[0] == pytest.approx(f_max)
    assert down[0] == pytest.approx(0.0)
    assert left[0] == pytest.approx(f_max / 2.0)


def test_ideal_rates_hold_half_rate_on_motionless_axes():
    traj = LinearTrajectory(field_width=10, field_height=11, t_end=1.0,
                            x0=1.5, y0=5.0, vx=4.0, vy=0.0)
    grid = RateGrid(0.0, 1e-2, 101)
    ideals = ideal_rates(traj, 3.0, grid)
    assert np.all(ideals[Direction.UP].values == 1.5)
    assert np.all(ideals[Direction.DOWN].values == 1.5)
    assert np.all(ideals[Direction.RIGHT].values == 3.0)
    assert np.all(ideals[Direction.LEFT].values == 0.0)


def test_calibrate_f_max_takes_the_global_peak():
    grid_vals = {
        Direction.UP: RateSeries(0.0, 0.1, [0.1, 2.5, 0.3]),
        Direction.DOWN: RateSeries(0.0, 0.1, [0.4, 0.2, 0.1]),
        Direction.LEFT: RateSeries(0.0, 0.1, [1.9, 0.0, 0.0]),
        Direction.RIGHT: RateSeries(0.0, 0.1, [0.0, 0.0, 1.0]),
    }
    assert calibrate_f_max(grid_vals) == 2.5
    doubled = {d: RateSeries(0.0, 0.1, 2.0 * s.values) for d, s in grid_vals.items()}
    assert calibrate_f_max(doubled) == 5.0
    silent = {d: RateSeries(0.0, 0.1, np.zeros(3)) for d in Direction}
    with pytest.raises(DomainError):
        calibrate_f_max(silent)


def series4(vals_by_dir):
    return {d: RateSeries(0.0, 1.0, vals_by_dir[d]) for d in Direction}


def test_accuracy_hand_worked_series():
    ideal = series4({d: [3.0, 4.0] for d in Direction})
    measured = series4({
        Direction.UP: [3.0, 4.0],     # error 0         -> 1.0
        Direction.DOWN: [1.0, 0.0],   # error 20 / 25   -> 0.2
        Direction.LEFT: [3.0, 0.0],   # error 16 / 25   -> 0.36
        Direction.RIGHT: [0.0, 4.0],  # error 9 / 25    -> 0.64
    })
    score = accuracy(ideal, measured)
    assert score.raw == pytest.approx((1.0 + 0.2 + 0.36 + 0.64) / 4.0, abs=1e-12)
    assert score.per_channel[Direction.DOWN] == pytest.approx(0.2, abs=1e-12)
    assert score.clamped == score.raw


def test_accuracy_bounds_and_clamp():
    ideal = series4({d: [3.0, 4.0] for d in Direction})
    assert accuracy(ideal, ideal).raw == 1.0
    silent = accuracy(ideal, series4({d: [0.0, 0.0] for d in Direction}))
    assert silent.raw == pytest.approx(0.0, abs=1e-12)
    wild = accuracy(ideal, series4({d: [30.0, 40.0] for d in Direction}))
    assert wild.raw < 0.0
    assert wild.clamped == 0.0


def test_accuracy_grid_and_domain_guards():
    ideal = series4({d: [3.0, 4.0] for d in Direction})
    shifted = {d: RateSeries(0.5, 1.0, [3.0, 4.0]) for d in Direction}
    with pytest.raises(ConfigError):
        accuracy(ideal, shifted)
    zero_ideal = series4({d: [0.0, 0.0] for d in Direction})
    with pytest.raises(DomainError):
        accuracy(zero_ideal, ideal)


def test_transient_covers_filter_and_stimulus():
    assert transient_s(FP, None) == pytest.approx(0.2)
    assert transient_s(FP, 3.0) == 3.0


def spectrum(values):
    return np.fft.rfft(values - np.mean(values))


def test_dominant_frequency_and_bin():
    dt, n = 1e-3, 4000
    ts = dt * np.arange(n)
    span_s = n * dt  # 0.25 Hz bins
    s = 2.0 + np.sin(2 * np.pi * 1.0 * ts)
    assert dominant_frequency(spectrum(s), span_s) == pytest.approx(1.0, abs=0.25)
    two_tone = 3.0 * np.sin(2 * np.pi * 1.0 * ts) + np.sin(2 * np.pi * 2.0 * ts)
    assert dominant_frequency(spectrum(two_tone), span_s) == pytest.approx(1.0, abs=0.25)
    assert dominant_frequency(np.array([0j, 1, 3, 2]), 2.0) == 1.0
    with pytest.raises(DomainError):
        dominant_frequency(spectrum(np.full(100, 7.0)), 100 * dt)
    with pytest.raises(DomainError):
        dominant_frequency(spectrum(np.ones(1)), dt)


def test_phase_lag_sign_and_wrap():
    dt, n, f0 = 1e-3, 4000, 1.0
    ts = dt * np.arange(n)
    basis = np.exp(-2j * np.pi * f0 * ts)

    def z(values):
        return np.sum((values - np.mean(values)) * basis)

    ref = z(np.sin(2 * np.pi * f0 * ts))
    assert phase_lag_deg(ref, ref) == pytest.approx(0.0, abs=1e-9)
    lag90 = z(np.sin(2 * np.pi * f0 * ts - np.pi / 2.0))
    assert phase_lag_deg(ref, lag90) == pytest.approx(-90.0, abs=1e-6)
    lead90 = z(np.cos(2 * np.pi * f0 * ts))
    assert phase_lag_deg(ref, lead90) == pytest.approx(90.0, abs=1e-6)
    anti = z(-np.sin(2 * np.pi * f0 * ts))
    assert phase_lag_deg(ref, anti) == pytest.approx(180.0, abs=1e-6)
    with pytest.raises(DomainError):
        phase_lag_deg(ref, z(np.full(n, 2.0)))


def test_rate_grid_holds_no_time_axis():
    grid = RateGrid(1.0, 0.5, 3)
    # three fields and no array: the times are made only where asked for
    assert vars(grid) == {"t0": 1.0, "dt": 0.5, "n": 3}
    assert [grid.time(k) for k in range(3)] == [1.0, 1.5, 2.0]
    axis = grid.axis()
    assert axis.tolist() == [1.0, 1.5, 2.0] and axis.flags.writeable
    assert grid.axis(1).tolist() == [1.5, 2.0] and grid.axis(3).tolist() == []
    assert grid.axis() is not axis
    assert grid == RateGrid(1.0, 0.5, 3) and grid != RateGrid(1.0, 0.5, 4)
    with pytest.raises(ConfigError):
        RateGrid(0.0, 0.0, 3)
    for n in (0, -1, 2.5, float("nan"), 3.0):
        with pytest.raises(ConfigError, match="whole number of samples"):
            RateGrid(0.0, 1e-3, n)
    assert RateGrid(0.0, 1e-3, np.int64(3)).n == 3


@settings(max_examples=300, deadline=None)
@given(
    t0=st.floats(-1e6, 1e6, allow_nan=False) | st.just(0.0),
    dt=st.floats(1e-12, 1e3, allow_nan=False, exclude_min=False),
    n=st.integers(1, 3000),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
    outside=st.floats(0.0, 1e9, allow_nan=False),
)
def test_the_grid_search_is_searchsorted_on_the_whole_axis(t0, dt, n, picks, outside):
    # the first sample at or after each time, by bisection on t0 + dt * k,
    # against np.searchsorted on the axis itself; the times are grid times,
    # their float neighbours, and times before the first and after the last
    # sample. A grid whose dt is below the spacing of floats near t0 has
    # runs of equal times, and the search must land on the first of a run.
    grid = RateGrid(t0, dt, n)
    axis = grid_times(grid)
    on_grid = axis[[k % n for k in picks]]
    t = np.concatenate([
        on_grid,
        np.nextafter(on_grid, -np.inf),
        np.nextafter(on_grid, np.inf),
        [axis[0] - outside, axis[-1] + outside, -np.inf, np.inf],
    ])
    want = np.searchsorted(axis, t, side="left")
    got = grid.at_or_after(t)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert [int(grid.at_or_after(v)) for v in t[:5]] == want[:5].tolist()
    # and the axis the grid builds is that axis, bit for bit
    assert grid.axis().tobytes() == axis.tobytes()
    assert grid.axis(n // 2).tobytes() == axis[n // 2 :].tobytes()


def test_pool_group_follows_the_output_id_convention():
    trains = (
        (),            # pretend input/hidden block
        (0.1, 0.2),    # UP
        (0.3,),        # DOWN
        (0.15,),       # LEFT
        (0.25, 0.4),   # RIGHT
    )
    rec = spike_record(trains)
    # the times come back in seconds, as their ticks times TIME_QUANTUM
    assert pool_group(rec, Direction.UP, 1) == on_grid((0.1, 0.2))
    assert pool_group(rec, Direction.RIGHT, 1) == on_grid((0.25, 0.4))
    rec2 = spike_record(((0.1,), (0.2,), (0.3,), (0.4,), (0.5,), (0.6,), (0.7,), (0.8,)))
    assert pool_group(rec2, Direction.UP, 2) == on_grid((0.1, 0.2))
    assert pool_group(rec2, Direction.LEFT, 2) == on_grid((0.5, 0.6))
    # two ranks spiking at one instant count twice, in time order
    rec3 = spike_record(((0.3, 0.5), (0.1, 0.3), (), (), (), (), (), ()))
    assert pool_group(rec3, Direction.UP, 2) == on_grid((0.1, 0.3, 0.3, 0.5))
    with pytest.raises(ConfigError):
        pool_group(rec, Direction.UP, 2)
