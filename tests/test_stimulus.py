"""Trajectories and the DVS-style event encoder."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionsnn import (
    CircleTrajectory,
    DIRECTION_ORDER,
    Direction,
    DomainError,
    EightTrajectory,
    EmitMode,
    LinearTrajectory,
    RateGrid,
    WaypointTrajectory,
    generate_events,
)
from motionsnn.analysis import _ideal_axes
from motionsnn.config import RunConfig, build_stimulus, build_trajectory
from motionsnn.core import TIME_QUANTUM, ConfigError
from motionsnn.stimulus import (
    footprint,
    round_half_up,
)

from oracles import reference_events

TRAJECTORIES = [
    CircleTrajectory(field_width=10, field_height=11, t_end=2.0, radius=3.0, freq_hz=0.7),
    EightTrajectory(field_width=10, field_height=11, t_end=2.0, ax=2.3, ay=4.2, freq_hz=0.4),
    LinearTrajectory(field_width=10, field_height=11, t_end=1.0, x0=1.5, y0=3.0, vx=4.0, vy=2.0),
    WaypointTrajectory(
        field_width=10, field_height=11, t_end=2.0,
        points=((0.0, 2.0, 2.0), (1.0, 6.0, 2.0), (2.0, 6.0, 8.0)),
    ),
]


def test_round_half_up():
    assert round_half_up(2.4) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(-0.4) == 0
    assert list(round_half_up(np.array([0.49, 0.5, 1.5]))) == [0, 1, 2]


def test_circle_quarter_period_positions():
    # starts at the left edge of the orbit and goes up first, so with y up it
    # runs clockwise: left, top, right, bottom at t = 0, P/4, P/2 and 3P/4,
    # which is why the phase-lag chain runs RIGHT -> DOWN -> LEFT -> UP
    for traj in (
        CircleTrajectory(field_width=10, field_height=11, t_end=1.0, radius=3.0, freq_hz=1.0),
        build_trajectory(RunConfig()),
    ):
        points = [traj.position(k * traj.period_s / 4.0) for k in range(4)]
        for (x, y), expected in zip(points, [(1.5, 5.0), (4.5, 8.0), (7.5, 5.0), (4.5, 2.0)]):
            assert (x, y) == pytest.approx(expected, abs=1e-12)
        # the signed (shoelace) area of a clockwise loop is negative
        area = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1])) / 2.0
        assert area == pytest.approx(-18.0)


def velocity_at(traj, t):
    vx, vy = (traj.velocity(axis, np.array([t])) for axis in ("x", "y"))
    return float(vx[0]), float(vy[0])


@pytest.mark.parametrize("traj", TRAJECTORIES)
def test_velocity_matches_finite_differences(traj):
    h = 1e-6
    for t in np.linspace(2 * h, traj.t_end - 2 * h, 23):
        x0, y0 = traj.position(t - h)
        x1, y1 = traj.position(t + h)
        vx, vy = velocity_at(traj, t)
        if isinstance(traj, WaypointTrajectory):
            # right-sided derivative: skip the kink sample
            if any(abs(t - p[0]) < 2 * h for p in traj.points):
                continue
        assert vx == pytest.approx((x1 - x0) / (2 * h), abs=1e-4)
        assert vy == pytest.approx((y1 - y0) / (2 * h), abs=1e-4)


@pytest.mark.parametrize("traj", TRAJECTORIES)
def test_speed_bound_is_a_tight_maximum(traj):
    ts = np.linspace(0.0, traj.t_end, 20001)
    vxs, vys = traj.velocity("x", ts.copy()), traj.velocity("y", ts.copy())
    bx, by = traj.speed_bound()
    assert np.max(np.abs(vxs)) <= bx + 1e-9
    assert np.max(np.abs(vys)) <= by + 1e-9
    # the bound is attained somewhere, not just an over-estimate
    if bx > 0:
        assert np.max(np.abs(vxs)) >= 0.999 * bx
    if by > 0:
        assert np.max(np.abs(vys)) >= 0.999 * by


@pytest.mark.parametrize("traj", TRAJECTORIES)
def test_path_stays_inside_the_field(traj):
    ts = np.linspace(0.0, traj.t_end, 5001)
    xs, ys = traj.positions(ts)
    assert np.all(xs >= 0.5) and np.all(xs < traj.field_width - 1.5 + 1e-9)
    assert np.all(ys >= 0.5) and np.all(ys < traj.field_height - 1.5 + 1e-9)


def test_trajectory_extent_validation():
    with pytest.raises(DomainError):
        CircleTrajectory(field_width=10, field_height=11, t_end=1.0, radius=4.0)
    CircleTrajectory(field_width=10, field_height=11, t_end=1.0, radius=3.9)
    with pytest.raises(DomainError):
        LinearTrajectory(field_width=10, field_height=11, t_end=1.7,
                         x0=0.6, y0=5.0, vx=5.0, vy=0.0)
    with pytest.raises(ConfigError):
        CircleTrajectory(field_width=10, field_height=11, t_end=-1.0)
    # zero-length runs are a valid snapshot; the engine refuses them instead
    CircleTrajectory(field_width=10, field_height=11, t_end=0.0)


def test_waypoint_validation():
    with pytest.raises(ConfigError):
        WaypointTrajectory(field_width=10, field_height=11, t_end=1.0,
                           points=((0.5, 2.0, 2.0), (1.0, 3.0, 2.0)))
    with pytest.raises(ConfigError):
        WaypointTrajectory(field_width=10, field_height=11, t_end=1.0,
                           points=((0.0, 2.0, 2.0), (0.0, 3.0, 2.0)))


def test_waypoint_interpolation():
    traj = TRAJECTORIES[3]
    assert traj.period_s is None
    assert traj.position(0.5) == pytest.approx((4.0, 2.0))
    assert velocity_at(traj, 0.5) == pytest.approx((4.0, 0.0))
    assert velocity_at(traj, 1.5) == pytest.approx((0.0, 6.0))


def test_periods():
    assert TRAJECTORIES[0].period_s == pytest.approx(1.0 / 0.7)
    assert TRAJECTORIES[1].period_s == pytest.approx(1.0 / 0.4)
    assert TRAJECTORIES[2].period_s is None


def test_eight_is_periodic_and_centered():
    traj = TRAJECTORIES[1]
    t = 0.37
    x0, y0 = traj.position(t)
    x1, y1 = traj.position(t + traj.period_s)
    assert (x1, y1) == pytest.approx((x0, y0), abs=1e-9)
    # x runs at twice the y frequency
    xh, _ = traj.position(t + traj.period_s / 2.0)
    assert xh == pytest.approx(x0, abs=1e-9)


def test_channel_velocity_projection():
    traj = TRAJECTORIES[3]  # vx 4 then 0, vy 0 then 6: each axis's run maximum
    grid = RateGrid(0.5, 1.0, 2)  # one sample on each leg
    axes = [(u.tolist(), half, channels) for u, half, channels in _ideal_axes(traj, 3.0, grid, 0)]
    assert axes == [
        ([0.0, 1.0], 1.5, ((Direction.UP, 1.0), (Direction.DOWN, -1.0))),
        ([1.0, 0.0], 1.5, ((Direction.LEFT, -1.0), (Direction.RIGHT, 1.0))),
    ]
    # each channel reads its axis with its sign, in DIRECTION_ORDER
    projected = {d: [sign * x for x in u] for u, _, channels in axes for d, sign in channels}
    assert list(projected) == list(DIRECTION_ORDER)
    assert projected == {
        Direction.UP: [0.0, 1.0],
        Direction.DOWN: [0.0, -1.0],
        Direction.LEFT: [-1.0, 0.0],
        Direction.RIGHT: [1.0, 0.0],
    }


def test_footprint_is_a_3x3_block_in_row_order():
    assert footprint(4, 5) == (
        (3, 4), (4, 4), (5, 4),
        (3, 5), (4, 5), (5, 5),
        (3, 6), (4, 6), (5, 6),
    )


def test_stationary_object_emits_once():
    still = LinearTrajectory(field_width=10, field_height=11, t_end=1.0,
                             x0=4.5, y0=5.0, vx=0.0, vy=0.0)
    stream = generate_events(still)
    assert len(stream) == 9
    assert all(ev.t == 0.0 for ev in stream.events)
    # x0 = 4.5 rounds half-up to pixel column 5
    assert tuple((ev.x, ev.y) for ev in stream.events) == footprint(5, 5)


def test_onset_emits_only_the_new_column():
    traj = LinearTrajectory(field_width=10, field_height=11, t_end=1.9,
                            x0=2.0, y0=5.0, vx=1.0, vy=0.0)
    stream = generate_events(traj, mode=EmitMode.ONSET)
    assert len(stream) == 9 + 3 + 3
    batches = {}
    for ev in stream.events:
        batches.setdefault(ev.t, []).append((ev.x, ev.y))
    ts = sorted(batches)
    assert ts[0] == 0.0
    # center pixel steps 2 -> 3 at x = 2.5 and 3 -> 4 at x = 3.5
    assert ts[1] == pytest.approx(0.5, abs=2e-9)
    assert ts[2] == pytest.approx(1.5, abs=2e-9)
    assert set(batches[ts[1]]) == {(4, 4), (4, 5), (4, 6)}
    assert set(batches[ts[2]]) == {(5, 4), (5, 5), (5, 6)}


def test_footprint_mode_reemits_everything():
    traj = LinearTrajectory(field_width=10, field_height=11, t_end=1.9,
                            x0=2.0, y0=5.0, vx=1.0, vy=0.0)
    stream = generate_events(traj, mode="footprint")
    assert len(stream) == 9 * 3


def test_all_event_times_sit_on_the_nanosecond_grid():
    stream = generate_events(TRAJECTORIES[0])
    assert len(stream) > 20
    for ev in stream.events:
        assert ev.t == round(ev.t / TIME_QUANTUM) * TIME_QUANTUM


def test_a_change_is_stamped_with_its_first_tick():
    # The circle crosses x = 4.5 leftwards at t = 7.5 s. The centre is in
    # column 5 at tick 7_499_999_999 and in column 4 at tick 7_500_000_000
    # (7.500000000000001 s), so that tick, not the next one, is the stamp.
    # The default scan has no sample at 7.5 s; the other two sample it exactly,
    # after the time of tick 7_500_000_000.
    traj = CircleTrajectory(field_width=10, field_height=11, t_end=40.0, freq_hz=0.1)
    for tick, column in ((7_499_999_999, 5), (7_500_000_000, 4)):
        assert round_half_up(traj.position(tick * TIME_QUANTUM)[0]) == column
    for scan in ({}, {"samples_per_pixel": 16.96}, {"samples_per_pixel": 8.48}):
        ticks = set(generate_events(traj, **scan).t.tolist())
        assert 7_500_000_000 in ticks
        assert 7_500_000_001 not in ticks


def test_a_change_is_not_stamped_before_its_first_tick():
    # Scan sample 7 of 16 is t = 0.004606875000000001 s, after the time of
    # tick 4_606_875 (0.004606875 s). The path crosses x = 4.5 between the two,
    # so that tick still shows column 4 and the stamp is the next one.
    t_end = 0.010530000000000001
    traj = LinearTrajectory(field_width=10, field_height=11, t_end=t_end,
                            x0=math.nextafter(3.625, 0.0), y0=5.0, vx=2.0 / t_end, vy=0.0)
    for tick, column in ((4_606_875, 4), (4_606_876, 5)):
        assert round_half_up(traj.position(tick * TIME_QUANTUM)[0]) == column
    stream = generate_events(traj)
    assert 4_606_876 in stream.t.tolist()
    assert 4_606_875 not in stream.t.tolist()
    assert stream.events == reference_events(traj)


def test_changes_sharing_a_tick_keep_their_scan_order():
    # A diagonal path whose x change ends one scan step and whose y change
    # starts the next, both inside the tick that ends at t = 0.5 s. Both get
    # that stamp, and x must come first: (2, 5) -> (3, 5) -> (3, 4).
    t_end = 0.9999999997  # 16 scan steps; step 8 ends at 0.49999999985 s
    tx, ty = t_end / 2 - 5e-11, t_end / 2 + 5e-11
    traj = LinearTrajectory(field_width=10, field_height=11, t_end=t_end,
                            x0=2.5 - tx, y0=4.5 + ty, vx=1.0, vy=-1.0)
    stream = generate_events(traj)
    at_half = {(ev.x, ev.y) for ev in stream.events if ev.t == 0.5}
    assert at_half == {(4, 4), (4, 5), (4, 6), (2, 3), (3, 3), (4, 3)}
    assert len(stream) == 9 + 6
    assert stream.events == reference_events(traj)


@settings(max_examples=6, deadline=None)
@given(st.integers(2, 9))
def test_oversampling_leaves_the_stream_unchanged(factor):
    traj = CircleTrajectory(field_width=10, field_height=11, t_end=10.0 / 3.0,
                            radius=3.0, freq_hz=0.3)
    base = generate_events(traj, samples_per_pixel=8.0)
    dense = generate_events(traj, samples_per_pixel=8.0 * factor)
    assert base.events == dense.events


def test_scan_density_does_not_move_events():
    traj = TRAJECTORIES[1]
    a = generate_events(traj, samples_per_pixel=8.0)
    b = generate_events(traj, samples_per_pixel=19.0)
    assert a.events == b.events


@pytest.mark.parametrize("kind", ["circle", "eight"])
@pytest.mark.parametrize("samples_per_pixel", [8.0, 9.0, 16.0, 33.0])
def test_no_event_comes_after_t_end(kind, samples_per_pixel):
    # n * t_end / n can round one ulp past t_end; the last scan sample used
    # to sit there, and the default eight at 0.15 Hz with 33 samples per
    # pixel emitted 3 events at 26.666666667 s, after t_end = 26.666666666666668 s
    for freq in (0.01, 0.15, 0.3, 1.0):
        cfg = RunConfig(trajectory={"kind": kind, "freq_hz": freq},
                        samples_per_pixel=samples_per_pixel)
        stream = build_stimulus(cfg)
        assert stream.events[-1].t <= build_trajectory(cfg).t_end


LARGE_FIELD_CIRCLE = RunConfig(
    field_width=100, field_height=101, encoding="footprint",
    trajectory={"kind": "circle", "cx": 49.5, "cy": 50.0, "radius": 45.0, "freq_hz": 0.15},
)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the stream still depends on whether a scan sample lands "
    "in the ~60 ns that float cos spends on a pixel boundary at each turn"))
def test_the_stream_does_not_depend_on_the_scan_density():
    for cfg in (RunConfig(), LARGE_FIELD_CIRCLE):
        base = build_stimulus(cfg)
        for samples_per_pixel in (9.0, 16.0, 33.0):
            other = build_stimulus(dataclasses.replace(cfg, samples_per_pixel=samples_per_pixel))
            for name in ("x", "y", "t"):
                assert np.array_equal(getattr(base, name), getattr(other, name))


def test_generate_events_validation():
    with pytest.raises(ConfigError):
        generate_events(TRAJECTORIES[0], samples_per_pixel=0.0)
    # a ConfigError, which is also a ValueError, naming the modes
    with pytest.raises(ValueError, match="^unknown mode 'both': one of onset, footprint$"):
        generate_events(TRAJECTORIES[0], mode="both")
    with pytest.raises(ConfigError):
        generate_events(TRAJECTORIES[0], mode=None)
    # 1e10 s is more 1 ns ticks than an int64 holds; a still object needs none
    slow = dict(field_width=10, field_height=11, t_end=1e10, x0=1.5, y0=5.0, vy=0.0)
    with pytest.raises(DomainError, match="1 ns clock"):
        generate_events(LinearTrajectory(**slow, vx=5e-10))
    assert len(generate_events(LinearTrajectory(**slow, vx=0.0))) == 9
    # a NaN speed on either axis passes the range check, which takes a min
    # and a max of the path's ends, and is refused by the scan size check
    for v in ({"vx": math.nan, "vy": 0.0}, {"vx": 0.0, "vy": math.nan}):
        path = LinearTrajectory(field_width=10, field_height=11, t_end=1.0, x0=4.0, y0=5.0, **v)
        with pytest.raises(ConfigError, match="^the trajectory scan needs nan samples"):
            generate_events(path)


# Paths on the 10 x 11 field: x must stay in [0.5, 8.5) and y in [0.5, 9.5).
@st.composite
def trajectories(draw):
    kind = draw(st.sampled_from(["circle", "eight", "linear", "waypoints"]))
    field = dict(field_width=10, field_height=11)
    if kind == "circle":
        r = draw(st.floats(0.3, 3.5))
        return CircleTrajectory(
            **field,
            t_end=draw(st.floats(0.1, 4.0)),
            cx=draw(st.floats(0.6 + r, 8.4 - r)),
            cy=draw(st.floats(0.6 + r, 9.4 - r)),
            radius=r,
            freq_hz=draw(st.floats(0.05, 2.0)),
        )
    if kind == "eight":
        ax, ay = draw(st.floats(0.3, 3.5)), draw(st.floats(0.3, 4.2))
        return EightTrajectory(
            **field,
            t_end=draw(st.floats(0.1, 4.0)),
            cx=draw(st.floats(0.6 + ax, 8.4 - ax)),
            cy=draw(st.floats(0.6 + ay, 9.4 - ay)),
            ax=ax,
            ay=ay,
            freq_hz=draw(st.floats(0.05, 1.5)),
        )
    xs, ys = st.floats(0.6, 8.4), st.floats(0.6, 9.4)
    if kind == "linear":
        t_end = draw(st.floats(0.05, 3.0))
        x0, y0, x1, y1 = draw(xs), draw(ys), draw(xs), draw(ys)
        return LinearTrajectory(
            **field, t_end=t_end, x0=x0, y0=y0, vx=(x1 - x0) / t_end, vy=(y1 - y0) / t_end
        )
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    times = np.concatenate([[0.0], np.cumsum(gaps)]).tolist()
    points = tuple((t, draw(xs), draw(ys)) for t in times)
    return WaypointTrajectory(**field, t_end=times[-1], points=points)


@settings(max_examples=60, deadline=None)
@given(trajectories(), st.sampled_from(["onset", "footprint"]), st.sampled_from([8.0, 24.0]))
def test_encoder_matches_the_change_by_change_reference(traj, mode, samples_per_pixel):
    # The vectorised bisection probes many instants per positions() call;
    # the reference probes one per position() call. Equal streams also mean
    # the two calls agree bit for bit.
    stream = generate_events(traj, mode=mode, samples_per_pixel=samples_per_pixel)
    assert stream.events == reference_events(traj, mode=mode, samples_per_pixel=samples_per_pixel)
