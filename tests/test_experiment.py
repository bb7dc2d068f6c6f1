"""The run path works on the array forms of the network and the stimulus,
and scores and spectra keep their recorded values."""

import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from motionsnn import (
    DIRECTION_ORDER,
    ConfigError,
    Direction,
    DomainError,
    FilterParams,
    RateGrid,
    RateSeries,
    RunConfig,
    Trajectory,
    evaluate,
    run_experiment,
    spectral_summary,
)
from motionsnn import analysis, cli, experiment, stimulus
from motionsnn.analysis import transient_s
from motionsnn.core import CSV_BLOCK_ROWS

from oracles import grid_times


def test_run_path_builds_no_views_and_no_scalar_positions(monkeypatch):
    position_calls = []
    position = Trajectory.position

    def counted_position(self, t):
        position_calls.append(t)
        return position(self, t)

    encode = stimulus.generate_events
    calls_while_encoding = []

    def generate_events(*args, **kwargs):
        before = len(position_calls)
        stream = encode(*args, **kwargs)
        calls_while_encoding.append(len(position_calls) - before)
        return stream

    monkeypatch.setattr(Trajectory, "position", counted_position)
    monkeypatch.setattr("motionsnn.config.generate_events", generate_events)
    result = run_experiment(RunConfig())
    evaluate(result)
    assert calls_while_encoding == [0]
    assert len(result.stream) > 0
    assert "synapses" not in vars(result.network)
    assert "events" not in vars(result.stream)
    assert "spike_times" not in vars(result.sim.record)


def test_sweep_starts_no_more_workers_than_tasks(monkeypatch, forks):
    # worker k runs the strided share tasks[k::n], n = min(jobs, len(tasks))
    def worker(task):
        return experiment.SweepRow(task[1], task[2], 0.5, f"ok in {os.getpid()}")

    monkeypatch.setattr(experiment, "_sweep_worker", worker)
    base = RunConfig(trajectory={"kind": "circle", "freq_hz": 1.0, "radius": 3.0})
    n1 = experiment.default_sweep_variants()[:1]
    for jobs, freqs in ((8, (0.8, 1.7)), (2, (0.3, 0.8, 1.7, 2.5, 3.1))):
        del forks[:]
        rows = experiment.frequency_sweep(base, freqs, n1, jobs=jobs)
        assert len(forks) == 2
        assert [r.freq_hz for r in rows] == list(freqs)
        assert [r.status for r in rows] == [f"ok in {forks[k % 2]}" for k in range(len(freqs))]
        for pid in forks:  # every worker was reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
    # one job runs in the calling process
    del forks[:]
    rows = experiment.frequency_sweep(base, (0.8, 1.7), n1, jobs=1)
    assert forks == []
    assert [r.status for r in rows] == [f"ok in {os.getpid()}"] * 2


def test_an_oversized_rate_grid_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("build_network", "build_stimulus", "simulate"):
        monkeypatch.setattr(experiment, name, lambda *args, name=name: calls.append(name))
    assert cli.main(["run", "--set", "grid_dt_s=1e-300", "-d", str(tmp_path / "out")]) == 2
    assert "config error: the rate grid needs" in capsys.readouterr().err
    assert calls == []
    # a sweep point reports the refusal as its row's status
    base = RunConfig(trajectory={"kind": "circle", "freq_hz": 1.0, "radius": 3.0}, grid_dt_s=1e-300)
    rows = experiment.frequency_sweep(base, (0.8,), experiment.default_sweep_variants()[:1])
    assert rows[0].status.startswith("error: the rate grid needs")
    assert calls == []


def test_sweep_runs_each_repeated_point_once(tmp_path, capsys, monkeypatch):
    calls = []
    run = experiment.run_experiment
    monkeypatch.setattr(experiment, "run_experiment", lambda cfg: calls.append(cfg) or run(cfg))
    sweeps = {}
    for freqs, variants in (("0.8", "n1"), ("0.8,0.8", "n1,n1")):
        out = tmp_path / f"{freqs}-{variants}.csv"
        argv = ["sweep", "--freqs", freqs, "--variants", variants, "-o", str(out)]
        assert cli.main(argv) == 0
        assert "(1 computed, 0 reused)" in capsys.readouterr().out
        sweeps[freqs] = (len(calls), out.read_bytes())
        calls.clear()
    assert sweeps["0.8,0.8"] == sweeps["0.8"]
    assert sweeps["0.8"][0] == 1


def test_a_nan_frequency_gets_the_row_its_own_task_scored():
    # a NaN frequency equals no float, itself only by identity, and a row
    # that comes back pickled from a child is a new object; the point still
    # gets its error row, in the calling process and from forked children
    nan = float("nan")
    for jobs in (1, 2):
        rows = experiment.frequency_sweep(RunConfig(), (nan,), jobs=jobs)
        assert [r.variant for r in rows] == ["n1", "n5"]
        assert all(math.isnan(r.freq_hz) for r in rows)
        assert {r.status for r in rows} == {"error: freq_hz must be positive"}


def test_a_bad_jobs_count_is_refused_before_any_task_is_built(monkeypatch):
    calls = []
    monkeypatch.setattr(experiment, "sweep_config", lambda *args: calls.append(args))
    for jobs in (0, -3, 2.5):
        with pytest.raises(ConfigError, match=f"^jobs must be a whole number >= 1, got {jobs}$"):
            experiment.frequency_sweep(RunConfig(), (0.2, 0.3), jobs=jobs)
    assert calls == []


def test_sweep_returns_one_row_per_requested_point(monkeypatch):
    tasks = []

    def worker(task):
        tasks.append(task)
        return experiment.SweepRow(task[1], task[2], 0.5, "ok")

    monkeypatch.setattr(experiment, "_sweep_worker", worker)
    base = RunConfig(trajectory={"kind": "circle", "freq_hz": 1.0, "radius": 3.0})
    n1, n5 = experiment.default_sweep_variants()
    # a repeated frequency and a repeated label are one point; the first
    # variant with a label is the one that runs
    twin = experiment.SweepVariant("n1", n5.output_taus_s)
    rows = experiment.frequency_sweep(base, (0.8, 0.8), (n1, twin))
    assert [(r.freq_hz, r.variant) for r in rows] == [(0.8, "n1")]
    assert [(f, label, cfg.n_per_dir) for cfg, f, label in tasks] == [(0.8, "n1", 1)]

    # only requested points are reused, and an unrequested one is not returned
    tasks.clear()
    old = {(0.3, "n1"): experiment.SweepRow(0.3, "n1", 0.7, "ok"),
           (0.8, "n5"): experiment.SweepRow(0.8, "n5", 0.9, "ok")}
    rows = experiment.frequency_sweep(base, (1.7, 0.8), (n5, n1), precomputed=old)
    assert rows == [old[(0.8, "n5")], experiment.SweepRow(1.7, "n5", 0.5, "ok"),
                    experiment.SweepRow(0.8, "n1", 0.5, "ok"),
                    experiment.SweepRow(1.7, "n1", 0.5, "ok")]
    assert [(f, label) for _, f, label in tasks] == [(1.7, "n5"), (0.8, "n1"), (1.7, "n1")]


EIGHT = {"kind": "eight", "freq_hz": 0.18, "ax": 2.3, "ay": 4.2}

# Spectra and scores recorded before the scoring windows became views and the
# pooled spectra came from the channel spectra. Values read off a spectral
# bin are exact; lags and s_acc go through numpy's exp/sin, whose SIMD
# implementations may differ in the last bits between hosts.
PINNED_RUNS = {
    "default": (
        {},
        {
            "bin_hz": 0.05,
            "dominant_hz": {"up": 0.3, "down": 0.3, "left": 0.15, "right": 0.15},
            "pooled": {"lr_hz": 0.15, "ud_hz": 0.45, "lr_over_ud": 0.3333333333333333},
        },
        {
            "right_to_down": -51.93975439430153,
            "down_to_left": -108.05083540519257,
            "left_to_up": -49.99579288959555,
        },
        0.3529853893846798,
    ),
    "eight": (
        {"trajectory": EIGHT},
        {
            "bin_hz": 0.059998800023999516,
            "dominant_hz": {
                "up": 0.17999640007199855,
                "down": 0.17999640007199855,
                "left": 0.17999640007199855,
                "right": 0.3599928001439971,
            },
            "pooled": {
                "lr_hz": 0.3599928001439971,
                "ud_hz": 0.17999640007199855,
                "lr_over_ud": 2.0,
            },
        },
        {
            "right_to_down": 23.282635803006002,
            "down_to_left": -159.8139932160179,
            "left_to_up": -6.546475724654272,
        },
        0.8121972957996295,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_spectra_and_score_keep_their_recorded_values(name):
    overrides, exact, lags, s_acc = PINNED_RUNS[name]
    result = run_experiment(RunConfig(**overrides))
    ev = evaluate(result)
    spectra = spectral_summary(result, ev)
    assert {k: spectra[k] for k in exact} == exact
    assert spectra["phase_lags_deg"] == pytest.approx(lags, rel=0.0, abs=1e-9)
    assert ev.score.clamped == pytest.approx(s_acc, rel=0.0, abs=1e-9)


def test_sweep_scores_keep_their_recorded_values():
    rows = experiment.frequency_sweep(RunConfig(), (0.3, 1.0))
    got = {(r.variant, r.freq_hz): r.s_acc for r in rows}
    assert got == pytest.approx(
        {
            ("n1", 0.3): 0.59377830828646361,
            ("n1", 1.0): 0.41590819467939677,
            ("n5", 0.3): 0.40349726000140562,
            ("n5", 1.0): 0.38799206239331219,
        },
        rel=0.0,
        abs=1e-9,
    )


@pytest.mark.parametrize(
    "overrides",
    [{}, {"trajectory": EIGHT}, {"n_per_dir": 5, "output_taus_s": experiment.default_sweep_variants()[1].output_taus_s}],
    ids=["circle", "eight", "n5"],
)
def test_a_window_only_evaluation_scores_and_reads_like_the_whole_grid(overrides):
    result = run_experiment(RunConfig(**overrides))
    whole, window = evaluate(result), evaluate(result, whole_grid=False)
    assert window.f_max_hz.hex() == whole.f_max_hz.hex()
    assert window.score.raw.hex() == whole.score.raw.hex()
    assert window.score.clamped.hex() == whole.score.clamped.hex()
    assert {d: x.hex() for d, x in window.score.per_channel.items()} == {
        d: x.hex() for d, x in whole.score.per_channel.items()
    }
    assert window.pooled_counts == whole.pooled_counts
    k0 = whole.window_index
    assert (window.grid, window.window_index) == (whole.grid, k0)
    for d in DIRECTION_ORDER:
        assert window.measured[d].t0 == whole.window_start_s
        assert np.array_equal(window.measured[d].values.view(np.uint64), whole.measured[d].values[k0:].view(np.uint64))
    # the spectra read a curve's window from its end, whichever sample it
    # starts at; rates.csv needs every sample, and refuses the window alone
    assert spectral_summary(result, window) == spectral_summary(result, whole)
    with pytest.raises(ValueError, match="whole grid"):
        cli._write_rates_csv(os.devnull, result.trajectory, window)


def test_analysis_derives_each_grid_sized_array_once(monkeypatch, tmp_path, usable_cpus, forks):
    result = run_experiment(RunConfig())

    def counted(record, fn):
        def wrapper(*args, **kwargs):
            record.append(args)
            return fn(*args, **kwargs)

        return wrapper

    def counted_length(record, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            record.append(np.size(out))
            return out

        return wrapper

    lengths, trig, searches, scored, ideal, rate_calls, ffts = [], [], [], [], [], [], []
    monkeypatch.setattr(np, "arange", counted_length(lengths, np.arange))
    monkeypatch.setattr(np, "sin", counted_length(trig, np.sin))
    monkeypatch.setattr(np, "cos", counted_length(trig, np.cos))
    monkeypatch.setattr(np, "searchsorted", counted(searches, np.searchsorted))
    monkeypatch.setattr(experiment, "window_accuracy", counted(scored, experiment.window_accuracy))
    ev = evaluate(result)
    n, m = ev.grid.n, ev.grid.n - ev.window_index
    assert 0 < m < n

    # the score reads views of the full-grid measured series over the window
    ((_, _, grid, k0, measured_w),) = scored
    assert grid is ev.grid and k0 == ev.window_index
    for d in DIRECTION_ORDER:
        assert np.shares_memory(measured_w[d].values, ev.measured[d].values)
    # no time axis of the grid: the window start and the spike bins are found
    # on the grid's formula, and each of the two velocity axes starts as the
    # window's times, in a buffer that takes one sin or cos pass
    assert searches == []
    assert n not in lengths and lengths.count(m) == 2
    assert trig == [m, m]

    lengths.clear()
    trig.clear()
    monkeypatch.setattr(experiment, "firing_rate", counted(rate_calls, experiment.firing_rate))
    monkeypatch.setattr(analysis, "firing_rate", counted(rate_calls, analysis.firing_rate))
    monkeypatch.setattr(np.fft, "rfft", counted(ffts, np.fft.rfft))
    monkeypatch.setattr(cli, "ideal_rates", counted(ideal, cli.ideal_rates))
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: result)
    monkeypatch.setattr(cli, "evaluate", lambda res: ev)
    # the rates.csv writers make its ideal curves block by block, with one
    # trig pass per axis of motion in each block; run in-process, every
    # block's calls are seen here, and forked, the run makes none of them
    for cpus in (1, 2):
        usable_cpus(cpus)
        del lengths[:], trig[:], ideal[:], ffts[:], forks[:]
        assert cli.main(["run", "-d", str(tmp_path)]) == 0
        assert len(forks) == (0 if cpus == 1 else 2)
        blocks = range(0, n, CSV_BLOCK_ROWS) if cpus == 1 else range(0)
        assert [(k0, k1) for _, _, _, k0, k1 in ideal] == [(k, min(k + CSV_BLOCK_ROWS, n)) for k in blocks]
        assert all(f_max_hz == ev.f_max_hz and grid is ev.grid for _, f_max_hz, grid, _, _ in ideal)
        assert trig == [min(CSV_BLOCK_ROWS, n - k) for k in blocks for _ in range(2)]
        assert rate_calls == []
        assert len(ffts) <= 4
        # no grid-length times: the block times of the two velocity axes and
        # the t_s column, and the phase basis over the window's own axis,
        # once per channel
        assert lengths.count(m) == 4
        assert sorted(k for k in lengths if k != m) == sorted(
            min(CSV_BLOCK_ROWS, n - k) for k in blocks for _ in range(3)
        )


def test_scoring_window_starts_at_the_first_sample_after_the_transient():
    result = run_experiment(RunConfig())
    ev = evaluate(result)
    k0, grid = ev.window_index, ev.grid
    fp = FilterParams.from_output_taus(result.network.output_taus_s)
    assert grid.time(k0 - 1) < transient_s(fp, result.trajectory.period_s) <= grid.time(k0)
    assert ev.window_start_s == grid.time(k0) == grid_times(grid)[k0]
    # the transient (2 s) ends before t_end (2.05 s) but after the last
    # sample of a 0.7 s grid (1.4 s), which leaves nothing to score
    short = RunConfig(
        trajectory={"kind": "circle", "freq_hz": 1.0, "radius": 3.0},
        t_end_s=2.05,
        grid_dt_s=0.7,
    )
    with pytest.raises(DomainError, match="empty analysis window"):
        evaluate(run_experiment(short))


def test_a_run_too_short_to_score_is_refused_before_any_curve_is_filtered(monkeypatch):
    circle = {"kind": "circle", "freq_hz": 1.0, "radius": 3.0}
    too_short = run_experiment(RunConfig(trajectory=circle, t_end_s=0.5))
    no_window = run_experiment(RunConfig(trajectory=circle, t_end_s=2.05, grid_dt_s=0.7))

    def firing_rate(*args):
        raise AssertionError("filtered a curve of a run it then refused")

    monkeypatch.setattr(experiment, "firing_rate", firing_rate)
    with pytest.raises(DomainError, match="run too short to score"):
        evaluate(too_short)
    with pytest.raises(DomainError, match="empty analysis window"):
        evaluate(no_window)


def test_pooled_pair_reads_the_spectrum_of_the_summed_channels():
    # Each channel alone peaks at 1 Hz, but the two channels of a pair are in
    # antiphase there, so their sum keeps only the common 0.5 Hz tone.
    dt, n, k0 = 0.01, 1100, 100  # a 10 s window: 0.1 Hz bins
    t = dt * np.arange(n)
    fast, slow = np.sin(2 * np.pi * 1.0 * t), 0.5 * np.sin(2 * np.pi * 0.5 * t)
    plus, minus = RateSeries(0.0, dt, 2.0 + fast + slow), RateSeries(0.0, dt, 2.0 - fast + slow)
    ev = SimpleNamespace(
        grid=RateGrid(0.0, dt, n),
        window_index=k0,
        measured={Direction.UP: plus, Direction.DOWN: minus,
                  Direction.LEFT: plus, Direction.RIGHT: minus},
    )
    result = SimpleNamespace(trajectory=SimpleNamespace(period_s=None))
    spectra = spectral_summary(result, ev)
    assert spectra["bin_hz"] == 0.1
    assert spectra["dominant_hz"] == {"up": 1.0, "down": 1.0, "left": 1.0, "right": 1.0}
    assert spectra["pooled"] == {"lr_hz": 0.5, "ud_hz": 0.5, "lr_over_ud": 1.0}
    assert spectra["phase_lags_deg"] is None


def test_the_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Python API", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    clamped = float(capsys.readouterr().out.split()[0])
    assert clamped == pytest.approx(0.8289, abs=5e-5)
