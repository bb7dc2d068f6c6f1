"""The run path works on the array forms of the network and the stimulus,
and scores and spectra keep their recorded values."""

import concurrent.futures
from types import SimpleNamespace

import numpy as np
import pytest

from motionsnn import (
    DIRECTION_ORDER,
    Direction,
    DomainError,
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
    for view in ("synapses", "neurons", "input_id_by_pixel"):
        assert view not in vars(result.network)
    assert "events" not in vars(result.stream)


def test_sweep_starts_no_more_workers_than_tasks(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    base = RunConfig(trajectory={"kind": "circle", "freq_hz": 1.0, "radius": 3.0})
    n1 = experiment.default_sweep_variants()[:1]
    rows = experiment.frequency_sweep(base, (0.8, 1.7), n1, jobs=8)
    assert sizes == [2]
    assert [r.status for r in rows] == ["ok", "ok"]


def test_an_oversized_rate_grid_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MOTIONSNN_CONFIG", raising=False)
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
    monkeypatch.delenv("MOTIONSNN_CONFIG", raising=False)
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
    twin = experiment.SweepVariant("n1", n5.n_per_dir, n5.output_taus_s)
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


def test_analysis_derives_each_grid_sized_array_once(monkeypatch, tmp_path):
    result = run_experiment(RunConfig())

    def counted(record, fn):
        def wrapper(*args, **kwargs):
            record.append(args)
            return fn(*args, **kwargs)

        return wrapper

    lengths, searches, scored, rate_calls, ffts = [], [], [], [], []
    arange = np.arange

    def counted_arange(*args, **kwargs):
        out = arange(*args, **kwargs)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(np, "arange", counted_arange)
    monkeypatch.setattr(np, "searchsorted", counted(searches, np.searchsorted))
    monkeypatch.setattr(experiment, "accuracy", counted(scored, experiment.accuracy))
    ev = evaluate(result)

    # the scoring windows are views of the full-grid series
    ((ideal_w, measured_w),) = scored
    for d in DIRECTION_ORDER:
        assert np.shares_memory(measured_w[d].values, ev.measured[d].values)
        assert np.shares_memory(ideal_w[d].values, ev.ideal[d].values)
    # one scalar search finds the window start
    assert sum(np.ndim(args[1]) == 0 for args in searches) == 1

    monkeypatch.setattr(experiment, "firing_rate", counted(rate_calls, experiment.firing_rate))
    monkeypatch.setattr(analysis, "firing_rate", counted(rate_calls, analysis.firing_rate))
    monkeypatch.setattr(np.fft, "rfft", counted(ffts, np.fft.rfft))
    spectral_summary(result, ev)
    cli._write_rates_csv(str(tmp_path / "rates.csv"), ev).join()
    assert rate_calls == []
    assert len(ffts) <= 4
    # one grid time axis serves evaluate, the spectra and the t_s column;
    # the phase basis is built once over the window's own axis
    assert lengths.count(ev.grid.n) == 1
    assert lengths.count(ev.grid.n - ev.window_index) == 1


def test_scoring_window_starts_at_the_first_sample_after_the_transient():
    result = run_experiment(RunConfig())
    ev = evaluate(result)
    k0, times = ev.window_index, ev.grid.times
    assert times[k0 - 1] < transient_s(ev.fp, result.trajectory.period_s) <= times[k0]
    # the transient (2 s) ends before t_end (2.05 s) but after the last
    # sample of a 0.7 s grid (1.4 s), which leaves nothing to score
    short = RunConfig(
        trajectory={"kind": "circle", "freq_hz": 1.0, "radius": 3.0},
        t_end_s=2.05,
        grid_dt_s=0.7,
    )
    with pytest.raises(DomainError, match="empty analysis window"):
        evaluate(run_experiment(short))


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
