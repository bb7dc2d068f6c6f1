"""The run path works on the array forms of the network and the stimulus."""

from motionsnn import RunConfig, Trajectory, evaluate, run_experiment
from motionsnn import experiment, stimulus


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

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
    base = RunConfig(trajectory={"kind": "circle", "freq_hz": 1.0, "radius": 3.0})
    n1 = experiment.default_sweep_variants()[:1]
    rows = experiment.frequency_sweep(base, (0.8, 1.7), n1, jobs=8)
    assert sizes == [2]
    assert [r.status for r in rows] == ["ok", "ok"]
