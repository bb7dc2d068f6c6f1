"""Command-line entry points, exit codes and output files."""

import csv
import errno
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import motionsnn
from motionsnn import cli, experiment
from motionsnn.analysis import RateGrid
from motionsnn.cli import _write_rates_csv, main
from motionsnn.core import (
    CSV_BLOCK_ROWS,
    DIRECTION_ORDER,
    RateSeries,
)

from oracles import grid_times

# one-period settle plus three periods at 1 Hz keeps runs around a second
FAST = {"trajectory": {"kind": "circle", "freq_hz": 1.0, "radius": 3.0}}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_topo_prints_json_to_stdout(capsys):
    assert main(["topo"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["input_neurons"] == 75
    assert data["counts"]["total_synapses"] == 319


def test_topo_honours_set_overrides(tmp_path):
    out = tmp_path / "net.json"
    rc = main(["topo", "--set", "field_width=7", "--set", "field_height=7",
               "-o", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["field"] == {"width": 7, "height": 7}


def test_events_writes_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST)
    out = tmp_path / "ev.csv"
    assert main(["events", "-c", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,t_s"
    assert len(lines) > 10
    assert f"wrote {len(lines) - 1} events" in capsys.readouterr().out


def test_a_trajectory_kind_is_switched_by_one_whole_object_override(tmp_path, capsys):
    # The README's command. A dotted `trajectory.kind` override keeps the
    # default circle's other keys, which a linear path does not take.
    out = tmp_path / "ev.csv"
    linear = 'trajectory={"kind":"linear","x0":1.5,"y0":5,"vx":10,"vy":0}'
    assert main(["events", "--set", linear, "--set", "t_end_s=0.5", "-o", str(out)]) == 0
    rows = out.read_text().splitlines()
    # the centre moves from column 2 to column 7: the first footprint, then
    # one new column of three pixels per change
    assert len(rows) == 1 + 9 + 5 * 3 and rows[-1].startswith("8,6,")
    assert "wrote 24 events" in capsys.readouterr().out
    assert main(["events", "--set", "trajectory.kind=linear", "--set", "t_end_s=0.5",
                 "-o", str(tmp_path / "dotted.csv")]) == 2
    assert capsys.readouterr().err == "config error: unknown trajectory keys: ['freq_hz']\n"


@pytest.mark.parametrize("points", ["null", "0", "false"])
def test_waypoints_that_are_not_a_list_exit_2(tmp_path, capsys, points):
    trajectory = f'trajectory={{"kind":"waypoints","points":{points}}}'
    assert main(["events", "--set", trajectory, "-o", str(tmp_path / "ev.csv")]) == 2
    assert capsys.readouterr().err == "config error: each waypoint must be [t, x, y]\n"


# sha256 of `motionsnn events` output, recorded from the encoder that built
# one `Event` object per row before the stream became three arrays.
EVENTS_GOLDEN = {
    "default": ([], "5b51ea63255b929e4004632457321f4c25859e62f39b12f43d6aaaec6d1a640e"),
    "100x101-footprint": (
        [
            "field_width=100",
            "field_height=101",
            "trajectory.cx=49.5",
            "trajectory.cy=50.0",
            "trajectory.radius=45.0",
            'encoding="footprint"',
        ],
        "d2736b0943aa18481948a3ba18f819825f0ae836c8cff42e26f8c69404277995",
    ),
}


@pytest.mark.parametrize("name", sorted(EVENTS_GOLDEN))
def test_events_csv_matches_the_recorded_bytes(name, tmp_path):
    overrides, digest = EVENTS_GOLDEN[name]
    out = tmp_path / "ev.csv"
    args = ["events", "-o", str(out)] + [a for item in overrides for a in ("--set", item)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_the_environment_names_no_config(tmp_path, capsys, monkeypatch):
    # `-c` is the only way to name a config file
    monkeypatch.setenv("MOTIONSNN_CONFIG", write_cfg(tmp_path, {"field_width": 12}))
    assert main(["topo"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["field"]["width"] == 10


def test_run_writes_spikes_rates_and_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST)
    out = tmp_path / "out"
    assert main(["run", "-c", cfg, "-d", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["trajectory"]["freq_hz"] == 1.0
    assert summary["network"]["counts"]["cells"] == 15
    assert summary["stimulus"]["n_events"] > 0
    assert set(summary["spikes"]["outputs"]) == {"up", "down", "left", "right"}
    assert 0.0 <= summary["analysis"]["s_acc"] <= 1.0
    spikes = (out / "spikes.csv").read_text().splitlines()
    assert spikes[0] == "neuron_id,t_s"
    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[0] == (
        "t_s,up_hz,down_hz,left_hz,right_hz,"
        "up_ideal_hz,down_ideal_hz,left_ideal_hz,right_ideal_hz"
    )
    assert len(rates) == len(set(r.split(",")[0] for r in rates))  # one row per time
    assert capsys.readouterr().out.startswith("s_acc=")


def test_readme_run_without_a_config_file(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--set", "trajectory.freq_hz=0.3",
               "--set", "lateral_inhibition=false", "-d", str(out)])
    assert rc == 0, capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["trajectory"] == {"kind": "circle", "freq_hz": 0.3}
    assert summary["config"]["lateral_inhibition"] is False


def _reference_rates_csv(path, ev):
    """The row-by-row csv.writer export that _write_rates_csv replaces."""
    header = ["t_s"]
    header += [f"{d.value}_hz" for d in DIRECTION_ORDER]
    header += [f"{d.value}_ideal_hz" for d in DIRECTION_ORDER]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(grid_times(ev.grid)):
            row = ["%.9g" % (float(t) + 0.0)]
            row += ["%.9g" % (float(ev.measured[d].values[i]) + 0.0) for d in DIRECTION_ORDER]
            row += ["%.9g" % (float(ev.ideal[d].values[i]) + 0.0) for d in DIRECTION_ORDER]
            writer.writerow(row)


def _random_rates(n):
    """A run evaluation stand-in: n grid rows of wide-ranging rates with 0,
    -0.0 and the smallest subnormal mixed in. RateGrid refuses an empty
    grid, so a namespace with its fields stands in for one of no rows."""
    rng = np.random.default_rng(8)
    grid = RateGrid(0.0, 1e-3, n) if n else SimpleNamespace(t0=0.0, dt=1e-3, n=0)

    def series(k):
        v = rng.uniform(0.0, 40.0, n) * 10.0 ** rng.integers(-12, 12, n)
        v[k::97] = 0.0
        v[k + 1::89] = -0.0
        v[k + 2::83] = 5e-324
        return RateSeries(0.0, 1e-3, v)

    ev = SimpleNamespace(
        grid=grid,
        f_max_hz=1.0,
        measured={d: series(i) for i, d in enumerate(DIRECTION_ORDER)},
        ideal={d: series(i + 4) for i, d in enumerate(DIRECTION_ORDER)},
    )
    if n > CSV_BLOCK_ROWS:
        ev.measured[DIRECTION_ORDER[0]].values[CSV_BLOCK_ROWS] = -0.0
    return ev


def _sliced_ideal_rates(ev):
    """An `ideal_rates` stand-in that gives the samples k0 .. k1 - 1 of the
    evaluation's ideal curves."""

    def ideal_rates(traj, f_max_hz, grid, k0, k1):
        return {d: RateSeries(grid.time(k0), grid.dt, ev.ideal[d].values[k0:k1]) for d in DIRECTION_ORDER}

    return ideal_rates


def test_rates_csv_matches_the_row_by_row_writer(tmp_path, monkeypatch):
    # no rows, exactly one block, and a table that crosses block boundaries
    # and ends mid-block
    for n in (0, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 37):
        ev = _random_rates(n)
        monkeypatch.setattr(cli, "ideal_rates", _sliced_ideal_rates(ev))
        _write_rates_csv(str(tmp_path / "new.csv"), None, ev).join()
        _reference_rates_csv(str(tmp_path / "ref.csv"), ev)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.count(b"\r\n") == n + 1
        assert b"-0," not in new and b",-0\r" not in new


def test_forked_rates_csv_matches_the_row_by_row_writer(tmp_path, monkeypatch, usable_cpus, forks):
    ev = _random_rates(4 * CSV_BLOCK_ROWS + 37)
    monkeypatch.setattr(cli, "ideal_rates", _sliced_ideal_rates(ev))
    _reference_rates_csv(str(tmp_path / "ref.csv"), ev)
    for parts in (2, 3, 4):
        usable_cpus(parts)
        del forks[:]
        _write_rates_csv(str(tmp_path / "new.csv"), None, ev).join()
        assert len(forks) == parts
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["new.csv", "ref.csv"]


def test_run_frees_the_ideal_curves_before_the_spectra(tmp_path, monkeypatch, usable_cpus, forks):
    # the run makes the t_s column and the ideal curves only for rates.csv,
    # and each writer makes them block by block, in the parent when the
    # writers run in-process and in the children when they fork; no call for
    # the file spans more than one block, and nothing made for it is left
    # when the spectra allocate. Calls are logged to a file, so that the
    # children's calls are seen too.
    log = tmp_path / "calls"
    made = []
    scored = [False]  # set once evaluate returns, so the scoring's axes are not logged

    def record(kind, k0, k1, arrays):
        if scored[0]:
            made.extend(weakref.ref(a) for a in arrays)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {kind} {k0} {k1}\n")

    def axis(grid, k0=0, k1=None):
        times = grid_axis(grid, k0, k1)
        record("axis", k0, grid.n if k1 is None else k1, [times])
        return times

    def ideal_rates(traj, f_max_hz, grid, k0=0, k1=None):
        curves = cli_ideal_rates(traj, f_max_hz, grid, k0, k1)
        record("ideal", k0, grid.n if k1 is None else k1, [c.values for c in curves.values()])
        return curves

    def evaluate(result):
        ev = cli_evaluate(result)
        scored[0] = True
        return ev

    def spectral_summary(result, ev):
        scored[0] = False
        assert all(ref() is None for ref in made)
        return cli_spectral_summary(result, ev)

    cli_ideal_rates, cli_spectral_summary, cli_evaluate = cli.ideal_rates, cli.spectral_summary, cli.evaluate
    grid_axis = RateGrid.axis
    monkeypatch.setattr(RateGrid, "axis", axis)
    monkeypatch.setattr(cli, "ideal_rates", ideal_rates)
    monkeypatch.setattr(cli, "evaluate", evaluate)
    monkeypatch.setattr(cli, "spectral_summary", spectral_summary)
    for cpus in (1, 2):
        usable_cpus(cpus)
        del forks[:], made[:]
        log.write_text("")
        out = tmp_path / f"out{cpus}"
        assert main(["run", "--set", "trajectory.freq_hz=0.05", "-d", str(out)]) == 0
        with open(out / "rates.csv", "rb") as fh:
            n = sum(1 for _ in fh) - 1
        assert n >= 80_001
        calls = [line.split() for line in log.read_text().splitlines()]
        assert all(int(k1) - int(k0) <= CSV_BLOCK_ROWS for _, _, k0, k1 in calls)
        # each block's ideal curves once, from one axis per axis of motion,
        # and its t_s column from one more axis
        blocks = sorted((int(k0), int(k1)) for _, kind, k0, k1 in calls if kind == "ideal")
        assert [k0 for k0, _ in blocks] == list(range(0, n, CSV_BLOCK_ROWS)) and blocks[-1][1] == n
        assert sum(kind == "axis" for _, kind, _, _ in calls) == 3 * len(blocks)
        pids = {int(pid) for pid, _, _, _ in calls}
        if cpus == 1:
            assert pids == {os.getpid()} and forks == []
        else:  # two rates.csv writers; spikes.csv is one block, made in the parent
            assert len(pids) == 2 and pids == set(forks)


def test_run_twice_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, FAST)
    blobs = []
    for d in ("a", "b"):
        assert main(["run", "-c", cfg, "-d", str(tmp_path / d)]) == 0
        blobs.append(tuple(
            (tmp_path / d / name).read_bytes()
            for name in ("spikes.csv", "rates.csv", "summary.json")
        ))
    assert blobs[0] == blobs[1]


def test_sweep_writes_rows_and_resumes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST)
    out = tmp_path / "sweep.csv"
    args = ["sweep", "-c", cfg, "--freqs", "0.8,1.7", "--variants", "n1",
            "-o", str(out)]
    assert main(args) == 0
    first = out.read_text()
    lines = first.splitlines()
    assert lines[0] == "freq_hz,variant,s_acc,s_acc_norm,status"
    assert len(lines) == 3
    assert all(ln.split(",")[1] == "n1" for ln in lines[1:])
    assert "(2 computed, 0 reused)" in capsys.readouterr().out

    assert main(args + ["--resume"]) == 0
    assert "(0 computed, 2 reused)" in capsys.readouterr().out
    assert out.read_text() == first


def test_sweep_resume_extends_the_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST)
    out = tmp_path / "sweep.csv"
    base = ["sweep", "-c", cfg, "--variants", "n1", "-o", str(out)]
    assert main(base + ["--freqs", "0.8"]) == 0
    capsys.readouterr()
    assert main(base + ["--freqs", "0.8,1.7", "--resume"]) == 0
    assert "(1 computed, 1 reused)" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 3


def test_sweep_rejects_unknown_variants(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST)
    rc = main(["sweep", "-c", cfg, "--variants", "n7",
               "-o", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg = write_cfg(tmp_path, FAST)
    out = tmp_path / "s.csv"
    rc = main(["sweep", "-c", cfg, "--freqs", "0.8", "--variants", "n1",
               "-j", jobs, "-o", str(out)])
    assert rc == 2
    assert "config error: --jobs" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exits_2(tmp_path, capsys):
    bad = write_cfg(tmp_path, {"nope": 1})
    assert main(["topo", "-c", bad]) == 2
    assert "config error:" in capsys.readouterr().err


SWEEP_HEADER = "freq_hz,variant,s_acc,s_acc_norm,status\r\n"
OUT_FLAG = {"run": "-d", "events": "--out", "sweep": "-o", "topo": "--out"}
DIRECTORY = object()  # the output path is an existing directory
NOT_UTF8 = b"\xff"
RESUME = ["sweep", "--freqs", "0.8", "--variants", "n1", "--resume"]


# out_file: rows after the sweep header (str), the whole file (bytes) or DIRECTORY
@pytest.mark.parametrize("args, out_file", [
    (["run", "--set", "network.w_lateral=abc"], None),
    (["run", "--set", "trajectory.freq_hz=abc"], None),
    (["run", "--set", 'field_width="x"'], None),
    (["run", "--set", 'output_taus_s=["a"]'], None),
    (["run", "--set", 'lateral_inhibition="false"'], None),
    (["run", "--set", "schema_version=true"], None),
    (["run", "--set", "samples_per_pixel=NaN"], None),
    (["run", "--set", "samples_per_pixel=Infinity"], None),
    (["events", "--set", "samples_per_pixel=NaN"], None),
    (["events", "--set", "samples_per_pixel=Infinity"], None),
    (["run", "--set", "samples_per_pixel=1e300"], None),
    (["run", "--set", "t_end_s=1e300"], None),
    (["run", "--set", "trajectory.freq_hz=1e300"], None),
    (["run", "--set", "grid_dt_s=1e-300"], None),
    (["events", "--set", "samples_per_pixel=1e300"], None),
    (["events", "--set", "t_end_s=1e300"], None),
    (["events", "--set", "trajectory.freq_hz=1e300"], None),
    (["sweep", "--freqs", "0.8", "--variants", "n1", "--resume"], "0.8,n1\r\n"),
    (["sweep", "--freqs", "0.8", "--variants", "n1", "--resume"], "abc,n1,,,ok\r\n"),
    (["sweep", "--freqs", "0.8", "--variants", "n1", "--resume"], "0.8,n1,,,ok\r\n"),
    (["sweep", "--freqs", "0.8", "--variants", "n1", "--resume"], "0.8,n1,nan,,ok\r\n"),
    # NetworkParams checks every field, also those the built network does not use
    (["topo", "--set", "network.w_lateral=-1", "--set", "lateral_inhibition=false"], None),
    (["topo", "--set", "network.tau_center_s=0", "--set", "field_width=2",
      "--set", "field_height=2"], None),
    (RESUME, DIRECTORY),
    (RESUME, NOT_UTF8),
    (["topo", "-c", "{tmp}/not-utf8.json"], None),
    (["topo", "-c", "{tmp}"], None),
    # refused before the cell layout is allocated
    (["topo", "--set", "field_width=100000", "--set", "field_height=100000"], None),
    (["run", "--set", "field_width=100000", "--set", "field_height=100000"], None),
    (["topo", "--set", "network.t_pw_s=1e-4"], None),
], ids=["network-value", "trajectory-value", "field-width", "output-tau",
        "lateral-string", "bool-schema-version", "run-nan-samples", "run-inf-samples", "events-nan-samples",
        "events-inf-samples", "run-huge-samples", "run-huge-t-end", "run-huge-freq",
        "run-huge-grid", "events-huge-samples", "events-huge-t-end", "events-huge-freq",
        "short-sweep-row", "sweep-freq", "ok-row-without-score",
        "ok-row-nan-score", "unused-lateral-weight", "tau-of-no-cell",
        "resume-from-a-directory", "resume-not-utf8", "config-not-utf8",
        "config-is-a-directory", "topo-huge-field", "run-huge-field", "removed-pulse-width"])
def test_malformed_input_exits_2(tmp_path, capsys, args, out_file):
    out = tmp_path / "out"
    if out_file is DIRECTORY:
        out.mkdir()
    elif isinstance(out_file, bytes):
        out.write_bytes(out_file)
    elif out_file is not None:
        out.write_bytes((SWEEP_HEADER + out_file).encode())
    (tmp_path / "not-utf8.json").write_bytes(NOT_UTF8)
    args = [a.format(tmp=tmp_path) for a in args] + [OUT_FLAG[args[0]], str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    if isinstance(out_file, str):
        assert err.startswith("config error: malformed row 2 in ")
    elif out_file is not None:
        assert err.startswith(f"config error: cannot read {out}: ") and err.count("\n") == 1
    if "-c" in args:
        cfg = args[args.index("-c") + 1]
        assert err.startswith(f"config error: cannot read config {cfg}: ") and err.count("\n") == 1
        if cfg == str(tmp_path):
            assert err == f"config error: cannot read config {cfg}: Is a directory\n"


def test_the_benchmark_tracer_finds_its_hooks_and_counts_the_run(tmp_path):
    # perfbench/spans.py wraps package functions and reads its views by
    # name, and reports any it cannot find as absent
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    src = str(Path(motionsnn.__file__).resolve().parents[1])
    trace, out = tmp_path / "trace.json", tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(spans), str(trace), "--", "run", "-d", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(trace.read_text())
    assert traced["absent"] == []
    summary = json.loads((out / "summary.json").read_text())
    counts, counters = summary["network"]["counts"], traced["counters"]
    neurons = counts["input_neurons"] + counts["hidden_neurons"] + counts["output_neurons"]
    assert counters["topology.neurons"] == neurons
    assert counters["topology.synapses"] == counts["total_synapses"]
    assert counters["stimulus.events"] == summary["stimulus"]["n_events"]
    for layer, n in summary["spikes"]["totals"].items():
        assert counters[f"engine.spikes.{layer}"] == n


POOL_MODULES = (
    "def pool_modules():\n"
    "    print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
)


def _pool_modules_after(code, *args):
    # runs `code` in a fresh interpreter and returns its stdout lines;
    # `code` calls pool_modules() to print the pool modules loaded so far
    src = str(Path(motionsnn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, motionsnn.cli\n" + POOL_MODULES + code, *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    return proc.stdout.splitlines()


def test_importing_the_cli_loads_no_process_pool_module():
    # the CLI imports neither multiprocessing nor concurrent.futures
    assert _pool_modules_after("pool_modules()\n") == ["[]"]


def test_run_and_events_load_no_process_pool_module(tmp_path):
    # the CSV writers fork their part writers without either module
    lines = _pool_modules_after(
        "motionsnn.cli.main(['events', '-o', sys.argv[1] + '/ev.csv'])\n"
        "motionsnn.cli.main(['run', '-d', sys.argv[1]])\n"
        "pool_modules()\n",
        str(tmp_path),
    )
    assert lines[-1] == "[]"
    assert sorted(os.listdir(tmp_path)) == ["ev.csv", "rates.csv", "spikes.csv", "summary.json"]


def test_a_forked_sweep_loads_no_process_pool_module(tmp_path):
    # `sweep -j 2` forks its workers through the same part files
    lines = _pool_modules_after(
        "motionsnn.cli.main(['sweep', '--freqs', '0.8,1.7', '-j', '2', '-o', sys.argv[1] + '/sweep.csv'])\n"
        "pool_modules()\n",
        str(tmp_path),
    )
    assert lines[-1] == "[]"
    assert os.listdir(tmp_path) == ["sweep.csv"]


@pytest.mark.parametrize("command, target", [
    (["run", "--out-dir", "{tmp}/out"], "{tmp}/out/rates.csv"),
    (["events", "--out", "{tmp}/missing/ev.csv"], "{tmp}/missing/ev.csv"),
    (["sweep", "--freqs", "1", "--variants", "n1", "--out", "{tmp}/missing/sweep.csv"],
     "{tmp}/missing/sweep.csv"),
    (["topo", "--out", "{tmp}/missing/net.json"], "{tmp}/missing/net.json"),
], ids=["run-rates-is-a-directory", "events", "sweep", "topo"])
def test_an_output_that_cannot_be_written_exits_2(
    tmp_path, capsys, usable_cpus, command, target
):
    usable_cpus(2)  # rates.csv of the default run is forked in parts
    (tmp_path / "out" / "rates.csv").mkdir(parents=True)
    target = target.format(tmp=tmp_path)
    reason = "Is a directory" if command[0] == "run" else "No such file or directory"
    assert main([arg.format(tmp=tmp_path) for arg in command]) == 2
    assert capsys.readouterr().err == f"config error: cannot write {target}: {reason}\n"
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".part")]


def test_a_failed_writer_child_exits_2(tmp_path, capsys, usable_cpus, failing_children):
    usable_cpus(2)
    failing_children(OSError(errno.ENOSPC, "No space left on device"))
    out = tmp_path / "out"
    assert main(["run", "-d", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write {out / 'rates.csv'}: No space left on device\n"
    )
    assert os.listdir(out) == []


def test_a_failed_fork_exits_2(tmp_path, capsys, monkeypatch, usable_cpus, forks):
    usable_cpus(2)  # rates.csv of the default run is forked in two parts
    fork = os.fork

    def fork_once():
        if forks:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    out = tmp_path / "out"
    assert main(["run", "-d", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write {out / 'rates.csv'}: Resource temporarily unavailable\n"
    )
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(forks[0], os.WNOHANG)
    assert os.listdir(out) == []


@pytest.mark.parametrize("started", [0, 1], ids=["first-fork", "second-fork"])
def test_a_failed_sweep_worker_fork_exits_2(tmp_path, capsys, monkeypatch, forks, started):
    # The sweep starts its two workers up front; the fork after `started`
    # of them fails. The workers already started are stopped and reaped.
    fork = os.fork

    def fork_until_refused():
        if len(forks) == started:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_until_refused)
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--freqs", "0.8,1.7", "--variants", "n1", "-j", "2", "-o", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "config error: cannot run a sweep worker: Resource temporarily unavailable\n"
    )
    assert len(forks) == started
    for pid in forks:
        with pytest.raises(ChildProcessError):  # the worker was reaped
            os.waitpid(pid, os.WNOHANG)
    assert not out.exists()


def test_a_killed_sweep_worker_exits_2(tmp_path, capsys, monkeypatch, forks):
    # The worker of the 1.7 Hz point kills itself. The other one, which would
    # sleep for 30 s, is stopped and reaped at once instead of waited for.
    parent, run = os.getpid(), experiment.run_experiment

    def killed_or_slow(cfg):
        if os.getpid() != parent:
            if cfg.trajectory["freq_hz"] == 1.7:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(30)
        return run(cfg)

    monkeypatch.setattr(experiment, "run_experiment", killed_or_slow)
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--freqs", "0.8,1.7", "--variants", "n1", "-j", "2", "-o", str(out)]
    began = time.monotonic()
    assert main(args) == 2
    assert time.monotonic() - began < 10
    assert capsys.readouterr().err == (
        "config error: cannot run a sweep worker: part writer exited with status -9\n"
    )
    assert len(forks) == 2
    for pid in forks:
        with pytest.raises(ChildProcessError):  # the worker was reaped
            os.waitpid(pid, os.WNOHANG)
    assert not out.exists()


LINEAR_HALF_SECOND = {"trajectory": {"kind": "linear", "x0": 2.0, "vx": 1.0}, "t_end_s": 0.5}

# command, config and message of each domain error
DOMAIN_ERRORS = [
    (["events", "--out", "{tmp}/e.csv"],
     {"trajectory": {"kind": "circle", "freq_hz": 1.0, "radius": 6.0}},
     "x range [-1.5, 10.5] leaves the 10x11 field"),
    # with the default 0.5 s output tau the scoring window opens after 2 s
    (["run", "-d", "{tmp}/out"], LINEAR_HALF_SECOND,
     "run too short to score: needs > 2.000s, has 0.500s"),
    (["sweep", "--freqs", "1", "-o", "{tmp}/sweep.csv"], LINEAR_HALF_SECOND,
     "frequency sweep needs a periodic trajectory"),
]


def test_domain_error_exits_3(tmp_path, capsys):
    for command, data, message in DOMAIN_ERRORS:
        cfg = write_cfg(tmp_path, data)
        assert main([a.format(tmp=tmp_path) for a in command] + ["-c", cfg]) == 3
        assert capsys.readouterr().err == f"domain error: {message}\n"


# giant sub-threshold weights overflow a relay's potential on the second pass
RELAY_OVERFLOW = {
    "trajectory": {"kind": "waypoints",
                   "points": [[0.0, 4.5, 5.0], [1.0, 6.0, 5.0], [2.0, 4.5, 5.0]]},
    "network": {"hidden_v_th": 1.5e308, "w_input_hidden": 1e308,
                "tau_directional_s": 20.0},
}


def test_numeric_overflow_exits_4(tmp_path, capsys):
    for data, neuron in [
        (RELAY_OVERFLOW, 127),
        # two excitatory relay arrivals of weight 1e308 sum past the largest
        # float, first in the UP output
        ({"network": {"w_hidden_output": 1e308}}, 210),
    ]:
        cfg = write_cfg(tmp_path, data)
        assert main(["run", "-c", cfg, "-d", str(tmp_path / "boom")]) == 4
        assert capsys.readouterr().err == f"numeric fault: non-finite potential on neuron {neuron}\n"


def test_numeric_overflow_reports_the_first_faulty_relay_and_nothing_else(tmp_path):
    # RELAY_OVERFLOW, run as a process so that stderr holds everything it
    # prints, numpy warnings included. The reported neuron is the first relay
    # whose potential overflows in (tick, id) order, as the per-edge
    # reference engine finds it.
    from motionsnn.config import build_network, build_stimulus, build_trajectory
    from motionsnn.topology import Layer
    from oracles import per_edge_heap_simulate

    cfg = motionsnn.RunConfig.from_dict(RELAY_OVERFLOW)
    net = build_network(cfg)
    with pytest.raises(motionsnn.NumericFault) as fault:
        per_edge_heap_simulate(net, build_stimulus(cfg), build_trajectory(cfg).t_end)
    assert str(fault.value) == "non-finite potential on neuron 127"
    assert 127 in net.layer_ids()[Layer.HIDDEN]

    src = str(Path(motionsnn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "motionsnn", "run", "-c", write_cfg(tmp_path, RELAY_OVERFLOW),
         "-d", str(tmp_path / "boom")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 4
    assert proc.stderr == "numeric fault: non-finite potential on neuron 127\n"


def test_a_reader_that_closes_stdout_early_gets_exit_2_and_one_line():
    # the 100 x 101 field's JSON is megabytes, far more than a pipe holds, so
    # the write is still going on when the reader closes after 100 bytes
    src = str(Path(motionsnn.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "motionsnn", "topo", "--set", "field_width=100", "--set", "field_height=101"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait()
    # all of stderr: no traceback, and no "Exception ignored" from the exit flush
    assert code == 2
    assert err == "config error: cannot write standard output: Broken pipe\n"
