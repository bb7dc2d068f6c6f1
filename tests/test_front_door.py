"""The package's front door: `import motionsnn`, `python -m motionsnn --help`
and the command line's usage errors import no numpy, and the lazily loaded
public names are the modules' own objects."""

import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motionsnn
from motionsnn.cli import main

SRC = str(Path(motionsnn.__file__).resolve().parents[1])

# The public names of the package, by the module that defines them.
EXPORTS = {
    "core": [
        "ConfigError", "DIRECTION_ORDER", "Direction", "DomainError", "Event", "EventStream",
        "MotionSnnError", "NumericFault", "RateSeries", "SpikeRecord", "Synapse",
    ],
    "topology": ["CellLayout", "NetworkGraph", "NetworkParams", "assemble_network", "tessellate"],
    "stimulus": [
        "CircleTrajectory", "EightTrajectory", "EmitMode", "LinearTrajectory", "Trajectory",
        "WaypointTrajectory", "generate_events",
    ],
    "engine": ["SimulationOutput", "simulate"],
    "analysis": [
        "AccuracyScore", "FilterParams", "RateGrid", "accuracy", "calibrate_f_max",
        "dominant_frequency", "firing_rate", "ideal_rates", "phase_lag_deg", "pool_group",
    ],
    "config": ["RunConfig"],
    "experiment": [
        "ExperimentResult", "RunEvaluation", "SweepVariant", "evaluate", "frequency_sweep",
        "run_experiment", "spectral_summary",
    ],
}


def python(*args):
    # a fresh interpreter on this checkout, with argparse's width fixed
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("argv", [
    ["--help"], ["run", "--help"], ["run"], ["sweep", "-j", "x"],
], ids=["help", "run-help", "run-without-out-dir", "sweep-jobs-not-an-int"])
def test_help_and_usage_errors_answer_before_numpy(argv, monkeypatch):
    proc = python("-X", "importtime", "-m", "motionsnn", *argv)
    lines = proc.stderr.splitlines(keepends=True)
    imported = [ln.rsplit("|", 1)[-1].strip() for ln in lines if ln.startswith("import time:")]
    assert "motionsnn.parser" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy" or m == "motionsnn.cli"] == []
    err = "".join(ln for ln in lines if not ln.startswith("import time:"))

    # the same answer as the full command line in this process
    monkeypatch.setenv("COLUMNS", "80")
    out_here, err_here = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out_here), contextlib.redirect_stderr(err_here):
        with pytest.raises(SystemExit) as stop:
            main(argv)
    assert (proc.returncode, proc.stdout, err) == (stop.value.code, out_here.getvalue(), err_here.getvalue())
    assert proc.returncode == (0 if "--help" in argv else 2)


def test_importing_the_package_loads_no_numpy():
    proc = python("-c", (
        "import sys, motionsnn, motionsnn.__main__\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'motionsnn'))\n"
        "print(loaded())\n"
        "motionsnn.RunConfig\n"
        "print('motionsnn.config' in sys.modules, 'numpy' in sys.modules)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['motionsnn', 'motionsnn.__main__', 'motionsnn.parser']",
        "True True",
    ]


def test_the_public_names_are_their_modules_objects():
    assert sorted(motionsnn.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"motionsnn.{module}")
        for name in names:
            assert getattr(motionsnn, name) is getattr(mod, name), name


def test_dir_lists_the_names_and_an_unknown_name_raises():
    assert set(motionsnn.__all__) <= set(dir(motionsnn))
    assert "__version__" in dir(motionsnn)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        motionsnn.no_such_name
    with pytest.raises(ImportError):
        from motionsnn import no_such_name  # noqa: F401
