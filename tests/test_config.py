"""Run configuration parsing, overrides and derived run length."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from motionsnn import (
    CircleTrajectory,
    ConfigError,
    EightTrajectory,
    LinearTrajectory,
    RunConfig,
    WaypointTrajectory,
)
from motionsnn.analysis import FilterParams, transient_s
from motionsnn.config import (
    apply_overrides,
    build_network,
    build_network_params,
    build_stimulus,
    build_trajectory,
)
from motionsnn.experiment import default_sweep_variants


def test_defaults_round_trip():
    cfg = RunConfig()
    assert cfg.field_width == 10 and cfg.field_height == 11
    assert cfg.trajectory == {"kind": "circle", "freq_hz": 0.15}
    assert cfg.n_per_dir == 1 and cfg.output_taus_s == (0.5,)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"schema_version": 1, "bogus": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"schema_version": 2})
    # True == 1.0 == 1, but neither is the integer version
    for version in (True, 1.0):
        with pytest.raises(ConfigError, match="^schema_version must be int, got "):
            RunConfig.from_dict({"schema_version": version})


def test_trajectory_validation():
    with pytest.raises(ConfigError):
        RunConfig(trajectory={"kind": "spiral"})
    with pytest.raises(ConfigError):
        RunConfig(trajectory={"kind": "circle", "vx": 1.0})
    with pytest.raises(ConfigError):
        RunConfig(trajectory={"freq_hz": 0.2})


def test_parameter_validation():
    with pytest.raises(ConfigError):
        RunConfig(encoding="both")
    with pytest.raises(ConfigError):
        RunConfig(n_per_dir=0)
    with pytest.raises(ConfigError):
        RunConfig(n_per_dir=2, output_taus_s=(0.5,))
    with pytest.raises(ConfigError):
        RunConfig(grid_dt_s=0.0)
    with pytest.raises(ConfigError):
        RunConfig(t_end_s=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(network={"not_a_param": 1.0})
    RunConfig(network={"output_v_th": 1.8})


@pytest.mark.parametrize("kwargs", [
    {"trajectory": None},
    {"network": {"t_ref_s": "x"}},
    {"output_taus_s": ("a",)},
    {"trajectory": {"kind": "waypoints", "points": None}},
    {"output_taus_s": 0.5},
    {"network": None},
], ids=["trajectory-none", "network-string", "tau-string", "points-none", "taus-number", "network-none"])
def test_a_config_made_in_python_is_checked_like_a_config_file(kwargs):
    # the constructor runs the checks that a file's config gets, so nothing
    # it accepts fails later as another error than ConfigError
    with pytest.raises(ConfigError):
        cfg = RunConfig(**kwargs)
        build_trajectory(cfg)
        build_network(cfg)


def test_build_trajectory_dispatch():
    assert isinstance(build_trajectory(RunConfig(t_end_s=5.0)), CircleTrajectory)
    cfg8 = RunConfig(trajectory={"kind": "eight", "freq_hz": 0.2}, t_end_s=5.0)
    assert isinstance(build_trajectory(cfg8), EightTrajectory)
    lin = RunConfig(trajectory={"kind": "linear", "x0": 1.0, "y0": 5.0, "vx": 3.0},
                    t_end_s=2.0)
    assert isinstance(build_trajectory(lin), LinearTrajectory)
    way = RunConfig(trajectory={"kind": "waypoints",
                                "points": [[0.0, 2.0, 2.0], [1.5, 6.0, 2.0]]})
    traj = build_trajectory(way)
    assert isinstance(traj, WaypointTrajectory)
    assert traj.t_end == 1.5


def test_resolve_t_end_rules():
    # explicit value wins
    assert build_trajectory(RunConfig(t_end_s=7.5)).t_end == 7.5
    # periodic default: settle time plus three periods
    cfg = RunConfig(trajectory={"kind": "circle", "freq_hz": 0.15})
    period = 1.0 / 0.15
    assert build_trajectory(cfg).t_end == pytest.approx(max(4 * 0.5, period) + 3 * period)
    fast = RunConfig(trajectory={"kind": "circle", "freq_hz": 10.0})
    assert build_trajectory(fast).t_end == pytest.approx(2.0 + 0.3)
    # linear paths have no period to fall back on
    lin = RunConfig(trajectory={"kind": "linear", "x0": 1.0, "y0": 5.0, "vx": 3.0})
    with pytest.raises(ConfigError):
        build_trajectory(lin).t_end
    # waypoint runs always end at the last waypoint
    way = RunConfig(trajectory={"kind": "waypoints",
                                "points": [[0.0, 2.0, 2.0], [2.5, 6.0, 2.0]]},
                    t_end_s=9.0)
    assert build_trajectory(way).t_end == 2.5


@pytest.mark.parametrize("variant", default_sweep_variants(), ids=lambda v: v.label)
@pytest.mark.parametrize("freq_hz", [0.01, 0.15, 1.0, 7.0])
def test_t_end_settles_for_exactly_the_scored_transient(variant, freq_hz):
    cfg = RunConfig(trajectory={"kind": "circle", "freq_hz": freq_hz},
                    n_per_dir=len(variant.output_taus_s), output_taus_s=variant.output_taus_s)
    period = 1.0 / freq_hz
    t_end = build_trajectory(cfg).t_end
    fp = FilterParams.from_output_taus(variant.output_taus_s)
    assert t_end == transient_s(fp, period) + 3.0 * period
    # the separate config-side formula this replaced, to the last bit
    tau1 = float(np.mean(np.asarray(variant.output_taus_s)))
    assert t_end == max(4.0 * tau1, period) + 3.0 * period


def test_package_imports_form_no_cycle():
    src = Path(__file__).resolve().parents[1] / "src" / "motionsnn"
    deps = {}
    for path in src.glob("*.py"):
        body = ast.parse(path.read_text()).body
        deps[path.stem] = {
            node.module for node in body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }
    done, active = set(), []

    def visit(mod):
        assert mod not in active, " -> ".join(active + [mod])
        if mod in done:
            return
        active.append(mod)
        for dep in deps.get(mod, ()):
            visit(dep)
        active.pop()
        done.add(mod)

    for mod in deps:
        visit(mod)
    assert "analysis" in deps["config"]


def test_package_modules_use_every_name_they_import():
    src = Path(__file__).resolve().parents[1] / "src" / "motionsnn"
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the public API
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{ln} {name}" for name, ln in imported.items() if name not in used]
    assert not unused


# Public names that `run`, `sweep`, `events` and `topo` never reach, each
# kept for the reason given.
UNCALLED_PUBLIC_API = {
    "accuracy": "scores a given ideal and measured pair; acceptance criterion 7 scores a hand-made pair through it",
    "EventStream.events": "the stream as Event records; the benchmark tracer counts stimulus changes from them",
    "FilterParams.kernel": "the closed-form kernel the rate filter is checked against",
    "SpikeRecord.spike_times": "per-neuron trains; the oracles, the tests and the benchmark tracer read them",
    "Trajectory.position": "the scalar path; the benchmark tracer counts its calls",
}


def test_package_defines_no_public_api_it_never_uses():
    """Every public top-level function, class and method in the package is
    referenced by name somewhere in the package outside its own definition,
    unless UNCALLED_PUBLIC_API says why not. A method counts as referenced
    only through an attribute (`x.name`), so a local variable or parameter
    of the same name does not hide it. Re-exports in `__init__.py` are
    imports, not references, so they do not count."""
    src = Path(__file__).resolve().parents[1] / "src" / "motionsnn"
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((node.name, node))
                if isinstance(node, ast.ClassDef):
                    defined += [
                        (f"{node.name}.{item.name}", item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    ]
    refs = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    uncalled = set()
    for name, node in defined:
        own = {id(n) for n in ast.walk(node)}
        short = name.rsplit(".", 1)[-1]
        kinds = ast.Attribute if "." in name else (ast.Name, ast.Attribute)
        if not any(ref == short and isinstance(n, kinds) and id(n) not in own for ref, n in refs):
            uncalled.add(name)
    assert uncalled == set(UNCALLED_PUBLIC_API)


UNPASSED_PARAMETERS = {
    "main(argv)": "the console script and `python -m motionsnn` call main(); the tests pass argv",
}


def test_package_defines_no_parameter_it_never_passes():
    """Every defaulted parameter of every function and method in the package
    is passed, by position or by keyword, by some call of that name inside
    the package, unless UNPASSED_PARAMETERS says why not. A call `C(...)`
    counts for `C.__init__`; a `*args` or `**kwargs` argument passes every
    parameter it could fill."""
    src = Path(__file__).resolve().parents[1] / "src" / "motionsnn"
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    calls: dict[str, list[ast.Call]] = {}
    for node in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        calls.setdefault(name, []).append(node)
    methods = {
        id(item): cls
        for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body if isinstance(item, ast.FunctionDef)
    }
    unpassed = set()
    for fn in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        cls = methods.get(id(fn))
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][1 if cls and not static else 0:]
        defaulted = list(enumerate(positional))[len(positional) - len(fn.args.defaults):]
        defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        called = cls.name if cls and fn.name == "__init__" else fn.name
        qualname = f"{cls.name}.{fn.name}" if cls and fn.name != "__init__" else called
        for i, param in defaulted:
            if not any(
                any(k.arg in (param, None) for k in call.keywords)
                or (i is not None and (
                    len(call.args) > i or any(isinstance(a, ast.Starred) for a in call.args)))
                for call in calls.get(called, [])
            ):
                unpassed.add(f"{qualname}({param})")
    assert unpassed == set(UNPASSED_PARAMETERS)


def test_network_param_overrides_are_applied():
    cfg = RunConfig(network={"output_v_th": 1.8, "w_lateral": 0.7})
    params = build_network_params(cfg)
    assert params.output_v_th == 1.8 and params.w_lateral == 0.7
    net = build_network(cfg)
    for ids in net.output_ids.values():
        for nid in ids:
            assert net.v_th[nid] == 1.8


def test_build_stimulus_respects_encoding(tmp_path):
    onset = RunConfig(t_end_s=5.0)
    footprint = RunConfig(t_end_s=5.0, encoding="footprint")
    assert len(build_stimulus(footprint)) > len(build_stimulus(onset))


def test_apply_overrides():
    data = RunConfig().to_dict()
    out = apply_overrides(data, [
        "trajectory.freq_hz=0.3",
        "n_per_dir=2",
        "output_taus_s=[0.1, 0.5]",
        "network.output_v_th=1.8",
        "encoding=footprint",
    ])
    cfg = RunConfig.from_dict(out)
    assert cfg.trajectory["freq_hz"] == 0.3
    assert cfg.n_per_dir == 2 and cfg.output_taus_s == (0.1, 0.5)
    assert cfg.network == {"output_v_th": 1.8}
    assert cfg.encoding == "footprint"
    # the input dict is left alone
    assert data == RunConfig().to_dict()


def test_apply_overrides_creates_nested_tables():
    out = apply_overrides({}, ["a.b.c=1"])
    assert out == {"a": {"b": {"c": 1}}}


def test_apply_overrides_errors():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no_equals_sign"])
    with pytest.raises(ConfigError):
        apply_overrides({"a": 3}, ["a.b=1"])


def test_from_json_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"trajectory": {"kind": "circle", "freq_hz": 0.2}}))
    cfg = RunConfig.from_json_file(str(path))
    assert cfg.trajectory["freq_hz"] == 0.2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_json_file(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        RunConfig.from_json_file(str(arr))
    with pytest.raises(ConfigError):
        RunConfig.from_json_file(str(tmp_path / "missing.json"))


def test_output_taus_are_coerced_to_floats():
    cfg = RunConfig.from_dict({"n_per_dir": 2, "output_taus_s": [1, 2]})
    assert cfg.output_taus_s == (1.0, 2.0)
    assert all(isinstance(t, float) for t in cfg.output_taus_s)
    # the constructor makes the same tuple as from_dict
    assert RunConfig(n_per_dir=2, output_taus_s=[1, 2]) == cfg
