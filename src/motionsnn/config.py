"""Run configuration: a flat, JSON-friendly description of one experiment.

A config names the field, the moving-object trajectory, the encoding mode,
and the network sizing knobs. Builders turn it into concrete objects.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .analysis import FilterParams, transient_s
from .core import ConfigError
from .stimulus import (
    CircleTrajectory,
    EightTrajectory,
    EmitMode,
    EventStream,
    LinearTrajectory,
    Trajectory,
    WaypointTrajectory,
    generate_events,
)
from .topology import (
    CellLayout,
    NetworkGraph,
    NetworkParams,
    assemble_network,
    tessellate,
)

SCHEMA_VERSION = 1

_TRAJECTORY_KINDS: dict[str, type[Trajectory]] = {
    "circle": CircleTrajectory,
    "eight": EightTrajectory,
    "linear": LinearTrajectory,
    "waypoints": WaypointTrajectory,
}
_BASE_FIELDS = {f.name for f in dataclasses.fields(Trajectory)}

_NETWORK_KEYS = tuple(f.name for f in dataclasses.fields(NetworkParams))


def _number(name: str, value: Any) -> float:
    """A config number as a float: a JSON number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _trajectory_args(trajectory: Mapping[str, Any]) -> tuple[type[Trajectory], dict[str, Any]]:
    """The trajectory object's class and its keyword arguments: each number
    as a float, and `points` as (t, x, y) tuples."""
    kind = trajectory.get("kind")
    if not isinstance(kind, str) or kind not in _TRAJECTORY_KINDS:
        raise ConfigError(f"unknown trajectory kind {kind!r}")
    cls = _TRAJECTORY_KINDS[kind]
    extra = set(trajectory) - {"kind"} - ({f.name for f in dataclasses.fields(cls)} - _BASE_FIELDS)
    if extra:
        raise ConfigError(f"unknown trajectory keys: {sorted(extra)}")
    params = {k: _number(f"trajectory.{k}", v) for k, v in trajectory.items() if k not in ("kind", "points")}
    if "points" in trajectory:
        points = trajectory["points"]
        if not isinstance(points, list | tuple) or not all(
            isinstance(p, list | tuple) and len(p) == 3 for p in points
        ):
            raise ConfigError("each waypoint must be [t, x, y]")
        params["points"] = tuple(tuple(_number("trajectory.points", v) for v in p) for p in points)
    return cls, params


@dataclass(frozen=True)
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    field_width: int = 10
    field_height: int = 11
    trajectory: dict = field(default_factory=lambda: {"kind": "circle", "freq_hz": 0.15})
    t_end_s: float | None = None  # None: auto for periodic kinds
    encoding: str = "onset"
    samples_per_pixel: float = 8.0
    n_per_dir: int = 1
    output_taus_s: tuple[float, ...] = (0.5,)
    grid_dt_s: float = 1e-3
    lateral_inhibition: bool = True
    network: dict = field(default_factory=dict)  # NetworkParams overrides

    def __post_init__(self) -> None:
        # The one check of a config, however it is made: copy the tables and
        # make their numbers floats, then check the rest.
        for key, types in (("output_taus_s", (list, tuple)), ("trajectory", dict), ("network", dict)):
            if not isinstance(getattr(self, key), types):
                raise ConfigError(f"{key} has the wrong type: {getattr(self, key)!r}")
        taus = tuple(_number("output_taus_s", v) for v in self.output_taus_s)
        object.__setattr__(self, "output_taus_s", taus)
        object.__setattr__(self, "trajectory", dict(self.trajectory))
        object.__setattr__(self, "network", {k: _number(f"network.{k}", v) for k, v in self.network.items()})
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")
        # exact types: a bool is no size or version, and the string "false" is truthy
        for name, kind in (("schema_version", int), ("field_width", int), ("field_height", int),
                           ("n_per_dir", int), ("lateral_inhibition", bool)):
            if type(getattr(self, name)) is not kind:
                raise ConfigError(f"{name} must be {kind.__name__}, got {getattr(self, name)!r}")
        _number("samples_per_pixel", self.samples_per_pixel)
        if self.field_width < 1 or self.field_height < 1:
            raise ConfigError("field dimensions must be positive")
        _trajectory_args(self.trajectory)
        if self.encoding not in [m.value for m in EmitMode]:
            raise ConfigError(f"unknown encoding {self.encoding!r}")
        if self.n_per_dir < 1:
            raise ConfigError("n_per_dir must be >= 1")
        if len(self.output_taus_s) != self.n_per_dir:
            raise ConfigError("output_taus_s must have one entry per output rank")
        if not (_number("grid_dt_s", self.grid_dt_s) > 0.0 and math.isfinite(self.grid_dt_s)):
            raise ConfigError("grid_dt_s must be positive")
        bad = set(self.network) - set(_NETWORK_KEYS)
        if bad:
            raise ConfigError(f"unknown network keys: {sorted(bad)}")
        t_end = self.t_end_s
        if t_end is not None and not (_number("t_end_s", t_end) > 0.0 and math.isfinite(t_end)):
            raise ConfigError("t_end_s must be positive when given")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["output_taus_s"] = list(self.output_taus_s)
        return out

    @classmethod
    def from_json_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(
                f"cannot read config {path}: {getattr(exc, 'strerror', None) or exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(data)


def build_trajectory(cfg: RunConfig) -> Trajectory:
    """The configured path over [0, t_end_s]. Without t_end_s a periodic path
    runs for the settling stretch the scoring window skips
    (`analysis.transient_s`) plus three full periods; a waypoint path always
    ends at its last waypoint; other kinds require t_end_s."""
    cls, params = _trajectory_args(cfg.trajectory)
    t_end = cfg.t_end_s if cfg.t_end_s is not None else 0.0
    traj = cls(cfg.field_width, cfg.field_height, t_end, **params)
    if cfg.t_end_s is not None or cls is WaypointTrajectory:
        return traj
    period = traj.period_s
    if period is None:
        raise ConfigError(f"t_end_s is required for trajectory kind {cfg.trajectory['kind']!r}")
    fp = FilterParams.from_output_taus(cfg.output_taus_s)
    return dataclasses.replace(traj, t_end=transient_s(fp, period) + 3.0 * period)


def build_layout(cfg: RunConfig) -> CellLayout:
    return tessellate(cfg.field_width, cfg.field_height)


def build_network_params(cfg: RunConfig) -> NetworkParams:
    return dataclasses.replace(NetworkParams(), **cfg.network)


def build_network(cfg: RunConfig, layout: CellLayout | None = None) -> NetworkGraph:
    return assemble_network(
        layout if layout is not None else build_layout(cfg),
        output_taus_s=cfg.output_taus_s,
        params=build_network_params(cfg),
        lateral_inhibition=cfg.lateral_inhibition,
    )


def build_stimulus(cfg: RunConfig, traj: Trajectory | None = None) -> EventStream:
    return generate_events(
        traj if traj is not None else build_trajectory(cfg),
        mode=cfg.encoding,
        samples_per_pixel=cfg.samples_per_pixel,
    )


def _parse_scalar(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(data: dict, assignments: list[str]) -> dict:
    """Apply `--set dotted.key=value` pairs onto a config dict. Values parse
    as JSON when possible, otherwise stay strings."""
    out = json.loads(json.dumps(data))  # deep copy, JSON types only
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"bad override {item!r}, expected key=value")
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            elif not isinstance(nxt, dict):
                raise ConfigError(f"override {key!r} descends into a non-object")
            node = nxt
        node[parts[-1]] = _parse_scalar(raw)
    return out
