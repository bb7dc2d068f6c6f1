"""Event-driven spiking network for 2-D motion direction readout.

The public names load on first use (PEP 562): `import motionsnn` imports
none of the modules below, nor numpy, and `motionsnn.simulate` imports
`motionsnn.engine` the first time it is read.
"""
from importlib import import_module

_EXPORTS = {
    "core": (
        "ConfigError", "DIRECTION_ORDER", "Direction", "DomainError", "Event", "EventStream",
        "MotionSnnError", "NumericFault", "RateSeries", "SpikeRecord", "Synapse",
    ),
    "topology": ("CellLayout", "NetworkGraph", "NetworkParams", "assemble_network", "tessellate"),
    "stimulus": (
        "CircleTrajectory", "EightTrajectory", "EmitMode", "LinearTrajectory", "Trajectory",
        "WaypointTrajectory", "generate_events",
    ),
    "engine": ("SimulationOutput", "simulate"),
    "analysis": (
        "AccuracyScore", "FilterParams", "RateGrid", "accuracy", "calibrate_f_max",
        "dominant_frequency", "firing_rate", "ideal_rates", "phase_lag_deg", "pool_group",
    ),
    "config": ("RunConfig",),
    "experiment": (
        "ExperimentResult", "RunEvaluation", "SweepVariant", "evaluate", "frequency_sweep",
        "run_experiment", "spectral_summary",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
