"""Event-driven spiking network for 2-D motion direction readout."""

from .core import (
    ConfigError,
    DIRECTION_ORDER,
    Direction,
    DomainError,
    Event,
    EventStream,
    MotionSnnError,
    NumericFault,
    RateSeries,
    SpikeRecord,
    Synapse,
)
from .topology import (
    CellLayout,
    NetworkGraph,
    NetworkParams,
    assemble_network,
    tessellate,
)
from .stimulus import (
    CircleTrajectory,
    EightTrajectory,
    EmitMode,
    LinearTrajectory,
    Trajectory,
    WaypointTrajectory,
    generate_events,
)
from .engine import SimulationOutput, simulate
from .analysis import (
    AccuracyScore,
    FilterParams,
    RateGrid,
    accuracy,
    calibrate_f_max,
    dominant_frequency,
    firing_rate,
    ideal_rates,
    phase_lag_deg,
    pool_group,
)
from .config import RunConfig
from .experiment import (
    ExperimentResult,
    RunEvaluation,
    SweepVariant,
    evaluate,
    frequency_sweep,
    run_experiment,
    spectral_summary,
)

__version__ = "0.1.0"
