"""Coincidence-rate simulation for phase-filtered degenerate photon pairs."""

# Lowest layer first: each module imports only those above it
from .errors import (
    ConvergenceError,
    InsufficientDataError,
    ParameterError,
    ResolutionError,
    SearchError,
    WindowError,
)
from .bessel import bessel_j_table
from .model import (
    DEFAULT_PARAMS,
    LIGHT_SPEED_DEFAULT,
    CorrelationCurve,
    CosinePhaseFilter,
    PhysicalParams,
    SeriesTruncation,
    characteristic_time,
    count_rate,
    pump_angular_frequency,
    sample_curve,
    truncation_for,
)
from .quadrature import (
    DeviationReport,
    QuadratureResult,
    QuadratureSettings,
    amplitude_quadrature,
    compare_methods,
    comparison_grid,
    rate_grid,
)
from .analysis import (
    Lobe,
    LobeReport,
    SweepResult,
    TauMaxResult,
    detect_lobes,
    find_tau_max,
    oscillation_period,
    sweep_beta,
    total_coincidence_integral,
)

__version__ = "0.1.0"
