"""Coincidence-rate simulation for phase-filtered degenerate photon pairs."""

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
from .bessel import BesselTable, bessel_j_table
from .errors import (
    ConvergenceError,
    InsufficientDataError,
    ParameterError,
    ResolutionError,
    SearchError,
    WindowError,
)
from .model import (
    DEFAULT_PARAMS,
    LIGHT_SPEED_DEFAULT,
    CorrelationCurve,
    CosinePhaseFilter,
    PhysicalParams,
    SeriesTruncation,
    amplitude_series,
    characteristic_time,
    count_rate,
    pump_angular_frequency,
    sample_curve,
    series_coefficients,
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

__version__ = "0.1.0"
