"""Run configuration: one table of settings, config-file parsing, CLI precedence."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .model import (
    _MAX_COMB_CELLS,
    _METHODS,
    DEFAULT_PARAMS,
    TRUNC_TOL,
    CosinePhaseFilter,
    PhysicalParams,
    require_trunc_tol,
)
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one CLI invocation.

    Each field is a config key with its built-in default, and its annotation
    decides how a config-file value is parsed.
    """

    lambda_nm: float = DEFAULT_PARAMS.pump_wavelength
    u: float = DEFAULT_PARAMS.group_velocity
    eps_perp_um: float = DEFAULT_PARAMS.beam_param
    theta_deg: float = DEFAULT_PARAMS.emission_angle
    light_speed: float = DEFAULT_PARAMS.light_speed
    alpha: float = 2.0
    beta: float = 50.0
    tau_min: float = -600.0
    tau_max: float = 600.0
    points: int = 2401
    method: str = "series"
    beta_start: float = 48.0
    beta_end: float = 53.0
    beta_step: float = 0.01
    trunc_tol: float = TRUNC_TOL
    refine_tol: float = 0.01
    grid_step: float = 0.5
    search_halfwidth: float | None = None
    min_lobe_height: float | None = None
    quad_folds: float = DEFAULT_SETTINGS.halfwidth_folds
    quad_initial_points: int = DEFAULT_SETTINGS.initial_points
    quad_max_points: int = DEFAULT_SETTINGS.max_points
    quad_rel_tol: float = DEFAULT_SETTINGS.rel_tolerance
    out: str | Path | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                object.__setattr__(self, f.name, int(value))
            elif f.type.startswith("float") and value is not None:
                value = float(value)
                if not math.isfinite(value):
                    raise ParameterError(f"{f.name} must be finite, got {value!r}")
                object.__setattr__(self, f.name, value)
        if self.method not in _METHODS:
            raise ParameterError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.tau_min < self.tau_max:
            raise ParameterError("tau_min must be less than tau_max")
        if not math.isfinite(self.tau_max - self.tau_min):
            raise ParameterError("tau_max - tau_min must be finite")
        if self.points < 2:
            raise ParameterError("points must be >= 2")
        if self.points > _MAX_COMB_CELLS:
            raise ParameterError(f"points must be <= {_MAX_COMB_CELLS}, got {self.points}")
        # built and checked here so that their checks fire at resolve time, for
        # every command, including those that build no series
        self.params, self.quad, CosinePhaseFilter(self.alpha, self.beta)
        require_trunc_tol(self.trunc_tol)

    @cached_property
    def params(self) -> PhysicalParams:
        return PhysicalParams(pump_wavelength=self.lambda_nm, group_velocity=self.u,
                              beam_param=self.eps_perp_um, emission_angle=self.theta_deg,
                              light_speed=self.light_speed)

    @cached_property
    def quad(self) -> QuadratureSettings:
        return QuadratureSettings(halfwidth_folds=self.quad_folds,
                                  initial_points=self.quad_initial_points,
                                  max_points=self.quad_max_points,
                                  rel_tolerance=self.quad_rel_tol)

    def tau_grid(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.points)

    def pair_filter(self) -> CosinePhaseFilter:
        return CosinePhaseFilter(self.alpha, self.beta)

    def metadata(self) -> dict:
        """Every resolved value, for the CSV header; no silent defaults."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}


DEFAULTS: dict = {f.name: f.default for f in fields(RunConfig)}
_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    kind = _TYPES[key]
    try:
        if kind == "float | None" and raw.lower() == "none":
            return None
        if kind.startswith("float"):
            return float(raw)
        if kind == "int":
            return int(raw)
        return raw
    except ValueError as exc:
        raise ParameterError(f"malformed value for config key {key!r}: {raw!r}") from exc


def read_config_file(path: str | Path) -> dict:
    """Parse a `key = value` file with `#` comments; unknown keys are rejected."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not valid UTF-8 at byte {exc.start}") from exc
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ParameterError(f"{path}:{ln}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def resolve_config(cli_values: dict, config_file: str | Path | None = None,
                   preset: dict | None = None) -> RunConfig:
    """Merge settings by precedence: CLI flag > preset > config file > default.

    A flag whose value is None was not given and does not count.
    """
    merged = read_config_file(config_file) if config_file is not None else {}
    merged.update(preset or {})
    merged.update({k: v for k, v in cli_values.items() if v is not None})
    unknown = set(merged) - set(DEFAULTS)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**merged)
