"""Run configuration: defaults, config-file parsing, CLI precedence."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .model import _METHODS, CosinePhaseFilter, PhysicalParams
from .quadrature import QuadratureSettings

# Built-in defaults.  Physical values are the bundled preset source:
# 350 nm pump, u = 2e8 m/s, eps_perp = 100 um, 15 degree emission.
DEFAULTS: dict = {
    "lambda_nm": 350.0,
    "u": 2.0e8,
    "eps_perp_um": 100.0,
    "theta_deg": 15.0,
    "light_speed": 3.0e8,
    "alpha": 2.0,
    "beta": 50.0,
    "tau_min": -600.0,
    "tau_max": 600.0,
    "points": 2401,
    "method": "series",
    "beta_start": 48.0,
    "beta_end": 53.0,
    "beta_step": 0.01,
    "trunc_tol": 1e-12,
    "refine_tol": 0.01,
    "grid_step": 0.5,
    "search_halfwidth": None,
    "min_lobe_height": None,
    "quad_folds": 6.0,
    "quad_initial_points": 1024,
    "quad_max_points": 2**20,
    "quad_rel_tol": 1e-11,
    "out": None,
}

_FLOAT_KEYS = {"lambda_nm", "u", "eps_perp_um", "theta_deg", "light_speed",
               "alpha", "beta", "tau_min", "tau_max", "beta_start", "beta_end",
               "beta_step", "trunc_tol", "refine_tol", "grid_step",
               "quad_folds", "quad_rel_tol"}
_INT_KEYS = {"points", "quad_initial_points", "quad_max_points"}
_STR_KEYS = {"method", "out"}
_OPTIONAL_FLOAT_KEYS = {"min_lobe_height", "search_halfwidth"}


@dataclass
class RunConfig:
    """Fully resolved settings for one CLI invocation."""

    params: PhysicalParams
    alpha: float
    beta: float
    tau_min: float
    tau_max: float
    points: int
    method: str
    beta_start: float
    beta_end: float
    beta_step: float
    trunc_tol: float
    refine_tol: float
    grid_step: float
    search_halfwidth: float | None
    min_lobe_height: float | None
    quad: QuadratureSettings
    out: Path | None

    def tau_grid(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.points)

    def pair_filter(self) -> CosinePhaseFilter:
        return CosinePhaseFilter(self.alpha, self.beta)

    def metadata(self) -> dict:
        """Every resolved value, for the CSV header; no silent defaults."""
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "beta_end": self.beta_end,
            "beta_start": self.beta_start,
            "beta_step": self.beta_step,
            "eps_perp_um": self.params.beam_param,
            "grid_step": self.grid_step,
            "lambda_nm": self.params.pump_wavelength,
            "light_speed": self.params.light_speed,
            "method": self.method,
            "min_lobe_height": self.min_lobe_height,
            "points": self.points,
            "quad_folds": self.quad.halfwidth_folds,
            "quad_initial_points": self.quad.initial_points,
            "quad_max_points": self.quad.max_points,
            "quad_rel_tol": self.quad.rel_tolerance,
            "refine_tol": self.refine_tol,
            "search_halfwidth": self.search_halfwidth,
            "tau_max": self.tau_max,
            "tau_min": self.tau_min,
            "theta_deg": self.params.emission_angle,
            "trunc_tol": self.trunc_tol,
            "u": self.params.group_velocity,
        }


def _parse_value(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _OPTIONAL_FLOAT_KEYS:
            return None if raw.lower() == "none" else float(raw)
        return raw
    except ValueError as exc:
        raise ParameterError(f"malformed value for config key {key!r}: {raw!r}") from exc


def read_config_file(path: str | Path) -> dict:
    """Parse a `key = value` file with `#` comments; unknown keys are rejected."""
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
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
    """Merge CLI flags over config-file values over (preset and built-in) defaults."""
    merged = dict(DEFAULTS)
    if config_file is not None:
        merged.update(read_config_file(config_file))
    if preset:
        merged.update(preset)
    merged.update({k: v for k, v in cli_values.items() if v is not None})

    unknown = set(merged) - set(DEFAULTS)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    for key in sorted(_FLOAT_KEYS | _OPTIONAL_FLOAT_KEYS):
        if merged[key] is not None and not math.isfinite(merged[key]):
            raise ParameterError(f"{key} must be finite, got {merged[key]!r}")
    if merged["method"] not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}, got {merged['method']!r}")
    if not merged["tau_min"] < merged["tau_max"]:
        raise ParameterError("tau_min must be less than tau_max")
    if merged["points"] < 2:
        raise ParameterError("points must be >= 2")

    params = PhysicalParams(
        pump_wavelength=merged["lambda_nm"],
        group_velocity=merged["u"],
        beam_param=merged["eps_perp_um"],
        emission_angle=merged["theta_deg"],
        light_speed=merged["light_speed"],
    )
    quad = QuadratureSettings(
        halfwidth_folds=merged["quad_folds"],
        initial_points=merged["quad_initial_points"],
        max_points=merged["quad_max_points"],
        rel_tolerance=merged["quad_rel_tol"],
    )
    # constructing the filter validates alpha/beta even for sweep commands
    CosinePhaseFilter(merged["alpha"], merged["beta"])
    out = merged["out"]
    return RunConfig(
        params=params,
        alpha=float(merged["alpha"]),
        beta=float(merged["beta"]),
        tau_min=float(merged["tau_min"]),
        tau_max=float(merged["tau_max"]),
        points=int(merged["points"]),
        method=merged["method"],
        beta_start=float(merged["beta_start"]),
        beta_end=float(merged["beta_end"]),
        beta_step=float(merged["beta_step"]),
        trunc_tol=float(merged["trunc_tol"]),
        refine_tol=float(merged["refine_tol"]),
        grid_step=float(merged["grid_step"]),
        search_halfwidth=merged["search_halfwidth"],
        min_lobe_height=merged["min_lobe_height"],
        quad=quad,
        out=Path(out) if out is not None else None,
    )
