"""Direct numerical integration of the pre-series pair amplitude.

The amplitude is evaluated as the frequency integral

    A(tau) = integral dnu  e^{i nu tau} e^{-(T/2)^2 nu^2}
                           e^{i depth cos(mod_frequency (omega0/2 - nu))}

over a truncated symmetric window, by a composite trapezoid rule whose point
count doubles until two successive estimates agree.  The levels are nested:
the first coarse estimate sums the even nodes, and every finer estimate is
half the previous one plus the new odd midpoints, so each node is weighted
and summed once.  The sum over m equally spaced nodes is factored exactly
into blocks of L = isqrt(m), exp(i tau nu_j) = exp(i tau nu_block)
exp(i tau r step), which costs about 2 sqrt(m) complex exponentials per delay
plus one small matrix product, in place of m exponentials; it holds for any
tau grid.  Nothing here uses the Bessel expansion, so agreement with the
series path is a genuine two-route check of the closed form, including the
sign structure of its exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ParameterError
from .model import (
    _MAX_COMB_CELLS,
    CosinePhaseFilter,
    PhysicalParams,
    SeriesTruncation,
    characteristic_time,
    count_rate,
    pump_angular_frequency,
    series_halfwidth,
    truncation_for,
)

_TAU_CHUNK = 256

#: (depth, mod_frequency/fs) grid exercised by the `validate` command.
VALIDATION_DEPTHS = (0.0, 1.0, 2.0, 5.0, 10.0)
VALIDATION_MOD_FREQUENCIES = (0.0, 25.0, 50.0, 53.0, 300.0, 1000.0)


@dataclass(frozen=True)
class QuadratureSettings:
    """Window and refinement policy for the frequency integral.

    halfwidth_folds  window is |nu| <= 2*folds/T, where the Gaussian weight
                     has decayed to e^{-folds^2}
    initial_points   coarsest interval count (raised automatically when the
                     integrand oscillates faster than it can resolve)
    max_points       refinement budget
    rel_tolerance    successive-estimate agreement target, relative to the
                     larger of the local amplitude and the depth-0 peak scale
    """

    halfwidth_folds: float = 6.0
    initial_points: int = 1024
    max_points: int = 2**20
    rel_tolerance: float = 1e-11

    def __post_init__(self) -> None:
        if not self.halfwidth_folds > 0:
            raise ParameterError("halfwidth_folds must be > 0")
        if self.initial_points < 64:
            raise ParameterError("initial_points must be >= 64")
        if self.max_points < self.initial_points:
            raise ParameterError("max_points must be >= initial_points")
        # the same memory cap: the last level's node arrays take about 32 B
        # an interval at peak
        if self.max_points > _MAX_COMB_CELLS:
            raise ParameterError(f"max_points must be <= {_MAX_COMB_CELLS}")
        if not 0 < self.rel_tolerance <= 1e-6:
            raise ParameterError("rel_tolerance must be in (0, 1e-6]")


DEFAULT_SETTINGS = QuadratureSettings()


@dataclass
class QuadratureResult:
    """Converged amplitude with its self-consistency error estimate."""

    value: complex
    error_estimate: float
    points: int
    diff_history: tuple[float, ...]


@dataclass
class DeviationReport:
    """Worst pointwise rate disagreement between the two evaluation routes."""

    max_abs_diff: float
    tau_at_max: float


def nu_halfwidth(params: PhysicalParams, settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Integration window edge 2*folds/T in rad/fs."""
    return 2.0 * settings.halfwidth_folds / characteristic_time(params)


def _required_intervals(nu_max: float, taus: np.ndarray, filt: CosinePhaseFilter,
                        settings: QuadratureSettings) -> int:
    """Coarse interval count; ConvergenceError if its first refinement is over budget."""
    # Resolution guard: the coarse level must already sample the fastest
    # e^{i nu tau} / filter oscillation, or the doubling check can lie.
    fastest = max(float(np.max(np.abs(taus))) if taus.size else 0.0, filt.mod_frequency)
    guard = 40.0 * nu_max * fastest / (2.0 * math.pi)
    need = 2.0 * guard
    if guard < settings.max_points:  # false for inf and NaN, which int() cannot take
        n = max(settings.initial_points, int(math.floor(guard)) + 1)
        n += n % 2  # even interval counts nest under halving
        if 2 * n <= settings.max_points:
            return n
        need = 2 * n
    raise ConvergenceError(
        f"resolving the integrand needs {need:.3g} intervals, over the budget of "
        f"{settings.max_points}; raise max_points or shrink the tau window")


def _phase_sum(taus: np.ndarray, start: float, step: float,
               weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j] exp(i tau (start + j step)) for every tau.

    The m nodes are split into blocks of L = isqrt(m), j = b L + r, and
    exp(i tau nu_j) = exp(i tau (start + b L step)) exp(i tau r step) exactly,
    so a delay needs about 2 sqrt(m) complex exponentials and the weighted
    sum is one (delays x blocks) @ (blocks x L) product.
    """
    m = weights.size
    L = math.isqrt(m)
    blocks = -(-m // L)
    W = np.zeros(blocks * L, dtype=complex)
    W[:m] = weights
    W = W.reshape(blocks, L)
    block_nus = start + (step * L) * np.arange(blocks)
    offset_nus = step * np.arange(L)
    out = np.empty(taus.size, dtype=complex)
    for lo in range(0, taus.size, _TAU_CHUNK):
        t = taus[lo:lo + _TAU_CHUNK, None]
        R = np.exp(1j * t * block_nus) @ W
        out[lo:lo + _TAU_CHUNK] = np.sum(R * np.exp(1j * t * offset_nus), axis=1)
    return out


def _amplitude_grid(params: PhysicalParams, filt: CosinePhaseFilter, taus: np.ndarray,
                    settings: QuadratureSettings,
                    ) -> tuple[np.ndarray, np.ndarray, int, tuple[float, ...]]:
    """Raw (unnormalized) amplitudes over a tau grid, refined to tolerance.

    Returns (values, per-tau estimate differences, interval count, history of
    per-level worst relative differences).
    """
    taus = np.asarray(taus, dtype=float)
    T = characteristic_time(params)
    omega0 = pump_angular_frequency(params)
    nu_max = nu_halfwidth(params, settings)
    # convergence floor: the depth-0 peak integral, so near-zero tails are
    # judged against the curve scale rather than against themselves
    scale_floor = 2.0 * math.sqrt(math.pi) / T

    n_coarse = _required_intervals(nu_max, taus, filt, settings)
    n = 2 * n_coarse

    def node_weights(start: float, step: float, count: int) -> np.ndarray:
        nus = start + step * np.arange(count)
        return np.exp(-(0.5 * T * nus) ** 2
                      + 1j * filt.depth * np.cos(filt.mod_frequency * (0.5 * omega0 - nus)))

    # nested trapezoid levels: the coarse estimate comes from the even nodes,
    # and each level adds only its odd midpoints to half the previous sum
    h = 2.0 * nu_max / n
    w_even = node_weights(-nu_max, 2.0 * h, n_coarse + 1)
    w_even[0] *= 0.5
    w_even[-1] *= 0.5
    coarse = (2.0 * h) * _phase_sum(taus, -nu_max, 2.0 * h, w_even)

    history: list[float] = []
    while True:
        w_odd = node_weights(-nu_max + h, 2.0 * h, n // 2)
        fine = 0.5 * coarse + h * _phase_sum(taus, -nu_max + h, 2.0 * h, w_odd)

        diff = np.abs(fine - coarse)
        rel = diff / np.maximum(np.abs(fine), scale_floor)
        worst = float(np.max(rel))
        history.append(worst)
        if worst < settings.rel_tolerance:
            return fine, diff, n, tuple(history)
        if 2 * n > settings.max_points:
            k = int(np.argmax(rel))
            raise ConvergenceError(
                f"no convergence at {n} intervals (budget {settings.max_points}): "
                f"last estimates {complex(coarse[k])} vs {complex(fine[k])} at tau={taus[k]} fs")
        coarse = fine
        n *= 2
        h *= 0.5


@lru_cache(maxsize=64)
def _baseline_raw(params: PhysicalParams, settings: QuadratureSettings) -> complex:
    """Raw depth-0, tau=0 integral; the shared normalization anchor."""
    values, _, _, _ = _amplitude_grid(params, CosinePhaseFilter(0.0, 0.0),
                                      np.array([0.0]), settings)
    return complex(values[0])


def amplitude_quadrature(params: PhysicalParams, filt: CosinePhaseFilter, tau: float,
                         settings: QuadratureSettings = DEFAULT_SETTINGS) -> QuadratureResult:
    """Normalized amplitude at one delay, by adaptive point doubling.

    The raw integral is divided by the depth-0, tau=0 integral computed with
    the same rule, so the series and quadrature routes share one baseline.
    """
    values, diffs, n, history = _amplitude_grid(params, filt, np.array([float(tau)]),
                                                settings)
    base = _baseline_raw(params, settings)
    return QuadratureResult(value=complex(values[0] / base),
                            error_estimate=float(diffs[0] / abs(base)),
                            points=n, diff_history=history)


def rate_grid(params: PhysicalParams, filt: CosinePhaseFilter, tau_grid,
              settings: QuadratureSettings | None = None) -> np.ndarray:
    """Normalized rates |A|^2 over a tau grid, one refinement for the whole grid."""
    if settings is None:
        settings = DEFAULT_SETTINGS
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size == 0:
        raise ParameterError("tau_grid must be non-empty")
    values, _, _, _ = _amplitude_grid(params, filt, taus, settings)
    base = _baseline_raw(params, settings)
    return np.abs(values / base) ** 2


def comparison_grid(params: PhysicalParams, filt: CosinePhaseFilter,
                    spacing: float = 10.0,
                    trunc: SeriesTruncation | None = None) -> np.ndarray:
    """Uniform tau grid covering every lobe of the series with ~5T margin."""
    if spacing <= 0:
        raise ParameterError("spacing must be > 0")
    if trunc is None:
        trunc = truncation_for(filt)
    n = math.ceil(series_halfwidth(params, filt, trunc) / spacing)
    orders = 2 * trunc.max_order + 1
    if (2 * n + 1) * orders > _MAX_COMB_CELLS:
        raise ParameterError(
            f"the comparison grid over {2 * n + 1} delays x {orders} series orders needs "
            f"{(2 * n + 1) * orders:.3g} cells, over the cap of {_MAX_COMB_CELLS}; "
            "use a coarser spacing or a shorter correlation time")
    return np.arange(-n, n + 1) * spacing


def compare_methods(params: PhysicalParams, filt: CosinePhaseFilter, tau_grid,
                    settings: QuadratureSettings | None = None,
                    trunc: SeriesTruncation | None = None) -> DeviationReport:
    """Worst |rate_series - rate_quadrature| over the grid and where it occurs."""
    taus = np.asarray(tau_grid, dtype=float)
    if trunc is None:
        trunc = truncation_for(filt)
    series = np.asarray(count_rate(params, filt, trunc, taus))
    quad = rate_grid(params, filt, taus, settings)
    diff = np.abs(series - quad)
    k = int(np.argmax(diff))
    return DeviationReport(max_abs_diff=float(diff[k]), tau_at_max=float(taus[k]))
