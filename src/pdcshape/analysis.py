"""Observables of correlation curves: peak delay, sweeps, lobes, total yield."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientDataError,
    ParameterError,
    ResolutionError,
    SearchError,
    WindowError,
)
from .model import (
    _MAX_COMB_CELLS,
    CorrelationCurve,
    CosinePhaseFilter,
    PhysicalParams,
    SeriesTruncation,
    characteristic_time,
    count_rate,
    series_halfwidth,
    truncation_for,
)

_RATE_TIE = 1e-12  # rates closer than this are treated as tied
# Checked before anything is allocated; the peak-search grid is held to the
# model's delay x order cap as if all of it were evaluated, its worst case
# (`tau-max --alpha 2 --beta 1000` has 65,177 x 31 cells).  fig2 sweeps 501
# modulation frequencies.
_MAX_SWEEP_STEPS = 100_000


@dataclass
class TauMaxResult:
    """Location of the global rate maximum and how tightly it was bracketed."""

    tau_max: float
    rate_at_max: float
    refinement_width: float


@dataclass
class SweepResult:
    """Peak delay against filter modulation frequency."""

    beta_values: np.ndarray
    tau_max_values: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        self.beta_values = np.asarray(self.beta_values, dtype=float)
        self.tau_max_values = np.asarray(self.tau_max_values, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if not (self.beta_values.shape == self.tau_max_values.shape == self.rates.shape):
            raise ParameterError("sweep arrays must have equal lengths")
        if np.any(np.diff(self.beta_values) <= 0):
            raise ParameterError("beta_values must be strictly increasing")


@dataclass(frozen=True)
class Lobe:
    center: float
    height: float
    prominence: float


@dataclass
class LobeReport:
    """Strict local maxima of a sampled curve, tallest-first merged within T/4."""

    lobes: list[Lobe]
    threshold: float


def _best_index(xs: np.ndarray, ys: np.ndarray) -> int:
    """Argmax with ties (within _RATE_TIE) broken by smallest |x|, then negative x."""
    cand = np.nonzero(ys >= np.max(ys) - _RATE_TIE)[0]
    order = np.lexsort((np.sign(xs[cand]), np.abs(xs[cand])))
    return int(cand[order[0]])


def _require_resolution(step: float, T: float) -> None:
    """Refuse a delay grid too coarse to resolve the correlation time T."""
    if step > T / 20.0:
        raise ResolutionError(f"grid step {step:g} fs is coarser than T/20 = {T / 20.0:g} fs")


def _scan_peak(params: PhysicalParams, filt: CosinePhaseFilter,
               trunc: SeriesTruncation, n: int, grid_step: float) -> int:
    """The k in [-n, n] that _best_index picks from the rates at k*grid_step.

    The grid is not evaluated whole.  The rate is taken on every s-th point,
    s = max(1, int(T / (8 grid_step))) but at most 2n, and on both ends, and
    its curvature is bounded exactly: with C = sum |J_m(depth)| over the kept
    orders, |A| <= C, |g'| <= sqrt(2/e)/T and |g''| <= 2/T^2 for each
    Gaussian g, so |d^2 |A|^2 / d tau^2| <= K = (4 + 4/e) C^2 / T^2, and on a
    coarse gap of width w the rate is at most the larger end rate plus
    K w^2 / 8.  Only the gaps whose bound reaches the coarse best minus two
    tie margins (one absorbs rounding) are filled in.  Every grid point that
    could win or tie is therefore evaluated, and the pick is the full grid's.
    Where K is loose (large depth) every gap is filled, which is the full
    grid and no more.
    """
    T = characteristic_time(params)
    s = max(1, int(min(T / (8.0 * grid_step), 2 * n)))
    ks = np.append(np.arange(-n, n, s), n)
    rates = np.asarray(count_rate(params, filt, trunc, ks * grid_step))
    curvature = (4.0 + 4.0 / math.e) * (np.sum(np.abs(trunc.coefficients)) / T) ** 2
    reach = (np.maximum(rates[:-1], rates[1:])
             + curvature * (np.diff(ks) * grid_step) ** 2 / 8.0)
    gaps = np.nonzero(reach >= np.max(rates) - 2.0 * _RATE_TIE)[0]
    inner = (ks[gaps, None] + np.arange(1, s)).ravel()
    inner = inner[inner < n]  # the last gap may be shorter than s
    ks = np.concatenate([ks, inner])
    rates = np.concatenate([rates, count_rate(params, filt, trunc, inner * grid_step)])
    return int(ks[_best_index(ks * grid_step, rates)])


def find_tau_max(params: PhysicalParams, filt: CosinePhaseFilter,
                 search_halfwidth: float | None = None, grid_step: float = 0.5,
                 refine_tol: float = 0.01,
                 trunc: SeriesTruncation | None = None) -> TauMaxResult:
    """Locate the delay of maximum coincidence rate.

    The maximum is bracketed on the symmetric grid k*grid_step, |k| <= n
    (always containing tau = 0), by the argmax of _best_index: rate ties
    within 1e-12 go to the smallest |tau| and then to negative tau.
    _scan_peak finds that argmax exactly while evaluating only the grid
    points that an exact curvature bound cannot rule out (about 380 of 8,200
    at depth 2).  The bracket is then refined by repeated 9-point bracketing
    plus a final parabolic fit down to refine_tol.  The default window
    series_halfwidth covers every series lobe; if the grid argmax is a window
    end the window was too small and a SearchError is raised.  A grid_step
    above T/20 cannot resolve the rate and raises a ResolutionError.
    """
    if not 0 < grid_step <= 1.0:
        raise ParameterError("grid_step must be in (0, 1] fs")
    if not 0 < refine_tol <= 0.01:
        raise ParameterError("refine_tol must be in (0, 0.01] fs")
    _require_resolution(grid_step, characteristic_time(params))
    if trunc is None:
        trunc = truncation_for(filt)
    if search_halfwidth is None:
        search_halfwidth = series_halfwidth(params, filt, trunc)
    if search_halfwidth <= grid_step:
        raise ParameterError("search_halfwidth must exceed grid_step")
    scan_cells = (2.0 * search_halfwidth / grid_step + 1.0) * (2 * trunc.max_order + 1)
    if scan_cells > _MAX_COMB_CELLS:
        raise ParameterError(
            f"the peak scan over +-{search_halfwidth:g} fs in {grid_step:g} fs steps needs "
            f"{scan_cells:.3g} delay x order cells, over the cap of {_MAX_COMB_CELLS}; "
            "shrink the search window")

    n = math.ceil(search_halfwidth / grid_step)
    k = _scan_peak(params, filt, trunc, n, grid_step)
    tau = k * grid_step
    if abs(k) == n:
        raise SearchError(
            f"rate maximum at the window edge (tau = {tau} fs); widen search_halfwidth")

    lo, hi = tau - grid_step, tau + grid_step
    while True:
        xs = np.linspace(lo, hi, 9)
        ys = np.asarray(count_rate(params, filt, trunc, xs))
        j = _best_index(xs, ys)
        evaluated = hi - lo
        lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, xs.size - 1)]
        if evaluated <= refine_tol:
            break

    best_x = float(xs[j])
    best_y = float(ys[j])
    if 0 < j < xs.size - 1:
        yl, y0, yr = ys[j - 1], ys[j], ys[j + 1]
        curv = yl + yr - 2.0 * y0
        if curv < 0.0:
            step = xs[j] - xs[j - 1]
            vertex = xs[j] + 0.5 * step * (yl - yr) / curv
            vertex = min(max(vertex, lo), hi)
            y_vertex = float(count_rate(params, filt, trunc, vertex))
            if y_vertex >= best_y:
                best_x, best_y = float(vertex), y_vertex
    return TauMaxResult(tau_max=best_x, rate_at_max=best_y,
                        refinement_width=float(hi - lo))


def sweep_beta(params: PhysicalParams, alpha: float, beta_start: float,
               beta_end: float, beta_step: float, *,
               search_halfwidth: float | None = None, grid_step: float = 0.5,
               refine_tol: float = 0.01, trunc_tol: float = 1e-12) -> SweepResult:
    """find_tau_max at each modulation frequency in [beta_start, beta_end]."""
    if not 0 <= beta_start < beta_end:
        raise ParameterError("need 0 <= beta_start < beta_end")
    if beta_step <= 0:
        raise ParameterError("beta_step must be > 0")
    steps = (beta_end - beta_start) / beta_step
    if not steps < _MAX_SWEEP_STEPS:
        raise ParameterError(
            f"a sweep from {beta_start:g} to {beta_end:g} fs in {beta_step:g} fs steps "
            f"needs over {_MAX_SWEEP_STEPS} points; raise beta_step")
    count = int(math.floor(steps + 1e-9)) + 1
    betas = beta_start + np.arange(count) * beta_step
    # the series depends only on depth, so build it once for the whole sweep
    trunc = truncation_for(CosinePhaseFilter(alpha, 0.0), trunc_tol)
    tau_maxes = np.empty(count)
    peak_rates = np.empty(count)
    for k, b in enumerate(betas):
        try:
            res = find_tau_max(params, CosinePhaseFilter(alpha, float(b)),
                               search_halfwidth=search_halfwidth,
                               grid_step=grid_step, refine_tol=refine_tol, trunc=trunc)
        except SearchError as exc:
            raise SearchError(f"{exc} (at mod_frequency {b} fs)") from exc
        tau_maxes[k] = res.tau_max
        peak_rates[k] = res.rate_at_max
    return SweepResult(beta_values=betas, tau_max_values=tau_maxes, rates=peak_rates)


def oscillation_period(sweep: SweepResult) -> float:
    """Dominant period of tau_max(beta), from same-direction zero crossings.

    Crossing positions are linearly interpolated between the nearest nonzero
    samples; spacings between successive up-crossings and successive
    down-crossings are pooled and averaged.
    """
    x = sweep.beta_values
    y = sweep.tau_max_values
    nz = np.nonzero(y != 0.0)[0]
    crossings: list[tuple[float, int]] = []
    if nz.size >= 2:
        s = np.sign(y[nz])
        for k in np.nonzero(s[:-1] * s[1:] < 0)[0]:
            i, j = int(nz[k]), int(nz[k + 1])
            xc = x[i] - y[i] * (x[j] - x[i]) / (y[j] - y[i])
            crossings.append((float(xc), int(s[k + 1])))
    if len(crossings) < 3:
        raise InsufficientDataError(
            f"found {len(crossings)} zero crossings, need at least 3 for a period estimate")
    ups = np.array([c for c, d in crossings if d > 0])
    downs = np.array([c for c, d in crossings if d < 0])
    spacings = np.concatenate([np.diff(ups), np.diff(downs)])
    return float(np.mean(spacings))


def _find_peaks(x: np.ndarray, height: float, distance: int) -> np.ndarray:
    """The peak indices SciPy's find_peaks(x, height=height, distance=distance) gives.

    A peak is a run of equal samples whose neighbours on both sides are
    strictly lower (so it touches neither end), reported at its middle sample
    (start + end) // 2.  Peaks below height are dropped.  The rest are visited
    tallest first, in the order of the same np.argsort SciPy uses so that
    equal heights resolve alike, and each visited peak that is still kept
    drops every other kept peak fewer than distance samples away.
    """
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    ends = np.append(starts[1:], x.size) - 1
    v = x[starts]
    top = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    idx = (starts[top] + ends[top]) // 2
    idx = idx[x[idx] >= height]
    keep = np.ones(idx.size, dtype=bool)
    for j in np.argsort(x[idx])[::-1]:
        if keep[j]:
            keep[np.abs(idx - idx[j]) < distance] = False
            keep[j] = True
    return idx[keep]


def _prominences(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """SciPy's peak_prominences(x, idx)[0]: the height of each peak over the
    larger of the minima on its two sides, each side running from the peak to
    the first strictly higher sample or the end of x."""
    out = np.empty(idx.size)
    for n, i in enumerate(idx):
        higher = np.flatnonzero(~(x <= x[i]))  # a NaN ends the walk too, as in SciPy
        k = np.searchsorted(higher, i)
        lo = higher[k - 1] + 1 if k > 0 else 0
        hi = higher[k] if k < higher.size else x.size
        out[n] = x[i] - max(np.min(x[lo:i + 1]), np.min(x[i:hi]))
    return out


def detect_lobes(curve: CorrelationCurve, min_height: float | None = None) -> LobeReport:
    """Strict local maxima above min_height (default 0.01 of the curve max).

    Maxima closer than T/4 are merged into their tallest member; that scale
    separates genuine envelope lobes from sampling-level ripple.
    """
    T = characteristic_time(curve.params)
    steps = np.diff(curve.tau_grid)
    if not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
        raise ParameterError("lobe detection requires a uniform tau grid")
    step = float(steps[0])
    _require_resolution(step, T)
    rates = curve.rates
    threshold = 0.01 * float(np.max(rates)) if min_height is None else float(min_height)
    distance = max(1, math.ceil((T / 4.0) / step))
    idx = _find_peaks(rates, threshold, distance)
    prominences = _prominences(rates, idx)
    lobes = [Lobe(center=float(curve.tau_grid[i]), height=float(rates[i]),
                  prominence=float(p)) for i, p in zip(idx, prominences)]
    return LobeReport(lobes=lobes, threshold=threshold)


def total_coincidence_integral(curve: CorrelationCurve) -> float:
    """Trapezoid integral of the rate over tau, in fs.

    A phase-only filter conserves this, so it is a cross-parameter check.
    The window must be wide enough that both edge rates are below 1e-10 of
    the curve maximum.
    """
    steps = np.diff(curve.tau_grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ParameterError("total integral requires a uniform tau grid")
    peak = float(np.max(curve.rates))
    if curve.rates[0] > 1e-10 * peak or curve.rates[-1] > 1e-10 * peak:
        raise WindowError("edge rates above 1e-10 of the maximum; widen the tau window")
    return float(np.trapezoid(curve.rates, curve.tau_grid))
