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
    TRUNC_TOL,
    CorrelationCurve,
    CosinePhaseFilter,
    PhysicalParams,
    SeriesTruncation,
    _batches,
    characteristic_time,
    comb_rates,
    pump_phase,
    series_halfwidth,
    truncation_for,
    window_halfcount,
)

_RATE_TIE = 1e-12  # rates closer than this are treated as tied
# Checked before anything is allocated; fig2 sweeps 501 modulation frequencies.
_MAX_SWEEP_STEPS = 100_000
# Rows of the peak scan held at once, the search's one memory budget, so that
# memory does not grow with a sweep.  _search takes the betas in consecutive
# groups whose coarse rows sum to at most this (a group holds at least one
# beta), and _scan_peak takes the coarse scan and each level of its gap fill
# in whole-beta batches of at most this many rows; a larger level of one beta
# goes alone, in pieces this long from its own first row.  A multiple of the
# comb's block, so the pieces keep the blocks of the whole level.
_SCAN_ROWS = 2**13


@dataclass
class TauMaxResult:
    """Location of the global rate maximum and how tightly it was bracketed."""

    tau_max: float
    rate_at_max: float
    refinement_width: float


def _require_increasing(betas: np.ndarray) -> None:
    """Refuse sweep betas that do not strictly increase (a step below float spacing)."""
    if np.any(np.diff(betas) <= 0):
        raise ParameterError("beta_values must be strictly increasing")


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
        _require_increasing(self.beta_values)


@dataclass
class LobeReport:
    """Lobes of a sampled curve in delay order: each one's delay, rate and prominence."""

    centers: np.ndarray
    heights: np.ndarray
    prominences: np.ndarray


def _pick(seg: np.ndarray, x: np.ndarray, y: np.ndarray, count: int) -> np.ndarray:
    """For rows in any order with segments 0..count-1 (none empty), the row of
    each segment's largest y; rates within _RATE_TIE of it tie and go to the
    smallest |x|, then to negative x, then to the earliest row."""
    top = np.full(count, -np.inf)
    np.maximum.at(top, seg, y)
    cand = np.flatnonzero(y >= top[seg] - _RATE_TIE)
    cand = cand[np.lexsort((np.sign(x[cand]), np.abs(x[cand]), seg[cand]))]
    return cand[np.searchsorted(seg[cand], np.arange(count))]


def _require_resolution(step: float, T: float) -> None:
    """Refuse a delay grid too coarse to resolve the correlation time T."""
    if step > T / 20.0:
        raise ResolutionError(f"grid step {step:g} fs is coarser than T/20 = {T / 20.0:g} fs")


def _scan_size(params: PhysicalParams, filt: CosinePhaseFilter, trunc: SeriesTruncation,
               search_halfwidth: float | None, grid_step: float) -> int:
    """The n of filt's scan grid k*grid_step, |k| <= n, held to the cell cap as if all of it
    were evaluated, its worst case (`tau-max --alpha 2 --beta 1000` has 65,177 x 31 cells)."""
    if search_halfwidth is None:
        search_halfwidth = series_halfwidth(params, filt, trunc)
    if search_halfwidth <= grid_step:
        raise ParameterError("search_halfwidth must exceed grid_step")
    return window_halfcount("the peak scan", search_halfwidth, grid_step, trunc,
                            "shrink the search window")


def _coarse_grid(T: float, ns: np.ndarray, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """The coarse scan's stride s = max(1, int(min(T / (8 grid_step), 2n))) and row
    count ceil(2n / s) + 1 (arange(-n, n, s), then n) for each n of ns."""
    s = np.maximum(1, np.minimum(T / (8.0 * grid_step), 2 * ns).astype(np.int64))
    return s, (2 * ns + s - 1) // s + 1


def _scan_peak(params: PhysicalParams, trunc: SeriesTruncation, betas: np.ndarray,
               ns: np.ndarray, grid_step: float) -> np.ndarray:
    """For each betas[i], the k in [-ns[i], ns[i]] that the tie rule picks
    from the rates at k*grid_step.

    No grid is evaluated whole.  The rate is taken on every s-th point
    (_coarse_grid) and on both ends, and its curvature is bounded exactly:
    with C = sum |J_m(depth)| over the kept orders, |A| <= C,
    |g'| <= sqrt(2/e)/T and |g''| <= 2/T^2 for each Gaussian g, so
    |d^2 |A|^2 / d tau^2| <= K = (4 + 4/e) C^2 / T^2, and between two
    evaluated points w rows apart the rate is at most the larger end rate
    plus K (w grid_step)^2 / 8.  A gap whose bound reaches its beta's best
    so far minus two tie margins (one absorbs rounding) is sampled at every
    ceil(w/8)-th row, and the bound is applied again to each of its
    sub-gaps against the updated best, level by level, until no gap wider
    than one row passes.  Every grid point that could win or tie is
    therefore evaluated, none twice, and the pick is the full grid's.
    Where K is loose (large depth) the levels fill every gap, which is the
    full grid and no more.

    The coarse scan and each level of the fill go to the comb in whole-beta
    batches of at most _SCAN_ROWS rows (the coarse points of a _search
    group are one call), and a larger level of one beta goes alone, in
    pieces this long counted from its own first row of the level.  A batch's
    sub-gaps are filled before the next batch, so only one batch's levels
    are held at once.  _pick takes the candidates of all calls in any order.
    """
    T = characteristic_time(params)
    curvature = (4.0 + 4.0 / math.e) * (np.sum(np.abs(trunc.coefficients)) / T) ** 2
    top = np.full(betas.size, -np.inf)
    # candidates: every row within a tie of its beta's best so far, a superset
    # of those within a tie of its final best
    cand = []

    def sample(p, q, run, k, w, step, first, count):
        # the rates at rows min(k + j step, k + w), first <= j < first + count,
        # of segments (beta run, rows k .. k + w) of betas p .. q - 1, segment
        # by segment, in pieces of _SCAN_ROWS rows (so one beta, or fewer rows)
        last = np.cumsum(count)  # one past each segment's last row
        ys = []
        for lo in range(0, last[-1], _SCAN_ROWS):
            row = np.arange(lo, min(lo + _SCAN_ROWS, last[-1]))
            g = np.searchsorted(last, row, side="right")
            kr = np.minimum(k[g] + (row - last[g] + count[g] + first) * step[g], k[g] + w[g])
            r = run[g]
            y = comb_rates(params, trunc, betas[p:q], np.bincount(r - p, minlength=q - p),
                           kr * grid_step)
            np.maximum.at(top, r, y)
            keep = y >= top[r] - _RATE_TIE
            cand.append((kr[keep], y[keep], r[keep]))
            ys.append(y)
        return np.concatenate(ys)

    def kept(run, k, w, step, y):
        # segment g (beta run[g]) holds the points k[g] + j step[g] for
        # j < ceil(w[g] / step[g]) and k[g] + w[g], rates y segment after
        # segment.  Of the gaps between consecutive points (each step[g] rows
        # wide but the last), those wider than one row whose bound reaches
        # their beta's best so far: beta, first k, width and end rates
        gaps = -(-w // step)
        tail = w - (gaps - 1) * step  # the last gap's width
        floor = (top - 2.0 * _RATE_TIE)[run]

        def need(width):  # the larger end rate a gap this wide needs
            return np.where(width > 1, floor - curvature * (width * grid_step) ** 2 / 8.0,
                            np.inf)

        end = np.cumsum(gaps + 1) - 1  # each segment's last point
        least = np.repeat(need(step), gaps + 1)[:-1]  # the gap from point i to i + 1
        least[end[:-1]] = np.inf  # joins two segments
        least[end - 1] = need(tail)
        i = np.flatnonzero(np.maximum(y[:-1], y[1:]) >= least)
        g = np.searchsorted(end, i)
        j = i - (end - gaps)[g]
        return (run[g], k[g] + j * step[g], np.where(j < gaps[g] - 1, step[g], tail[g]),
                y[i], y[i + 1])

    def fill(run, k, w, y_lo, y_hi):
        # kept gaps in beta and delay order: each is sampled at every step-th
        # row, a batch of betas at a time, and the batch's kept sub-gaps follow
        step = -(-w // 8)
        inner = -(-w // step) - 1  # rows k + step, k + 2 step, ... short of k + w
        fills = np.bincount(run, weights=inner, minlength=betas.size).astype(np.int64)
        for p, q in _batches(fills, _SCAN_ROWS):
            a, b = np.searchsorted(run, [p, q])
            if a == b:
                continue
            y = sample(p, q, *(x[a:b] for x in (run, k, w, step)), 1, inner[a:b])
            split = step[a:b] > 1  # gaps wider than 8, whose sub-gaps can pass
            if split.any():
                # each one's two ends and its rows are the points of its sub-gaps
                gs = np.flatnonzero(split) + a
                at = np.repeat(np.cumsum(inner[gs]) - inner[gs], 2)
                at[1::2] += inner[gs]
                sub = kept(run[gs], k[gs], w[gs], step[gs],
                           np.insert(y[np.repeat(split, inner[a:b])], at,
                                     np.column_stack((y_lo[gs], y_hi[gs])).ravel()))
                del y  # the descent holds its own batches' rows, not these
                fill(*sub)

    # the coarse scan: segment -n .. n of each beta, every point sampled
    s, counts = _coarse_grid(T, ns, grid_step)
    for p, q in _batches(counts, _SCAN_ROWS):
        coarse = (np.arange(p, q), -ns[p:q], 2 * ns[p:q], s[p:q])
        fill(*kept(*coarse, sample(p, q, *coarse, 0, counts[p:q])))
    k, y, r = (np.concatenate(c) for c in zip(*cand))
    return k[_pick(r, k * grid_step, y, betas.size)]


def _linspace9(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """np.linspace(lo[i], hi[i], 9) in row i, value for value."""
    delta = hi - lo
    step = delta / 8
    xs = np.arange(9.0) * step[:, None]
    if not step.all():  # linspace's rule for a step that underflows to 0
        zero = step == 0
        xs[zero] = np.arange(9.0) / 8 * delta[zero, None]
    xs += lo[:, None]
    xs[:, 8] = hi
    return xs


def _peak_search(params: PhysicalParams, trunc: SeriesTruncation, betas: np.ndarray,
                 ns: np.ndarray, grid_step: float,
                 refine_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """find_tau_max's search for every beta in lockstep: tau_max, rate_at_max
    and refinement_width arrays.

    Four phases, each over all betas still searching: _scan_peak's coarse
    scan and its bound and gap fill; each 9-point round; and the parabola
    vertex.  Each phase is one comb_rates call, the gap fill one per level
    and batch or piece, and one segment-wise lexsort for the tie rule.  A pick on the
    window edge raises a SearchError naming the first such beta.
    """
    ks = _scan_peak(params, trunc, betas, ns, grid_step)
    edge = np.flatnonzero(np.abs(ks) == ns)
    if edge.size:
        i = edge[0]
        raise SearchError(f"rate maximum at the window edge (tau = {int(ks[i]) * grid_step} "
                          f"fs); widen search_halfwidth (at mod_frequency {betas[i]} fs)")

    # 9-point rounds over the live betas, each written into its beta's row.  A
    # beta leaves once its round spans at most refine_tol, or once its new
    # bracket is no narrower than the round (float resolution): the bracket is
    # nested in the round, so its width never grows and every beta leaves.
    rows = np.arange(betas.size)
    xs, ys, pick = np.empty((betas.size, 9)), np.empty((betas.size, 9)), np.empty_like(rows)
    lo, hi = ks * grid_step - grid_step, ks * grid_step + grid_step
    seg, live = np.repeat(rows, 9), rows
    while live.size:
        x = _linspace9(lo[live], hi[live])
        y = comb_rates(params, trunc, betas[live], np.full(live.size, 9),
                       x.ravel()).reshape(x.shape)
        at = _pick(seg[:x.size], x.ravel(), y.ravel(), live.size)
        j, span = at % 9, hi[live] - lo[live]
        xs[live], ys[live], pick[live] = x, y, j
        lo[live], hi[live] = x.flat[at - (j > 0)], x.flat[at + (j < 8)]
        live = live[(span > refine_tol) & (hi[live] - lo[live] < span)]

    # the parabola vertex where the pick is a strict interior maximum
    best_x, best_y = xs[rows, pick], ys[rows, pick]
    v = np.flatnonzero((pick > 0) & (pick < 8))
    j = pick[v]
    yl, yr = ys[v, j - 1], ys[v, j + 1]
    curv = yl + yr - 2.0 * best_y[v]
    bent = curv < 0.0
    v, j, yl, yr, curv = v[bent], j[bent], yl[bent], yr[bent], curv[bent]
    vertex = xs[v, j] + 0.5 * (xs[v, j] - xs[v, j - 1]) * (yl - yr) / curv
    vertex = np.clip(vertex, lo[v], hi[v])
    y_vertex = comb_rates(params, trunc, betas[v], np.ones(v.size, dtype=np.int64), vertex)
    better = y_vertex >= best_y[v]
    best_x[v[better]], best_y[v[better]] = vertex[better], y_vertex[better]
    return best_x, best_y, hi - lo


def _search(params: PhysicalParams, alpha: float, betas: np.ndarray,
            search_halfwidth: float | None, grid_step: float, refine_tol: float,
            trunc_tol: float) -> np.ndarray:
    """find_tau_max at each of betas, as rows tau_max, rate_at_max, refinement_width.

    Every beta is sized before any is searched: its scan window (_scan_size)
    and its pump twist (pump_phase), the refusals a search meets before it
    evaluates anything.  The windows go in beta order and the twists in one
    call, those before a refused window first, so the first refusal, in beta
    order and window before twist, is the one a search per beta would meet,
    and no comb is evaluated before it.  The betas are then searched in
    lockstep (_peak_search), in the consecutive groups of _SCAN_ROWS.  Each beta is a comb_rates run of its own, cut into
    blocks from its own start, so its values are those of its search alone,
    bit for bit.
    """
    trunc = truncation_for(CosinePhaseFilter(alpha, 0.0), trunc_tol)
    if not 0 < grid_step <= 1.0:
        raise ParameterError("grid_step must be in (0, 1] fs")
    if not 0 < refine_tol <= 0.01:
        raise ParameterError("refine_tol must be in (0, 0.01] fs")
    T = characteristic_time(params)
    _require_resolution(grid_step, T)
    ns = np.empty(betas.size, dtype=np.int64)
    for i, beta in enumerate(betas.tolist()):
        try:
            ns[i] = _scan_size(params, CosinePhaseFilter(alpha, beta), trunc,
                               search_halfwidth, grid_step)
        except ParameterError:
            pump_phase(params, betas[:i], trunc.max_order)  # an earlier beta's twist first
            raise
    pump_phase(params, betas, trunc.max_order)
    found = np.empty((3, betas.size))
    for p, q in _batches(_coarse_grid(T, ns, grid_step)[1], _SCAN_ROWS):
        found[:, p:q] = _peak_search(params, trunc, betas[p:q], ns[p:q], grid_step, refine_tol)
    return found


def find_tau_max(params: PhysicalParams, filt: CosinePhaseFilter,
                 search_halfwidth: float | None = None, grid_step: float = 0.5,
                 refine_tol: float = 0.01, trunc_tol: float = TRUNC_TOL) -> TauMaxResult:
    """Locate the delay of maximum coincidence rate.

    The maximum is bracketed on the symmetric grid k*grid_step, |k| <= n
    (always containing tau = 0), by the grid argmax: rate ties within 1e-12
    go to the smallest |tau| and then to negative tau.  _scan_peak finds that
    argmax exactly while evaluating only the grid points that an exact
    curvature bound cannot rule out, level by level (about 190 of 8,200 at
    depth 2).  The bracket is then refined by repeated 9-point bracketing
    plus a final parabolic fit.  refine_tol is a target: refinement also stops where the
    bracket no longer narrows at float resolution, and refinement_width is
    the width reached.  The default window series_halfwidth
    covers every series lobe; if the grid argmax is a window end the window
    was too small and a SearchError is raised.  A grid_step above T/20 cannot
    resolve the rate and raises a ResolutionError.  The series is cut at
    trunc_tol (truncation_for).  This is _search at one beta.
    """
    tau, rate, width = _search(params, filt.depth, np.array([filt.mod_frequency]),
                               search_halfwidth, grid_step, refine_tol, trunc_tol)[:, 0]
    return TauMaxResult(tau_max=float(tau), rate_at_max=float(rate),
                        refinement_width=float(width))


def sweep_beta(params: PhysicalParams, alpha: float, beta_start: float,
               beta_end: float, beta_step: float, *,
               search_halfwidth: float | None = None, grid_step: float = 0.5,
               refine_tol: float = 0.01, trunc_tol: float = TRUNC_TOL) -> SweepResult:
    """find_tau_max at each modulation frequency in [beta_start, beta_end] (_search)."""
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
    _require_increasing(betas)
    tau_maxes, peak_rates, _ = _search(params, alpha, betas, search_halfwidth, grid_step,
                                       refine_tol, trunc_tol)
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


def _uniform_step(curve: CorrelationCurve, rtol: float, what: str) -> float:
    """The step of the curve's delays; ParameterError unless 2 or more, uniform to rtol."""
    steps = np.diff(curve.tau_grid)
    if steps.size == 0:
        raise ParameterError(f"{what} requires at least 2 delays, got {steps.size + 1}")
    if not np.allclose(steps, steps[0], rtol=rtol, atol=0.0):
        raise ParameterError(f"{what} requires a uniform tau grid")
    return float(steps[0])


def detect_lobes(curve: CorrelationCurve, min_height: float | None = None) -> LobeReport:
    """Strict local maxima above min_height (default 0.01 of the curve max).

    Maxima closer than T/4 are merged into their tallest member; that scale
    separates genuine envelope lobes from sampling-level ripple.  Then, as in SciPy's
    find_peaks(..., prominence=_RATE_TIE), maxima less prominent than that (round-off) go.
    """
    T = characteristic_time(curve.params)
    step = _uniform_step(curve, 1e-6, "lobe detection")
    _require_resolution(step, T)
    rates = curve.rates
    height = 0.01 * float(np.max(rates)) if min_height is None else float(min_height)
    # a distance past the curve's length merges the same maxima, and a subnormal
    # step would make it infinite
    distance = max(1, math.ceil(min((T / 4.0) / step, rates.size)))
    idx = _find_peaks(rates, height, distance)
    prominences = _prominences(rates, idx)
    keep = prominences >= _RATE_TIE
    return LobeReport(centers=curve.tau_grid[idx[keep]], heights=rates[idx[keep]],
                      prominences=prominences[keep])


def total_coincidence_integral(curve: CorrelationCurve) -> float:
    """Trapezoid integral of the rate over tau, in fs.

    A phase-only filter conserves this, so it is a cross-parameter check.
    The window must be wide enough that both edge rates are below 1e-10 of
    the curve maximum.
    """
    _uniform_step(curve, 1e-9, "total integral")
    peak = float(np.max(curve.rates))
    if curve.rates[0] > 1e-10 * peak or curve.rates[-1] > 1e-10 * peak:
        raise WindowError("edge rates above 1e-10 of the maximum; widen the tau window")
    return float(np.trapezoid(curve.rates, curve.tau_grid))
