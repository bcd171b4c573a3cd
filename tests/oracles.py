"""Independent reference computations used by the tests.

Everything here is deliberately naive or comes from another library:
Bessel values from mpmath in 40-digit arithmetic, no Jacobi-Anger identity, a
dense node-by-node trapezoid sum with no factorization and no level reuse, a
series comb formed as one delays x orders matrix, a peak scan that evaluates
every grid delay, a sweep that searches one beta at a time, SciPy's own
peak finder, the earlier two-stage series cutoff and a value-by-value CSV
number format, so agreement with the package is a real cross-check rather
than the same algorithm twice.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from pdcshape import CosinePhaseFilter, characteristic_time, count_rate, pump_angular_frequency
from pdcshape.bessel import bessel_j_table
from pdcshape.errors import ParameterError, SearchError
from pdcshape.quadrature import nu_halfwidth

_DPS = 40


def series_bessel_j(m: int, x: float) -> float:
    """J_m(x) from mpmath at 40 digits.

    mpmath sums the power series sum_k (-1)^k (x/2)^(m+2k) / (k! (m+k)!) in
    arbitrary precision, with guard bits for the cancellation between terms.
    For x = 0..20 and m = 0..40 it agrees with a term-by-term 40-digit sum of
    that series to 3e-47.
    """
    assert m >= 0 and x >= 0
    with mpmath.workdps(_DPS):
        return float(mpmath.besselj(m, mpmath.mpf(x)))


def reduced_pump_phase(params, filt) -> float:
    """mod_frequency * omega0 / 2, reduced modulo 2 pi by the exact IEEE remainder."""
    return math.remainder(0.5 * filt.mod_frequency * pump_angular_frequency(params),
                          2.0 * math.pi)


def dense_trapezoid(params, filt, taus, intervals: int, settings) -> np.ndarray:
    """Raw trapezoid sum_j w_j exp(i tau nu_j) over intervals + 1 nodes, one
    complex exponential per (tau, node) pair."""
    T = characteristic_time(params)
    nu_max = nu_halfwidth(params, settings)
    nus = np.linspace(-nu_max, nu_max, intervals + 1)
    w = np.exp(-(0.5 * T * nus) ** 2
               + 1j * filt.depth * np.cos(reduced_pump_phase(params, filt)
                                          - filt.mod_frequency * nus))
    w *= 2.0 * nu_max / intervals
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.array([np.exp(1j * tau * nus) @ w for tau in np.asarray(taus, dtype=float)])


def dense_comb(params, filt, trunc, tau):
    """Series amplitude from one delays x orders matrix, every order on every delay."""
    T = characteristic_time(params)
    coeff = trunc.coefficients * np.exp(1j * trunc.orders * reduced_pump_phase(params, filt))
    shifts = (np.asarray(tau, dtype=float)[..., None] - trunc.orders * filt.mod_frequency) / T
    return np.exp(-shifts * shifts) @ coeff


def best_index(xs: np.ndarray, ys: np.ndarray) -> int:
    """Argmax with ties (within 1e-12) broken by smallest |x|, then negative x."""
    cand = np.nonzero(ys >= np.max(ys) - 1e-12)[0]
    order = np.lexsort((np.sign(xs[cand]), np.abs(xs[cand])))
    return int(cand[order[0]])


def dense_peak_scan(params, filt, trunc, n: int, grid_step: float) -> int:
    """The k in [-n, n] that best_index picks from the rate at every k*grid_step."""
    taus = np.arange(-n, n + 1) * grid_step
    return best_index(taus, np.asarray(count_rate(params, filt, trunc, taus))) - n


def _looped_scan(params, filt, trunc, n: int, grid_step: float) -> int:
    """dense_peak_scan's pick from a coarse scan and the gaps a curvature bound keeps."""
    T = characteristic_time(params)
    s = max(1, int(min(T / (8.0 * grid_step), 2 * n)))
    ks = np.append(np.arange(-n, n, s), n)
    rates = np.asarray(count_rate(params, filt, trunc, ks * grid_step))
    curvature = (4.0 + 4.0 / math.e) * (np.sum(np.abs(trunc.coefficients)) / T) ** 2
    reach = (np.maximum(rates[:-1], rates[1:])
             + curvature * (np.diff(ks) * grid_step) ** 2 / 8.0)
    gaps = np.nonzero(reach >= np.max(rates) - 2e-12)[0]
    inner = (ks[gaps, None] + np.arange(1, s)).ravel()
    inner = inner[inner < n]
    ks = np.concatenate([ks, inner])
    rates = np.concatenate([rates, count_rate(params, filt, trunc, inner * grid_step)])
    return int(ks[best_index(ks * grid_step, rates)])


def looped_sweep(params, trunc, betas, ns, grid_step: float, refine_tol: float):
    """(tau_max, rate_at_max, refinement_width) arrays from one peak search per beta.

    Each search scans the grid k*grid_step, |k| <= ns[i], refines the pick by
    9-point rounds until a round spans at most refine_tol or its new bracket
    is no narrower than the round, and takes the parabola vertex when it
    rates at least the round's best; every rate is its own count_rate call.
    A pick on a window end raises the SearchError sweep_beta raises for it.
    """
    out = np.empty((3, len(betas)))
    for i, (beta, n) in enumerate(zip(betas, ns)):
        filt = CosinePhaseFilter(trunc.depth, float(beta))
        k = _looped_scan(params, filt, trunc, int(n), grid_step)
        if abs(k) == n:
            raise SearchError(f"rate maximum at the window edge (tau = {k * grid_step} fs); "
                              f"widen search_halfwidth (at mod_frequency {beta} fs)")
        lo, hi = k * grid_step - grid_step, k * grid_step + grid_step
        while True:
            xs = np.linspace(lo, hi, 9)
            ys = np.asarray(count_rate(params, filt, trunc, xs))
            j = best_index(xs, ys)
            evaluated = hi - lo
            lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, xs.size - 1)]
            if evaluated <= refine_tol or hi - lo >= evaluated:
                break
        best_x, best_y = float(xs[j]), float(ys[j])
        if 0 < j < xs.size - 1:
            yl, y0, yr = ys[j - 1], ys[j], ys[j + 1]
            curv = yl + yr - 2.0 * y0
            if curv < 0.0:
                vertex = xs[j] + 0.5 * (xs[j] - xs[j - 1]) * (yl - yr) / curv
                vertex = min(max(vertex, lo), hi)
                y_vertex = float(count_rate(params, filt, trunc, vertex))
                if y_vertex >= best_y:
                    best_x, best_y = float(vertex), y_vertex
        out[:, i] = best_x, best_y, hi - lo
    return out


def scipy_peaks(x: np.ndarray, height: float, distance: int) -> tuple[np.ndarray, np.ndarray]:
    """Peak indices and prominences from SciPy's find_peaks and peak_prominences."""
    from scipy.signal import find_peaks, peak_prominences  # ~1.2 s to import

    idx, _ = find_peaks(x, height=height, distance=distance)
    return idx, peak_prominences(x, idx)[0]


def two_stage_cutoff(filt, tol: float = 1e-12) -> int:
    """Series cutoff by the two-stage rule truncation_for applied before its single tail test.

    Scans |J_m(depth)| for the first order where three consecutive values sit
    below tol, then extends until the dropped two-sided tail mass is below
    tol/2.
    """
    if not 0 < tol <= 1e-3:
        raise ParameterError(f"tol must be in (0, 1e-3], got {tol!r}")
    n = math.ceil(filt.depth) + 80
    while True:
        if n > 1000:
            raise ParameterError(f"filter depth {filt.depth} too large for series truncation")
        j = np.abs(bessel_j_table(filt.depth, n))
        below = j < tol
        candidates = np.nonzero(below[1:-2] & below[2:-1] & below[3:])[0]
        if candidates.size:
            m = int(candidates[0])
            break
        n *= 2
    # two-sided tail mass actually dropped; suffixes of the |J| scan
    tail = 2.0 * np.cumsum(j[::-1])[::-1]
    while m + 1 <= n and tail[m + 1] >= 0.5 * tol:
        m += 1
    return m


def format_number(value) -> str:
    """One CSV cell, value by value: str as is, integers plain, floats in %.8e."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.8e}"
