"""Integer-order Bessel functions of the first kind, J_m(x), from one FFT.

The series amplitude needs J_0(x)..J_M(x) for one real argument 0 <= x <= 1000
and integer orders 0 <= M <= 1000.  They are the Fourier coefficients of the
filter factor: the Jacobi-Anger expansion exp(i x cos phi) = sum_m i^m J_m(x)
e^{i m phi} (Abramowitz & Stegun 9.1.44-45), taken a quarter turn on, is
exp(i x sin phi) = sum_m J_m(x) e^{i m phi} (9.1.41).  The table comes in two
ranges:

- Orders k <= h = min(floor(x), M) are the real parts of the N-point DFT of
  exp(i x sin phi) on phi = 2 pi j / N, with N the power of two >= 2(x + h)
  + 64.  The DFT aliases order k with k + lN, so its error is |J_{N-k}(x)| and
  beyond, orders >= 2x + 64 whose values sit below 1e-30.  These values are
  accurate in absolute terms, to the round-off in the phases x sin phi.
- Orders h < k <= M are J_h(x) times the ratios r_k = J_k / J_{k-1} from the
  backward recurrence r_k = x / (2k - x r_{k+1}), started at an order K with
  r_K = 0 (Miller's algorithm; ratios need no rescaling).  The anchor J_h(x)
  is positive and not near 0, since x < h + 1 lies before the first zero of
  J_h.  Past x every r_k lies in (0, 1), and Turan's inequality
  J_k^2 > J_{k-1} J_{k+1} makes r_k fall with k, which bounds it by
  q_k = x / (k + sqrt(k^2 - x^2)).  A start at K leaves each r_k, k <= M, low
  by a relative error of at most (J_{K-1} / J_k)^2 <= (q_{M+1} ... q_{K-1})^2,
  and K is the first order that brings this product to 2^-32 or less.  Over
  at most 1001 ratios the start then moves J_k by less than 1001 * 2^-64 <
  2^-54 relative, below round-off.

Against `scipy.special.jv` the table agrees to 3.2e-14 absolute for every
order, and to 4.8e-13 relative past x wherever |J| > 1e-300, for x up to
999.9 and orders up to MAX_ORDER; the largest relative gaps are jv's own
error (40-digit mpmath puts this table within 1e-14 there).  Negative orders
follow from the parity rule J_{-m} = (-1)^m J_m, which the caller applies.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft import fft  # numpy loads numpy.fft lazily: load it at import, not in the first table

from .errors import ParameterError

MAX_ORDER = 1000


def bessel_j_table(x: float, max_order: int) -> np.ndarray:
    """J_0(x)..J_{max_order}(x) for real 0 <= x <= MAX_ORDER, indexed by order."""
    if not (isinstance(max_order, (int, np.integer)) and 0 <= max_order <= MAX_ORDER):
        raise ParameterError(f"max_order must be an integer in [0, {MAX_ORDER}], got {max_order!r}")
    x = float(x)
    if not math.isfinite(x):
        raise ParameterError(f"argument must be finite, got {x!r}")
    if x < 0.0:
        raise ParameterError(f"argument must be >= 0, got {x!r}")
    if x > MAX_ORDER:
        # the DFT length grows with x; the series truncation never asks past MAX_ORDER
        raise ParameterError(f"argument must be <= {MAX_ORDER}, got {x!r}")
    head = min(math.floor(x), max_order)
    n = 1 << math.ceil(math.log2(2.0 * (x + head) + 64.0))
    phi = 2.0 * np.pi / n * np.arange(n)
    table = np.empty(max_order + 1)
    table[:head + 1] = fft(np.exp(1j * x * np.sin(phi)))[:head + 1].real / n
    if head == max_order:
        return table
    # start = K - 1: the first order with q_{max_order + 1} ... q_start <= 2^-32
    start, bound = max_order, 1.0
    while bound > 2.0 ** -32:
        start += 1
        bound *= x / (start + math.sqrt(start * start - x * x))
    # ratios[i] = r_{head + i}, from r_{start + 1} = 0 down; ratios[0] holds the anchor
    ratios = [table[head]] * (start - head + 1)
    r = 0.0
    for i in range(start - head, 0, -1):
        r = x / (2 * (head + i) - x * r)
        ratios[i] = r
    table[head:] = np.cumprod(ratios[:max_order - head + 1])
    return table
