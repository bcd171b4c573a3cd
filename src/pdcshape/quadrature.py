"""Direct numerical integration of the pre-series pair amplitude.

The amplitude is evaluated as the frequency integral

    A(tau) = integral dnu  e^{i nu tau} e^{-(T/2)^2 nu^2}
                           e^{i depth cos(theta - mod_frequency nu)}

(theta = mod_frequency omega0 / 2 modulo 2 pi, from model.pump_phase) over a
truncated symmetric window, by a composite trapezoid rule whose point count
doubles until two successive estimates agree.  The levels are nested:
the first coarse estimate sums the even nodes, and every finer estimate is
half the previous one plus the new odd midpoints, so each node is weighted
and summed once.  The delays must form a uniform grid (linspace, arange times
a step, or a single delay); its spacing is taken from the end points, and a
delay off that lattice is refused with ParameterError.  On a uniform grid the
sum over m equally spaced nodes is a chirp-z transform (Bluestein), one FFT
convolution per piece of up to max(m, _MIN_PIECE) delays, so a level costs
O((N + m) log(N + m)) for N delays instead of O(N m), and its memory does
not grow with N.  Nothing here uses the Bessel expansion, so agreement with
the series path is a genuine two-route check of the closed form, including
the sign structure of its exponent.
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
    pump_phase,
    require_cells,
    series_halfwidth,
    truncation_for,
)

#: a chirp-z piece holds up to max(m, _MIN_PIECE) delays for m nodes
_MIN_PIECE = 8192
#: how far a delay may sit off its lattice point, in units of eps (|tau_0| + |tau_last|):
#: about 4-8 ulps of the grid's largest delay
_LATTICE_EPS = 4.0

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
        # the same memory cap: the last level's chirp-z buffers take up to about
        # 80 B an interval at peak, besides the delay-length results
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


def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy.fft transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _split(x):
    """Veltkamp split: x = hi + lo, each half fitting in 26 bits."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a, b):
    """Dekker's exact product: a * b = p + e with p = fl(a * b)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _chirp(alpha: tuple[float, float], n: np.ndarray) -> np.ndarray:
    """exp(i alpha n^2 / 2) for integer n, alpha = alpha[0] + alpha[1] exactly.

    n^2 is an exact float, and alpha/2 n^2 is carried as hi + lo, so the
    phase is wrong by round-off of the phase itself, not of its size.
    """
    n2 = (n * n).astype(float)
    hi, lo = _two_product(0.5 * alpha[0], n2)
    lo += 0.5 * alpha[1] * n2
    return np.exp(1j * hi) * (1.0 + 1j * lo)


def _check_uniform(taus: np.ndarray) -> None:
    """ParameterError unless the delays form a uniform grid.

    The spacing is taken from the end points, and every delay must lie within
    _LATTICE_EPS * eps * (|taus[0]| + |taus[-1]|) of its lattice point
    taus[0] + k spacing: linspace (within 2 of those units), arange times a
    step (exact) and single delays pass.
    """
    if taus.size < 3:
        return
    spacing = (taus[-1] - taus[0]) / (taus.size - 1)
    off = np.abs(taus - (taus[0] + spacing * np.arange(taus.size)))
    bound = _LATTICE_EPS * np.finfo(float).eps * (abs(taus[0]) + abs(taus[-1]))
    k = int(np.argmax(off))
    if off[k] > bound:
        raise ParameterError(
            f"the quadrature route needs a uniform delay grid: tau[{k}] = {taus[k]!r} fs lies "
            f"{off[k]:.3g} fs off the lattice {taus[0]!r} + k * {spacing!r} fs")


def _phase_sum(taus: np.ndarray, start: float, step: float,
               weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j] exp(i tau (start + j step)) for every tau of a uniform grid.

    A chirp-z transform (Bluestein).  The delay spacing dtau is taken from the
    end points of taus.  Count the delay k' and the node j' from the
    midpoints tau_c of a piece of Q delays and nu_c of the m nodes; then
    tau nu = tau nu_c + tau_c step j' + alpha k' j' with alpha = dtau step,
    and k' j' = (k'^2 + j'^2 - (k' - j')^2) / 2 turns the sum over j into one
    convolution with the chirp exp(-i alpha d^2 / 2), done by FFT.  The
    chirp phases are carried exactly (_chirp), so they are no less accurate
    than tau nu itself.  Q = max(m, _MIN_PIECE) at most; the kernel's FFT is
    taken once, and each piece then costs two FFTs of a 5-smooth length
    >= Q + m - 1, so memory is O(Q + m) whatever the delay count.
    """
    n_taus, m = taus.size, weights.size
    dtau = (taus[-1] - taus[0]) / (n_taus - 1) if n_taus > 1 else 0.0
    alpha = _two_product(dtau, step)
    q = min(n_taus, max(m, _MIN_PIECE))
    size = _fast_length(q + m - 1)
    kc, jc = (q - 1) // 2, (m - 1) // 2
    # k' - j' runs over d0 .. d0 + q + m - 2, and |k'|, |j'| never exceed its
    # largest magnitude: the chirp is even, so one table serves all three
    d0 = jc - kc - m + 1
    chirp = _chirp(alpha, np.arange(max(-d0, d0 + q + m - 2) + 1))
    kernel = np.fft.fft(np.conj(chirp[np.abs(np.arange(d0, d0 + q + m - 1))]), size)
    j = np.arange(m) - jc
    node_chirp = weights * chirp[np.abs(j)]
    delay_chirp = chirp[np.abs(np.arange(q) - kc)]
    nu_c = start + jc * step
    nu_off = step * j
    out = np.empty(n_taus, dtype=complex)
    for lo in range(0, n_taus, q):
        t = taus[lo:lo + q]
        tau_c = taus[0] + (lo + kc) * dtau
        conv = np.fft.fft(node_chirp * np.exp(1j * tau_c * nu_off), size)
        conv *= kernel
        np.fft.ifft(conv, out=conv)
        out[lo:lo + q] = np.exp(1j * nu_c * t) * delay_chirp[:t.size] * conv[m - 1:m - 1 + t.size]
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
    nu_max = nu_halfwidth(params, settings)
    # convergence floor: the depth-0 peak integral, so near-zero tails are
    # judged against the curve scale rather than against themselves
    scale_floor = 2.0 * math.sqrt(math.pi) / T

    n_coarse = _required_intervals(nu_max, taus, filt, settings)
    _check_uniform(taus)
    theta = pump_phase(params, filt.mod_frequency)
    n = 2 * n_coarse

    def node_weights(start: float, step: float, count: int) -> np.ndarray:
        nus = start + step * np.arange(count)
        return np.exp(-(0.5 * T * nus) ** 2
                      + 1j * filt.depth * np.cos(theta - filt.mod_frequency * nus))

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


def _comparison_halfcount(params: PhysicalParams, filt: CosinePhaseFilter, spacing: float,
                          trunc: SeriesTruncation) -> int:
    """n of comparison_grid's 2n + 1 delays; ParameterError if the grid is over the cap."""
    if spacing <= 0:
        raise ParameterError("spacing must be > 0")
    half = series_halfwidth(params, filt, trunc)
    n = np.ceil(half / spacing)  # in float: an inf is refused, not converted
    require_cells(f"the comparison grid over +-{half:g} fs in {spacing:g} fs steps",
                  2.0 * n + 1.0, trunc, "use a coarser spacing or a shorter correlation time")
    return int(n)


def comparison_grid(params: PhysicalParams, filt: CosinePhaseFilter,
                    spacing: float = 10.0,
                    trunc: SeriesTruncation | None = None) -> np.ndarray:
    """Uniform tau grid covering every lobe of the series with ~5T margin."""
    if trunc is None:
        trunc = truncation_for(filt)
    n = _comparison_halfcount(params, filt, spacing, trunc)
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
