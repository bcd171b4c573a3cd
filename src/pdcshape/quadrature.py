"""Direct numerical integration of the pre-series pair amplitude.

The amplitude is evaluated as the frequency integral

    A(tau) = integral dnu  e^{i nu tau} e^{-(T/2)^2 nu^2}
                           e^{i depth cos(theta - mod_frequency nu)}

(theta = mod_frequency omega0 / 2 modulo 2 pi, from model.pump_phase) over a
truncated symmetric window, by a composite trapezoid rule.  Both of its errors
have a-priori bounds, met before any node is weighted: the integrand is entire,
which bounds the step's error (_coarse_intervals), and its real-line modulus is
the Gaussian weight, which bounds what the window cuts off (nu_halfwidth).  One
halving level, which adds the odd midpoints to half the coarse sum, confirms
both: the two estimates agree to rel_tolerance, or ConvergenceError.  The delays
must form a uniform grid (linspace, arange times a step, or a single delay);
its spacing is taken from the end points, and a delay off that lattice is
refused with ParameterError.  On a uniform grid the sum over m equally spaced
nodes is a chirp-z transform (Bluestein), one FFT convolution per piece of up
to max(m, _MIN_PIECE) delays, so a level costs O((N + m) log(N + m)) for N
delays instead of O(N m), and its memory does not grow with N.  Nothing here
uses the Bessel expansion, so agreement with the series path is a genuine
two-route check of the closed form, including the sign structure of its
exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ParameterError
from .model import (
    _MAX_COMB_CELLS,
    TRUNC_TOL,
    CosinePhaseFilter,
    PhysicalParams,
    characteristic_time,
    count_rate,
    pump_phase,
    series_halfwidth,
    truncation_for,
    window_halfcount,
)

#: a chirp-z piece holds up to max(m, _MIN_PIECE) delays for m nodes
_MIN_PIECE = 8192
#: y T of the strip bound's trial lines Im nu = y (_coarse_intervals)
_STRIP_YT = np.geomspace(1e-6, 50.0, 48)
#: how far a delay may sit off its lattice point, in units of eps (|tau_0| + |tau_last|):
#: about 4-8 ulps of the grid's largest delay
_LATTICE_EPS = 4.0

#: (depth, mod_frequency/fs) grid exercised by the `validate` command.
VALIDATION_DEPTHS = (0.0, 1.0, 2.0, 5.0, 10.0)
VALIDATION_MOD_FREQUENCIES = (0.0, 25.0, 50.0, 53.0, 300.0, 1000.0)
#: delay step, fs, of comparison_grid and so of every `validate` cell
COMPARISON_SPACING = 10.0


@dataclass(frozen=True)
class QuadratureSettings:
    """Window and sizing policy for the frequency integral.

    halfwidth_folds  least window |nu| <= 2*folds/T, where the Gaussian weight
                     is e^{-folds^2}; rel_tolerance may widen it (nu_halfwidth)
    initial_points   least coarse interval count (the trapezoid error bound
                     raises it where the integrand needs more)
    max_points       budget for the checking level (twice the coarse count),
                     refused before any node is weighted
    rel_tolerance    agreement target of the coarse and halved estimates, relative
                     to the larger of the local amplitude and the depth-0 peak scale
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
        # the same memory cap: the checking level's chirp-z buffers take up to about
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
    """Window edge 2 f / T in rad/fs, f = max(halfwidth_folds, sqrt(ln(8 / rel_tolerance))).

    The integrand's real-line modulus is the Gaussian weight, e^{-f^2} at the
    edge, so for n >= 128 intervals the nodes cut off cost at most
    (h T / 2 sqrt(pi)) e^{-f^2} + erfc(f) <= e^{-f^2} (f/113 + 1/(f sqrt(pi))) of
    the scale 2 sqrt(pi)/T: under 0.27 e^{-f^2} <= rel_tolerance/29 at f in [4.0, 27.3].
    """
    floor = math.sqrt(math.log(8.0) - math.log(settings.rel_tolerance))
    return 2.0 * max(settings.halfwidth_folds, floor) / characteristic_time(params)


def _coarse_intervals(nu_max: float, T: float, taus: np.ndarray, filt: CosinePhaseFilter,
                      settings: QuadratureSettings) -> int:
    """Coarse interval count from the trapezoid rule's strip bound; ConvergenceError if
    its halving check is over budget, raised before any node is weighted.

    The integrand is entire.  On the line Im nu = y its modulus integrates to at
    most M(y) = (2 sqrt(pi)/T) exp(y |tau|max + (T y/2)^2 + depth sinh(mod_frequency y)),
    so the rule with step h errs by at most 2 M(y) / (e^{2 pi y/h} - 1) on the
    real line (Trefethen & Weideman, SIAM Review 56(3), 2014, Theorem 5.1).  The
    step is the largest that holds this bound to rel_tolerance/4 of the scale
    2 sqrt(pi)/T at some y of _STRIP_YT / T; any y gives a valid bound, so the
    coarse y grid can only add nodes.  The window takes rel_tolerance/29 more (nu_halfwidth).
    """
    reach = float(np.max(np.abs(taus))) if taus.size else 0.0
    y = _STRIP_YT / T
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are refused below
        growth = y * reach + (0.5 * _STRIP_YT) ** 2
        if filt.depth:  # depth 0 adds nothing, even where sinh overflows
            growth = growth + filt.depth * np.sinh(filt.mod_frequency * y)
        # the bound holds where 2 pi / h >= ln(1 + 8 e^growth / rel_tolerance) / y
        log_ratio = np.logaddexp(0.0, growth + (math.log(8.0) - math.log(settings.rel_tolerance)))
        count = nu_max / math.pi * float(np.min(log_ratio / y))  # 2 nu_max / h
    need = 2.0 * count
    if count < settings.max_points:  # false for inf and NaN, which ceil cannot take
        n = max(settings.initial_points, math.ceil(count))
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


def _chirp_z(taus: np.ndarray, step: float, m: int):
    """The sum over m nodes step apart, set up once for a uniform delay grid.

    Returns phase_sum(start, weights), which gives
    sum_j weights[j] exp(i tau (start + j step)) for every tau of taus, as a
    chirp-z transform (Bluestein).  The delay spacing dtau is taken from the
    end points of taus.  Count the delay k' and the node j' from the midpoints
    tau_c of a piece of Q delays and nu_c of the m nodes; then
    tau nu = tau nu_c + tau_c step j' + alpha k' j' with alpha = dtau step,
    and k' j' = (k'^2 + j'^2 - (k' - j')^2) / 2 turns the sum over j into one
    convolution with the chirp exp(-i alpha d^2 / 2), done by FFT.  The
    chirp phases are carried exactly (_chirp), so they are no less accurate
    than tau nu itself.  Q = max(m, _MIN_PIECE) at most; the chirp table and
    the kernel's FFT are built here, once for every start and weights, and
    each piece then costs two FFTs of a 5-smooth length >= Q + m - 1, so
    memory is O(Q + m) whatever the delay count.
    """
    n_taus = taus.size
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
    node_chirp = chirp[np.abs(j)]
    delay_chirp = chirp[np.abs(np.arange(q) - kc)]
    nu_off = step * j

    def phase_sum(start: float, weights: np.ndarray) -> np.ndarray:
        weighted = weights * node_chirp
        nu_c = start + jc * step
        out = np.empty(n_taus, dtype=complex)
        for lo in range(0, n_taus, q):
            t = taus[lo:lo + q]
            tau_c = taus[0] + (lo + kc) * dtau
            conv = np.fft.fft(weighted * np.exp(1j * tau_c * nu_off), size)
            conv *= kernel
            np.fft.ifft(conv, out=conv)
            out[lo:lo + q] = (np.exp(1j * nu_c * t) * delay_chirp[:t.size]
                              * conv[m - 1:m - 1 + t.size])
        return out

    return phase_sum


def _amplitude_grid(params: PhysicalParams, filt: CosinePhaseFilter, taus: np.ndarray,
                    settings: QuadratureSettings,
                    ) -> tuple[np.ndarray, np.ndarray, int, tuple[float, ...]]:
    """Raw (unnormalized) amplitudes over a tau grid, checked to tolerance.

    Returns (values, per-tau estimate differences, interval count, and the
    halving check's worst relative difference as a 1-tuple).
    """
    taus = np.asarray(taus, dtype=float)
    T = characteristic_time(params)
    nu_max = nu_halfwidth(params, settings)
    # the check's floor: the depth-0 peak integral, so near-zero tails are
    # judged against the curve scale rather than against themselves
    scale_floor = 2.0 * math.sqrt(math.pi) / T

    n_coarse = _coarse_intervals(nu_max, T, taus, filt, settings)
    _check_uniform(taus)
    theta = pump_phase(params, filt.mod_frequency)
    n = 2 * n_coarse

    def node_weights(start: float, step: float, count: int) -> np.ndarray:
        nus = start + step * np.arange(count)
        return np.exp(-(0.5 * T * nus) ** 2
                      + 1j * filt.depth * np.cos(theta - filt.mod_frequency * nus))

    # nested trapezoid levels: the coarse estimate comes from the even nodes,
    # and the checking level adds only the odd midpoints to half its sum.  The
    # midpoints share the even nodes' step 2h; one zero-weight node past the
    # last gives them the even nodes' count too, so one chirp-z set-up serves
    # both sums, taken one after the other
    h = 2.0 * nu_max / n
    phase_sum = _chirp_z(taus, 2.0 * h, n_coarse + 1)
    w = node_weights(-nu_max, 2.0 * h, n_coarse + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    coarse = (2.0 * h) * phase_sum(-nu_max, w)
    w = node_weights(-nu_max + h, 2.0 * h, n_coarse + 1)
    w[-1] = 0.0
    fine = 0.5 * coarse + h * phase_sum(-nu_max + h, w)
    diff = np.abs(fine - coarse)
    rel = diff / np.maximum(np.abs(fine), scale_floor)
    k = int(np.argmax(rel))
    worst = float(rel[k])
    if worst < settings.rel_tolerance:
        return fine, diff, n, (worst,)
    raise ConvergenceError(
        f"no convergence at {n} intervals (the halving check differs by {worst:.3g}, not "
        f"below {settings.rel_tolerance:g}): "
        f"last estimates {complex(coarse[k])} vs {complex(fine[k])} at tau={taus[k]} fs")


@lru_cache(maxsize=64)
def _baseline_raw(params: PhysicalParams, settings: QuadratureSettings) -> complex:
    """Raw depth-0, tau=0 integral; the shared normalization anchor."""
    values, _, _, _ = _amplitude_grid(params, CosinePhaseFilter(0.0, 0.0),
                                      np.array([0.0]), settings)
    return complex(values[0])


def amplitude_quadrature(params: PhysicalParams, filt: CosinePhaseFilter, tau: float,
                         settings: QuadratureSettings = DEFAULT_SETTINGS) -> QuadratureResult:
    """Normalized amplitude at one delay, by the trapezoid rule _amplitude_grid sizes.

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
    """Normalized rates |A|^2 over a tau grid, one checked sum for the whole grid."""
    if settings is None:
        settings = DEFAULT_SETTINGS
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size == 0:
        raise ParameterError("tau_grid must be non-empty")
    values, _, _, _ = _amplitude_grid(params, filt, taus, settings)
    base = _baseline_raw(params, settings)
    return np.abs(values / base) ** 2


def _comparison_halfcount(params: PhysicalParams, filt: CosinePhaseFilter,
                          trunc_tol: float) -> int:
    """n of comparison_grid's 2n + 1 delays; ParameterError if the grid is over the cap."""
    trunc = truncation_for(filt, trunc_tol)
    return window_halfcount("the comparison grid", series_halfwidth(params, filt, trunc),
                            COMPARISON_SPACING, trunc, "use a shorter correlation time")


def comparison_grid(params: PhysicalParams, filt: CosinePhaseFilter,
                    trunc_tol: float = TRUNC_TOL) -> np.ndarray:
    """Uniform tau grid, COMPARISON_SPACING apart, over every lobe of the series cut at
    trunc_tol, with ~5T margin."""
    n = _comparison_halfcount(params, filt, trunc_tol)
    return np.arange(-n, n + 1) * COMPARISON_SPACING


def compare_methods(params: PhysicalParams, filt: CosinePhaseFilter, tau_grid,
                    settings: QuadratureSettings | None = None,
                    trunc_tol: float = TRUNC_TOL) -> DeviationReport:
    """Worst |rate_series - rate_quadrature|, series cut at trunc_tol, and where it occurs."""
    taus = np.asarray(tau_grid, dtype=float)
    series = np.asarray(count_rate(params, filt, truncation_for(filt, trunc_tol), taus))
    quad = rate_grid(params, filt, taus, settings)
    diff = np.abs(series - quad)
    k = int(np.argmax(diff))
    return DeviationReport(max_abs_diff=float(diff[k]), tau_at_max=float(taus[k]))
