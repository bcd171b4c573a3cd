"""Two-photon correlation model for degenerate noncollinear type-I pair emission.

The idler photon passes a spectral phase filter exp(i*depth*cos(mod_frequency*omega)).
After the frequency integral the (unnormalized) pair amplitude at detection-time
delay tau = t2 - t1 collapses to a Bessel series

    A(tau) = sum_m  i^m J_m(depth) exp(i m mod_frequency omega0 / 2)
                    exp(-(tau - m*mod_frequency)^2 / T^2)

where omega0 is the pump angular frequency and T = 2 eps_perp sin(theta) / u is
the correlation time scale of the unfiltered pair.  The coincidence rate is
|A|^2, normalized so the unfiltered (depth 0) curve peaks at exactly 1.

Unit convention: times in fs, angular frequencies in rad/fs.  Lengths and
velocities are converted at the parameter boundary and never appear inside
the numerics.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from .bessel import MAX_ORDER, bessel_j_table
from .errors import ParameterError

LIGHT_SPEED_DEFAULT = 3.0e8  # m/s, pinned round value; override via PhysicalParams

_METHODS = ("series", "quadrature")
TRUNC_TOL = 1e-12  # default bound on the dropped tail of the series (truncation_for)

# Cap on delay x series order cells, checked (require_cells) before a curve,
# peak scan or comparison grid is evaluated; it bounds time, as the comb's
# memory is bounded per block.  fig4 and fig3 evaluate 14,001 and 2,401 delays
# x at most 63 orders, and fig2's peak-search grid holds 8,361 x 31.  The
# quadrature's interval budget shares this cap.
_MAX_COMB_CELLS = 2**24
# Delays per block of the series comb: at most _TAU_BLOCK x (2M + 1) cells are
# held at once, 24 B each (a complex work cell and its float -s^2), ~1.5 MB at
# M = 31, and up to 9 B more while -s^2 is formed (repeated centres, flush mask).
_TAU_BLOCK = 1024
# Lobe reach R in units of T: exp(-28^2) underflows to exactly 0.0 in float64
# (anything past |s| ~ 27.3 does), so orders farther than R from a block are
# exact zeros there.  It must stay 28, although the flush below zeroes every
# cell past sqrt(_FLUSH) ~ 26.6: R sets the order widths, and so how BLAS
# groups each row's sum; R = sqrt(708) moved 1,232 amplitudes of one sequence
# of the benchmark's series workload by ~1 ulp.
_LOBE_REACH = 28.0
# exp(-s^2) is subnormal for s^2 > _FLUSH = -ln(smallest normal) ~ 708.4, where
# numpy's exp (over 100 ns a cell, against ~1 ns) and BLAS both take a slow path;
# amplitude_comb flushes those cells to 0.0.
_FLUSH = -math.log(sys.float_info.min)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PhysicalParams:
    """Source geometry and pump parameters.

    pump_wavelength      nm
    group_velocity       m/s, common signal/idler group velocity u
    beam_param           um, pump transverse Gaussian parameter (beam radius is beam_param/sqrt(2))
    emission_angle       degrees, common signal/idler emission angle, 0 < angle < 90
    light_speed          m/s
    """

    pump_wavelength: float
    group_velocity: float
    beam_param: float
    emission_angle: float
    light_speed: float = LIGHT_SPEED_DEFAULT

    def __post_init__(self) -> None:
        for name in ("pump_wavelength", "group_velocity", "beam_param",
                     "emission_angle", "light_speed"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.pump_wavelength <= 0:
            raise ParameterError("pump_wavelength must be > 0")
        if self.light_speed <= 0:
            raise ParameterError("light_speed must be > 0")
        if not 0 < self.group_velocity < self.light_speed:
            raise ParameterError("group_velocity must satisfy 0 < u < light_speed")
        if self.beam_param <= 0:
            raise ParameterError("beam_param must be > 0")
        if not 0 < self.emission_angle < 90:
            # angle -> 0 makes the correlation time diverge
            raise ParameterError("emission_angle must be strictly between 0 and 90 degrees")
        # finite inputs can still overflow or underflow the derived scales
        for name, unit, value in (("correlation time T", "fs", characteristic_time(self)),
                                  ("pump angular frequency omega0", "rad/fs",
                                   pump_angular_frequency(self))):
            if not sys.float_info.min <= value < math.inf:
                raise ParameterError(
                    f"{name} = {value!r} {unit} must be finite, positive and normal")


@dataclass(frozen=True)
class CosinePhaseFilter:
    """Spectral phase filter depth*cos(mod_frequency*omega) applied to the idler.

    depth          rad, >= 0 (negative depth is the same filter by Bessel parity)
    mod_frequency  fs, >= 0
    """

    depth: float
    mod_frequency: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "depth", _require_finite("depth", self.depth))
        object.__setattr__(self, "mod_frequency",
                           _require_finite("mod_frequency", self.mod_frequency))
        if self.depth < 0:
            raise ParameterError("depth must be >= 0")
        if self.mod_frequency < 0:
            raise ParameterError("mod_frequency must be >= 0")


@dataclass(frozen=True)
class SeriesTruncation:
    """The depth's Bessel series, read-only: orders -max_order..max_order, i^m J_m(depth)."""

    depth: float
    max_order: int
    orders: np.ndarray = field(init=False, repr=False, compare=False)
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)
    table: InitVar[np.ndarray]  # J_0..J_k(depth), k >= max_order: the table M was chosen from

    def __post_init__(self, table: np.ndarray) -> None:
        if self.max_order < 0:
            raise ParameterError("max_order must be >= 0")
        orders = np.arange(-self.max_order, self.max_order + 1)
        j = table[np.abs(orders)]
        j[(orders < 0) & (orders % 2 != 0)] *= -1.0
        # i^m looked up exactly instead of complex powers, which round
        i_pow = np.array([1.0, 1.0j, -1.0, -1.0j])[np.mod(orders, 4)]
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "coefficients", i_pow * j)
        self.orders.flags.writeable = self.coefficients.flags.writeable = False


def characteristic_time(params: PhysicalParams) -> float:
    """Correlation time scale T = 2*eps_perp*sin(theta)/u in fs.

    The unfiltered amplitude envelope is exp(-tau^2/T^2).
    """
    theta = math.radians(params.emission_angle)
    # um -> m gives 1e-6, s -> fs gives 1e15, net 1e9
    return 2.0e9 * params.beam_param * math.sin(theta) / params.group_velocity


def pump_angular_frequency(params: PhysicalParams) -> float:
    """Pump angular frequency 2*pi*c/lambda in rad/fs."""
    # nm -> m gives 1e-9, rad/s -> rad/fs gives 1e-15, net 1e-6
    return 2.0 * math.pi * params.light_speed / (params.pump_wavelength * 1e6)


#: Parameter set used throughout the bundled presets.
DEFAULT_PARAMS = PhysicalParams(
    pump_wavelength=350.0,
    group_velocity=2.0e8,
    beam_param=100.0,
    emission_angle=15.0,
)


def _twist_refused(max_order: int, beta: float, omega0: float) -> ParameterError:
    return ParameterError(
        f"the pump twist M*beta*omega0/2 at M = {max_order}, beta = {beta:g} fs, omega0 = "
        f"{omega0:g} rad/fs is not finite; lower beta or the pump frequency")


def pump_phase(params: PhysicalParams, betas, max_order: int = 1):
    """theta = beta*omega0/2 reduced modulo 2 pi for each of betas (a float in, a float
    out), for the comb's twist exp(i m theta) and the quadrature's cos(theta - beta nu)
    alike: unreduced, it reaches ~5e16 rad at 1e-12 nm, where m theta is no longer m
    times one angle.  A ParameterError refuses the first beta whose max_order * theta
    is not finite.

    Each theta is math.remainder(theta, 2 pi), bit for bit.  One beta takes it
    directly, which costs less than the array steps.  For more, r = fmod(|theta|,
    2 pi) is exact, and so is r - 2 pi where r > pi (Sterbenz), the value nearer
    zero; an exact tie r = pi, which rounds to the even multiple, is left to
    math.remainder.
    """
    omega0 = pump_angular_frequency(params)
    betas = np.asarray(betas, dtype=float)
    if betas.size == 1:
        theta = 0.5 * betas.item() * omega0
        if not math.isfinite(max_order * theta):  # Python floats overflow quietly
            raise _twist_refused(max_order, betas.item(), omega0)
        reduced = math.remainder(theta, 2.0 * math.pi)
        return reduced if betas.ndim == 0 else np.full(betas.shape, reduced)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = 0.5 * betas * omega0
        finite = np.isfinite(max_order * theta)
    if not finite.all():
        raise _twist_refused(max_order, float(betas.flat[np.argmin(finite)]), omega0)
    r = np.fmod(np.abs(theta), 2.0 * math.pi)
    reduced = np.where(r < math.pi, r, r - 2.0 * math.pi) * np.copysign(1.0, theta)
    tie = r == math.pi
    if tie.any():
        reduced[tie] = [math.remainder(t, 2.0 * math.pi) for t in theta[tie].tolist()]
    return reduced


def truncation_for(filt: CosinePhaseFilter, tol: float = TRUNC_TOL) -> SeriesTruncation:
    """Smallest symmetric cutoff M for the given filter depth.

    M is the first order whose dropped two-sided tail 2 sum_{m > M} |J_m(depth)|
    is below tol/2, which is what keeps the depth-independent identities (e.g.
    the mod_frequency = 0 reduction) good to tol in the rate.  The |J| table
    starts at depth + 80 orders and doubles, up to MAX_ORDER, until it holds
    such an M.  The orders past the table's end n count too: past the depth,
    J_k > 0 falls with a falling ratio (Turan's inequality J_k^2 > J_{k-1} J_{k+1}),
    so they sum to at most J_n r / (1 - r) with r = J_n / J_{n-1}.  Each (depth, tol)
    is built once a process (the last 64 are kept) and shared read-only.
    """
    return _truncation(filt.depth, tol)


def require_trunc_tol(tol: float) -> None:
    """Refuse a series tail tolerance outside (0, 1e-3]."""
    if not 0 < tol <= 1e-3:
        raise ParameterError(f"tol must be in (0, 1e-3], got {tol!r}")


@lru_cache(maxsize=64)
def _truncation(depth: float, tol: float) -> SeriesTruncation:
    require_trunc_tol(tol)
    if depth > MAX_ORDER:
        # orders near the depth have |J| ~ 0.4 m^(-1/3), so no cutoff exists
        raise ParameterError(f"filter depth {depth} too large for series truncation")
    n = min(math.ceil(depth) + 80, MAX_ORDER)
    while True:
        table = bessel_j_table(depth, n)
        j = np.abs(table)
        beyond = math.inf
        if j[-1] == 0.0:
            beyond = 0.0
        elif n - 1 > depth and j[-2] > j[-1]:
            beyond = j[-1] ** 2 / (j[-2] - j[-1])
        # dropped[m] = 2 (sum_{m < k <= n} |J_k| + beyond), summed from the table's end
        dropped = 2.0 * (np.append(np.cumsum(j[:0:-1])[::-1], 0.0) + beyond)
        passing = np.flatnonzero(dropped < 0.5 * tol)
        if passing.size:
            return SeriesTruncation(depth, int(passing[0]), table)
        if n == MAX_ORDER:
            raise ParameterError(f"filter depth {depth} too large for series truncation")
        n = min(2 * n, MAX_ORDER)


def series_halfwidth(params: PhysicalParams, filt: CosinePhaseFilter,
                     trunc: SeriesTruncation) -> float:
    """Half-width in fs of the delay window that holds every lobe of the series."""
    return trunc.max_order * filt.mod_frequency + 5.0 * characteristic_time(params)


def _batches(sizes, limit: int):
    """Consecutive [start, stop) ranges of sizes, each at most limit in all or one item."""
    ends = np.cumsum(sizes)
    start = 0
    while start < ends.size:
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + limit, side="right")))
        yield start, stop
        start = stop


def amplitude_comb(params: PhysicalParams, trunc: SeriesTruncation, betas, counts,
                   taus: np.ndarray) -> np.ndarray:
    """Bessel-series amplitudes for runs of delays that each carry their own beta.

    The flat delays taus hold one run per mod_frequency betas[r], counts[r]
    long, in order; amplitude normalized so that depth = 0 gives exactly
    exp(-tau^2/T^2) + 0i.  Each run is cut into blocks of _TAU_BLOCK delays
    from its own start, and every block uses only the run of orders whose
    lobe centre m*beta lies within R = _LOBE_REACH * T of its [min tau, max
    tau]: every other term's exp(-s^2) underflows to exactly 0.0 and is
    skipped, not approximated.  At beta = 0 that keeps every order near
    tau = 0 and none far from it.  Consecutive blocks of up to _TAU_BLOCK
    delays in all share one exp(-s^2) evaluation, padded to their widest
    order run.  Each block's cells then meet its own run's twisted
    coefficients in one complex gemv: a lone block in a matmul of its own,
    consecutive blocks of a batch with equal rows and width in one matmul on
    their stack, for which NumPy makes the same gemv call per block.  So a
    run's values are bit for bit those it gets alone.  The pump twist
    exp(i m theta) is formed here only, from pump_phase's reduced thetas, one
    call for all runs, which refuses an M theta that is not finite.

    Flush: a cell with s^2 > _FLUSH, whose exp(-s^2) is subnormal, reads 0.0
    (exp(-inf)), so neither exp nor the matmul meets a subnormal.  The cells
    go straight into the real parts of one complex work buffer whose
    imaginary parts are 0, so no matmul casts its block.  A flushed term is
    below 2^-1022 with |J_m| <= 1, and a row holds at most 2,001, so the flush
    moves each amplitude component by under 2^-1011.  A nonzero rate needs a
    component of at least 2^-538, which absorbs that (a component under
    2^-900 beside it moves |A| by a relative 2^-724 at most), so every rate
    is bit for bit the unflushed comb's, barring an exact round-half tie in
    a partial sum.
    """
    T = characteristic_time(params)
    m, reach = trunc.max_order, _LOBE_REACH * T
    betas = np.asarray(betas, dtype=float)
    thetas = pump_phase(params, betas, m)
    # block k: delays start[k]:stop[k] of run[k], orders first[k] .. first[k] + width[k] - 1
    counts = np.asarray(counts, dtype=np.int64)
    ends, per_run = np.cumsum(counts), -(-counts // _TAU_BLOCK)
    run = np.repeat(np.arange(counts.size), per_run)
    start = ((ends - counts)[run]
             + _TAU_BLOCK * (np.arange(run.size) - (np.cumsum(per_run) - per_run)[run]))
    stop = np.minimum(start + _TAU_BLOCK, ends[run])
    b = betas[run]
    # clipped in float before int; the constant comes first (fmax, fmin) so
    # that a NaN bound (0 / 0 at beta = 0) keeps every order, and a bound
    # that divides by zero or overflows (a subnormal beta) is clipped
    with np.errstate(all="ignore"):
        first = np.ceil(np.fmin(m + 1, np.fmax(-m, (np.minimum.reduceat(taus, start)
                                                    - reach) / b))).astype(np.int64)
        last = np.floor(np.fmax(-m - 1, np.fmin(m, (np.maximum.reduceat(taus, start)
                                                    + reach) / b))).astype(np.int64)
    width = np.maximum(last - first + 1, 0)
    out = np.empty(taus.size, dtype=complex)
    # every batch's -s^2 goes into one float buffer, and its exp(-s^2) into the
    # real parts of one complex buffer whose imaginary parts stay 0
    size = min(taus.size, _TAU_BLOCK) * int(width.max(initial=0))
    s2, work = np.empty(size), np.zeros(size, dtype=complex)
    batches = list(_batches(stop - start, _TAU_BLOCK))
    # group n is blocks groups[n] .. groups[n + 1] - 1: consecutive blocks of a
    # batch with equal rows and width, which take one matmul on their stack
    groups = list(range(run.size + 1))  # one block a group
    if len(batches) < run.size:  # some batch holds several blocks
        length = stop - start
        join = np.zeros(run.size, dtype=bool)
        join[1:] = (length[1:] == length[:-1]) & (width[1:] == width[:-1])
        join[[i for i, _ in batches]] = False
        groups = np.append(np.flatnonzero(~join), run.size).tolist()
    n = 0
    for i, j in batches:
        # blocks i .. j - 1, up to _TAU_BLOCK delays in all, share one exp;
        # cells past a block's own orders are padding and never read; where
        # s * s overflows there (or far from every lobe), exp gives the exact 0.0
        lo, hi, r0 = start[i], stop[j - 1], run[i]
        rows, cols = hi - lo, int(width[i:j].max())
        g, cells = (x[:rows * cols].reshape(rows, cols) for x in (s2, work))
        coeff = trunc.coefficients * np.exp(1j * trunc.orders * thetas[r0:run[j - 1] + 1, None])
        with np.errstate(over="ignore"):
            centres = (first[i:j, None] + np.arange(cols)) * b[i:j, None]
            if j - i > 1:  # one block's row of centres broadcasts; several blocks' repeat
                centres = np.repeat(centres, stop[i:j] - start[i:j], axis=0)
            np.subtract(taus[lo:hi, None], centres, out=g)
            g /= T
            np.multiply(g, g, out=g)
        np.negative(g, out=g)  # -s * s
        # exp(-inf) writes the exact 0.0 where exp(-s * s) would be subnormal;
        # a batch with no such cell (or a NaN minimum) is not flushed
        if g.min(initial=0.0) < -_FLUSH:
            g[g < -_FLUSH] = -np.inf
        np.exp(g, out=cells.real)
        while groups[n] < j:
            k0, k1 = groups[n], groups[n + 1]
            n += 1
            s0, rows, w = int(start[k0]), int(stop[k0] - start[k0]), int(width[k0])
            if k1 == k0 + 1:
                a = int(first[k0]) + m
                np.matmul(cells[s0 - lo:s0 - lo + rows, :w], coeff[run[k0] - r0, a:a + w],
                          out=out[s0:s0 + rows])
                continue
            shape, span = (k1 - k0, rows), (k1 - k0) * rows
            stack = coeff[run[k0:k1, None] - r0, first[k0:k1, None] + np.arange(m, m + w)]
            np.matmul(cells[s0 - lo:s0 - lo + span, :w].reshape(*shape, w), stack[..., None],
                      out=out[s0:s0 + span].reshape(*shape, 1))
    return out


def comb_rates(params: PhysicalParams, trunc: SeriesTruncation, betas, counts,
               taus: np.ndarray) -> np.ndarray:
    """Normalized coincidence rates |A|^2 for amplitude_comb's runs of delays."""
    rates = np.abs(amplitude_comb(params, trunc, betas, counts, taus))
    return np.multiply(rates, rates, out=rates)  # x * x, not pow


def count_rate(params: PhysicalParams, filt: CosinePhaseFilter,
               trunc: SeriesTruncation, tau) -> float | np.ndarray:
    """comb_rates at delays tau (fs) as one run, scalar in, scalar out; at depth 0 it is
    exp(-2 tau^2/T^2), peaking at exactly 1.  A truncation of another depth is refused."""
    if trunc.depth != filt.depth:
        raise ParameterError(f"truncation is for depth {trunc.depth!r}, not {filt.depth!r}")
    taus = np.asarray(tau, dtype=float)
    rates = comb_rates(params, trunc, [filt.mod_frequency], [taus.size],
                       taus.ravel()).reshape(taus.shape)
    return float(rates) if rates.ndim == 0 else rates


def require_cells(what: str, delays: float, trunc: SeriesTruncation, remedy: str) -> None:
    """Refuse delays x the 2M + 1 orders over the cell cap; delays may be a float, even inf."""
    orders = 2 * trunc.max_order + 1
    cells = delays * orders
    if not cells <= _MAX_COMB_CELLS:
        raise ParameterError(
            f"{what} needs {delays:.12g} delays x {orders} series orders = {cells:.3g} cells, "
            f"over the cap of {_MAX_COMB_CELLS}; {remedy}")


def require_curve_cells(first: float, last: float, delays: int, trunc: SeriesTruncation) -> None:
    """Refuse a series curve over delays from first to last fs above the cell cap."""
    require_cells(f"the curve over {first:g} .. {last:g} fs", delays, trunc, "use fewer points")


def window_halfcount(what: str, half: float, step: float, trunc: SeriesTruncation,
                     remedy: str) -> int:
    """The n of the symmetric grid k*step, |k| <= n = ceil(half/step), once require_cells
    passes its 2n + 1 delays; n stays a float until then, so an inf is refused, not converted."""
    n = np.ceil(half / step)
    require_cells(f"{what} over +-{half:g} fs in {step:g} fs steps", 2.0 * n + 1.0, trunc, remedy)
    return int(n)


@dataclass
class CorrelationCurve:
    """Sampled coincidence-rate curve over a tau grid (fs)."""

    tau_grid: np.ndarray
    rates: np.ndarray
    params: PhysicalParams

    def __post_init__(self) -> None:
        self.tau_grid = np.asarray(self.tau_grid, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.tau_grid.ndim != 1 or self.tau_grid.size == 0:
            raise ParameterError("tau_grid must be a non-empty 1-d array")
        if self.rates.shape != self.tau_grid.shape:
            raise ParameterError("rates and tau_grid must have the same length")
        if not np.all(np.isfinite(self.tau_grid)):
            raise ParameterError("tau_grid must be finite")
        if np.any(np.diff(self.tau_grid) <= 0):
            raise ParameterError("tau_grid must be strictly increasing")
        if np.any(self.rates < 0):
            raise ParameterError("rates must be non-negative")


def sample_curve(params: PhysicalParams, filt: CosinePhaseFilter, tau_grid,
                 method: str = "series", trunc_tol: float = TRUNC_TOL,
                 settings=None) -> CorrelationCurve:
    """Evaluate the rate over tau_grid by the series or by direct quadrature.

    The series is cut at trunc_tol (truncation_for), the quadrature follows settings.
    Both methods share the depth-0 peak-1 normalization, so their curves are
    directly comparable.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if method not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if tau_grid.ndim != 1 or tau_grid.size == 0:
        raise ParameterError("tau_grid must be a non-empty 1-d array")
    if method == "series":
        trunc = truncation_for(filt, trunc_tol)
        require_curve_cells(tau_grid[0], tau_grid[-1], tau_grid.size, trunc)
        rates = count_rate(params, filt, trunc, tau_grid)
    else:
        from .quadrature import rate_grid  # deferred: quadrature imports this module

        rates = rate_grid(params, filt, tau_grid, settings)
    return CorrelationCurve(tau_grid=tau_grid, rates=np.asarray(rates), params=params)
