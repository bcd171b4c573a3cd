import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

from oracles import dense_comb, series_bessel_j, two_stage_cutoff
from pdcshape import (
    CorrelationCurve,
    CosinePhaseFilter,
    ParameterError,
    PhysicalParams,
    SeriesTruncation,
    bessel_j_table,
    characteristic_time,
    count_rate,
    pump_angular_frequency,
    sample_curve,
    truncation_for,
)
from pdcshape import model
from pdcshape.model import (
    _FLUSH,
    _TAU_BLOCK,
    amplitude_comb,
    comb_rates,
    pump_phase,
    series_halfwidth,
)
from pdcshape.quadrature import VALIDATION_DEPTHS



def one_run(params, filt, trunc, tau):
    """amplitude_comb over the delays tau as one run at filt's beta, in tau's shape."""
    taus = np.asarray(tau, dtype=float)
    return amplitude_comb(params, trunc, [filt.mod_frequency], [taus.size],
                          taus.ravel()).reshape(taus.shape)


depths = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
mod_freqs = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


class TestPhysicalParams:
    def test_defaults_are_valid(self, params):
        assert params.pump_wavelength == 350.0

    @pytest.mark.parametrize("kwargs", [
        dict(pump_wavelength=-350.0),
        dict(pump_wavelength=float("nan")),
        dict(group_velocity=0.0),
        dict(group_velocity=4e8),     # faster than light
        dict(beam_param=0.0),
        dict(emission_angle=0.0),
        dict(emission_angle=90.0),
        dict(beam_param=1e300),       # T overflows to inf
        dict(beam_param=1e-310),      # T is subnormal
        dict(pump_wavelength=1e308),  # omega0 underflows to 0
    ])
    def test_invalid_values_rejected(self, kwargs):
        base = dict(pump_wavelength=350.0, group_velocity=2e8,
                    beam_param=100.0, emission_angle=15.0)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            PhysicalParams(**base)


class TestFilter:
    def test_negative_depth_rejected(self):
        with pytest.raises(ParameterError):
            CosinePhaseFilter(-1.0, 50.0)

    def test_negative_mod_frequency_rejected(self):
        with pytest.raises(ParameterError):
            CosinePhaseFilter(1.0, -50.0)


class TestCharacteristicTime:
    def test_reference_value(self, params):
        assert characteristic_time(params) == pytest.approx(258.819, abs=1e-3)

    def test_linear_in_beam_param(self, params):
        doubled = PhysicalParams(params.pump_wavelength, params.group_velocity,
                                 2 * params.beam_param, params.emission_angle)
        assert characteristic_time(doubled) == 2 * characteristic_time(params)

    def test_right_angle_emission(self, params):
        square = PhysicalParams(params.pump_wavelength, params.group_velocity,
                                params.beam_param, 89.9999999)
        assert characteristic_time(square) == pytest.approx(1000.0, abs=1e-2)


class TestPumpFrequency:
    def test_reference_value(self, params):
        assert pump_angular_frequency(params) == pytest.approx(5.385587, abs=1e-6)
        assert pump_angular_frequency(params) / 2 == pytest.approx(2.692794, abs=1e-6)

    def test_inverse_in_wavelength(self, params):
        doubled = PhysicalParams(700.0, params.group_velocity, params.beam_param,
                                 params.emission_angle)
        assert pump_angular_frequency(doubled) == pytest.approx(
            pump_angular_frequency(params) / 2, rel=1e-15)


class TestPumpPhase:
    """pump_phase over an array is math.remainder(0.5 beta omega0, 2 pi), bit for bit."""

    @staticmethod
    def assert_is_remainder(params, betas):
        omega0 = pump_angular_frequency(params)
        want = [math.remainder(0.5 * b * omega0, 2.0 * math.pi) for b in betas.tolist()]
        got = pump_phase(params, betas)
        assert got.shape == betas.shape
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))  # -0.0 too

    def test_random_betas(self, params):
        rng = np.random.default_rng(11)
        betas = np.concatenate([rng.uniform(0.0, 2000.0, 5000),
                                10.0 ** rng.uniform(-320.0, 300.0, 5000),
                                -(10.0 ** rng.uniform(-320.0, 300.0, 500)),
                                [0.0, -0.0, 5e-324, 1e300]])
        self.assert_is_remainder(params, betas)

    def test_multiples_of_pi_and_ties(self, params):
        # omega0 = 2 exactly, so theta = beta: k pi and 2^j pi are multiples of
        # pi and 2 pi (theta 0.0 or -0.0), and the odd ones with k < 8 are exact,
        # so they reduce to the tie r = pi, which rounds to the even multiple
        pump = PhysicalParams(1000.0, params.group_velocity, params.beam_param,
                              params.emission_angle, light_speed=1e9 / math.pi)
        assert pump_angular_frequency(pump) == 2.0
        pis = [k * math.pi for k in range(-15, 16)] + [2.0**j * math.pi for j in range(1, 60, 7)]
        betas = np.array(pis + [-b for b in pis[-9:]])
        ties = np.fmod(np.abs(betas), 2.0 * math.pi) == math.pi
        assert np.count_nonzero(ties) >= 8
        self.assert_is_remainder(pump, betas)
        for beta in (3.0 * math.pi, -5.0 * math.pi, -0.0):  # a float in, a float out
            assert math.copysign(1.0, pump_phase(pump, beta)) == math.copysign(
                1.0, math.remainder(beta, 2.0 * math.pi))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("betas,max_order,beta", [
        ([1.0, 1.5, 2.0, 1e10, 3.0], 31, "2"),  # 31 theta overflows from beta ~ 1.85 fs
        ([10.0, 1e308, 60.0], 1, "1e+308"),  # theta itself overflows
        ([1e10], 31, "1e+10"),
        (5.0, 31, "5"),
    ])
    def test_first_overflowing_twist_refused(self, params, betas, max_order, beta):
        # omega0 = 2 pi 1e306 rad/fs at 1e-12 nm and a light speed of 1e300 m/s
        pump = PhysicalParams(1e-12, params.group_velocity, params.beam_param,
                              params.emission_angle, light_speed=1e300)
        with pytest.raises(ParameterError) as err:
            pump_phase(pump, np.array(betas) if isinstance(betas, list) else betas, max_order)
        assert str(err.value) == (
            f"the pump twist M*beta*omega0/2 at M = {max_order}, beta = {beta} fs, omega0 = "
            f"{pump_angular_frequency(pump):g} rad/fs is not finite; lower beta or the pump "
            "frequency")


class TestTruncation:
    def test_zero_depth_keeps_only_center(self):
        assert truncation_for(CosinePhaseFilter(0.0, 0.0)).max_order == 0

    def test_depth_two_cutoff_in_expected_band(self):
        assert 10 <= truncation_for(CosinePhaseFilter(2.0, 50.0)).max_order <= 20

    def test_cutoff_grows_with_depth(self):
        m2 = truncation_for(CosinePhaseFilter(2.0, 0.0)).max_order
        m10 = truncation_for(CosinePhaseFilter(10.0, 0.0)).max_order
        assert m10 > m2

    @pytest.mark.parametrize("depth,order", zip(VALIDATION_DEPTHS, (0, 12, 15, 22, 31)))
    def test_validation_depth_orders_are_pinned(self, depth, order):
        assert truncation_for(CosinePhaseFilter(depth, 0.0)).max_order == order

    def test_one_truncation_per_depth_and_tol(self):
        trunc = truncation_for(CosinePhaseFilter(2.0, 50.0))
        assert truncation_for(CosinePhaseFilter(2.0, 300.0)) is trunc
        assert truncation_for(CosinePhaseFilter(2.0, 300.0), 1e-9) is not trunc

    def test_shared_arrays_are_read_only(self):
        trunc = truncation_for(CosinePhaseFilter(2.0, 50.0))
        for array in (trunc.coefficients, trunc.orders):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.fixture
    def shared_tables(self, monkeypatch, cold_truncations):
        # each depth's table is computed once, at the largest order asked, and
        # sliced for every later ask, so both rules read the same values
        tables = {}

        def table(x, max_order):
            if x not in tables or tables[x].size <= max_order:
                tables[x] = bessel_j_table(x, max_order)
            return tables[x][:max_order + 1].copy()

        monkeypatch.setattr("pdcshape.model.bessel_j_table", table)
        monkeypatch.setattr("oracles.bessel_j_table", table)
        return table

    def test_tail_rule_matches_two_stage_cutoff(self, shared_tables):
        # both rules read the same |J| table
        depths = np.append(np.arange(1201) * 0.05, [100.0, 200.0, 400.0, 460.0])
        for tol in (1e-12, 1e-6):
            for depth in depths:
                filt = CosinePhaseFilter(float(depth), 0.0)
                assert (truncation_for(filt, tol).max_order
                        == two_stage_cutoff(filt, tol)), (depth, tol)

    def test_cutoff_near_the_order_limit(self, shared_tables):
        # The dropped tail is read against a 1,000-order table and the orders
        # past it.  Counting only up to a depth + 80 table left out more than
        # tol/2 at 452.3 (the first 0.1 step whose M moves), 650, 700 and 710,
        # and refused 750 to 911.9; 911.9 is the last 0.1 step whose tail a
        # 1,000-order table can hold.
        depths = np.append(np.linspace(400.0, 900.0, 11), [452.3, 710.0, 911.9])
        for depth in depths:
            m = truncation_for(CosinePhaseFilter(float(depth), 0.0)).max_order
            j = np.abs(shared_tables(float(depth), 1000))
            past = np.abs(jv(np.arange(1001, 1101), depth))
            assert 2.0 * (np.sum(j[m + 1:]) + np.sum(past)) <= 0.5e-12, depth
        with pytest.raises(ParameterError, match="too large for series truncation"):
            truncation_for(CosinePhaseFilter(912.0, 0.0))

    def test_depth_past_the_order_limit_refused_before_any_table(self, monkeypatch):
        def table(x, max_order):
            raise AssertionError(f"table built at depth {x}")

        monkeypatch.setattr("pdcshape.model.bessel_j_table", table)
        for depth in (1000.5, 1e7, 1e300):
            with pytest.raises(ParameterError, match="too large for series truncation"):
                truncation_for(CosinePhaseFilter(depth, 0.0))

    def test_negative_max_order_refused(self):
        with pytest.raises(ParameterError, match="max_order must be >= 0"):
            SeriesTruncation(2.0, -1, bessel_j_table(2.0, 0))

    def test_bad_tolerance_rejected(self):
        for _ in range(2):  # a refusal is not memoised: every call raises
            with pytest.raises(ParameterError, match="tol must be in"):
                truncation_for(CosinePhaseFilter(2.0, 0.0), tol=0.1)

    @given(depth=st.floats(min_value=0.0, max_value=12.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_dropped_tail_mass_below_tolerance(self, depth):
        trunc = truncation_for(CosinePhaseFilter(depth, 0.0))
        m = trunc.max_order
        tail = 2.0 * sum(abs(series_bessel_j(k, depth)) for k in range(m + 1, m + 40))
        assert tail < 1e-12


class TestAmplitude:
    def test_no_filter_is_exact_gaussian(self, params, no_filter):
        trunc = truncation_for(no_filter)
        assert one_run(params, no_filter, trunc, 0.0) == 1.0 + 0.0j
        T = characteristic_time(params)
        taus = np.linspace(-600, 600, 41)
        amps = one_run(params, no_filter, trunc, taus)
        assert np.array_equal(amps.imag, np.zeros(41))
        assert np.array_equal(amps.real, np.exp(-(taus / T) ** 2))

    def test_closure_at_zero_mod_frequency(self, params):
        # sum_m i^m J_m(2) = e^{2i}
        filt = CosinePhaseFilter(2.0, 0.0)
        a = one_run(params, filt, truncation_for(filt), 0.0)
        assert a == pytest.approx(complex(np.cos(2.0), np.sin(2.0)), abs=1e-9)

    def test_isolated_lobe_magnitude(self, params):
        # at beta >> T the m = 1 term stands alone, so |A(beta)| ~ J_1(2)
        filt = CosinePhaseFilter(2.0, 1000.0)
        a = one_run(params, filt, truncation_for(filt), 1000.0)
        assert abs(a) == pytest.approx(0.576725, abs=1e-3)


class TestBlockedComb:
    """amplitude_comb, in blocks and pruned, against the one-matrix comb."""

    @pytest.mark.parametrize("depth,beta,tau", [
        (2.0, 50.0, 123.0),                                      # scalar
        (2.0, 50.0, np.array(-40.0)),                            # 0-d
        (2.0, 50.0, np.linspace(-900, 900, 3 * 700).reshape(3, 700)),
        (2.0, 50.0, np.random.default_rng(5).permutation(np.linspace(-900, 900, 2500))),
        (2.0, 50.0, np.array([7.0])),
        (2.0, 50.0, np.linspace(-900, 900, _TAU_BLOCK - 1)),
        (2.0, 50.0, np.linspace(-900, 900, _TAU_BLOCK)),
        (2.0, 50.0, np.linspace(-900, 900, _TAU_BLOCK + 1)),
        (2.0, 50.0, np.linspace(-900, 900, 3 * _TAU_BLOCK + 17)),
        (0.0, 50.0, np.linspace(-900, 900, 1500)),
        (5.0, 0.0, np.linspace(-900, 900, 1500)),
        (10.0, 1000.0, np.linspace(-3500, 3500, 14001)),        # pruning bites
        (10.0, 1000.0, np.random.default_rng(6).uniform(-40000, 40000, 3000)),
        (10.0, 1000.0, np.array([-2e4, np.nan, 3e4, np.inf, -np.inf])),
    ])
    def test_matches_dense_comb(self, params, depth, beta, tau):
        filt = CosinePhaseFilter(depth, beta)
        trunc = truncation_for(filt)
        got = one_run(params, filt, trunc, tau)
        want = dense_comb(params, filt, trunc, tau)
        assert np.shape(got) == np.shape(tau)
        # atol: the flush moves an amplitude component by under 2^-1011
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=2.0**-1011)
        rate = count_rate(params, filt, trunc, tau)  # scalar in, scalar out
        assert isinstance(rate, float) if np.ndim(tau) == 0 else np.shape(rate) == np.shape(tau)

    @pytest.mark.parametrize("offset", [-1.0, 1.0])
    def test_block_far_from_every_lobe_is_exactly_zero(self, params, offset):
        # depth 10 has lobes out to 31 beta = 31,000 fs; every order is over
        # 28 T ~ 7,250 fs from these blocks, so none is evaluated
        filt = CosinePhaseFilter(10.0, 1000.0)
        taus = offset * np.linspace(40_000.0, 60_000.0, 2 * _TAU_BLOCK + 3)
        got = one_run(params, filt, truncation_for(filt), taus)
        assert got.shape == taus.shape
        assert np.array_equal(got, np.zeros(taus.size, dtype=complex))

    @pytest.mark.parametrize("beta", [0.0, 1.1125369292536007e-308])
    def test_zero_beta_far_from_the_lobe_is_exactly_zero(self, params, beta):
        # every lobe sits at m * beta ~ 0; these blocks lie over 28 T from it,
        # so no order is evaluated (the bound divides by zero, or overflows)
        filt = CosinePhaseFilter(10.0, beta)
        taus = np.concatenate([np.linspace(-60_000.0, -40_000.0, _TAU_BLOCK),
                               np.linspace(40_000.0, 60_000.0, _TAU_BLOCK)])
        got = one_run(params, filt, truncation_for(filt), taus)
        assert np.array_equal(got, np.zeros(taus.size, dtype=complex))

    def test_runs_get_their_own_values(self, params):
        # runs of several betas share exp evaluations; each must still read
        # bit for bit what it gets as a run alone: short runs that
        # share a block's worth of delays, empty runs, pruned runs with
        # different order windows, and runs of several blocks
        trunc = truncation_for(CosinePhaseFilter(10.0, 0.0))
        rng = np.random.default_rng(7)
        betas = [0.0, 50.0, 300.0, 300.5, 1000.0, 713.0, 999.0, 50.0]
        runs = [rng.uniform(-3000, 3000, size) for size in
                (9, 1, 0, 130, 9, 2 * _TAU_BLOCK + 5, 0, 700)]
        got = amplitude_comb(params, trunc, betas, [r.size for r in runs], np.concatenate(runs))
        want = [one_run(params, CosinePhaseFilter(10.0, b), trunc, r)
                for b, r in zip(betas, runs)]
        assert np.array_equal(got, np.concatenate(want))

    def test_stacked_blocks_read_their_own_values(self, params, monkeypatch):
        # consecutive blocks of a batch with equal rows and width take one stacked
        # matmul: 9-delay runs of equal width (every order is within reach), a
        # width change (beta 700), a 1-delay and an empty run, and a run of
        # several blocks whose last block shares a batch with 9-delay runs
        trunc = truncation_for(CosinePhaseFilter(10.0, 0.0))
        rng = np.random.default_rng(9)
        betas = [50.0, 51.0, 52.0, 53.0, 700.0, 54.0, 55.0, 56.0, 0.0, 57.0, 300.0,
                 58.0, 59.0, 60.0]
        sizes = [9, 9, 9, 9, 9, 9, 1, 0, 9, 9, 2 * _TAU_BLOCK + 5, 9, 9, 9]
        runs = [rng.uniform(-300.0, 300.0, n) for n in sizes]
        matmul, stacked = np.matmul, []

        def spying(a, b, **kwargs):
            stacked.append(np.ndim(a) == 3)
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spying)
        got = amplitude_comb(params, trunc, betas, sizes, np.concatenate(runs))
        assert stacked.count(True) >= 2  # both batches of 9-delay runs are stacked
        want = [one_run(params, CosinePhaseFilter(10.0, b), trunc, r)
                for b, r in zip(betas, runs)]
        assert np.array_equal(got, np.concatenate(want))

    @staticmethod
    def subnormal_delays(params):
        # s in [26.65, 27.29] on both sides: every exp(-s^2) is subnormal, every
        # amplitude at beta = 0 is subnormal or 0.0, and every cell is flushed
        s = np.linspace(26.65, 27.29, 300)
        return characteristic_time(params) * np.concatenate([-s[::-1], s])

    def test_flushed_run_shares_a_batch(self, params):
        # a subnormal run, every cell of it flushed, shares one exp with two
        # normal runs; each still reads its lone values
        trunc = truncation_for(CosinePhaseFilter(10.0, 0.0))
        rng = np.random.default_rng(8)
        betas = [300.0, 0.0, 713.0]
        runs = [rng.uniform(-3000, 3000, 150), self.subnormal_delays(params),
                rng.uniform(-3000, 3000, 200)]
        assert sum(r.size for r in runs) <= _TAU_BLOCK  # one batch
        got = amplitude_comb(params, trunc, betas, [r.size for r in runs], np.concatenate(runs))
        want = [one_run(params, CosinePhaseFilter(10.0, b), trunc, r)
                for b, r in zip(betas, runs)]
        assert np.array_equal(got, np.concatenate(want))

    @pytest.mark.parametrize("case", ["subnormal-2", "subnormal-10", "shared-batch", "tau12",
                                      "neighbour-lobe"])
    def test_flush_moves_no_rate(self, params, monkeypatch, case):
        # the reference is the same comb with the flush off: every rate is bit
        # for bit its own, amplitude components of at least 2^-900 are too, and
        # every component is within 2^-1011 of it
        depth, betas, runs = 10.0, [0.0], [self.subnormal_delays(params)]
        if case == "subnormal-2":
            depth = 2.0
        elif case == "shared-batch":
            rng = np.random.default_rng(8)
            betas = [300.0, 0.0, 713.0]
            runs = [rng.uniform(-3000, 3000, 150), runs[0], rng.uniform(-3000, 3000, 200)]
        elif case == "tau12":  # test_matches_dense_comb's draw
            betas, runs = [1000.0], [np.random.default_rng(6).uniform(-40000, 40000, 3000)]
        elif case == "neighbour-lobe":  # every rate nonzero; rows reach a flushed lobe
            beta = 27.0 * characteristic_time(params)
            depth, betas, runs = 2.0, [beta], [np.linspace(-3.5 * beta, 3.5 * beta, 4001)]
        trunc = truncation_for(CosinePhaseFilter(depth, 0.0))
        args = (params, trunc, betas, [r.size for r in runs], np.concatenate(runs))
        got, got_rates = amplitude_comb(*args), comb_rates(*args)
        monkeypatch.setattr(model, "_FLUSH", np.inf)
        want, want_rates = amplitude_comb(*args), comb_rates(*args)
        assert np.array_equal(got_rates, want_rates)
        got, want = got.view(float), want.view(float)
        large = np.abs(want) >= 2.0**-900
        assert np.array_equal(got[large], want[large])
        assert np.all(np.abs(got - want) <= 2.0**-1011)

    def test_numpy_exp_at_the_flush_threshold(self):
        # the flush marks exactly the cells whose exp(-s^2) is subnormal and
        # writes exp(-inf); past s^2 = 746 exp already gives the exact 0.0
        tiny = np.finfo(float).tiny
        x = np.full(64, _FLUSH)
        assert np.all(np.exp(-x) >= tiny)
        assert np.all(np.exp(-np.nextafter(x, np.inf)) < tiny)
        assert np.all(np.exp(np.full(64, -746.0)) == 0.0)
        assert np.all(np.exp(np.full(64, -np.inf)) == 0.0)

    def test_memory_is_bounded(self, params):
        # a dense comb over these 100,000 delays x 63 orders traces ~203 MB
        filt = CosinePhaseFilter(10.0, 713.0)
        trunc = truncation_for(filt)
        half = series_halfwidth(params, trunc, filt.mod_frequency)
        taus = np.linspace(-half, half, 100_000)
        tracemalloc.start()
        try:
            count_rate(params, filt, trunc, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestCountRate:
    def test_peak_normalization(self, params, no_filter):
        assert count_rate(params, no_filter, truncation_for(no_filter), 0.0) == 1.0

    def test_envelope_at_one_width(self, params, no_filter):
        T = characteristic_time(params)
        rate = count_rate(params, no_filter, truncation_for(no_filter), T)
        assert rate == pytest.approx(np.exp(-2.0), abs=1e-9)

    @given(depth=depths, tau=st.floats(min_value=-2000, max_value=2000, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_zero_mod_frequency_filter_is_inert(self, params, depth, tau):
        filt = CosinePhaseFilter(depth, 0.0)
        with_filter = count_rate(params, filt, truncation_for(filt), tau)
        T = characteristic_time(params)
        assert abs(with_filter - np.exp(-2.0 * tau**2 / T**2)) <= 1e-12

    @given(depth=depths, beta=mod_freqs,
           tau=st.floats(min_value=-3000, max_value=3000, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    # a subnormal beta overflows the comb's order bounds (tau - R) / beta
    @example(depth=0.0, beta=1.1125369292536007e-308, tau=0.0)
    def test_rate_nonnegative_and_bounded(self, params, depth, beta, tau):
        filt = CosinePhaseFilter(depth, beta)
        trunc = truncation_for(filt)
        rate = count_rate(params, filt, trunc, tau)
        # |A| <= 1: a Gaussian-weighted average of unit phases, plus the cutoff's
        # dropped tail (under 5e-13)
        assert 0.0 <= rate <= 1.0 + 1e-11

    @given(depth=depths, beta=st.floats(min_value=0.0, max_value=300.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_truncation_stability(self, params, depth, beta):
        filt = CosinePhaseFilter(depth, beta)
        trunc = truncation_for(filt)
        doubled = SeriesTruncation(filt.depth, 2 * trunc.max_order,
                                   bessel_j_table(filt.depth, 2 * trunc.max_order))
        taus = np.linspace(-800, 800, 81)
        r1 = count_rate(params, filt, trunc, taus)
        r2 = count_rate(params, filt, doubled, taus)
        assert np.max(np.abs(r1 - r2)) <= 1e-10

    def test_lone_delay_squared_as_in_an_array(self, params, no_filter):
        # a 0-d |A| is squared as x * x too, not by pow, which can differ in the last bit
        trunc = truncation_for(no_filter)
        taus = np.random.default_rng(2).uniform(-1000.0, 1000.0, 1000)
        assert ([count_rate(params, no_filter, trunc, float(t)) for t in taus]
                == [count_rate(params, no_filter, trunc, np.array([t]))[0] for t in taus])

    def test_truncation_of_another_depth_refused(self, params):
        # the truncation carries its depth's coefficients, so using it for
        # another depth would silently give a wrong amplitude
        trunc = truncation_for(CosinePhaseFilter(2.0, 0.0))
        with pytest.raises(ParameterError, match="truncation is for depth 2.0, not 5.0"):
            count_rate(params, CosinePhaseFilter(5.0, 50.0), trunc, 0.0)


class TestReflectionPairing:
    @given(depth=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
           beta=st.floats(min_value=0.0, max_value=400.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_conjugated_twist_mirrors_curve(self, params, depth, beta):
        # flipping the sign of the e^{i m beta omega0/2} exponent must reflect
        # the rate about tau = 0
        filt = CosinePhaseFilter(depth, beta)
        trunc = truncation_for(filt)
        omega0 = pump_angular_frequency(params)
        orders = trunc.orders
        conj_twist = trunc.coefficients * np.exp(-1j * orders * (0.5 * beta * omega0))
        T = characteristic_time(params)
        taus = np.linspace(-900, 900, 121)
        env = np.exp(-(((taus[:, None]) - orders * beta) / T) ** 2)
        mirrored = np.abs(env @ conj_twist) ** 2
        direct = count_rate(params, filt, trunc, -taus)
        assert np.max(np.abs(mirrored - direct)) <= 1e-12


class TestSampleCurve:
    def test_no_filter_closed_form_on_three_points(self, params, no_filter):
        T = characteristic_time(params)
        curve = sample_curve(params, no_filter, np.array([-T, 0.0, T]))
        assert curve.rates == pytest.approx([np.exp(-2), 1.0, np.exp(-2)], abs=1e-12)

    def test_standard_filter_peaks_at_negative_delay(self, params, standard_filter):
        curve = sample_curve(params, standard_filter, np.linspace(-600, 600, 2401))
        assert curve.tau_grid[np.argmax(curve.rates)] < 0

    def test_methods_agree_on_small_grid(self, params, standard_filter):
        grid = np.linspace(-300, 300, 41)
        series = sample_curve(params, standard_filter, grid, method="series")
        quad = sample_curve(params, standard_filter, grid, method="quadrature")
        assert np.max(np.abs(series.rates - quad.rates)) <= 1e-8

    def test_empty_grid_rejected(self, params, no_filter):
        with pytest.raises(ParameterError):
            sample_curve(params, no_filter, np.array([]))

    @pytest.mark.parametrize("method", ["series", "quadrature"])
    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, params, standard_filter, method, delay):
        with pytest.raises(ParameterError, match="tau_grid must be finite"):
            sample_curve(params, standard_filter, np.array([0.0, delay]), method=method)

    def test_unsorted_grid_rejected(self, params, no_filter):
        with pytest.raises(ParameterError):
            sample_curve(params, no_filter, np.array([0.0, -1.0, 1.0]))

    def test_unknown_method_rejected(self, params, no_filter):
        with pytest.raises(ParameterError):
            sample_curve(params, no_filter, np.array([0.0, 1.0]), method="fft")


class TestCorrelationCurve:
    def test_mismatched_lengths_rejected(self, params):
        with pytest.raises(ParameterError):
            CorrelationCurve(np.array([0.0, 1.0]), np.array([1.0]), params)

    def test_negative_rates_rejected(self, params):
        with pytest.raises(ParameterError):
            CorrelationCurve(np.array([0.0, 1.0]), np.array([1.0, -0.1]), params)
