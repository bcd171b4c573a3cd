import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import series_bessel_j
from pdcshape import (
    CorrelationCurve,
    CosinePhaseFilter,
    ParameterError,
    PhysicalParams,
    SeriesTruncation,
    amplitude_series,
    characteristic_time,
    count_rate,
    pump_angular_frequency,
    sample_curve,
    truncation_for,
)
from pdcshape.quadrature import VALIDATION_DEPTHS

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

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ParameterError):
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
        assert amplitude_series(params, no_filter, trunc, 0.0) == 1.0 + 0.0j
        T = characteristic_time(params)
        taus = np.linspace(-600, 600, 41)
        amps = amplitude_series(params, no_filter, trunc, taus)
        assert np.array_equal(amps.imag, np.zeros(41))
        assert np.array_equal(amps.real, np.exp(-(taus / T) ** 2))

    def test_closure_at_zero_mod_frequency(self, params):
        # sum_m i^m J_m(2) = e^{2i}
        filt = CosinePhaseFilter(2.0, 0.0)
        a = amplitude_series(params, filt, truncation_for(filt), 0.0)
        assert a == pytest.approx(complex(np.cos(2.0), np.sin(2.0)), abs=1e-9)

    def test_isolated_lobe_magnitude(self, params):
        # at beta >> T the m = 1 term stands alone, so |A(beta)| ~ J_1(2)
        filt = CosinePhaseFilter(2.0, 1000.0)
        a = amplitude_series(params, filt, truncation_for(filt), 1000.0)
        assert abs(a) == pytest.approx(0.576725, abs=1e-3)


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
    def test_rate_nonnegative_and_bounded(self, params, depth, beta, tau):
        filt = CosinePhaseFilter(depth, beta)
        trunc = truncation_for(filt)
        rate = count_rate(params, filt, trunc, tau)
        assert 0.0 <= rate <= np.sum(np.abs(trunc.coefficients)) ** 2 + 1e-12

    @given(depth=depths, beta=st.floats(min_value=0.0, max_value=300.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_truncation_stability(self, params, depth, beta):
        filt = CosinePhaseFilter(depth, beta)
        trunc = truncation_for(filt)
        doubled = SeriesTruncation(filt.depth, 2 * trunc.max_order)
        taus = np.linspace(-800, 800, 81)
        r1 = count_rate(params, filt, trunc, taus)
        r2 = count_rate(params, filt, doubled, taus)
        assert np.max(np.abs(r1 - r2)) <= 1e-10

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

    def test_unsorted_grid_rejected(self, params, no_filter):
        with pytest.raises(ParameterError):
            sample_curve(params, no_filter, np.array([0.0, -1.0, 1.0]))

    def test_unknown_method_rejected(self, params, no_filter):
        with pytest.raises(ParameterError):
            sample_curve(params, no_filter, np.array([0.0, 1.0]), method="fft")


class TestCorrelationCurve:
    def test_mismatched_lengths_rejected(self, params, no_filter):
        with pytest.raises(ParameterError):
            CorrelationCurve(np.array([0.0, 1.0]), np.array([1.0]), "series",
                             params, no_filter)

    def test_negative_rates_rejected(self, params, no_filter):
        with pytest.raises(ParameterError):
            CorrelationCurve(np.array([0.0, 1.0]), np.array([1.0, -0.1]), "series",
                             params, no_filter)
