import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dense_trapezoid
from pdcshape import (
    ConvergenceError,
    CosinePhaseFilter,
    ParameterError,
    QuadratureSettings,
    amplitude_quadrature,
    compare_methods,
    comparison_grid,
    pump_angular_frequency,
    rate_grid,
    sample_curve,
    truncation_for,
)
from pdcshape import quadrature
from pdcshape.model import amplitude_comb
from pdcshape.quadrature import DEFAULT_SETTINGS, _amplitude_grid, _baseline_raw


class TestAmplitude:
    def test_baseline_anchor(self, params, no_filter):
        res = amplitude_quadrature(params, no_filter, 0.0)
        assert res.value == pytest.approx(1.0 + 0.0j, abs=1e-11)

    def test_gaussian_transform_closed_form(self, params, no_filter, T):
        res = amplitude_quadrature(params, no_filter, T)
        assert res.value == pytest.approx(np.exp(-1.0) + 0.0j, abs=1e-10)

    def test_matches_series_at_zero_delay(self, params, standard_filter):
        trunc = truncation_for(standard_filter)
        series = amplitude_comb(params, trunc, [standard_filter.mod_frequency], [1],
                                np.zeros(1))[0]
        quad = amplitude_quadrature(params, standard_filter, 0.0)
        assert abs(series - quad.value) <= 1e-9

    def test_error_estimate_reported(self, params, standard_filter):
        res = amplitude_quadrature(params, standard_filter, 50.0)
        assert 0.0 <= res.error_estimate < 1e-9
        assert res.points >= 64
        assert len(res.diff_history) >= 1


class TestCompareMethods:
    def test_no_filter_reduces_to_shared_closed_form(self, params):
        grid = np.linspace(-600.0, 600.0, 121)
        rep = compare_methods(params, CosinePhaseFilter(0.0, 300.0), grid)
        assert rep.max_abs_diff <= 1e-10

    def test_standard_filter(self, params, standard_filter):
        grid = np.linspace(-600.0, 600.0, 241)
        rep = compare_methods(params, standard_filter, grid)
        assert rep.max_abs_diff <= 1e-8
        assert -600.0 <= rep.tau_at_max <= 600.0

    def test_stress_high_order_wide_lobes(self, params):
        grid = np.linspace(-12000.0, 12000.0, 501)
        rep = compare_methods(params, CosinePhaseFilter(10.0, 1000.0), grid)
        assert rep.max_abs_diff <= 1e-8

    def test_comparison_grid_covers_lobes(self, params, T):
        filt = CosinePhaseFilter(2.0, 300.0)
        grid = comparison_grid(params, filt, spacing=10.0)
        m = truncation_for(filt).max_order
        assert grid[0] <= -(m * 300.0 + 5 * T) + 10.0
        assert np.all(np.diff(grid) == 10.0)
        assert 0.0 in grid


class TestFactorizedSum:
    @given(start=st.floats(min_value=-4e4, max_value=4e4),
           end=st.floats(min_value=-4e4, max_value=4e4),
           count=st.integers(min_value=1, max_value=8),
           depth=st.floats(min_value=0.0, max_value=10.0),
           mod_frequency=st.floats(min_value=0.0, max_value=1000.0),
           initial_points=st.sampled_from([64, 1024]))
    @example(start=0.0, end=0.0, count=1, depth=2.0, mod_frequency=50.0, initial_points=1024)
    @example(start=-4e4, end=-4e4, count=1, depth=10.0, mod_frequency=1000.0,
             initial_points=64)
    @example(start=4e4, end=-4e4, count=5, depth=0.0, mod_frequency=0.0, initial_points=64)
    # two delays 8e4 fs apart against ~2e4 nodes: chirp phases alpha d^2 / 2 of ~1e8 rad
    @example(start=-4e4, end=4e4, count=2, depth=10.0, mod_frequency=1000.0,
             initial_points=1024)
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_sum(self, params, T, start, end, count, depth, mod_frequency,
                               initial_points):
        # any uniform delay grid: either sign of spacing, single points and tau = 0
        spacing = (end - start) / (count - 1) if count > 1 else 0.0
        taus = start + spacing * np.arange(count)
        filt = CosinePhaseFilter(depth, mod_frequency)
        quad = QuadratureSettings(initial_points=initial_points)
        values, _, n, _ = _amplitude_grid(params, filt, taus, quad)
        dense = dense_trapezoid(params, filt, taus, n, quad)
        scale_floor = 2.0 * math.sqrt(math.pi) / T
        assert np.max(np.abs(values - dense)) <= 1e-13 * scale_floor

    def test_pieces_match_dense_sum(self, params, T, monkeypatch):
        # pieces of max(m, _MIN_PIECE) delays: 65 nodes here give four full
        # pieces and a short last one
        monkeypatch.setattr(quadrature, "_MIN_PIECE", 16)
        filt = CosinePhaseFilter(2.0, 50.0)
        quad = QuadratureSettings(initial_points=64)
        taus = np.linspace(-100.0, 100.0, 300)
        values, _, n, _ = _amplitude_grid(params, filt, taus, quad)
        assert n == 128
        dense = dense_trapezoid(params, filt, taus, n, quad)
        assert np.max(np.abs(values - dense)) <= 1e-13 * 2.0 * math.sqrt(math.pi) / T

    def test_memory_does_not_grow_with_the_delay_count(self, params, standard_filter):
        taus = np.linspace(-3500.0, 3500.0, 200_001)
        tracemalloc.start()
        try:
            rate_grid(params, standard_filter, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # at most four delay-length complex arrays (64 B a delay) are live at
        # once; the FFT work adds O(Q + m), about 1 MB at these 1,035 nodes,
        # where transforms over all 200,001 delays would add ~3.3 MB each
        assert peak < 64 * taus.size + 4_000_000


class TestUniformGrid:
    @pytest.mark.parametrize("taus", [[0.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0],
                                      [-600.0, -599.5, 600.0]])
    def test_non_uniform_grid_refused(self, params, standard_filter, taus):
        with pytest.raises(ParameterError, match="uniform delay grid"):
            rate_grid(params, standard_filter, taus)
        with pytest.raises(ParameterError, match="uniform delay grid"):
            sample_curve(params, standard_filter, taus, method="quadrature")


class TestConvergence:
    def test_refinement_differences_decrease(self, params):
        # start deliberately coarse so several doublings are needed
        filt = CosinePhaseFilter(10.0, 300.0)
        res = amplitude_quadrature(params, filt, 0.0,
                                   settings=QuadratureSettings(initial_points=64))
        assert len(res.diff_history) >= 2
        diffs = np.array(res.diff_history)
        assert np.all(np.diff(diffs) < 0)
        assert diffs[-1] < 1e-11

    def test_budget_below_resolution_guard(self, params, standard_filter):
        settings = QuadratureSettings(initial_points=64, max_points=1024)
        with pytest.raises(ConvergenceError):
            amplitude_quadrature(params, standard_filter, 1e6, settings=settings)

    def test_budget_exhausted_mid_refinement(self, params):
        # resolvable only at ~1184 intervals, but the budget stops at 600
        settings = QuadratureSettings(initial_points=64, max_points=600)
        with pytest.raises(ConvergenceError, match="last estimates"):
            amplitude_quadrature(params, CosinePhaseFilter(10.0, 1000.0), 0.0,
                                 settings=settings)

    @pytest.mark.parametrize("kwargs", [
        dict(halfwidth_folds=0.0),
        dict(initial_points=32),
        dict(max_points=128),
        dict(rel_tolerance=0.0),
        dict(rel_tolerance=1e-3),
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            QuadratureSettings(**kwargs)


class TestGlobalPhase:
    @given(t_sum=st.floats(min_value=-500, max_value=500, allow_nan=False),
           path=st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_dropped_factors_cannot_change_rates(self, params, t_sum, path):
        # the amplitude drops the constant exp(i (k1.r1 + k2.r2 - omega0 (t1 + t2) / 2))
        # of symmetrically placed detectors; restoring it leaves |A|^2 unchanged
        filt = CosinePhaseFilter(2.0, 50.0)
        grid = np.linspace(-200.0, 200.0, 9)
        values, _, _, _ = _amplitude_grid(params, filt, grid, DEFAULT_SETTINGS)
        values = values / _baseline_raw(params, DEFAULT_SETTINGS)
        factor = np.exp(1j * (path - 0.5 * pump_angular_frequency(params) * t_sum))
        assert abs(factor) == pytest.approx(1.0, abs=1e-15)
        plain = np.abs(values) ** 2
        toggled = np.abs(factor * values) ** 2
        assert np.max(np.abs(plain - toggled)) <= 1e-12


class TestQuadratureCurve:
    def test_no_filter_closed_form(self, params, no_filter, T):
        taus = np.array([-T, 0.0, T])
        rates = rate_grid(params, no_filter, taus)
        assert np.max(np.abs(rates - np.exp(-2 * taus**2 / T**2))) <= 1e-12
