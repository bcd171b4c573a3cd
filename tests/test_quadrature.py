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
    PhysicalParams,
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
from pdcshape.model import amplitude_comb, series_halfwidth
from pdcshape.quadrature import (
    DEFAULT_SETTINGS,
    VALIDATION_DEPTHS,
    VALIDATION_MOD_FREQUENCIES,
    _amplitude_grid,
    _baseline_raw,
    compare_cells,
    nu_halfwidth,
)


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
        assert len(res.diff_history) == 1


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

    @pytest.mark.parametrize("folds", [1.0, 2.0, 3.0])
    def test_narrow_least_window_meets_the_tolerance(self, params, standard_filter, folds):
        # the window widens to sqrt(ln(8 / rel_tolerance)) = 5.24 folds: a window
        # of 1-3 folds alone cuts off erfc(folds), 0.16 to 2.2e-5 of the scale
        grid = np.linspace(-600.0, 600.0, 2401)
        rep = compare_methods(params, standard_filter, grid,
                              QuadratureSettings(halfwidth_folds=folds))
        assert rep.max_abs_diff <= 1e-12

    def test_comparison_grid_covers_lobes(self, params, T):
        filt = CosinePhaseFilter(2.0, 300.0)
        grid = comparison_grid(params, filt)
        m = truncation_for(filt).max_order
        assert grid[0] <= -(m * 300.0 + 5 * T) + 10.0
        assert np.all(np.diff(grid) == 10.0)
        assert 0.0 in grid


class TestLockstep:
    """compare_cells: validate's cells in lockstep, each as compare_methods gives it alone."""

    CELLS = [CosinePhaseFilter(a, b)
             for a in VALIDATION_DEPTHS for b in VALIDATION_MOD_FREQUENCIES]

    # under initial_points = 64 the strip bound sizes each cell, which gives 11 node
    # sets; 3 folds widen to the one window sqrt(ln(8 / rel_tolerance)) = 5.24 folds
    @pytest.mark.parametrize("settings,setups", [
        (QuadratureSettings(initial_points=64), 11),
        (QuadratureSettings(halfwidth_folds=3.0), 1),
    ], ids=["initial-points-64", "folds-3"])
    def test_each_cell_as_alone(self, params, monkeypatch, settings, setups):
        _baseline_raw(params, settings)  # memoised, with a set-up of its own
        built = []
        original = quadrature._chirp_z

        def counting(*args):
            built.append(args[:3])
            return original(*args)

        monkeypatch.setattr(quadrature, "_chirp_z", counting)
        reports = compare_cells(params, self.CELLS, lambda f: comparison_grid(params, f),
                                settings)
        assert len(set(built)) == len(built) == setups
        alone = [compare_methods(params, f, comparison_grid(params, f), settings)
                 for f in self.CELLS]
        assert ([(r.max_abs_diff, r.tau_at_max) for r in reports]
                == [(r.max_abs_diff, r.tau_at_max) for r in alone])

    def test_refusals_come_in_cell_order(self):
        # at omega0 = 6.3e306 rad/fs the pump twist of beta = 300 fs overflows, and the
        # comb refuses the batch of all three depth-0 cells; the second cell's grid is
        # off its lattice, which its quadrature refuses first
        params = PhysicalParams(pump_wavelength=1e-12, group_velocity=2e8, beam_param=100.0,
                                emission_angle=15.0, light_speed=1e300)
        cells = [CosinePhaseFilter(0.0, b) for b in (0.0, 25.0, 300.0)]
        grids = {0.0: [-10.0, 0.0, 10.0], 25.0: [0.0, 1.0, 3.0], 300.0: [0.0]}

        def grid(filt):
            return grids[filt.mod_frequency]

        with pytest.raises(ParameterError, match="uniform delay grid"):
            compare_cells(params, cells, grid)
        grids[25.0] = [0.0]
        with pytest.raises(ParameterError, match="pump twist .* beta = 300 fs"):
            compare_cells(params, cells, grid)


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


class TestStripBound:
    @pytest.mark.parametrize("depth", VALIDATION_DEPTHS)
    def test_validate_cells_no_larger_than_the_old_guard(self, params, depth):
        # the earlier rule: 40 nu_max max(|tau|max, beta) / 2 pi intervals, about
        # 20 nodes a period of e^{i nu tau}, floored at initial_points and made even
        nu_max = nu_halfwidth(params)
        for beta in VALIDATION_MOD_FREQUENCIES:
            filt = CosinePhaseFilter(depth, beta)
            taus = comparison_grid(params, filt)
            guard = 40.0 * nu_max * max(np.max(np.abs(taus)), beta) / (2.0 * math.pi)
            old = max(DEFAULT_SETTINGS.initial_points, math.floor(guard) + 1)
            old += old % 2
            _, _, n, history = _amplitude_grid(params, filt, taus, DEFAULT_SETTINGS)
            assert n // 2 <= old, beta
            assert len(history) == 1, beta

    @given(depth=st.floats(min_value=0.0, max_value=10.0),
           mod_frequency=st.floats(min_value=0.0, max_value=1000.0),
           first=st.floats(min_value=-1.0, max_value=1.0),
           last=st.floats(min_value=-1.0, max_value=1.0),
           count=st.integers(min_value=1, max_value=8),
           folds=st.floats(min_value=0.5, max_value=9.0),
           rel_tolerance=st.floats(min_value=1e-13, max_value=1e-6))
    @example(depth=10.0, mod_frequency=1000.0, first=-1.0, last=1.0, count=2, folds=6.0,
             rel_tolerance=1e-11)
    @example(depth=0.0, mod_frequency=0.0, first=0.0, last=0.0, count=1, folds=6.0,
             rel_tolerance=1e-11)
    # a one-fold least window: the tolerance's floor of 5.24 folds sets the window
    @example(depth=2.0, mod_frequency=50.0, first=-1.0, last=1.0, count=5, folds=1.0,
             rel_tolerance=1e-11)
    # a subnormal span: the last delay sits one subnormal off the lattice, more
    # than 4 eps (|first| + |last|)
    @example(depth=0.0, mod_frequency=0.0, first=0.0, last=2.2250738585e-313, count=3,
             folds=1.0, rel_tolerance=9.713712697538606e-07)
    @settings(max_examples=25, deadline=None)
    def test_first_level_passes_and_matches_dense_sum(self, params, T, depth, mod_frequency,
                                                      first, last, count, folds, rel_tolerance):
        # any uniform grid inside the series half-width M beta + 5T, any least window
        # and tolerance: the step's and the window's bounds leave the one check passing
        filt = CosinePhaseFilter(depth, mod_frequency)
        half = series_halfwidth(params, truncation_for(filt), mod_frequency)
        taus = np.linspace(first * half, last * half, count)
        quad = QuadratureSettings(halfwidth_folds=folds, rel_tolerance=rel_tolerance)
        values, _, n, history = _amplitude_grid(params, filt, taus, quad)
        assert len(history) == 1
        assert history[0] < rel_tolerance
        dense = dense_trapezoid(params, filt, taus, n, quad)
        assert np.max(np.abs(values - dense)) <= 1e-13 * 2.0 * math.sqrt(math.pi) / T

    def test_wide_window_memory(self, params):
        # three delays over +-1.5e6 fs: the bound asks for 44,324 intervals, ~2.3 MB
        # at peak; 20 nodes a period of e^{i nu tau} (885,496) would take ~53 MB
        taus = np.linspace(-1.5e6, 1.5e6, 3)
        filt = CosinePhaseFilter(2.0, 50.0)
        rate_grid(params, filt, taus)  # the shared baseline, memoised
        tracemalloc.start()
        try:
            rates = rate_grid(params, filt, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all((rates >= 0.0) & (rates <= 1.0))
        assert peak < 4_000_000


class TestUniformGrid:
    # the last grid is subnormal, and off its lattice by far more than the bound's floor
    @pytest.mark.parametrize("taus", [[0.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0],
                                      [-600.0, -599.5, 600.0], [0.0, 1e-320, 3e-310]])
    def test_non_uniform_grid_refused(self, params, standard_filter, taus):
        with pytest.raises(ParameterError, match="uniform delay grid") as refused:
            rate_grid(params, standard_filter, taus)
        assert "np.float64(" not in str(refused.value)  # plain floats
        with pytest.raises(ParameterError, match="uniform delay grid"):
            sample_curve(params, standard_filter, taus, method="quadrature")

    def test_decreasing_grid_answered_and_non_finite_refused(self, params, standard_filter):
        # a decreasing grid is uniform too; a delay that is not finite is refused
        # before anything is sized, as the series route refuses it
        report = compare_methods(params, standard_filter, np.linspace(600.0, -600.0, 121))
        assert report.max_abs_diff <= 1e-13
        for delay in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="tau_grid must be finite"):
                compare_methods(params, standard_filter, [0.0, delay])

    @given(first=st.floats(min_value=-1.0, max_value=1.0),
           last=st.floats(min_value=-1.0, max_value=1.0),
           scale=st.sampled_from([5e-324, 1e-320, 1e-310, 1e-305, 1.0, 1e300]),
           count=st.integers(min_value=1, max_value=20_000))
    # 100 steps of a subnormal spacing: the last delay drifts 10 subnormals off
    # the lattice, which a floor that did not grow with the count would refuse
    @example(first=-1.0, last=1.0, scale=2.88e-310, count=101)
    @settings(max_examples=60, deadline=None)
    def test_every_linspace_grid_accepted(self, first, last, scale, count):
        taus = np.linspace(first * scale, last * scale, count)
        spacing = quadrature._lattice_spacing(taus)
        assert spacing == ((taus[-1] - taus[0]) / (count - 1) if count > 1 else 0.0)


class TestConvergence:
    def test_budget_below_resolution_guard(self, params, standard_filter):
        settings = QuadratureSettings(initial_points=64, max_points=1024)
        with pytest.raises(ConvergenceError):
            amplitude_quadrature(params, standard_filter, 1e6, settings=settings)

    def test_budget_exhausted_mid_refinement(self, params, monkeypatch):
        # resolvable only at ~1184 intervals, but the budget stops at 600: the
        # strip bound refuses this up front
        settings = QuadratureSettings(initial_points=64, max_points=600)
        filt = CosinePhaseFilter(10.0, 1000.0)
        with pytest.raises(ConvergenceError, match="resolving the integrand needs"):
            amplitude_quadrature(params, filt, 0.0, settings=settings)
        # from a too-coarse start (the 296 intervals of the earlier 20-nodes-a-period
        # guard) the one halving check fails, and names the worst delay's estimates
        monkeypatch.setattr(quadrature, "_coarse_intervals", lambda *args: 296)
        with pytest.raises(ConvergenceError, match="last estimates"):
            amplitude_quadrature(params, filt, 0.0, settings=settings)

    @pytest.mark.parametrize("kwargs", [
        dict(halfwidth_folds=0.0),
        dict(halfwidth_folds=math.inf),
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
