import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import uniform_grid
from oracles import dense_peak_scan, looped_sweep, scipy_peaks
from pdcshape import (
    CosinePhaseFilter,
    InsufficientDataError,
    ParameterError,
    PhysicalParams,
    ResolutionError,
    SearchError,
    SweepResult,
    WindowError,
    detect_lobes,
    find_tau_max,
    oscillation_period,
    sample_curve,
    sweep_beta,
    total_coincidence_integral,
    truncation_for,
)
from pdcshape import analysis, model
from pdcshape.analysis import (
    _find_peaks,
    _peak_search,
    _pick,
    _prominences,
    _scan_peak,
)
from pdcshape.model import _TAU_BLOCK

J2 = [0.2238907791, 0.5767248078, 0.3528340286]  # J_0..J_2 at depth 2


class TestFindTauMax:
    def test_no_filter_peaks_at_zero(self, params, no_filter):
        res = find_tau_max(params, no_filter)
        assert abs(res.tau_max) <= 0.01
        assert res.rate_at_max == pytest.approx(1.0, abs=1e-12)
        assert res.refinement_width <= 0.01

    def test_sign_flips_between_50_and_53(self, params):
        assert find_tau_max(params, CosinePhaseFilter(2.0, 50.0)).tau_max < 0
        assert find_tau_max(params, CosinePhaseFilter(2.0, 53.0)).tau_max > 0

    def test_isolated_lobe_location(self, params):
        res = find_tau_max(params, CosinePhaseFilter(2.0, 1000.0))
        assert abs(res.tau_max) == pytest.approx(1000.0, abs=5.0)

    def test_peak_beats_bracket_edges(self, params, standard_filter):
        from pdcshape import count_rate, truncation_for

        res = find_tau_max(params, standard_filter, refine_tol=0.005)
        trunc = truncation_for(standard_filter)
        w = res.refinement_width
        assert res.rate_at_max >= count_rate(params, standard_filter, trunc,
                                             res.tau_max - w)
        assert res.rate_at_max >= count_rate(params, standard_filter, trunc,
                                             res.tau_max + w)

    def test_refinement_ends_at_float_resolution(self, params):
        # no bracket narrows to 5e-324 fs away from tau = 0; each search ends
        # where its bracket stops narrowing, and a sweep gives the same values
        sweep = sweep_beta(params, 2.0, 0.0, 50.0, 50.0, refine_tol=5e-324)
        for beta, tau, rate in zip(sweep.beta_values, sweep.tau_max_values, sweep.rates):
            res = find_tau_max(params, CosinePhaseFilter(2.0, float(beta)), refine_tol=5e-324)
            assert [res.tau_max, res.rate_at_max] == [tau, rate]
            assert res.refinement_width <= 2.0 * np.spacing(abs(res.tau_max))

    def test_window_clipping_raises(self, params):
        # +-800 fs window slices the rising flank toward the +-1000 fs lobes
        with pytest.raises(SearchError, match="mod_frequency 1000"):
            find_tau_max(params, CosinePhaseFilter(2.0, 1000.0),
                         search_halfwidth=800.0)

    @pytest.mark.parametrize("kwargs", [
        dict(grid_step=2.0),
        dict(grid_step=0.0),
        dict(refine_tol=0.5),
        dict(search_halfwidth=0.1),
    ])
    def test_bad_preconditions_rejected(self, params, standard_filter, kwargs):
        with pytest.raises(ParameterError):
            find_tau_max(params, standard_filter, **kwargs)

    @pytest.mark.parametrize("beta", [48.0, 50.5, 53.0])
    def test_grid_step_independence(self, params, beta):
        filt = CosinePhaseFilter(2.0, beta)
        coarse = find_tau_max(params, filt, grid_step=0.5, refine_tol=0.005)
        fine = find_tau_max(params, filt, grid_step=0.25, refine_tol=0.005)
        assert abs(coarse.tau_max - fine.tau_max) < 0.005


class TestPrunedScan:
    """The pruned peak scan picks the grid point of the dense scan, ties included."""

    @staticmethod
    def picks(params, T, filt, grid_step, search_halfwidth=None):
        trunc = truncation_for(filt)
        if search_halfwidth is None:
            search_halfwidth = trunc.max_order * filt.mod_frequency + 5.0 * T
        n = math.ceil(search_halfwidth / grid_step)
        dense = dense_peak_scan(params, filt, trunc, n, grid_step)
        picks = _scan_peak(params, trunc, np.array([filt.mod_frequency]), np.array([n]),
                           grid_step)
        assert picks.tolist() == [dense]
        return dense, n

    @settings(max_examples=30, deadline=None)
    @given(depth=st.floats(0.0, 10.0), beta=st.floats(0.0, 1000.0),
           grid_step=st.sampled_from([0.25, 0.5, 1.0]))
    def test_same_bracket_as_dense_scan(self, params, T, depth, beta, grid_step):
        filt = CosinePhaseFilter(depth, beta)
        k, n = self.picks(params, T, filt, grid_step)
        assert abs(k) < n  # the default window holds every lobe
        res = find_tau_max(params, filt, grid_step=grid_step)
        assert abs(res.tau_max - k * grid_step) <= grid_step

    @pytest.mark.parametrize("depth,beta,halfwidth,tau", [
        (0.0, 50.0, None, 0.0),  # the unfiltered Gaussian
        (2.0, 0.0, None, 0.0),  # no modulation: the depth only scales the Gaussian
        # lobes m = +-1 at +-5000 fs overlap by e^-373, so their equal peaks
        # tie and the negative one wins
        (2.0, 5000.0, None, -5000.0),
        # the +1000 fs lobe beats the -1000 fs one by 1.9e-7 and sits one step
        # inside the window, in the shorter last gap of the coarse grid
        (2.0, 1000.0, 1000.5, 1000.0),
        # the window ends on the rising flank toward +1000 fs: find_tau_max
        # raises on this pick (TestFindTauMax::test_window_clipping_raises)
        (2.0, 1000.0, 800.0, 800.0),
    ], ids=["depth-0", "beta-0", "symmetric-tie", "short-last-gap", "window-edge"])
    def test_explicit_picks(self, params, T, depth, beta, halfwidth, tau):
        k, _ = self.picks(params, T, CosinePhaseFilter(depth, beta), 0.5, halfwidth)
        assert k * 0.5 == tau

    @pytest.mark.parametrize("grid_step,halfwidth", [(1e-308, 1e-307), (1e-300, 1e-299),
                                                     (1e-6, 1e-3)])
    def test_fine_grid_allocates_no_more_than_the_grid(self, params, T, grid_step,
                                                        halfwidth):
        # T / (8 grid_step) would be a coarse step far wider than the window
        tracemalloc.start()
        try:
            self.picks(params, T, CosinePhaseFilter(2.0, 50.0), grid_step, halfwidth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    # the fill evaluated whole, and in comb blocks spread over several calls
    @pytest.mark.parametrize("scan_rows", [analysis._SCAN_ROWS, _TAU_BLOCK])
    def test_several_betas_in_one_scan(self, params, T, monkeypatch, scan_rows):
        monkeypatch.setattr(analysis, "_SCAN_ROWS", scan_rows)
        trunc = truncation_for(CosinePhaseFilter(6.0, 0.0))
        betas = np.array([0.0, 48.5, 53.0, 300.0, 750.0])
        ns = np.array([math.ceil((trunc.max_order * b + 5.0 * T) / 0.5) for b in betas])
        dense = [dense_peak_scan(params, CosinePhaseFilter(6.0, b), trunc, n, 0.5)
                 for b, n in zip(betas, ns)]
        assert _scan_peak(params, trunc, betas, ns, 0.5).tolist() == dense

    def test_large_depth_keeps_result_and_evaluates_no_more(self, params, T, monkeypatch):
        # at depth 10 the curvature bound rules out little: every gap is filled
        sizes = []
        original = analysis.comb_rates

        def counting(*args):
            sizes.append(np.size(args[4]))
            return original(*args)

        monkeypatch.setattr(analysis, "comb_rates", counting)  # not the oracle's
        filt = CosinePhaseFilter(10.0, 1000.0)
        k, n = self.picks(params, T, filt, 0.5)
        assert sum(sizes) <= 2 * n + 1
        res = find_tau_max(params, filt)
        assert abs(res.tau_max - k * 0.5) <= 0.5


class TestLockstepSearch:
    """Every beta of a lockstep search gets the values of its own search."""

    @staticmethod
    def windows(params, trunc, betas, grid_step):
        return np.ceil(model.series_halfwidth(params, trunc, betas) / grid_step).astype(np.int64)

    @settings(max_examples=10, deadline=None)
    @given(start=st.one_of(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 990.0)),
                           st.tuples(st.floats(5.0, 10.0), st.floats(300.0, 990.0))),
           count=st.integers(1, 3), beta_step=st.sampled_from([0.05, 0.5, 5.0]),
           grid_step=st.sampled_from([0.25, 0.5]), refine_tol=st.sampled_from([0.005, 0.01]),
           scan_rows=st.sampled_from([_TAU_BLOCK, analysis._SCAN_ROWS]))
    def test_bit_equal_to_looped_search(self, params, start, count, beta_step, grid_step,
                                        refine_tol, scan_rows):
        depth, beta = start
        trunc = truncation_for(CosinePhaseFilter(depth, 0.0))
        betas = beta + np.arange(count) * beta_step
        ns = self.windows(params, trunc, betas, grid_step)
        expected = looped_sweep(params, trunc, betas, ns, grid_step, refine_tol)
        with mock.patch.object(analysis, "_SCAN_ROWS", scan_rows):
            got = _peak_search(params, trunc, betas, ns, grid_step, refine_tol)
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)
        for i, b in enumerate(betas):
            res = find_tau_max(params, CosinePhaseFilter(depth, float(b)), grid_step=grid_step,
                               refine_tol=refine_tol)
            assert [res.tau_max, res.rate_at_max, res.refinement_width] == expected[:, i].tolist()

    # one beta a group (each beta holds 663 coarse rows), and the default groups
    @pytest.mark.parametrize("scan_rows", [_TAU_BLOCK, analysis._SCAN_ROWS])
    def test_sweep_groups_match_looped_search(self, params, monkeypatch, scan_rows):
        monkeypatch.setattr(analysis, "_SCAN_ROWS", scan_rows)
        sweep = sweep_beta(params, 10.0, 300.0, 301.0, 0.5)
        trunc = truncation_for(CosinePhaseFilter(10.0, 0.0))
        ns = self.windows(params, trunc, sweep.beta_values, 0.5)
        expected = looped_sweep(params, trunc, sweep.beta_values, ns, 0.5, 0.01)
        assert np.array_equal(sweep.tau_max_values, expected[0])
        assert np.array_equal(sweep.rates, expected[1])

    # the default groups of fig2's sweep, and many tiny-window betas a group
    @pytest.mark.parametrize("alpha,start,end,step,halfwidth,scan_rows", [
        (2.0, 48.0, 53.0, 0.01, None, analysis._SCAN_ROWS),
        (0.0, 0.0, 20.0, 0.01, 1.0, _TAU_BLOCK),
    ], ids=["fig2", "tiny-window"])
    def test_sweep_groups_fill_the_row_budget(self, params, monkeypatch, alpha, start, end,
                                              step, halfwidth, scan_rows):
        monkeypatch.setattr(analysis, "_SCAN_ROWS", scan_rows)
        groups, rows = [], []  # each group's betas, and the rows of its coarse scan
        search, rates = analysis._peak_search, analysis.comb_rates

        def grouping(params, trunc, betas, *args):
            groups.append(betas.tolist())
            return search(params, trunc, betas, *args)

        def coarse(params, trunc, betas, counts, taus):
            if len(rows) < len(groups):  # the group's first comb call
                rows.append(np.asarray(counts).tolist())
            return rates(params, trunc, betas, counts, taus)

        monkeypatch.setattr(analysis, "_peak_search", grouping)
        monkeypatch.setattr(analysis, "comb_rates", coarse)
        sweep = sweep_beta(params, alpha, start, end, step, search_halfwidth=halfwidth)
        assert [b for betas in groups for b in betas] == sweep.beta_values.tolist()
        for i, (betas, held) in enumerate(zip(groups, rows)):
            assert sum(held) <= scan_rows or len(betas) == 1, (betas[0], held)
            if i + 1 < len(groups):  # the next beta did not fit
                assert sum(held) + rows[i + 1][0] > scan_rows, (betas[0], held)

    def test_first_refusal_wins(self, params):
        # at this pump the twist M beta omega0 / 2 overflows from beta ~ 4 fs,
        # and from 9,000 fs the scan is over the cell cap; every beta is checked,
        # window then twist, before any is searched, so the overflow at 1,000 fs
        # comes first
        pump = PhysicalParams(1e-12, params.group_velocity, params.beam_param,
                              params.emission_angle, light_speed=1e300)
        with pytest.raises(ParameterError, match="pump twist"):
            sweep_beta(pump, 2.0, 0.0, 9000.0, 1000.0)
        with pytest.raises(ParameterError, match="shrink the search window"):
            sweep_beta(params, 2.0, 9000.0, 9500.0, 100.0)
        # and the other way: here the twist overflows between 11,000 and 12,000 fs,
        # so the window over the cap at 9,000 fs comes first
        pump = PhysicalParams(3e-9, params.group_velocity, params.beam_param,
                              params.emission_angle, light_speed=1e300)
        with pytest.raises(ParameterError, match="shrink the search window"):
            sweep_beta(pump, 2.0, 8000.0, 12000.0, 1000.0)
        with pytest.raises(ParameterError, match="pump twist"):
            find_tau_max(pump, CosinePhaseFilter(2.0, 12000.0), search_halfwidth=100.0)

    def test_refused_before_any_beta_is_searched(self, params, monkeypatch):
        # the scan is over the cell cap from ~8,934 fs: the betas below it are
        # not searched first
        calls = []
        original = analysis.comb_rates

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(analysis, "comb_rates", counting)
        with pytest.raises(ParameterError, match="shrink the search window"):
            sweep_beta(params, 2.0, 8900.0, 8940.0, 1.0)
        assert calls == []


class TestScanBatches:
    """The scan's fill goes in whole-beta batches, and its pick takes rows in any order."""

    @pytest.mark.parametrize("ties", [False, True])
    def test_pick_takes_rows_in_any_order(self, ties):
        rng = np.random.default_rng(12)
        seg = np.repeat(np.arange(6), 7)
        x = rng.uniform(-5.0, 5.0, seg.size)
        y = rng.uniform(0.0, 1.0, seg.size)
        if ties:
            # segment 1: equal rates at +-2 go to -2; segment 3: a rate within
            # the tie margin of the best goes to the smaller |x|
            y[[8, 9]], x[[8, 9]] = 2.0, [2.0, -2.0]
            y[[21, 22]], x[[21, 22]] = [2.0, 2.0 - 1e-13], [4.0, 0.5]
        want = _pick(seg, x, y, 6)
        for perm in (np.arange(seg.size)[::-1], rng.permutation(seg.size)):
            assert perm[_pick(seg[perm], x[perm], y[perm], 6)].tolist() == want.tolist()

    @staticmethod
    def fill_level(k, n, s):
        """The level of the nested fill at which row k of the grid |k| <= n, coarse
        stride s, is sampled: 0 on the coarse grid, L in a level-L sub-gap's samples."""
        if k == n:
            return 0
        lo = -n + (k + n) // s * s
        w, level = min(s, n - lo), 0
        while k != lo:  # sample every ceil(w / 8)-th row, then go into k's sub-gap
            step = -(-w // 8)
            j = (k - lo) // step
            lo, w, level = lo + j * step, min(step, w - j * step), level + 1
        return level

    def test_fill_pieces_start_from_their_beta(self, params, T, monkeypatch):
        # at depth 10 the level fills of betas 300 and 301 exceed a row budget of
        # one comb block: each such fill goes alone, in pieces counted from the
        # beta's own first row of the level; a smaller one goes whole
        monkeypatch.setattr(analysis, "_SCAN_ROWS", _TAU_BLOCK)
        calls = []
        original = analysis.comb_rates

        def spying(params, trunc, betas, counts, taus):
            calls.append((np.asarray(betas).tolist(), np.asarray(counts).tolist(),
                          np.rint(taus / 0.5).astype(np.int64)))
            return original(params, trunc, betas, counts, taus)

        monkeypatch.setattr(analysis, "comb_rates", spying)
        trunc = truncation_for(CosinePhaseFilter(10.0, 0.0))
        betas = np.array([0.0, 300.0, 301.0])
        ns = TestLockstepSearch.windows(params, trunc, betas, 0.5)
        picks = _scan_peak(params, trunc, betas, ns, 0.5)
        strides = analysis._coarse_grid(T, ns, 0.5)[0]
        # each call's rows, per beta and level, in call order
        rows = {}
        for i, (call_betas, counts, ks) in enumerate(calls):
            levels = set()
            for b, run in zip(call_betas, np.split(ks, np.cumsum(counts)[:-1])):
                j = betas.tolist().index(b)
                level = {self.fill_level(int(k), int(ns[j]), int(strides[j])) for k in run}
                assert len(level) <= 1, (b, level)  # one level a call
                levels |= level
                if run.size:
                    rows.setdefault((b, *level), []).append((i, len(call_betas), run))
            assert len(levels) == 1, levels
        pieces = 0
        for (b, level), parts in rows.items():
            assert level == 0 or parts[0][0] > rows[b, 0][-1][0]  # after the coarse scan
            whole = np.concatenate([run for _, _, run in parts])
            assert np.all(np.diff(whole) > 0), (b, level)  # in delay order
            if len(parts) > 1:  # pieces: one beta a call, consecutive calls, full budgets
                pieces += 1
                assert all(n_betas == 1 for _, n_betas, _ in parts), (b, level)
                assert [i for i, _, _ in parts] == list(range(parts[0][0],
                                                              parts[0][0] + len(parts)))
                assert all(run.size == _TAU_BLOCK for _, _, run in parts[:-1]), (b, level)
        assert pieces >= 2
        assert picks.tolist() == [_scan_peak(params, trunc, betas[i:i + 1], ns[i:i + 1],
                                             0.5)[0] for i in range(betas.size)]

    def test_fig2_scan_evaluates_each_delay_once(self, params, monkeypatch):
        # fig2's 501 betas: the nested fill takes under 100,000 scan rows (one
        # level of whole-gap fills took 192,952), and no grid delay twice
        taus = {}  # beta: its scan's delays, call by call
        scan, rates = analysis._scan_peak, analysis.comb_rates
        scanning = []

        def spying_scan(*args):
            scanning.append(True)
            try:
                return scan(*args)
            finally:
                scanning.pop()

        def spying_rates(params, trunc, betas, counts, delays):
            if scanning:
                for b, run in zip(np.asarray(betas).tolist(),
                                  np.split(delays, np.cumsum(counts)[:-1])):
                    taus.setdefault(b, []).append(run)
            return rates(params, trunc, betas, counts, delays)

        monkeypatch.setattr(analysis, "_scan_peak", spying_scan)
        monkeypatch.setattr(analysis, "comb_rates", spying_rates)
        sweep = sweep_beta(params, 2.0, 48.0, 53.0, 0.01)
        assert sorted(taus) == sweep.beta_values.tolist()
        assert sum(run.size for runs in taus.values() for run in runs) <= 100_000
        for runs in taus.values():
            delays = np.concatenate(runs)
            assert np.unique(delays).size == delays.size

    @pytest.mark.parametrize("search", [
        lambda params: sweep_beta(params, 2.0, 48.0, 53.0, 0.01),
        lambda params: sweep_beta(params, 10.0, 299.0, 302.0, 0.5),
        lambda params: find_tau_max(params, CosinePhaseFilter(10.0, 300.0)),
    ], ids=["fig2-sweep", "depth10-sweep", "one-beta"])
    def test_no_comb_call_carries_an_empty_run(self, params, monkeypatch, search):
        # a beta with no delays in a call would have its pump phase reduced
        # and an empty run laid out for nothing
        counts = []
        rates = analysis.comb_rates

        def spying(params, trunc, betas, run_counts, taus):
            counts.append(np.asarray(run_counts))
            return rates(params, trunc, betas, run_counts, taus)

        monkeypatch.setattr(analysis, "comb_rates", spying)
        search(params)
        assert counts and all(c.size and c.min() > 0 for c in counts)

    def test_fill_pieces_are_whole_comb_blocks(self):
        # so a fill split into pieces keeps the comb blocks of the unsplit fill
        assert analysis._SCAN_ROWS % _TAU_BLOCK == 0


class TestSweep:
    def test_no_filter_sweep_is_flat_zero(self, params):
        sweep = sweep_beta(params, 0.0, 48.0, 50.0, 0.5)
        assert np.all(np.abs(sweep.tau_max_values) <= 0.01)

    def test_both_signs_and_crossings(self, params):
        sweep = sweep_beta(params, 2.0, 48.0, 53.0, 0.1)
        assert sweep.tau_max_values.min() < 0 < sweep.tau_max_values.max()
        signs = np.sign(sweep.tau_max_values)
        crossings = np.sum(signs[:-1] * signs[1:] < 0)
        assert crossings >= 2

    def test_deterministic(self, params):
        a = sweep_beta(params, 2.0, 48.0, 49.0, 0.1)
        b = sweep_beta(params, 2.0, 48.0, 49.0, 0.1)
        assert np.array_equal(a.beta_values, b.beta_values)
        assert np.array_equal(a.tau_max_values, b.tau_max_values)
        assert np.array_equal(a.rates, b.rates)

    def test_reversed_range_rejected(self, params):
        with pytest.raises(ParameterError):
            sweep_beta(params, 2.0, 50.0, 48.0, 0.1)

    def test_series_built_once_per_depth(self, params, monkeypatch, cold_truncations):
        # the table that chose the cutoff also gives the coefficients, however
        # many betas the sweep visits
        calls = []
        original = model.bessel_j_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(model, "bessel_j_table", counting)
        sweep = sweep_beta(params, 2.0, 48.0, 53.0, 0.1)
        assert sweep.beta_values.size == 51
        assert len(calls) == 1

    @pytest.mark.parametrize("alpha,start,end,step", [(2.0, 48.0, 53.0, 0.01),
                                                      (10.0, 300.0, 305.0, 0.5)])
    def test_memory_is_bounded(self, params, alpha, start, end, step):
        tracemalloc.start()
        try:
            sweep_beta(params, alpha, start, end, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_memory_does_not_grow_with_the_sweep(self, params):
        peaks = []
        for step in (0.01, 0.0025):  # 501 and 2,001 betas
            tracemalloc.start()
            try:
                sweep_beta(params, 2.0, 48.0, 53.0, step)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 500_000

    def test_unincreasing_betas_refused_before_any_search(self, params, monkeypatch):
        # steps of 0.01 fs below the float spacing (2 fs) at 1e16 fs repeat betas
        calls = []
        original = analysis.comb_rates

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(analysis, "comb_rates", counting)
        with pytest.raises(ParameterError, match="beta_values must be strictly increasing"):
            sweep_beta(params, 2.0, 1e16, 1e16 + 8.0, 0.01, search_halfwidth=1000.0)
        assert calls == []

    def test_search_error_carries_offending_beta(self, params):
        with pytest.raises(SearchError, match="mod_frequency 999"):
            sweep_beta(params, 2.0, 999.0, 1001.0, 1.0, search_halfwidth=800.0)


class TestOscillationPeriod:
    def test_reference_sweep_period(self, params):
        sweep = sweep_beta(params, 2.0, 48.0, 53.0, 0.05)
        assert oscillation_period(sweep) == pytest.approx(2.3333, abs=0.12)

    def test_synthetic_sine(self):
        betas = np.arange(0.0, 10.0, 0.05)
        sweep = SweepResult(betas, np.sin(2 * np.pi * betas / 2.0),
                            np.ones_like(betas))
        assert oscillation_period(sweep) == pytest.approx(2.0, abs=0.05)

    def test_unequal_lengths_refused(self):
        with pytest.raises(ParameterError, match="sweep arrays must have equal lengths"):
            SweepResult(np.arange(3.0), np.zeros(3), np.ones(2))

    def test_flat_zero_sweep_is_insufficient(self, params):
        sweep = sweep_beta(params, 0.0, 48.0, 50.0, 0.5)
        with pytest.raises(InsufficientDataError):
            oscillation_period(sweep)


class TestAlphaFamily:
    def test_peak_sign_family_at_50(self, params):
        grid = np.linspace(-600.0, 600.0, 2401)
        curves = [sample_curve(params, CosinePhaseFilter(a, 50.0), grid)
                  for a in (0.0, 2.0, 10.0)]
        peaks = [c.tau_grid[np.argmax(c.rates)] for c in curves]
        assert abs(peaks[0]) <= 0.5
        assert peaks[1] < 0 and peaks[2] < 0

    def test_peak_sign_family_at_53(self, params):
        grid = np.linspace(-600.0, 600.0, 2401)
        curves = [sample_curve(params, CosinePhaseFilter(a, 53.0), grid)
                  for a in (2.0, 10.0)]
        assert all(c.tau_grid[np.argmax(c.rates)] > 0 for c in curves)

    def test_inert_at_zero_mod_frequency(self, params):
        grid = np.linspace(-400.0, 400.0, 81)
        c0 = sample_curve(params, CosinePhaseFilter(0.0, 0.0), grid)
        c5 = sample_curve(params, CosinePhaseFilter(5.0, 0.0), grid)
        assert np.max(np.abs(c0.rates - c5.rates)) <= 1e-12


def assert_peaks_match_scipy(x: np.ndarray, height: float, distance: int) -> None:
    idx = _find_peaks(x, height, distance)
    expected_idx, expected_prominences = scipy_peaks(x, height, distance)
    assert np.array_equal(idx, expected_idx)
    assert np.array_equal(_prominences(x, idx), expected_prominences)


@st.composite
def peak_inputs(draw):
    """A curve with its height and distance, as detect_lobes passes them."""
    small = st.integers(0, 3).map(float)
    wide = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    x = np.array(draw(st.lists(draw(st.sampled_from([small, wide])),
                               min_size=1, max_size=60)))
    edge = draw(st.sampled_from(["none", "left", "right", "both"]))
    if edge in ("left", "both"):
        x[0] = x.max() + 1.0
    if edge in ("right", "both"):
        x[-1] = x.max() + 1.0
    height = draw(st.one_of(st.sampled_from(x.tolist()),
                            st.floats(x.min() - 1.0, x.max() + 1.0)))
    return x, height, draw(st.integers(1, 8))


class TestPeakHelpers:
    """_find_peaks and _prominences give exactly what SciPy gives."""

    @given(peak_inputs())
    @settings(max_examples=200, deadline=None)
    def test_match_scipy(self, case):
        assert_peaks_match_scipy(*case)

    def test_every_short_curve(self):
        for n in (1, 2, 3):
            for values in itertools.product([0.0, 1.0, 2.0], repeat=n):
                for height in (-1.0, 0.0, 1.0, 2.0, 3.0):
                    for distance in (1, 2, 8):
                        assert_peaks_match_scipy(np.array(values), height, distance)

    def test_many_tied_peaks(self):
        # over 16 tied peaks, where np.argsort's order is no longer that of a
        # stable sort, so a tie resolved any other way shows
        rng = np.random.default_rng(5)
        for distance in range(1, 9):
            for _ in range(20):
                assert_peaks_match_scipy(rng.integers(0, 4, 200).astype(float), 0.0,
                                         distance)


class TestDetectLobes:
    def test_no_filter_single_lobe(self, params, no_filter):
        curve = sample_curve(params, no_filter, uniform_grid(600.0, 1.0))
        report = detect_lobes(curve)
        assert report.centers.size == 1
        assert report.centers[0] == 0.0

    def test_overlapping_lobes_merge_to_one(self, params, standard_filter):
        curve = sample_curve(params, standard_filter, uniform_grid(600.0, 0.5))
        assert detect_lobes(curve).centers.size == 1

    def test_split_curve_at_300fs(self, params):
        curve = sample_curve(params, CosinePhaseFilter(2.0, 300.0),
                             uniform_grid(2000.0, 1.0))
        assert detect_lobes(curve).centers.size >= 2

    def test_isolated_lobes_at_1000fs(self, params):
        curve = sample_curve(params, CosinePhaseFilter(2.0, 1000.0),
                             uniform_grid(3500.0, 2.0))
        report = detect_lobes(curve, min_height=0.1 * curve.rates.max())
        centers, heights = report.centers, report.heights
        assert centers.size == 5
        assert centers == pytest.approx([-2000, -1000, 0, 1000, 2000], abs=5.0)
        ratios = heights / heights.max()
        expected = np.array([J2[2] ** 2, J2[1] ** 2, J2[0] ** 2,
                             J2[1] ** 2, J2[2] ** 2]) / J2[1] ** 2
        assert ratios == pytest.approx(expected, rel=0.01)

    def test_default_threshold_also_sees_order_three_lobes(self, params):
        # |J_3(2)|^2 is ~5% of the tallest lobe, above the 1% default cut
        curve = sample_curve(params, CosinePhaseFilter(2.0, 1000.0),
                             uniform_grid(3500.0, 2.0))
        report = detect_lobes(curve)
        assert report.centers.size == 7
        assert report.centers == pytest.approx(
            [-3000, -2000, -1000, 0, 1000, 2000, 3000], abs=5.0)
        # the columns are the curve's own samples, in delay order
        idx = np.searchsorted(curve.tau_grid, report.centers)
        assert np.all(np.diff(idx) > 0)
        assert np.array_equal(curve.tau_grid[idx], report.centers)
        assert np.array_equal(curve.rates[idx], report.heights)

    def test_centers_sit_on_lobe_grid_above_four_widths(self, params, T):
        beta = 1100.0
        assert beta >= 4 * T
        curve = sample_curve(params, CosinePhaseFilter(2.0, beta),
                             uniform_grid(3800.0, 2.0))
        centers = detect_lobes(curve).centers
        assert np.all(np.abs(centers - np.round(centers / beta) * beta) <= 5.0)

    def test_undersampled_curve_rejected(self, params, no_filter, T):
        step = np.ceil(T / 20.0) + 2.0
        curve = sample_curve(params, no_filter, uniform_grid(900.0, step))
        with pytest.raises(ResolutionError):
            detect_lobes(curve)

    def test_prominence_positive(self, params):
        curve = sample_curve(params, CosinePhaseFilter(2.0, 300.0),
                             uniform_grid(2000.0, 1.0))
        assert np.all(detect_lobes(curve).prominences > 0)

    @pytest.mark.parametrize("method", ["series", "quadrature"])
    @pytest.mark.parametrize("tau_min,tau_max,points", [
        # far past the lobe the rates are ~1e-31 and their ripple is round-off
        (20000.0, 21000.0, 1001),
        # a window 1e-300 fs wide is flat to round-off
        (0.0, 1e-300, 11),
    ], ids=["far-tail", "flat"])
    def test_round_off_maxima_are_not_lobes(self, params, method, tau_min, tau_max, points):
        curve = sample_curve(params, CosinePhaseFilter(2.0, 50.0),
                             np.linspace(tau_min, tau_max, points), method=method)
        assert detect_lobes(curve).centers.size == 0

    def test_one_point_curve_refused(self, params, standard_filter):
        curve = sample_curve(params, standard_filter, np.array([0.0]))
        with pytest.raises(ParameterError, match="lobe detection requires at least 2 delays"):
            detect_lobes(curve)


class TestTotalIntegral:
    def test_no_filter_closed_form(self, params, no_filter, T):
        curve = sample_curve(params, no_filter, uniform_grid(1400.0, 2.0))
        assert total_coincidence_integral(curve) == pytest.approx(
            T * np.sqrt(np.pi / 2.0), abs=1e-6)
        assert total_coincidence_integral(curve) == pytest.approx(324.38, abs=0.01)

    @pytest.mark.parametrize("depth,beta,halfwidth", [
        (2.0, 1000.0, 17000.0),
        (10.0, 300.0, 11000.0),
    ])
    def test_phase_only_filter_conserves_integral(self, params, T, depth, beta,
                                                  halfwidth):
        curve = sample_curve(params, CosinePhaseFilter(depth, beta),
                             uniform_grid(halfwidth, 5.0))
        value = total_coincidence_integral(curve)
        assert value == pytest.approx(T * np.sqrt(np.pi / 2.0), rel=1e-6)

    def test_narrow_window_rejected(self, params, no_filter):
        curve = sample_curve(params, no_filter, uniform_grid(300.0, 1.0))
        with pytest.raises(WindowError):
            total_coincidence_integral(curve)

    def test_nonuniform_grid_rejected(self, params, no_filter):
        grid = np.concatenate([uniform_grid(1400.0, 2.0), [1403.0]])
        curve = sample_curve(params, no_filter, grid)
        with pytest.raises(ParameterError):
            total_coincidence_integral(curve)

    def test_one_point_curve_refused(self, params, standard_filter):
        curve = sample_curve(params, standard_filter, np.array([0.0]))
        with pytest.raises(ParameterError, match="total integral requires at least 2 delays"):
            total_coincidence_integral(curve)


def at_pump_frequency(params, omega0):
    """params with the pump wavelength whose angular frequency is omega0 (rad/fs)."""
    return dataclasses.replace(params, pump_wavelength=2.0 * math.pi * params.light_speed
                               / (omega0 * 1e6))


class TestMetamorphic:
    """Relations between runs of either route; theta = beta omega0 / 2 is moved
    by choosing the pump wavelength."""

    filters = pytest.mark.parametrize("alpha,beta", [(2.0, 50.0), (10.0, 300.0), (5.0, 53.0),
                                                     (1.0, 1000.0)])
    methods = pytest.mark.parametrize("method", ["series", "quadrature"])

    @staticmethod
    def rates(params, alpha, beta, method):
        half = 40.0 * beta + 1500.0
        return sample_curve(params, CosinePhaseFilter(alpha, beta),
                            np.linspace(-half, half, 2001), method=method).rates

    @methods
    @filters
    def test_reversed_delays_negate_the_pump_phase(self, params, method, alpha, beta):
        # rate(-tau; theta) = rate(tau; -theta): theta' = 2 pi k - theta, k > theta / 2 pi
        omega0 = model.pump_angular_frequency(params)
        k = math.ceil(beta * omega0 / (4.0 * math.pi)) + 1
        flipped = at_pump_frequency(params, 4.0 * math.pi * k / beta - omega0)
        np.testing.assert_allclose(self.rates(flipped, alpha, beta, method),
                                   self.rates(params, alpha, beta, method)[::-1],
                                   rtol=0.0, atol=1e-12)

    @methods
    @filters
    def test_pump_phase_is_periodic(self, params, method, alpha, beta):
        # theta -> theta + 2 pi leaves every rate unchanged
        turned = at_pump_frequency(params, model.pump_angular_frequency(params)
                                   + 4.0 * math.pi / beta)
        np.testing.assert_allclose(self.rates(turned, alpha, beta, method),
                                   self.rates(params, alpha, beta, method), rtol=0.0, atol=1e-12)

    @methods
    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(0.0, 20.0), beta=st.floats(0.0, 1000.0))
    def test_random_filters_conserve_the_integral(self, params, T, method, alpha, beta):
        # a phase-only filter keeps the integral T sqrt(pi/2); the series' own
        # truncation may move it by up to trunc_tol = 1e-12 relative
        filt = CosinePhaseFilter(alpha, beta)
        half = model.series_halfwidth(params, truncation_for(filt), beta) + 2.0 * T
        curve = sample_curve(params, filt, uniform_grid(half, T / 8.0), method=method)
        assert total_coincidence_integral(curve) == pytest.approx(T * math.sqrt(math.pi / 2.0),
                                                                  rel=1e-12)
