"""The numpy Bessel table against scipy.special.jv, which only the tests import."""

import numpy as np
import pytest
from scipy.special import jv

from pdcshape import CosinePhaseFilter, ParameterError, bessel_j_table, truncation_for
from pdcshape import model
from pdcshape.bessel import MAX_ORDER

# the edge arguments, then a sample of 0..912 (every depth truncation_for serves)
DEPTHS = [0.0, 5e-324, 1e-300, 1e-6, 0.5, 1.0, 452.3, 911.9, 912.0, float(MAX_ORDER),
          *np.random.default_rng(7).uniform(0.0, 912.0, 36).tolist()]


@pytest.mark.parametrize("x", DEPTHS)
def test_table_matches_jv(x):
    # the orders past the FFT's come from a recurrence whose start depends on
    # max_order, so check the full table and the one truncation_for starts with
    for max_order in (MAX_ORDER, min(int(np.ceil(x)) + 80, MAX_ORDER)):
        orders = np.arange(max_order + 1)
        table, ref = bessel_j_table(x, max_order), jv(orders, x)
        assert np.max(np.abs(table - ref)) <= 1e-13
        past = (orders > x) & (np.abs(ref) > 1e-300)
        assert np.all(np.abs(table[past] - ref[past]) <= 1e-12 * np.abs(ref[past]))


def test_cutoff_matches_jv(monkeypatch, cold_truncations):
    # every 0.1 step from 0 to 912 at both tolerances picked the same M, so a
    # sample of the grid keeps that within Tier-1 time
    depths = np.append(np.round(np.arange(0, 9121, 457) * 0.1, 1), [452.3, 911.9, 912.0])
    for tol in (1e-12, 1e-9):
        picked = []
        for table in (bessel_j_table, lambda x, n: jv(np.arange(n + 1), x)):
            monkeypatch.setattr("pdcshape.model.bessel_j_table", table)
            model._truncation.cache_clear()  # each table picks its own cutoffs
            cutoffs = []
            for depth in depths:
                try:
                    cutoffs.append(truncation_for(CosinePhaseFilter(float(depth), 0.0), tol).max_order)
                except ParameterError:
                    cutoffs.append(None)
            picked.append(cutoffs)
        assert picked[0] == picked[1], tol


@pytest.mark.parametrize("x", [MAX_ORDER + 0.5, 1e7, 1e300])
def test_argument_past_max_order_rejected(x):
    with pytest.raises(ParameterError, match=f"argument must be <= {MAX_ORDER}"):
        bessel_j_table(x, 3)
