import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import series_bessel_j
from pdcshape import (
    ParameterError,
    SeriesTruncation,
    bessel_j_table,
)


def signed_orders(x: float, m_max: int) -> dict[int, float]:
    """J_m(x) for m = -m_max..m_max as the series amplitude applies them.

    The truncation's coefficients are exactly i^m J_m(x), so multiplying by
    i^-m recovers the signed values.
    """
    trunc = SeriesTruncation(x, m_max, bessel_j_table(x, m_max))
    orders = trunc.orders
    j = trunc.coefficients * np.array([1.0, -1.0j, -1.0, 1.0j])[np.mod(orders, 4)]
    assert np.all(j.imag == 0.0)
    return dict(zip(orders.tolist(), j.real.tolist()))


def test_zero_argument_table_is_exact():
    table = bessel_j_table(0.0, 3)
    assert isinstance(table, np.ndarray)
    assert table.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_table_at_two_matches_known_values():
    table = bessel_j_table(2.0, 2)
    assert table == pytest.approx([0.223891, 0.576725, 0.352834], abs=1e-6)


def test_table_at_two_matches_power_series_oracle():
    table = bessel_j_table(2.0, 2)
    expected = [series_bessel_j(m, 2.0) for m in range(3)]
    assert table == pytest.approx(expected, abs=1e-12)


def test_recurrence_identity_at_two():
    # J_0(2) + J_2(2) = (2*1/2) J_1(2), straight from the table itself
    table = bessel_j_table(2.0, 2)
    assert table[0] + table[2] == pytest.approx(0.576725, abs=1e-6)
    assert table[0] + table[2] == pytest.approx(table[1], abs=1e-12)


def test_negative_order_parity():
    j = signed_orders(2.0, 1)
    assert j[-1] == pytest.approx(-0.576725, abs=1e-6)
    assert j[-1] == -j[1]
    j = signed_orders(0.0, 5)
    assert j[0] == 1.0
    assert j[5] == 0.0
    assert j[-5] == 0.0


@pytest.mark.parametrize("x", [0.0, 1e-9, 0.3, 1.0, 2.0, 5.0, 9.7, 14.0, 20.0])
def test_agrees_with_power_series_up_to_order_40(x):
    table = bessel_j_table(x, 40)
    for m in range(41):
        assert table[m] == pytest.approx(series_bessel_j(m, x), abs=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_invalid_argument_rejected(bad):
    with pytest.raises(ParameterError):
        bessel_j_table(bad, 3)


@pytest.mark.parametrize("bad_order", [-1, 1001])
def test_invalid_order_rejected(bad_order):
    with pytest.raises(ParameterError):
        bessel_j_table(1.0, bad_order)


def test_high_order_small_argument_does_not_overflow():
    table = bessel_j_table(1e-6, 200)
    assert table[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(table))
    assert table[150] == 0.0  # far below double-precision underflow


@given(m=st.integers(min_value=-40, max_value=40),
       x=st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_parity_is_exact(m, x):
    j = signed_orders(x, 40)
    assert j[-m] == (-1.0) ** m * j[m]


@given(x=st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_magnitude_bounded_by_one(x):
    table = bessel_j_table(x, 40)
    assert np.all(np.abs(table) <= 1.0)


@given(x=st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_sum_of_squares_is_one(x):
    m_max = math.ceil(x) + 35
    j = bessel_j_table(x, m_max)
    total = j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2)
    assert total == pytest.approx(1.0, abs=1e-12)


@given(x=st.floats(min_value=1e-6, max_value=20.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_three_term_recurrence_residual(x):
    j = bessel_j_table(x, 30)
    m = np.arange(1, 30)
    residual = j[:-2] + j[2:] - (2.0 * m / x) * j[1:-1]
    assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(j))


@given(x=st.floats(min_value=0.0, max_value=15.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_even_sum_normalization(x):
    j = bessel_j_table(x, math.ceil(x) + 40)
    assert j[0] + 2.0 * np.sum(j[2::2]) == pytest.approx(1.0, abs=1e-12)
