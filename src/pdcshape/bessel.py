"""Integer-order Bessel functions of the first kind, J_m(x), from scipy.

The series amplitude needs J_0(x)..J_M(x) for one real argument x >= 0 and
integer orders 0 <= M <= 1000; `scipy.special.jv` evaluates exactly that, and
the tests hold it to 1e-12 of a 40-digit power series.  Negative orders
follow from the parity rule J_{-m} = (-1)^m J_m, which the caller applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .errors import ParameterError

MAX_ORDER = 1000


@dataclass(frozen=True)
class BesselTable:
    """J_0(x)..J_max_order(x) for one fixed argument."""

    argument: float
    max_order: int
    values: np.ndarray


def bessel_j_table(x: float, max_order: int) -> BesselTable:
    """Table of J_0(x)..J_{max_order}(x) for real x >= 0."""
    if not (isinstance(max_order, (int, np.integer)) and 0 <= max_order <= MAX_ORDER):
        raise ParameterError(f"max_order must be an integer in [0, {MAX_ORDER}], got {max_order!r}")
    x = float(x)
    if not math.isfinite(x):
        raise ParameterError(f"argument must be finite, got {x!r}")
    if x < 0.0:
        raise ParameterError(f"argument must be >= 0, got {x!r}")
    return BesselTable(argument=x, max_order=int(max_order),
                       values=jv(np.arange(max_order + 1), x))
