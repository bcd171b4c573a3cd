import tempfile
from pathlib import Path

import numpy as np
import pytest

from pdcshape import DEFAULT_PARAMS, CosinePhaseFilter, characteristic_time, model
from pdcshape.csvio import write_csv


@pytest.fixture(scope="session")
def params():
    return DEFAULT_PARAMS


@pytest.fixture(scope="session")
def T(params):
    return characteristic_time(params)


@pytest.fixture
def cold_truncations():
    """An empty truncation memo, emptied again afterwards, so that the test builds
    every series it uses and none it builds (under a patched Bessel table) outlives it."""
    model._truncation.cache_clear()
    yield
    model._truncation.cache_clear()


@pytest.fixture
def no_filter():
    return CosinePhaseFilter(0.0, 0.0)


@pytest.fixture
def standard_filter():
    return CosinePhaseFilter(2.0, 50.0)


def uniform_grid(halfwidth: float, step: float) -> np.ndarray:
    n = int(round(halfwidth / step))
    return np.arange(-n, n + 1) * step


def written_csv(metadata: dict, columns: list) -> str:
    """The bytes write_csv writes for metadata and columns, as ASCII text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "written.csv"
        write_csv(path, metadata, columns)
        return path.read_bytes().decode("ascii")
