"""The log-factorial table: the shipped entries are scipy's gammaln bit for
bit, growth past them leaves them as they are, and no caller can write
into the table."""

from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

import thinpower
from thinpower import numerics

SHIPPED = Path(thinpower.__file__).with_name("log_factorials.npy")


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


@pytest.fixture
def shipped_table(monkeypatch):
    """The table as numerics loads it, before any growth."""
    table = np.load(SHIPPED)
    table.flags.writeable = False
    monkeypatch.setattr(numerics, "_LOG_FACT", table)
    return table


def test_shipped_table_is_gammaln(recorded_platform):
    table = np.load(SHIPPED)
    assert table.dtype == np.float64 and table.shape == (4096,)
    assert np.array_equal(_bits(table), _bits(gammaln(np.arange(4096) + 1.0)))


def test_growth_keeps_the_shipped_entries(shipped_table):
    grown = numerics.log_factorials(5000)
    assert grown.size == 5001 and numerics._LOG_FACT.size == 8192
    assert np.array_equal(_bits(grown[:4096]), _bits(shipped_table))
    assert np.array_equal(_bits(grown[4096:]),
                          _bits(gammaln(np.arange(4096, 5001) + 1.0)))


def test_views_are_read_only_before_and_after_growth(shipped_table):
    for n in (10, 4095, 5000, 10):
        view = numerics.log_factorials(n)
        with pytest.raises(ValueError, match="read-only"):
            view[-1] = 0.0
    assert np.array_equal(_bits(numerics.log_factorials(4095)),
                          _bits(np.load(SHIPPED)))
