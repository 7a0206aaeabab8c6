"""Shared fixtures."""

import pytest

from crossnum import combinatorics, spectra


def _forget_counts() -> None:
    # every cache behind a count: the memo of C(r, d), the kept level
    # vectors and tables, and the staircase cursor
    combinatorics._count_cross.cache_clear()
    combinatorics._levels.clear()
    combinatorics._tables.clear()
    spectra._cursor.clear()


@pytest.fixture(scope="session")
def forget():
    """Call it to make the next count and lookup start cold."""
    return _forget_counts
