"""Shared test set-up."""

import pytest

from bdemm import gpts


@pytest.fixture(autouse=True)
def _empty_gp_solve_cache():
    # tests that count factorizations must not hit a window an earlier test
    # solved
    gpts._pool_solve.cache_clear()
