"""Shared test set-up."""

import pytest

from bdemm import gpts, kalman


@pytest.fixture(autouse=True)
def _empty_caches():
    # tests that count factorizations or solve lookups must not hit a window
    # an earlier test solved or forecast, nor tests that count stackings a
    # pool an earlier test stacked
    gpts._pool_solve.cache_clear()
    gpts._pool_forecast.cache_clear()
    kalman._stacked.cache_clear()
