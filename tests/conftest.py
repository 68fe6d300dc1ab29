"""Shared test set-up."""

import numpy as np
import pytest

from bdemm import gpts, kalman


@pytest.fixture(autouse=True)
def _empty_caches():
    # tests that count factorizations or solve lookups must not hit a window
    # an earlier test solved, nor tests that count stackings a pool an
    # earlier test stacked
    gpts._pool_solve.cache_clear()
    kalman._stacked.cache_clear()


class _Numpy:
    """``numpy`` as a module of the package sees it, but for the names set
    on the instance."""

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def numpy_calls(monkeypatch):
    """``count(module, name)``: from then on, each call of ``np.<name>``
    made by ``module``'s own code appends its arguments to the list that
    ``count`` returns."""
    def count(module, name):
        calls, real, proxy = [], getattr(np, name), _Numpy()

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        setattr(proxy, name, counted)
        monkeypatch.setattr(module, "np", proxy)
        return calls
    return count
