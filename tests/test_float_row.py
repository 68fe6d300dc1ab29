"""The Python-float row of a 1-D Kalman pool: which pools take it, and
that it fails at the stage the stacked kernels do.  Its values against
the stacked kernels are ``tests/test_kalman.py``'s fuzz."""

import numpy as np
import pytest

from bdemm import kalman
from bdemm.core import GaussianBelief
from bdemm.kalman import KfEnsembleState, LinearGaussianModel, kf_bdemm_step
from bdemm.errors import BdemmError
from bdemm.wtt import WTTConfig

from test_kalman import _random_model, _random_scalar_pool, _stacked_row


def _takes_floats(pool):
    """Whether ``kf_bdemm_step`` runs ``pool`` on the Python-float row: the
    cache holds its entries as K Python floats each."""
    entries = kalman._stacked(tuple(pool))[4]
    if entries is None:
        return False
    assert len(entries) == 4
    assert all(len(e) == len(pool) and type(v) is float
               for e in entries for v in e)
    return True


def test_every_one_dimensional_pool_takes_the_float_row():
    rng = np.random.default_rng(11)
    for k in (1, 2, 13, 32):
        assert _takes_floats(_random_scalar_pool(rng, k))
    for d, m in ((1, 2), (2, 1), (2, 2)):
        for k in (1, 13):
            pool = [_random_model(rng, d, m) for _ in range(k)]
            assert not _takes_floats(pool)


def _step(state, pool, y, wtt, floor):
    try:
        return kf_bdemm_step(state, pool, y, wtt, weight_floor=floor)
    except BdemmError as exc:
        return type(exc), str(exc)


_HEALTHY = dict(A=1.0, Q=0.0, B=1.0, R=1.0)
_ROUNDOFF = dict(A=1.0, Q=1.0, B=0.8612346669752943, R=1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("models, mean, cov, y, message", [
    # model 1's innovation variance is 0, which the score rejects, but
    # model 2's prediction overflows: every prediction is checked first
    ([dict(A=1.0, Q=0.0, B=0.0, R=0.0), dict(A=10.0, Q=0.0, B=1.0, R=1.0),
      _HEALTHY], 0.0, 1e307, 0.0, "predicted belief is not finite"),
    # on y = 0.5 model 1's variance cancels past the roundoff guard; a NaN
    # y gives every model a NaN score and mean, and every posterior's
    # finiteness is checked before any roundoff
    ([_ROUNDOFF, _HEALTHY], 0.0, 1.0524213559718285e30, np.nan,
     "posterior belief is not finite"),
], ids=["prediction-before-score", "finiteness-before-roundoff"])
def test_the_float_row_fails_at_the_stage_the_stacked_kernels_do(
        models, mean, cov, y, message):
    pool = [LinearGaussianModel(**m) for m in models]
    assert _takes_floats(pool)
    state = KfEnsembleState.initial(GaussianBelief(mean, cov), k=len(pool))
    wtt = WTTConfig.identity()
    want = _stacked_row(state, pool, y, wtt, 0.0)
    assert want[1] == message
    assert _step(state, pool, y, wtt, 0.0) == want


@pytest.mark.filterwarnings("error")
def test_the_roundoff_pool_loses_its_variance_on_a_number():
    # the premise of the finiteness-before-roundoff case above
    pool = [LinearGaussianModel(**_ROUNDOFF), LinearGaussianModel(**_HEALTHY)]
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0524213559718285e30),
                                    k=2)
    got = _step(state, pool, 0.5, WTTConfig.identity(), 0.0)
    assert got[1] == "posterior covariance lost to roundoff"
