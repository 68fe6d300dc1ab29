"""numpy's floating-point error state: one scope per public entry point.

Each engine step and each public function that reaches a step's array
kernels runs under its own ``np.errstate(all="ignore")``, and the kernels
check their results explicitly.  So the library neither leaks numpy
warnings under numpy's defaults nor obeys a caller's ``np.seterr`` or
``np.errstate`` settings, and it leaves them as it found them.
"""

import inspect
import warnings

import numpy as np
import pytest

from bdemm import (
    AllZeroError,
    BdemmError,
    GaussianBelief,
    GPTSModel,
    IntelState,
    KfEnsembleState,
    LinearGaussianModel,
    NonFiniteBeliefError,
    NonFiniteForecastError,
    NonFiniteWeightError,
    ParticleEnsemble,
    PredictiveGaussian,
    Proposal,
    SmcEnsembleState,
    UnnormalizedTarget,
    WeightHistory,
    WeightVector,
    WTTConfig,
    bma_point_estimate,
    collapse_mixture,
    effective_sample_size,
    gaussian_log_evidence,
    gp_predict_next,
    intel_step,
    is_evidence,
    kf_bdemm_step,
    kf_predict,
    linear_gaussian_ssm,
    mc_log_evidence,
    perturb_pool,
    poe_combine,
    resample,
    reweight,
    smc_bdemm_step,
    update_model_weights_log,
)
from bdemm.wtt import apply_wtt, weight_step

NUMPY_DEFAULTS = dict(divide="warn", over="warn", under="ignore",
                      invalid="warn")

# rows each engine's stream below survives, whatever the caller's error
# state: exp underflows (60), squares overflow (1e200 and
# up), and a square at the float limit
FAR_ROWS = (60.0, 1e200, -1e300, 1e-300, 1.4e154, -60.0)


def _rows(seed, n=40):
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.0, n)
    y[rng.choice(n, len(FAR_ROWS), replace=False)] = FAR_ROWS
    return y


def _lg(a=1.0, r=1.0):
    return LinearGaussianModel(A=a, Q=1.0, B=1.0, R=r)


def _unit_belief():
    return GaussianBelief([0.0], [[1.0]])


def _readme_kf_pool():
    return [LinearGaussianModel(A=1.0, Q=0.05, B=1.0, R=r) for r in (0.04, 4.0)]


def _kf_run(y):
    pool, wtt = _readme_kf_pool(), WTTConfig.forgetting(0.8)
    state = KfEnsembleState.initial(_unit_belief(), k=2)
    out = []
    for row in y:
        state, est, log_evs = kf_bdemm_step(state, pool, row, wtt, 0.01)
        out.append((est.x_hat, state.weights.w, state.belief.cov, log_evs))
    return out


def _smc_run(y):
    pool = [linear_gaussian_ssm(1.0, 0.05, 1.0, r) for r in (0.04, 4.0)]
    rng = np.random.default_rng(5)
    state = SmcEnsembleState.initial(rng.normal(size=(64, 1)), k=2)
    wtt = WTTConfig.markov([[0.9, 0.1], [0.1, 0.9]])
    out = []
    for t, row in enumerate(y, 1):
        state, est, log_evs = smc_bdemm_step(state, pool, row, t, wtt, rng)
        out.append((est.x_hat, state.model_weights.w,
                    state.ensemble.particles, log_evs))
    return out


def _gp_run(y):
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=5),
                        [1.0, 100.0])
    state, wtt = IntelState.initial(k=2), WTTConfig.polya_urn([1, 1])
    out = []
    for t, row in enumerate(y):
        state, fused, log_evs = intel_step(state, pool, row, float(t), wtt)
        out.append((np.array([fused.mean, fused.var]),
                    state.model_weights.w, log_evs))
    return out


def _outcome(run, y):
    """Every array a run returns, row by row, as bytes."""
    return [b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
            for arrays in run(y)]


def _under(settings, fn, *args):
    """``fn(*args)`` under the error state ``settings``, warnings as errors."""
    with warnings.catch_warnings(), np.errstate(**settings):
        warnings.simplefilter("error")
        return fn(*args)


@pytest.mark.parametrize("run", [_kf_run, _smc_run, _gp_run],
                         ids=["kf", "smc", "gp"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_steps_return_the_same_bits_whatever_the_callers_error_state(
        run, seed):
    y = _rows(seed)
    expected = _under(NUMPY_DEFAULTS, _outcome, run, y)
    for settings in (dict(all="raise"), dict(all="warn")):
        assert _under(settings, _outcome, run, y) == expected


def test_an_underflowing_weight_step_ignores_a_raising_caller():
    # exp(-1000) underflows; it is the weight the step is meant to give
    args = (WTTConfig.identity(), WeightHistory.start(WeightVector([.5, .5])),
            np.array([0.0, -1000.0]))
    weights, _, _ = _under(dict(under="raise"), weight_step, *args)
    assert weights.w.tobytes() == weight_step(*args)[0].w.tobytes()


def test_a_kf_step_on_a_far_row_ignores_a_warning_caller():
    state = KfEnsembleState.initial(_unit_belief(), k=2)
    args = (state, _readme_kf_pool(), 60.0, WTTConfig.forgetting(0.8))
    got = _under(dict(under="warn"), kf_bdemm_step, *args)
    want = kf_bdemm_step(*args)
    assert got[1].x_hat.tobytes() == want[1].x_hat.tobytes()
    assert got[0].weights.w.tobytes() == want[0].weights.w.tobytes()


# public functions whose only floating-point event is an underflow, which
# numpy ignores by default: a raising caller must not see it
UNDERFLOW_ONLY = {
    "apply_wtt": lambda: apply_wtt(
        WTTConfig.markov([[1.0, 0.0], [1.0 - 1e-20, 1e-20]]),
        WeightHistory.start(WeightVector([1.0 - 1e-300, 1e-300]))).w,
    "effective_sample_size": lambda: effective_sample_size([1.0, 1e-200]),
    "bma_point_estimate": lambda: bma_point_estimate(
        [[1e-310], [1e-310]], WeightVector([0.5, 0.5])).x_hat,
}


@pytest.mark.parametrize("name", sorted(UNDERFLOW_ONLY))
def test_an_underflow_does_not_reach_a_raising_caller(name):
    call = UNDERFLOW_ONLY[name]
    assert (np.asarray(_under(dict(all="raise"), call)).tobytes()
            == np.asarray(call()).tobytes())


def _error_state_around(settings, fn, *args):
    """``np.geterr()`` under ``settings`` after ``fn(*args)`` returns or
    raises a library error."""
    with np.errstate(**settings):
        before = np.geterr()
        try:
            fn(*args)
        except BdemmError:
            pass
        return before, np.geterr()


def test_the_callers_error_state_is_restored_after_a_step():
    settings = dict(divide="raise", over="print", under="warn",
                    invalid="ignore")
    wtt = WTTConfig.identity()
    ok = (KfEnsembleState.initial(_unit_belief(), k=2), _readme_kf_pool(),
          0.5, wtt)
    # opposite observation maps put the posterior means a float range
    # apart, and their collapse overflows
    failing = (KfEnsembleState.initial(GaussianBelief([0.0], [[1e300]]), k=2),
               [LinearGaussianModel(A=1.0, Q=1.0, B=b, R=1.0)
                for b in (1.0, -1.0)], 1e300, wtt)
    with pytest.raises(NonFiniteBeliefError):
        kf_bdemm_step(*failing)
    for args in (ok, failing):
        before, after = _error_state_around(settings, kf_bdemm_step, *args)
        assert before == after == settings


# Every scoped public function, called outside any errstate under numpy's
# defaults, on an input whose arithmetic overflows, takes log 0 or gives
# inf - inf.  Each returns its documented result or raises a library error;
# a numpy warning is an error here.
def _smc_state():
    return SmcEnsembleState.initial(np.linspace(-1.0, 1.0, 8)[:, None], k=2)


def _cloud():
    return ParticleEnsemble.equal_weighted(np.linspace(-1.0, 1.0, 8)[:, None])


def _nowhere(rng, n):
    return rng.normal(size=(n, 1))


def _no_density(x):
    return np.full(x.shape[0], -np.inf)


LOUD_INPUTS = {
    # A P A^T past the float range
    "kf_predict": (lambda: kf_predict(_lg(a=1e200), GaussianBelief(
        [0.0], [[1e10]])), NonFiniteBeliefError),
    # a residual whose square overflows
    "gaussian_log_evidence": (lambda: gaussian_log_evidence(
        1e200, _unit_belief(), [[1.0]], [[1.0]]), -np.inf),
    # a zero-weight model: log 0
    "update_model_weights_log": (lambda: update_model_weights_log(
        WeightVector([1.0, 0.0]), [0.0, 0.0]).w.tolist(), [1.0, 0.0]),
    "weight_step": (lambda: weight_step(
        WTTConfig.identity(), WeightHistory.start(WeightVector([1.0, 0.0])),
        [0.0, 0.0])[0].w.tolist(), [1.0, 0.0]),
    # means a float range apart: the spread overflows
    "collapse_mixture": (lambda: collapse_mixture(
        [GaussianBelief([1e300], [[1.0]]), GaussianBelief([-1e300], [[1.0]])],
        WeightVector([0.5, 0.5])), NonFiniteBeliefError),
    # values near the float limit overflow the forecast's dot product
    "gp_predict_next": (lambda: gp_predict_next(
        GPTSModel(0.0, 1.0, 1.0, 0.1, 3), [0.0, 1.0, 2.0],
        [1.7e308, -1.7e308, 1.7e308], 3.0), NonFiniteForecastError),
    # means near 1e308 overflow the weighted mean
    "poe_combine": (lambda: poe_combine(
        [PredictiveGaussian(1e308, 1e-3), PredictiveGaussian(1e308, 1e-3)],
        WeightVector([0.5, 0.5])), NonFiniteForecastError),
    "PredictiveGaussian.logpdf": (
        lambda: PredictiveGaussian(0.0, 1.0).logpdf(1e200), -np.inf),
    # every model's quadratic form overflows: an uninformative step
    "kf_bdemm_step": (lambda: kf_bdemm_step(
        KfEnsembleState.initial(_unit_belief(), k=2), [_lg(), _lg(r=4.0)],
        1e200, WTTConfig.identity())[2].tolist(), [-np.inf, -np.inf]),
    # every likelihood is -inf: inf - inf in the normalization
    "smc_bdemm_step": (lambda: smc_bdemm_step(
        _smc_state(), [linear_gaussian_ssm(1.0, 1.0, 1.0, r)
                       for r in (1.0, 4.0)],
        1e200, 1, WTTConfig.identity(), np.random.default_rng(3)
    )[2].tolist(), [-np.inf, -np.inf]),
    "intel_step": (lambda: intel_step(
        IntelState.initial(k=2), [GPTSModel(0.0, 1.0, 1.0, v, 3)
                                  for v in (0.1, 10.0)],
        1e200, 0.0, WTTConfig.identity())[2].tolist(), [-np.inf, -np.inf]),
    # a weight total past the float range
    "resample": (lambda: resample(np.zeros(2), [1e308, 1e308], 2,
                                  np.random.default_rng(0)),
                 NonFiniteWeightError),
    "reweight": (lambda: reweight(linear_gaussian_ssm(1.0, 1.0, 1.0, 1.0),
                                  _cloud(), np.array([1e200]), 1),
                 AllZeroError),
    "mc_log_evidence": (lambda: mc_log_evidence([1.0, 0.0], [0.0, 0.0]), 0.0),
    # target and proposal both -inf: inf - inf
    "is_evidence": (lambda: is_evidence(
        UnnormalizedTarget(_no_density), Proposal(_nowhere, _no_density), 4,
        np.random.default_rng(0)), NonFiniteWeightError),
}


@pytest.mark.parametrize("name", sorted(LOUD_INPUTS))
def test_every_scoped_function_is_quiet_on_its_own(name):
    call, expected = LOUD_INPUTS[name]
    with warnings.catch_warnings(), np.errstate(**NUMPY_DEFAULTS):
        warnings.simplefilter("error")
        if isinstance(expected, type):
            with pytest.raises(expected):
                call()
        else:
            assert call() == expected


@pytest.mark.parametrize("fn, position, name", [
    (kf_bdemm_step, 2, "y"), (smc_bdemm_step, 3, "t"), (intel_step, 3, "t"),
    (resample, 1, "weights"), (weight_step, 2, "log_evidences")])
def test_scoped_functions_keep_their_names_and_signatures(fn, position, name):
    # the benchmark's tracer finds them by identity and reads positional
    # arguments of theirs (the SMC step's t, resample's weights)
    assert fn.__name__ == fn.__wrapped__.__name__
    assert inspect.signature(fn) == inspect.signature(fn.__wrapped__)
    assert list(inspect.signature(fn).parameters)[position] == name
