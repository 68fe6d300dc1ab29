"""numpy's floating-point error state: one rule for the whole library.

Every public function and constructor that computes on caller values runs
under its own ``np.errstate(all="ignore")``, and checks its results
explicitly; kernels and model callables run under their caller's scope.
So the library neither leaks numpy warnings under numpy's defaults nor
obeys a caller's ``np.seterr`` or ``np.errstate`` settings, and it leaves
them as it found them.
"""

import ast
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

from bdemm import (
    AllZeroError,
    BdemmError,
    ConfigMismatchError,
    GaussianBelief,
    GPTSModel,
    IntelState,
    InvalidInputError,
    KfEnsembleState,
    LinearGaussianModel,
    NonFiniteBeliefError,
    NonFiniteForecastError,
    NonFiniteWeightError,
    ParticleEnsemble,
    PredictiveGaussian,
    Proposal,
    SmcEnsembleState,
    ToyConfig,
    UnnormalizedTarget,
    WeightHistory,
    WeightVector,
    WTTConfig,
    bma_point_estimate,
    collapse_mixture,
    effective_sample_size,
    gaussian_log_evidence,
    gen_toy_series,
    gp_predict_next,
    intel_step,
    is_evidence,
    kf_bdemm_step,
    kf_predict,
    linear_gaussian_ssm,
    mc_log_evidence,
    mse,
    perturb_pool,
    poe_combine,
    resample,
    reweight,
    smc_bdemm_step,
    update_model_weights_log,
)
from bdemm.core import _quiet
from bdemm import stream, toy
from bdemm.core import checked_cov
from bdemm.smc import gaussian_noise, uniform_noise
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
        out.append((est.x_hat, state.model_weights.w, state.belief.cov, log_evs))
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
    assert got[0].model_weights.w.tobytes() == want[0].model_weights.w.tobytes()


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


# Public constructors and helpers that compute on caller values, each on an
# input whose arithmetic overflows or underflows: the documented result or
# error, whatever the caller's error state.
def _tiny_3d_stream(tmp_path):
    """A one-model 3-D Kalman stream whose evidence overflows ``exp``."""
    eye = "[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]"
    tiny = eye.replace("1.0", "1e-300")
    config = tmp_path / "tiny.cfg"
    config.write_text("\n".join([
        "engine = kf", "kf.models = 1", "kf.model.1.A = " + eye,
        "kf.model.1.Q = " + tiny, "kf.model.1.B = " + eye,
        "kf.model.1.R = " + tiny, "kf.init.mean = [0.0, 0.0, 0.0]",
        "kf.init.cov = " + tiny]) + "\n")
    rows = tmp_path / "rows.csv"
    rows.write_text("0,0,0\n0,0,0\n")
    out = tmp_path / "out.csv"
    assert stream.run_stream(config, rows, out) == 2
    return [line.split(",")[-1] for line in out.read_text().splitlines()]


CONSTRUCTOR_INPUTS = {
    # weights whose total overflows
    "WeightVector": (lambda _: WeightVector([1e308, 1e308]),
                     (ValueError, "sum to 1")),
    "ParticleEnsemble": (lambda _: ParticleEnsemble(np.zeros((2, 1)),
                                                    [1e308, 1e308]),
                         (ValueError, "sum to 1")),
    # a row sum that overflows
    "WTTConfig.markov": (lambda _: WTTConfig.markov(
        [[1e308, 1e308], [0.0, 1.0]]), (ConfigMismatchError, "sum to 1")),
    "WTTConfig.constant": (lambda _: WTTConfig.constant([1e308, 1e308]),
                           (ValueError, "sum to 1")),
    # the halving symmetrization underflows a subnormal entry to zero
    "checked_cov": (lambda _: checked_cov(
        [[1.0, 5e-324], [5e-324, 1.0]]).tolist(), [[1.0, 0.0], [0.0, 1.0]]),
    # a 1x1 matrix is its own transpose: not halved, so not rounded
    "checked_cov-1x1": (lambda _: checked_cov([[5e-324]]).tolist(),
                        [[5e-324]]),
    # a difference whose square overflows
    "mse": (lambda _: mse(np.array([1e200]), np.array([-1e200])), np.inf),
    # states near 1e300 square to infinite observations
    "gen_toy_series": (lambda _: [a.shape for a in gen_toy_series(
        ToyConfig(gamma_scale=1e300, horizon=3, runs=1), 0)], [(3,)] * 3),
    # a scaled noise variance that overflows
    "perturb_pool": (lambda _: perturb_pool(
        GPTSModel(0, 1, 1, np.float64(1e300), 3), [1e10]),
        (ValueError, "noise variance")),
    # 2 pi var overflows: rejected, as a density -inf everywhere would be
    "gaussian_noise": (lambda _: gaussian_noise(np.float64(1e308)),
                       (InvalidInputError, "2 pi var must be finite")),
    # high - low overflows: rejected, as a density -inf everywhere would be
    "uniform_noise": (lambda _: uniform_noise(np.float64(-1e308),
                                              np.float64(1e308)),
                      (InvalidInputError, "finite width")),
    "run_stream": (_tiny_3d_stream, ["ev_1", "inf", "inf"]),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_INPUTS))
def test_every_public_constructor_and_helper_is_quiet(name, tmp_path):
    call, expected = CONSTRUCTOR_INPUTS[name]
    for settings in (NUMPY_DEFAULTS, dict(all="raise")):
        with warnings.catch_warnings(), np.errstate(**settings):
            warnings.simplefilter("error")
            before = np.geterr()
            if isinstance(expected, tuple):
                error, message = expected
                with pytest.raises(error, match=message):
                    call(tmp_path)
            else:
                assert call(tmp_path) == expected
            assert np.geterr() == before


@pytest.mark.parametrize("fn, name", [
    (WeightVector.__post_init__, "__post_init__"),
    (ParticleEnsemble.__post_init__, "__post_init__"),
    (WTTConfig.__post_init__, "__post_init__"),
    (checked_cov, "checked_cov"), (toy.mse, "mse"),
    (toy.gen_toy_series, "gen_toy_series"), (perturb_pool, "perturb_pool"),
    (gaussian_noise, "gaussian_noise"), (uniform_noise, "uniform_noise"),
    (stream.run_stream, "run_stream")])
def test_newly_scoped_functions_keep_their_names_and_signatures(fn, name):
    # the benchmark's tracer rebinds gen_toy_series and run_stream by name
    assert hasattr(fn, "__wrapped__")
    assert fn.__name__ == fn.__wrapped__.__name__ == name
    assert inspect.signature(fn) == inspect.signature(fn.__wrapped__)


def test_a_reentered_scope_restores_each_callers_error_state():
    # numpy 1.x's errstate decorator kept one saved state per function, so
    # a function that re-entered itself restored its own scope on return
    inside = []

    @_quiet
    def nested(depth):
        if depth:
            nested(depth - 1)
        inside.append(np.geterr())  # after the inner call has returned
        return np.float64(1.0) / 0.0

    with np.errstate(all="raise"):
        before = np.geterr()
        assert nested(2) == np.inf
        assert np.geterr() == before
    assert inside == [dict.fromkeys(before, "ignore")] * 3


def test_errstate_is_entered_only_by_the_scope_and_one_model_callable():
    # every other function runs under a caller's scope or under _quiet;
    # linear_gaussian_ssm's transition is model code that the unscoped,
    # per-row propagate calls
    sites = []
    for path in sorted(Path(stream.__file__).parent.glob("*.py")):
        text = path.read_text()
        defs = [node for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.FunctionDef)]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "np.errstate(" in line:
                sites.append((path.name, [d.name for d in defs
                                          if d.lineno <= lineno <= d.end_lineno]))
    assert sites == [("core.py", ["_quiet"]),
                     ("smc.py", ["linear_gaussian_ssm", "sample_transition"])]
