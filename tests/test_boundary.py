"""Validation happens once, at the boundary.

Engine steps build their beliefs, weights, estimates and states without
re-running the public constructors' checks.  These tests are the net under
that: every value a step returns on random pools and streams passes its
public constructor and is read-only, and the checks run only at set-up,
however long the stream.
"""

import warnings

import numpy as np
import pytest

from bdemm import (
    GaussianBelief,
    GPTSModel,
    IntelState,
    KfEnsembleState,
    LinearGaussianModel,
    ParticleEnsemble,
    PointEstimate,
    PredictiveGaussian,
    SmcEnsembleState,
    WeightHistory,
    WeightVector,
    WTTConfig,
    default_markov_matrix,
    intel_step,
    kf_bdemm_step,
    linear_gaussian_ssm,
    perturb_pool,
    smc_bdemm_step,
)
from bdemm import core, kalman
from bdemm.errors import BdemmError
from bdemm.stream import run_stream


def _random_wtt(rng, k):
    kind = rng.integers(5)
    if kind == 0:
        return WTTConfig.identity()
    if kind == 1:
        return WTTConfig.constant(rng.dirichlet(np.ones(k)))
    if kind == 2:
        return WTTConfig.markov(default_markov_matrix(k, rng.uniform(0.5, 1.0)))
    if kind == 3:
        return WTTConfig.forgetting(rng.uniform(0.1, 1.0))
    return WTTConfig.polya_urn(rng.integers(1, 5, size=k))


def _random_floor(rng, k):
    return float(rng.choice([0.0, rng.uniform(0.0, 0.5 / k)]))


def _random_rows(rng, n, scale):
    """Gaussian rows with a few far-off ones mixed in."""
    rows = rng.normal(0.0, scale, size=n)
    far = rng.random(n) < 0.1
    rows[far] = rng.choice([-1.0, 1.0], size=far.sum()) * 10.0 ** rng.uniform(
        3.0, 300.0, size=far.sum())
    return rows


def _random_linear_model(rng, d, m):
    a = rng.uniform(-1.1, 1.1, size=(d, d)) / d
    q = rng.standard_normal((d, d))
    b = rng.standard_normal((m, d))
    r = rng.standard_normal((m, m))
    return LinearGaussianModel(A=a, Q=q @ q.T + 0.01 * np.eye(d), B=b,
                               R=r @ r.T + 0.01 * np.eye(m))


def _run(step, state, rows):
    """Yield each state and estimate ``step`` returns over ``rows``.

    A step may end the stream with a documented ``BdemmError``, as it ends
    ``bdemm stream``; any other exception or warning fails the test.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, y in enumerate(rows, start=1):
            try:
                state, estimate, _ = step(state, t, y)
            except BdemmError:
                return
            yield state, estimate


def _assert_read_only(*arrays):
    for a in arrays:
        assert not a.flags.writeable


def _assert_weights_pass(weights: WeightVector):
    WeightVector(weights.w)
    _assert_read_only(weights.w)


def _assert_history_passes(history: WeightHistory):
    _assert_weights_pass(history.last)
    WeightHistory(history.last, history.cumulative, history.count)
    _assert_read_only(history.cumulative)


def _assert_estimate_passes(estimate: PointEstimate):
    PointEstimate(estimate.x_hat)
    _assert_read_only(estimate.x_hat)


def random_kf_stream(seed, d):
    """A ``step(state, t, y)`` over a random pool of one to three models
    with d-dimensional states and observations, its opening state and 40
    scalar rows, each observed in every coordinate.  tools/same_outputs.py
    counts how these streams end, over seeds 0-299 and d = 1, 2."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    pool = [_random_linear_model(rng, d, d) for _ in range(k)]
    wtt, floor = _random_wtt(rng, k), _random_floor(rng, k)
    state = KfEnsembleState.initial(
        GaussianBelief(rng.standard_normal(d), np.eye(d)),
        weights=WeightVector(rng.dirichlet(np.ones(k))))

    def step(state, t, y):
        return kf_bdemm_step(state, pool, np.full(d, y), wtt,
                             weight_floor=floor)

    return step, state, _random_rows(rng, 40, 2.0)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_kf_steps_return_values_their_constructors_accept(seed, d):
    step, state, rows = random_kf_stream(seed, d)
    for state, est in _run(step, state, rows):
        b = state.belief
        GaussianBelief(b.mean, b.cov)
        _assert_read_only(b.mean, b.cov)
        _assert_history_passes(state.history)
        _assert_estimate_passes(est)


@pytest.mark.parametrize("seed", range(6))
def test_smc_steps_return_values_their_constructors_accept(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    pool = [linear_gaussian_ssm(m.A, m.Q, m.B, m.R)
            for m in (_random_linear_model(rng, 1, 1) for _ in range(k))]
    wtt, floor = _random_wtt(rng, k), _random_floor(rng, k)
    state = SmcEnsembleState.initial(rng.standard_normal((50, 1)), k=k)

    def step(state, t, y):
        return smc_bdemm_step(state, pool, y, t, wtt, rng, weight_floor=floor)

    for state, est in _run(step, state, _random_rows(rng, 40, 2.0)):
        ens = state.ensemble
        ParticleEnsemble(ens.particles, ens.weights)
        _assert_read_only(ens.particles, ens.weights)
        _assert_history_passes(state.history)
        _assert_estimate_passes(est)


@pytest.mark.parametrize("seed", range(6))
def test_intel_steps_return_values_their_constructors_accept(seed):
    rng = np.random.default_rng(seed)
    nominal = GPTSModel(mean_const=rng.normal(),
                        signal_variance=rng.uniform(0.5, 2.0),
                        lengthscale=rng.uniform(1.0, 20.0),
                        noise_var=rng.uniform(0.01, 0.5),
                        window=int(rng.integers(1, 12)))
    factors = rng.uniform(0.5, 50.0, size=rng.integers(1, 4))
    pool = perturb_pool(nominal, factors)
    k = len(pool)
    wtt, floor = _random_wtt(rng, k), _random_floor(rng, k)
    times = np.cumsum(rng.choice([1.0, 1.0, 1.0, 0.5, 3.0], size=40))

    def step(state, i, y):
        return intel_step(state, pool, y, times[i - 1], wtt,
                          weight_floor=floor)

    rows = _random_rows(rng, times.size, 1.0)
    for state, _ in _run(step, IntelState.initial(k=k), rows):
        IntelState(state.buffer, state.history)
        _assert_history_passes(state.history)


KF_STREAM = """\
engine = kf
wtt.kind = forgetting
wtt.alpha = 0.8
weight_floor = 0.01
kf.models = 2
kf.model.1.A = [1.0, 0.1, 0.0, 1.0]
kf.model.1.Q = [0.05, 0.0, 0.0, 0.05]
kf.model.1.B = [1.0, 0.0]
kf.model.1.R = [0.04]
kf.model.2.A = [1.0, 0.0, 0.0, 1.0]
kf.model.2.Q = [0.05, 0.0, 0.0, 0.05]
kf.model.2.B = [1.0, 0.0]
kf.model.2.R = [4.0]
kf.init.mean = [0.0, 0.0]
kf.init.cov = [1.0, 0.0, 0.0, 1.0]
"""

SMC_STREAM = """\
engine = smc
wtt.kind = markov
wtt.matrix = [0.9, 0.1, 0.1, 0.9]
smc.models = 2
smc.particles = 50
smc.model.1.kind = linear_gaussian
smc.model.1.A = [1.0]
smc.model.1.Q = [0.05]
smc.model.1.B = [1.0]
smc.model.1.R = [0.04]
smc.model.2.kind = linear_gaussian
smc.model.2.A = [1.0]
smc.model.2.Q = [0.05]
smc.model.2.B = [1.0]
smc.model.2.R = [4.0]
smc.init.mean = [0.0]
smc.init.cov = [1.0]
"""

INTEL_STREAM = """\
engine = intel
wtt.kind = polya_urn
wtt.beta = [1, 2, 3]
intel.window = 8
intel.noise_factors = [1.0, 9.0, 36.0]
"""


def _check_counts(monkeypatch, tmp_path, config, rows):
    """How often each boundary check runs over one stream of ``rows`` rows."""
    counts = dict.fromkeys(("checked_cov", "WeightVector", "IntelState",
                            "PredictiveGaussian"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # kalman binds checked_cov by name, so both bindings are counted
    cov_check = counting("checked_cov", core.checked_cov)
    monkeypatch.setattr(core, "checked_cov", cov_check)
    monkeypatch.setattr(kalman, "checked_cov", cov_check)
    for cls in (WeightVector, IntelState, PredictiveGaussian):
        monkeypatch.setattr(cls, "__post_init__",
                            counting(cls.__name__, cls.__post_init__))
    cfg = tmp_path / "s.cfg"
    cfg.write_text(config)
    obs = tmp_path / "obs.csv"
    obs.write_text("".join("%r\n" % float(y) for y in
                           np.random.default_rng(3).normal(0.0, 1.0, rows)))
    assert run_stream(str(cfg), str(obs), str(tmp_path / "o.csv")) == rows
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("config", [KF_STREAM, SMC_STREAM, INTEL_STREAM],
                         ids=["kf", "smc", "intel"])
def test_checks_run_at_set_up_only(monkeypatch, tmp_path, config):
    short = _check_counts(monkeypatch, tmp_path, config, 20)
    long = _check_counts(monkeypatch, tmp_path, config, 200)
    assert short == long
