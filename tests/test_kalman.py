"""Kalman engine: per-model recursions and the ensemble step."""

import warnings

import numpy as np
import pytest

from bdemm import (
    AllZeroError,
    DimensionMismatchError,
    GaussianBelief,
    KfEnsembleState,
    LinearGaussianModel,
    NonFiniteBeliefError,
    WeightVector,
    WTTConfig,
    apply_wtt,
    collapse_mixture,
    default_markov_matrix,
    kf_bdemm_step,
    kf_predict,
    weight_step,
)
from bdemm import kalman
from bdemm.wtt import KINDS


def _textbook_step(model, mean, cov, y):
    """Reference predict-then-update of one model, written with plain
    inverses, nothing shared: the posterior mean and covariance and the log
    density of ``y`` under the predicted observation."""
    A, Q, B, R = model.A, model.Q, model.B, model.R
    mean = A @ mean
    cov = A @ cov @ A.T + Q
    s = B @ cov @ B.T + R
    s_inv = np.linalg.inv(s)
    resid = np.atleast_1d(y) - B @ mean
    gain = cov @ B.T @ s_inv
    log_ev = -0.5 * (resid.size * np.log(2.0 * np.pi)
                     + np.linalg.slogdet(s)[1] + resid @ s_inv @ resid)
    return mean + gain @ resid, (np.eye(mean.size) - gain @ B) @ cov, log_ev


def _textbook_kf(model, mean, cov, ys):
    """Reference filter: :func:`_textbook_step` along ``ys``."""
    means, covs = [], []
    for y in ys:
        mean, cov, _ = _textbook_step(model, mean, cov, y)
        means.append(mean)
        covs.append(cov)
    return means, covs


def _random_model(rng, d, m):
    a = rng.standard_normal((d, d)) * 0.5
    q = rng.standard_normal((d, d))
    q = q @ q.T + 0.1 * np.eye(d)
    b = rng.standard_normal((m, d))
    r = rng.standard_normal((m, m))
    r = r @ r.T + 0.1 * np.eye(m)
    return LinearGaussianModel(A=a, Q=q, B=b, R=r)


# ---------------------------------------------------------------------------
# model container


def test_model_validation():
    LinearGaussianModel(A=1.0, Q=0.5, B=1.0, R=1.0)  # scalars promote
    with pytest.raises(DimensionMismatchError):
        LinearGaussianModel(A=np.eye(2), Q=np.eye(3), B=np.eye(2), R=np.eye(2))
    with pytest.raises(ValueError):
        LinearGaussianModel(A=1.0, Q=-1.0, B=1.0, R=1.0)
    with pytest.raises(ValueError):
        LinearGaussianModel(A=np.eye(2), Q=[[1.0, 0.5], [-0.5, 1.0]],
                            B=np.eye(2), R=np.eye(2))
    m = LinearGaussianModel(A=np.eye(2), Q=np.eye(2),
                            B=np.array([[1.0, 0.0]]), R=[[1.0]])
    assert m.state_dim == 2
    assert m.obs_dim == 1


def test_models_compare_and_hash_by_identity():
    # equal matrices are still two models; neither == nor hash may raise
    def build():
        return LinearGaussianModel(A=np.eye(2), Q=np.eye(2), B=np.eye(2),
                                   R=np.eye(2))

    m, twin = build(), build()
    assert m == m
    assert not m == twin
    assert m != twin
    assert hash(m) == hash(m)
    assert len({m, twin, m}) == 2


# ---------------------------------------------------------------------------
# predict / update


def test_predict_hand_case():
    model = LinearGaussianModel(A=2.0, Q=0.5, B=1.0, R=1.0)
    out = kf_predict(model, GaussianBelief(1.0, 1.0))
    assert out.mean[0] == pytest.approx(2.0, abs=1e-15)
    assert out.cov[0, 0] == pytest.approx(4.5, abs=1e-15)


def _one_model_step(model, belief, y):
    """A one-model ensemble step from ``belief``: the next belief and the
    model's log evidence."""
    state, _, log_evs = kf_bdemm_step(KfEnsembleState.initial(belief, k=1),
                                      [model], y, WTTConfig.identity())
    return state.belief, log_evs[0]


def test_update_hand_case():
    # Q = 0, so the prediction is N(0, 2); unit map and noise, y = 2:
    # posterior N(4/3, 2/3), evidence N(2; 0, 3)
    model = LinearGaussianModel(A=1.0, Q=0.0, B=1.0, R=1.0)
    post, log_ev = _one_model_step(model, GaussianBelief(0.0, 2.0), 2.0)
    assert post.mean[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert post.cov[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert np.exp(log_ev) == pytest.approx(0.11826, abs=1e-5)


def test_update_dimension_checks():
    model = LinearGaussianModel(A=np.eye(2), Q=np.eye(2),
                                B=np.array([[1.0, 0.0]]), R=[[1.0]])
    with pytest.raises(DimensionMismatchError):
        _one_model_step(model, GaussianBelief(0.0, 1.0), 1.0)  # belief is 1-d
    with pytest.raises(DimensionMismatchError):
        _one_model_step(model, GaussianBelief([0.0, 0.0], np.eye(2)),
                        [1.0, 1.0])


def test_single_model_ensemble_matches_textbook_filter():
    # a hundred random scalar and multivariate systems, full trajectories
    rng = np.random.default_rng(61)
    for trial in range(100):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, d + 1))
        model = _random_model(rng, d, m)
        mean0 = rng.standard_normal(d)
        cov0 = np.eye(d) * float(rng.uniform(0.5, 2.0))
        ys = rng.standard_normal((5, m)) * 2.0

        state = KfEnsembleState.initial(GaussianBelief(mean0, cov0), k=1)
        wtt = WTTConfig.identity()
        for y in ys:
            state, est, _ = kf_bdemm_step(state, [model], y, wtt)
            assert state.model_weights.w[0] == 1.0  # K=1: weight never moves

        ref_means, ref_covs = _textbook_kf(model, mean0, cov0, ys)
        assert np.allclose(state.belief.mean, ref_means[-1], atol=1e-10)
        assert np.allclose(state.belief.cov, ref_covs[-1], atol=1e-10)


def test_single_model_long_run_stays_tight():
    rng = np.random.default_rng(67)
    model = _random_model(rng, 2, 1)
    mean0 = np.zeros(2)
    cov0 = np.eye(2)
    ys = rng.standard_normal((100, 1))
    state = KfEnsembleState.initial(GaussianBelief(mean0, cov0), k=1)
    traj = []
    for y in ys:
        state, est, _ = kf_bdemm_step(state, [model], y, WTTConfig.identity())
        traj.append(state.belief.mean.copy())
    ref_means, _ = _textbook_kf(model, mean0, cov0, ys)
    worst = max(float(np.abs(a - b).max()) for a, b in zip(traj, ref_means))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# ensemble behavior


def _two_model_pool():
    good = LinearGaussianModel(A=1.0, Q=0.1, B=1.0, R=1.0)
    bad = LinearGaussianModel(A=1.0, Q=0.1, B=1.0, R=400.0)
    return [good, bad]


def test_weights_move_toward_the_better_model():
    pool = _two_model_pool()
    rng = np.random.default_rng(71)
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    x = 0.0
    for _ in range(30):
        x += rng.normal(0.0, np.sqrt(0.1))
        y = x + rng.normal(0.0, 1.0)  # unit observation noise: model 0 is right
        state, _, _ = kf_bdemm_step(state, pool, y, WTTConfig.identity())
    assert state.model_weights.w[0] > 0.9


def test_estimate_equals_collapsed_mean_exactly():
    pool = _two_model_pool()
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    for y in (0.5, -0.2, 1.7):
        state, est, _ = kf_bdemm_step(state, pool, y, WTTConfig.forgetting(0.9))
        assert np.array_equal(est.x_hat, state.belief.mean)


def test_belief_is_the_collapsed_posterior_mixture():
    pool = _two_model_pool()
    start = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    state, _, log_evs = kf_bdemm_step(start, pool, 0.8, WTTConfig.identity())
    updates = [_textbook_step(m, start.belief.mean, start.belief.cov, 0.8)
               for m in pool]
    ref = collapse_mixture([GaussianBelief(mean, cov)
                            for mean, cov, _ in updates], state.model_weights)
    assert np.allclose(state.belief.mean, ref.mean, atol=1e-15)
    assert np.allclose(state.belief.cov, ref.cov, atol=1e-15)
    assert log_evs == pytest.approx([log_ev for _, _, log_ev in updates],
                                    rel=1e-15)


def test_identity_wtt_weights_track_evidence_products():
    # with the identity operator, weights after t steps are proportional to
    # the prior times the product of per-step evidences
    pool = _two_model_pool()
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    log_prod = np.zeros(2)
    for y in (0.4, -1.0, 2.2, 0.1):
        state, _, log_evs = kf_bdemm_step(state, pool, y, WTTConfig.identity())
        log_prod += log_evs
    expected = np.exp(log_prod - log_prod.max())
    expected = expected * 0.5  # uniform prior
    expected /= expected.sum()
    assert np.allclose(state.model_weights.w, expected, atol=1e-12)


def test_all_models_underflow_skips_the_step():
    # y so large that resid^2 / S overflows: every log evidence is -inf.
    # The step then extracts nothing: predictive weights, predicted beliefs.
    pool = _two_model_pool()
    start = WeightVector([0.7, 0.3])
    prior = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), weights=start)
    with np.errstate(over="ignore"):
        state, est, log_evs = kf_bdemm_step(prior, pool, 1e200,
                                            WTTConfig.identity())
    assert np.array_equal(state.model_weights.w, start.w)
    assert log_evs.tolist() == [-np.inf, -np.inf]
    # both candidates share A and Q, so both predict N(0, 1.1) and the
    # collapsed belief is that prediction, untouched by the observation
    assert np.allclose(est.x_hat, [0.0], atol=1e-15)
    assert np.allclose(state.belief.mean, [0.0], atol=1e-15)
    assert np.allclose(state.belief.cov, [[1.1]], atol=1e-12)
    predicted = [kf_predict(m, prior.belief) for m in pool]
    for p in predicted:
        assert np.allclose(p.mean, [0.0], atol=1e-15)
    ref = collapse_mixture(predicted, state.model_weights)
    assert np.array_equal(state.belief.mean, ref.mean)
    assert np.array_equal(state.belief.cov, ref.cov)


@pytest.mark.parametrize("y", [1e160, 1e300])
def test_overflowing_residual_falls_back_without_warning(y):
    # the quadratic form overflows to inf: no numpy warning may escape, and
    # the step keeps the predictive weights and the predicted beliefs
    pool = _two_model_pool()
    start = WeightVector([0.7, 0.3])
    wtt = WTTConfig.forgetting(0.5)
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), weights=start)
    predictive = apply_wtt(wtt, state.history)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new, est, log_evs = kf_bdemm_step(state, pool, y, wtt)
    assert np.array_equal(new.model_weights.w, predictive.w)
    assert log_evs.tolist() == [-np.inf, -np.inf]
    predicted = [kf_predict(model, state.belief) for model in pool]
    ref = collapse_mixture(predicted, new.model_weights)
    assert np.array_equal(new.belief.mean, ref.mean)
    assert np.array_equal(new.belief.cov, ref.cov)


def test_update_that_cancels_to_roundoff_raises():
    # B P B^T dwarfs R by ~1e30, so P - G B P is roundoff, here negative;
    # Q = 1 is lost in rounding, so the prediction is the starting belief
    model = LinearGaussianModel(A=1.0, Q=1.0, B=0.8612346669752943, R=1.0)
    with pytest.raises(NonFiniteBeliefError, match="roundoff"):
        _one_model_step(model, GaussianBelief(0.0, 1.0524213559718285e30), 0.5)


def test_update_on_an_unrepresentable_observation_keeps_the_prediction():
    # the gain (~500) times the residual overflows, and so does the
    # quadratic form: the next belief is the prediction N(0, 1), and
    # nothing warns
    model = LinearGaussianModel(A=1.0, Q=1.0, B=0.001, R=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        posterior, log_ev = _one_model_step(model, GaussianBelief(0.0, 0.0),
                                            1e306)
    assert log_ev == -np.inf
    assert posterior.mean.tolist() == [0.0]
    assert posterior.cov.tolist() == [[1.0]]


def test_weight_floor_keeps_models_alive():
    pool = _two_model_pool()
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    for y in np.linspace(-0.5, 0.5, 20):
        state, _, _ = kf_bdemm_step(state, pool, float(y),
                                    WTTConfig.identity(), weight_floor=0.05)
    assert state.model_weights.w.min() >= 0.05 / (1.0 + 2 * 0.05)


def test_history_grows_one_row_per_step():
    pool = _two_model_pool()
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    for i in range(7):
        state, _, _ = kf_bdemm_step(state, pool, 0.1 * i, WTTConfig.identity())
    assert len(state.history) == 8
    assert state.history.last is state.model_weights


def test_pool_size_must_match_weights():
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    with pytest.raises(DimensionMismatchError):
        kf_bdemm_step(state, _two_model_pool()[:1], 0.0, WTTConfig.identity())
    with pytest.raises(DimensionMismatchError):
        KfEnsembleState.initial(GaussianBelief(0.0, 1.0))


@pytest.mark.parametrize("name", ["A", "B"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_maps(name, bad):
    matrices = {"A": np.eye(2), "Q": np.eye(2), "B": np.eye(2), "R": np.eye(2)}
    matrices[name] = matrices[name].copy()
    matrices[name][1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="%s must be finite" % name):
            LinearGaussianModel(**matrices)


# ---------------------------------------------------------------------------
# the stacked step against the per-model recursion


def _wtt_of_kind(kind, rng, k):
    if kind == "identity":
        return WTTConfig.identity()
    if kind == "constant":
        return WTTConfig.constant(rng.dirichlet(np.ones(k)))
    if kind == "markov":
        return WTTConfig.markov(default_markov_matrix(k, rng.uniform(0.5, 1.0)))
    if kind == "forgetting":
        return WTTConfig.forgetting(rng.uniform(0.1, 1.0))
    return WTTConfig.polya_urn(rng.integers(1, 5, size=k))


def _per_model_step(state, pool, y, wtt, floor):
    """One ensemble step as a loop over the models: the textbook recursion
    for each one, then the weighted posteriors collapsed with the textbook
    moments."""
    updates = [_textbook_step(m, state.belief.mean, state.belief.cov, y)
               for m in pool]
    log_evs = np.array([log_ev for _, _, log_ev in updates])
    weights, _, _ = weight_step(wtt, state.history, log_evs, floor)
    mean = sum(wk * mk for wk, (mk, _, _) in zip(weights.w, updates))
    cov = sum(wk * (ck + np.outer(mk - mean, mk - mean))
              for wk, (mk, ck, _) in zip(weights.w, updates))
    return mean, cov, weights.w, log_evs


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_step_matches_the_per_model_recursion(kind, d):
    rng = np.random.default_rng([KINDS.index(kind), d])
    k = int(rng.integers(1, 5))
    m = int(rng.integers(1, 3))
    pool = [_random_model(rng, d, m) for _ in range(k)]
    wtt = _wtt_of_kind(kind, rng, k)
    # with a floor on every other case
    floor = rng.uniform(0.0, 0.5 / k) if (KINDS.index(kind) + d) % 2 else 0.0
    state = KfEnsembleState.initial(
        GaussianBelief(rng.standard_normal(d), np.eye(d)),
        weights=WeightVector(rng.dirichlet(np.ones(k))))
    for y in rng.standard_normal((200, m)) * 2.0:
        mean, cov, w, log_evs = _per_model_step(state, pool, y, wtt, floor)
        if d == 1:
            # a model's evidence does not depend on the pool it sits in
            alone = [_one_model_step(model, state.belief, y)[1]
                     for model in pool]
        state, est, got_log_evs = kf_bdemm_step(state, pool, y, wtt,
                                                weight_floor=floor)
        np.testing.assert_allclose(state.belief.mean, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.belief.cov, cov, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.model_weights.w, w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_log_evs, log_evs, rtol=1e-12, atol=0)
        if d == 1:
            assert np.array_equal(got_log_evs, alone)


@pytest.mark.parametrize("dims", [[(1, 1), (2, 1)], [(2, 1), (2, 2)]],
                         ids=["state", "observation"])
def test_pool_of_mixed_dimensions_raises_a_library_error(dims):
    rng = np.random.default_rng(5)
    pool = [_random_model(rng, d, m) for d, m in dims]
    d = dims[0][0]
    state = KfEnsembleState.initial(GaussianBelief(np.zeros(d), np.eye(d)), k=2)
    with pytest.raises(DimensionMismatchError, match="differ"):
        kf_bdemm_step(state, pool, np.zeros(dims[0][1]), WTTConfig.identity())


def test_pool_is_stacked_once_per_stream():
    pool = _two_model_pool()
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    for y in np.linspace(-1.0, 1.0, 50):
        state, _, _ = kf_bdemm_step(state, pool, float(y),
                                    WTTConfig.forgetting(0.9))
    info = kalman._stacked.cache_info()
    assert (info.misses, info.hits) == (1, 49)


def test_nan_observation_raises():
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    with pytest.raises(NonFiniteBeliefError):
        kf_bdemm_step(state, _two_model_pool(), np.nan, WTTConfig.identity())


def test_posterior_covariance_near_the_float_limit_stays_finite():
    # the observation barely informs the state, so the posterior keeps the
    # prior covariance, whose doubling would overflow
    model = LinearGaussianModel(A=1.0, Q=1.0, B=1e-200, R=1.0)
    state = KfEnsembleState.initial(GaussianBelief(0.0, 9.5e307), k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, _, _ = kf_bdemm_step(state, [model], 0.0, WTTConfig.identity())
    assert state.belief.cov.tolist() == [[9.5e307]]
