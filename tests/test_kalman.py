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
    WeightVector,
    WTTConfig,
    apply_wtt,
    collapse_mixture,
    kf_bdemm_step,
    kf_predict,
    kf_update,
)


def _textbook_kf(A, Q, B, R, mean, cov, ys):
    """Reference filter written with plain inverses, nothing shared."""
    means, covs = [], []
    for y in ys:
        mean = A @ mean
        cov = A @ cov @ A.T + Q
        s = B @ cov @ B.T + R
        gain = cov @ B.T @ np.linalg.inv(s)
        mean = mean + gain @ (np.atleast_1d(y) - B @ mean)
        cov = (np.eye(cov.shape[0]) - gain @ B) @ cov
        means.append(mean.copy())
        covs.append(cov.copy())
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


# ---------------------------------------------------------------------------
# predict / update


def test_predict_hand_case():
    model = LinearGaussianModel(A=2.0, Q=0.5, B=1.0, R=1.0)
    out = kf_predict(model, GaussianBelief(1.0, 1.0))
    assert out.mean[0] == pytest.approx(2.0, abs=1e-15)
    assert out.cov[0, 0] == pytest.approx(4.5, abs=1e-15)


def test_update_hand_case():
    # predicted N(0, 2), unit map and noise, y = 2:
    # posterior N(4/3, 2/3), evidence N(2; 0, 3)
    model = LinearGaussianModel(A=1.0, Q=0.0, B=1.0, R=1.0)
    post, log_ev = kf_update(model, GaussianBelief(0.0, 2.0), 2.0)
    assert post.mean[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert post.cov[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert np.exp(log_ev) == pytest.approx(0.11826, abs=1e-5)


def test_update_dimension_checks():
    model = LinearGaussianModel(A=np.eye(2), Q=np.eye(2),
                                B=np.array([[1.0, 0.0]]), R=[[1.0]])
    with pytest.raises(DimensionMismatchError):
        kf_update(model, GaussianBelief(0.0, 1.0), 1.0)  # belief is 1-d
    with pytest.raises(DimensionMismatchError):
        kf_update(model, GaussianBelief([0.0, 0.0], np.eye(2)), [1.0, 1.0])


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
            assert state.weights.w[0] == 1.0  # K=1: weight never moves

        ref_means, ref_covs = _textbook_kf(model.A, model.Q, model.B, model.R,
                                           mean0, cov0, ys)
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
    ref_means, _ = _textbook_kf(model.A, model.Q, model.B, model.R,
                                mean0, cov0, ys)
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
    assert state.weights.w[0] > 0.9


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
    updates = [kf_update(m, kf_predict(m, start.belief), 0.8) for m in pool]
    ref = collapse_mixture([posterior for posterior, _ in updates],
                           state.weights)
    assert np.allclose(state.belief.mean, ref.mean, atol=1e-15)
    assert np.allclose(state.belief.cov, ref.cov, atol=1e-15)
    assert np.array_equal(log_evs, [log_ev for _, log_ev in updates])


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
    assert np.allclose(state.weights.w, expected, atol=1e-12)


def test_all_models_underflow_skips_the_step():
    # y so large that resid^2 / S overflows: every log evidence is -inf.
    # The step then extracts nothing: predictive weights, predicted beliefs.
    pool = _two_model_pool()
    start = WeightVector([0.7, 0.3])
    prior = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), weights=start)
    with np.errstate(over="ignore"):
        state, est, log_evs = kf_bdemm_step(prior, pool, 1e200,
                                            WTTConfig.identity())
    assert np.array_equal(state.weights.w, start.w)
    assert log_evs.tolist() == [-np.inf, -np.inf]
    # both candidates share A and Q, so both predict N(0, 1.1) and the
    # collapsed belief is that prediction, untouched by the observation
    assert np.allclose(est.x_hat, [0.0], atol=1e-15)
    assert np.allclose(state.belief.mean, [0.0], atol=1e-15)
    assert np.allclose(state.belief.cov, [[1.1]], atol=1e-12)
    predicted = [kf_predict(m, prior.belief) for m in pool]
    for p in predicted:
        assert np.allclose(p.mean, [0.0], atol=1e-15)
    ref = collapse_mixture(predicted, state.weights)
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
    assert np.array_equal(new.weights.w, predictive.w)
    assert log_evs.tolist() == [-np.inf, -np.inf]
    predicted = [kf_predict(model, state.belief) for model in pool]
    ref = collapse_mixture(predicted, new.weights)
    assert np.array_equal(new.belief.mean, ref.mean)
    assert np.array_equal(new.belief.cov, ref.cov)


def test_weight_floor_keeps_models_alive():
    pool = _two_model_pool()
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    for y in np.linspace(-0.5, 0.5, 20):
        state, _, _ = kf_bdemm_step(state, pool, float(y),
                                    WTTConfig.identity(), weight_floor=0.05)
    assert state.weights.w.min() >= 0.05 / (1.0 + 2 * 0.05)


def test_history_grows_one_row_per_step():
    pool = _two_model_pool()
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    for i in range(7):
        state, _, _ = kf_bdemm_step(state, pool, 0.1 * i, WTTConfig.identity())
    assert len(state.history) == 8
    assert state.history.last is state.weights


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
