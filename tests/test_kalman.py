"""Kalman engine: per-model recursions and the ensemble step."""

import collections
import functools
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
    SingularInnovationCovError,
    WeightVector,
    WTTConfig,
    apply_wtt,
    collapse_mixture,
    default_markov_matrix,
    kf_bdemm_step,
    kf_predict,
    weight_step,
)
from bdemm import BdemmError, core, kalman
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


@pytest.mark.parametrize("B, R, cov, y, lost", [
    (0.0, 1.0, -1e-11, 0.0, False),
    (0.0, 1.0, -1e-9, 0.0, True),
    (0.0, 1.0, -2.0, 0.0, True),
    (1.0, 10.0, -1.0, 1e300, False),
    (1.0, 10.0, -1.0, 0.0, True),
], ids=["within-tolerance", "below-tolerance", "below-scaled-tolerance",
        "kept-model-excused", "updated-model-not-excused"])
def test_roundoff_guard_on_a_two_model_pool(B, R, cov, y, lost):
    # the second model's predicted variance is given negative, as roundoff
    # leaves it; with B = 0 its update keeps it.  A tolerance of
    # PSD_ATOL * max(1, |variance|) lets -1e-11 pass; a model whose
    # evidence is -inf keeps its prediction, which the guard excuses.
    # The stacked update takes the predictions as given; the vector row of
    # a scalar state predicts them from N(0, 1): A = (1, 0), Q = (0, cov)
    stacked = functools.partial(
        kalman._update, np.zeros((2, 1)), np.array([[[1.0]], [[cov]]]),
        np.array([[[1.0]], [[B]]]), np.array([[[1e300]], [[R]]]))
    vector = functools.partial(
        kalman._scalar_update, np.array([1.0, 0.0]), np.array([0.0, cov]),
        np.array([1.0, B]), np.array([1e300, R]), GaussianBelief(0.0, 1.0))
    for update in (stacked, vector):
        with np.errstate(all="ignore"):
            if lost:
                with pytest.raises(NonFiniteBeliefError, match="roundoff"):
                    update(np.array([y]))
                continue
            post_means, post_covs, log_ev = update(np.array([y]))
        post_covs = post_covs.reshape(2)
        assert post_covs[1] == cov
        assert 0.0 < post_covs[0] <= 1.0
        assert np.isfinite(log_ev[0]) and (log_ev[1] == -np.inf) == (y > 0.0)


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


def _linalg_calls(monkeypatch, pool, state, rows):
    """How often a stream of ``rows`` through ``pool`` calls each LAPACK
    routine the Kalman step can reach; the pool and state are built first."""
    counts = dict.fromkeys(("cholesky", "solve", "eigvalsh"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    wtt = WTTConfig.forgetting(0.9)
    for y in rows:
        state, _, _ = kf_bdemm_step(state, pool, y, wtt)
    monkeypatch.undo()
    return counts


def test_a_scalar_row_makes_no_lapack_call(monkeypatch):
    pool = _two_model_pool()
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    rows = np.random.default_rng(4).normal(0.0, 1.0, size=200)
    assert _linalg_calls(monkeypatch, pool, state, rows) == {
        "cholesky": 0, "solve": 0, "eigvalsh": 0}


def test_a_vector_row_still_factorizes_once(monkeypatch):
    pool = [LinearGaussianModel(A=np.eye(2), Q=0.1 * np.eye(2), B=np.eye(2),
                                R=r * np.eye(2)) for r in (1.0, 400.0)]
    state = KfEnsembleState.initial(GaussianBelief(np.zeros(2), np.eye(2)),
                                    k=2)
    rows = np.random.default_rng(4).normal(0.0, 1.0, size=(200, 2))
    assert _linalg_calls(monkeypatch, pool, state, rows) == {
        "cholesky": 200, "solve": 400, "eigvalsh": 200}


@pytest.mark.parametrize("degenerate, message", [
    (dict(B=0.0, R=0.0), "not positive definite"),  # S = 0
    (dict(B=1.0, R=1e308), "not finite"),  # S = 1e308 + 1e308
], ids=["zero", "overflow"])
def test_one_degenerate_scalar_innovation_in_a_pool_raises(degenerate,
                                                           message):
    pool = [LinearGaussianModel(A=1.0, Q=0.0, **degenerate),
            LinearGaussianModel(A=1.0, Q=0.0, B=1.0, R=1.0)]
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1e308), k=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularInnovationCovError, match=message):
            kf_bdemm_step(state, pool, 0.0, WTTConfig.identity())


@pytest.mark.parametrize("degenerate, message", [
    (dict(B=np.zeros((2, 2)), R=np.zeros((2, 2))), "not positive definite"),
    (dict(B=np.eye(2), R=1e308 * np.eye(2)), "not finite"),
], ids=["zero", "overflow"])
def test_one_degenerate_vector_innovation_in_a_pool_raises(degenerate,
                                                           message):
    # m = 2 takes the Cholesky path: S = 0 fails the factorization, and
    # S = 1e308 + 1e308 on the diagonal factors to a non-finite log det
    eye = np.eye(2)
    pool = [LinearGaussianModel(A=eye, Q=0.0 * eye, **degenerate),
            LinearGaussianModel(A=eye, Q=0.0 * eye, B=eye, R=eye)]
    state = KfEnsembleState.initial(GaussianBelief(np.zeros(2), 1e308 * eye),
                                    k=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularInnovationCovError, match=message):
            kf_bdemm_step(state, pool, np.zeros(2), WTTConfig.identity())


# ---------------------------------------------------------------------------
# the (K,) vector row of a scalar state against the stacked kernels


def _stacked_row(state, pool, y, wtt, floor):
    """One step of a 1-D pool through the stacked kernels, the path of every
    d > 1 or m > 1 pool: the posterior means, covariances and log
    evidences, the weights and the collapsed belief, or the error raised as
    its class and message."""
    A, Q, B, R, _ = kalman._stacked(tuple(pool))
    try:
        with np.errstate(all="ignore"):
            means, covs = kalman._predict(A, Q, state.belief)
            means, covs, log_evs = kalman._update(means, covs, B, R,
                                                  np.array([y]))
            weights, _, _ = weight_step(wtt, state.history, log_evs, floor)
            belief = core._collapse(means, covs, weights.w)
    except BdemmError as exc:
        return type(exc), str(exc)
    return means, covs, log_evs, weights.w, belief


def _vector_row(state, pool, y, wtt, floor):
    """The same step as :func:`_stacked_row` through the vector kernels and
    through ``kf_bdemm_step``, which must agree with each other."""
    a, q, b, r = kalman._stacked(tuple(pool))[4]
    try:
        with np.errstate(all="ignore"):
            means, covs, log_evs = kalman._scalar_update(
                a, q, b, r, state.belief, np.array([y]))
    except BdemmError as exc:
        failure = type(exc), str(exc)
    else:
        failure = None
    try:
        new, est, step_log_evs = kf_bdemm_step(state, pool, y, wtt,
                                               weight_floor=floor)
    except BdemmError as exc:
        # the failure is the kernel's, or one after it: weights, collapse
        assert failure in (None, (type(exc), str(exc)))
        return type(exc), str(exc)
    assert failure is None
    assert step_log_evs.tobytes() == log_evs.tobytes()
    assert est.x_hat.tobytes() == new.belief.mean.tobytes()
    return means, covs, log_evs, new.model_weights.w, new.belief, new


def _random_scalar_pool(rng, k):
    """K scalar models: maps that include -1, 0 and 1, noise from zero to
    1e300, so that rows at +-1e300 are kept by some models and scored by
    others."""
    def pick(draw, *exact):
        return [float(rng.choice(exact)) if exact and rng.random() < 0.25
                else float(draw()) for _ in range(k)]

    a = pick(lambda: rng.normal(0.0, 1.2), -1.0, 0.0, 1.0)
    q = pick(lambda: rng.exponential(0.5), 0.0)
    b = pick(lambda: rng.normal(0.0, 2.0), 1.0, -1.0)
    r = pick(lambda: 10.0 ** rng.uniform(-3.0, 3.0), 1e300, 1e-300)
    return [LinearGaussianModel(A=ak, Q=qk, B=bk, R=rk)
            for ak, qk, bk, rk in zip(a, q, b, r)]


@pytest.mark.parametrize("kind", KINDS)
def test_the_vector_row_equals_the_stacked_kernels(kind):
    # K = 1..12 reaches numpy's pairwise sum (9 terms and up) in the
    # collapse; far-off rows keep some models' predictions, zero initial
    # or constant weights leave zero weights for the collapse to drop, and
    # a failure restarts the stream.  Means and variances agree under ==
    # (a matmul turns a -0.0 product into +0.0, an elementwise product
    # keeps it); evidences, weights and the estimate byte for byte
    seen = collections.Counter()
    for k in range(1, 13):
        rng = np.random.default_rng([KINDS.index(kind), k])
        pool = _random_scalar_pool(rng, k)
        w0 = rng.dirichlet(np.ones(k))
        if k > 1 and rng.random() < 0.5:
            w0[rng.integers(k)] = 0.0
            w0 /= w0.sum()
        if kind == "constant":
            wtt = WTTConfig.constant(w0)
        else:
            wtt = _wtt_of_kind(kind, rng, k)
        floor = 0.0 if k % 3 else float(rng.uniform(0.0, 0.5 / k))
        start = KfEnsembleState.initial(
            GaussianBelief(float(rng.choice([0.0, rng.normal()])), 1.0),
            weights=WeightVector(w0))
        state = start
        for _ in range(60):
            u = rng.random()
            y = (float(rng.choice([1e300, -1e300])) if u < 0.1
                 else float(rng.choice([0.0, -0.0])) if u < 0.2
                 else float(rng.normal(0.0, 3.0)))
            want = _stacked_row(state, pool, y, wtt, floor)
            got = _vector_row(state, pool, y, wtt, floor)
            if len(want) == 2:
                assert got == want
                seen[want[1]] += 1
                state = start
                continue
            means, covs, log_evs, w, belief = want
            assert np.array_equal(got[0], means[:, 0])
            assert np.array_equal(got[1], covs[:, 0, 0])
            assert got[2].tobytes() == log_evs.tobytes()
            assert got[3].tobytes() == w.tobytes()
            assert got[4].mean.tobytes() == belief.mean.tobytes()
            assert np.array_equal(got[4].cov, belief.cov)
            seen["kept"] += np.count_nonzero(log_evs == -np.inf) > 0
            seen["zero weight"] += np.count_nonzero(w) < w.size
            seen["pairwise"] += w.size >= 9
            state = got[5]
    # the regimes the pools are built to reach are reached
    assert seen["kept"] and seen["zero weight"] and seen["pairwise"]


_HEALTHY = dict(A=1.0, Q=0.0, B=1.0, R=1.0)


@pytest.mark.parametrize("models, mean, cov, y, message", [
    ([dict(A=10.0, Q=0.0, B=1.0, R=1.0), _HEALTHY], 0.0, 1e307, 0.0,
     "predicted belief is not finite"),
    ([dict(A=1.0, Q=0.0, B=0.0, R=0.0), _HEALTHY], 0.0, 1.0, 0.0,
     "innovation covariance is not positive definite"),
    ([dict(A=1.0, Q=0.0, B=1.0, R=1e308), _HEALTHY], 0.0, 1e308, 0.0,
     "innovation covariance is not finite"),
    ([_HEALTHY, _HEALTHY], 0.0, 1.0, np.nan,
     "posterior belief is not finite"),
    ([dict(A=1.0, Q=1.0, B=0.8612346669752943, R=1.0), _HEALTHY], 0.0,
     1.0524213559718285e30, 0.5, "posterior covariance lost to roundoff"),
    ([dict(A=1.0, Q=1.0, B=1.0, R=1e306), dict(A=-1.0, Q=1.0, B=1.0, R=1e306)],
     1.5e154, 1.0, 0.0,
     "mixture collapse overflowed: component means too far apart"),
], ids=["predicted", "not-pd", "not-finite", "posterior", "roundoff",
        "collapse"])
def test_the_vector_row_fails_as_the_stacked_kernels_do(models, mean, cov, y,
                                                         message):
    pool = [LinearGaussianModel(**m) for m in models]
    state = KfEnsembleState.initial(GaussianBelief(mean, cov), k=2)
    wtt = WTTConfig.identity()
    want = _stacked_row(state, pool, y, wtt, 0.0)
    assert want[1] == message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _vector_row(state, pool, y, wtt, 0.0) == want


def test_pools_with_a_vector_state_or_observation_stay_stacked():
    rng = np.random.default_rng(8)
    for d, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        entries = kalman._stacked(tuple(_random_model(rng, d, m)
                                        for _ in range(3)))[4]
        assert (entries is None) == (d > 1 or m > 1)
