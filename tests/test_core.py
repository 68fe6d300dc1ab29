"""Weight arithmetic, belief types, and mixture collapse."""

import importlib
import warnings

import numpy as np
import pytest

from bdemm import (
    AllZeroError,
    ConfigMismatchError,
    DimensionMismatchError,
    GaussianBelief,
    GPTSModel,
    InvalidInputError,
    KfEnsembleState,
    LinearGaussianModel,
    NegativeEntryError,
    NonFiniteBeliefError,
    NonFiniteWeightError,
    ParticleEnsemble,
    PointEstimate,
    ToyConfig,
    WeightHistory,
    WeightVector,
    WTTConfig,
    bma_point_estimate,
    collapse_mixture,
    default_markov_matrix,
    gen_toy_series,
    kf_bdemm_step,
    resample,
    update_model_weights_log,
    weight_step,
)


# ---------------------------------------------------------------------------
# WeightVector


def test_weight_vector_accepts_simplex_point():
    wv = WeightVector([0.25, 0.75])
    assert len(wv) == 2
    assert wv.w.tolist() == [0.25, 0.75]


def test_weight_vector_is_read_only():
    wv = WeightVector([0.5, 0.5])
    with pytest.raises(ValueError):
        wv.w[0] = 0.9


def test_weight_vector_scalar_promotes_to_length_one():
    assert len(WeightVector(1.0)) == 1


def test_weight_vector_rejects_bad_input():
    with pytest.raises(NegativeEntryError):
        WeightVector([-0.1, 1.1])
    with pytest.raises(ValueError):
        WeightVector([0.3, 0.3])  # sums to 0.6
    with pytest.raises(ValueError):
        WeightVector([np.nan, 1.0])
    with pytest.raises(DimensionMismatchError):
        WeightVector([])
    with pytest.raises(DimensionMismatchError):
        WeightVector([[0.5, 0.5]])


def test_uniform_constructor():
    wv = WeightVector.uniform(4)
    assert np.array_equal(wv.w, np.full(4, 0.25))
    with pytest.raises(DimensionMismatchError):
        WeightVector.uniform(0)


# ---------------------------------------------------------------------------
# WeightHistory


def test_history_start_and_append():
    w0 = WeightVector([0.5, 0.5])
    h0 = WeightHistory.start(w0)
    assert len(h0) == 1
    assert h0.width == 2
    assert h0.last is w0

    w1 = WeightVector([0.9, 0.1])
    h1 = h0.append(w1)
    assert len(h1) == 2
    assert h1.last is w1
    assert np.allclose(h1.cumulative, [1.4, 0.6])
    # the original is untouched
    assert len(h0) == 1
    assert np.allclose(h0.cumulative, [0.5, 0.5])


def test_history_rejects_mismatched_rows():
    h = WeightHistory.start(WeightVector([0.5, 0.5]))
    with pytest.raises(DimensionMismatchError):
        h.append(WeightVector([1.0]))
    with pytest.raises(TypeError):
        WeightHistory((np.array([0.5, 0.5]),), np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_history_rejects_bad_cumulative_sums(bad):
    with pytest.raises(ValueError, match="cumulative"):
        WeightHistory(WeightVector([0.5, 0.5]), np.array([0.5, bad]))


@pytest.mark.parametrize("count", [-5, 0, 2.5, "x", np.nan],
                         ids=["negative", "zero", "fraction", "word", "nan"])
def test_history_count_must_be_a_whole_number(count):
    with pytest.raises(InvalidInputError, match="count"):
        WeightHistory(WeightVector([1.0]), [1.0], count=count)
    history = WeightHistory(WeightVector([1.0]), [1.0], count=2.0)
    assert len(history) == history.count == 2 and type(history.count) is int


def test_history_cumulative_matches_column_sums():
    rng = np.random.default_rng(3)
    h = WeightHistory.start(WeightVector.uniform(3))
    rows = [h.last.w]
    for _ in range(50):
        raw = rng.random(3)
        wv = WeightVector(raw / raw.sum())
        h = h.append(wv)
        rows.append(wv.w)
    assert np.allclose(h.cumulative, np.sum(rows, axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# GaussianBelief / PointEstimate


def test_belief_symmetrizes_and_validates():
    b = GaussianBelief([0.0, 0.0], [[1.0, 0.2 + 1e-14], [0.2, 1.0]])
    assert np.array_equal(b.cov, b.cov.T)
    assert b.dim == 2

    with pytest.raises(ValueError):
        GaussianBelief([0.0, 0.0], [[1.0, 0.5], [-0.5, 1.0]])
    with pytest.raises(ValueError):
        GaussianBelief([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
    with pytest.raises(DimensionMismatchError):
        GaussianBelief([0.0, 0.0], [[1.0]])


def test_belief_scale_relative_tolerance():
    # a large healthy covariance with proportional roundoff asymmetry passes
    c = 1e8 * np.array([[2.0, 0.5], [0.5, 1.0]])
    c[0, 1] += 1e-4  # far above the absolute tol, tiny relative to scale
    GaussianBelief([0.0, 0.0], c)


def test_belief_near_the_float_limit_is_kept_without_warning():
    # halving before adding keeps re-symmetrized entries representable
    huge = [[1e308, -1e308], [-1e308, 1e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert GaussianBelief(0.0, 1e308).cov[0, 0] == 1e308
        assert np.array_equal(GaussianBelief([0.0, 0.0], huge).cov, huge)
        with pytest.raises(ValueError, match="not symmetric"):
            GaussianBelief([0.0, 0.0], [[1.0, 1e308], [-1e308, 1.0]])


def test_belief_accepts_scalar_arguments():
    b = GaussianBelief(1.0, 2.0)
    assert b.dim == 1
    assert b.cov[0, 0] == 2.0


def test_point_estimate_validation():
    assert PointEstimate(3.0).dim == 1
    with pytest.raises(ValueError):
        PointEstimate([np.inf])


# ---------------------------------------------------------------------------
# Bayes weight updates


def test_bayes_update_hand_case():
    # prior (1/2, 1/2), evidences (0.2, 0.6): posterior (1/4, 3/4)
    post = update_model_weights_log(WeightVector([0.5, 0.5]),
                                    np.log([0.2, 0.6]))
    assert np.allclose(post.w, [0.25, 0.75], atol=1e-12)


def test_update_invariant_to_common_evidence_scale():
    prior = WeightVector([0.3, 0.7])
    base = update_model_weights_log(prior, np.array([-2.0, -5.0]))
    shifted = update_model_weights_log(prior, np.array([-2.0, -5.0]) - 500.0)
    assert np.allclose(base.w, shifted.w, atol=1e-13)


def test_neg_inf_evidence_kills_a_model():
    post = update_model_weights_log(WeightVector([0.5, 0.5]), [0.0, -np.inf])
    assert np.array_equal(post.w, [1.0, 0.0])


def test_all_zero_products_raise():
    with pytest.raises(AllZeroError):
        update_model_weights_log(WeightVector([0.5, 0.5]),
                                 [-np.inf, -np.inf])
    # a dead prior times the only live evidence is also all-zero
    with pytest.raises(AllZeroError):
        update_model_weights_log(WeightVector([0.0, 1.0]), [5.0, -np.inf])


def test_update_rejects_nan_and_plus_inf():
    prior = WeightVector([0.5, 0.5])
    with pytest.raises(ValueError):
        update_model_weights_log(prior, [0.0, np.nan])
    with pytest.raises(ValueError):
        update_model_weights_log(prior, [0.0, np.inf])
    with pytest.raises(DimensionMismatchError):
        update_model_weights_log(prior, [0.0])
    # a dead model's +inf evidence is rejected too, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            update_model_weights_log(WeightVector([0.0, 1.0]), [np.inf, 0.0])


def test_update_handles_extreme_evidence_spread():
    # one evidence 600 nats above the other: no overflow, no NaN
    post = update_model_weights_log(WeightVector([0.5, 0.5]), [0.0, -600.0])
    assert post.w[0] > 0.999
    assert np.all(np.isfinite(post.w))


def test_logsumexp_matches_scipy_and_handles_infinities():
    # the one log-domain kernel behind every Monte Carlo evidence
    from scipy.special import logsumexp as scipy_lse

    from bdemm.evidence import _log_normalize

    rng = np.random.default_rng(0)
    for a in (rng.normal(0.0, 50.0, 200), np.array([-1e308, 0.0, 700.0]),
              np.array([3.5]), np.array([-np.inf, -2.0, -np.inf])):
        w, log_z, top = _log_normalize(a)
        assert float(log_z) == pytest.approx(float(scipy_lse(a)), rel=1e-14)
        assert top == a.max()
        assert w == pytest.approx(np.exp(a - scipy_lse(a)), rel=1e-12)
    # an all -inf row: every weight zero, flagged by its -inf maximum
    with np.errstate(invalid="ignore"):
        top = _log_normalize(np.full((2, 4), -np.inf))[2]
    assert np.array_equal(top, [-np.inf, -np.inf])
    with pytest.raises(NonFiniteWeightError):
        _log_normalize(np.array([0.0, np.inf]))


# ---------------------------------------------------------------------------
# weight floor


def test_floor_clamps_then_renormalizes():
    out = update_model_weights_log(WeightVector([0.99, 0.01]), [0.0, 0.0],
                                   weight_floor=0.1)
    assert np.allclose(out.w, [0.99 / 1.09, 0.1 / 1.09], atol=1e-15)


def test_floor_domain():
    prior = WeightVector([0.99, 0.01])
    # a zero floor is off
    off = update_model_weights_log(prior, [0.0, -3.0], weight_floor=0.0)
    assert np.array_equal(off.w, update_model_weights_log(prior, [0.0, -3.0]).w)
    assert off.w[1] < 0.001
    with pytest.raises(ValueError):
        update_model_weights_log(prior, [0.0, 0.0], weight_floor=0.5)  # 1/K exactly


@pytest.mark.parametrize("floor", [-0.5, np.nan, 0.5],
                         ids=["negative", "nan", "one-over-k"])
def test_floor_outside_its_range_raises_on_every_path(floor):
    prior = WeightVector([0.5, 0.5])
    kf_state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    pool = [LinearGaussianModel(A=1.0, Q=0.1, B=1.0, R=r) for r in (1.0, 4.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for log_ev in ([-1.0, -3.0], [-np.inf, -np.inf]):  # all-zero too
            with pytest.raises(ValueError, match="floor"):
                update_model_weights_log(prior, log_ev, weight_floor=floor)
            with pytest.raises(ValueError, match="floor"):
                weight_step(WTTConfig.identity(), WeightHistory.start(prior),
                            log_ev, floor)
        with pytest.raises(ValueError, match="floor"):
            kf_bdemm_step(kf_state, pool, 0.3, WTTConfig.identity(),
                          weight_floor=floor)


def test_floor_through_update():
    post = update_model_weights_log(WeightVector([0.5, 0.5]),
                                    [0.0, -600.0], weight_floor=0.02)
    # clamp to floor then renormalize: min entry sits near the floor
    assert post.w[1] >= 0.02 / (1.0 + 2 * 0.02)
    assert abs(post.w.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# point estimates and mixture collapse


def test_bma_hand_case():
    est = bma_point_estimate([PointEstimate([0.0]), PointEstimate([2.0])],
                             WeightVector([0.5, 0.5]))
    assert est.x_hat.tolist() == [1.0]


def test_bma_accepts_raw_arrays():
    est = bma_point_estimate([[1.0, 0.0], [0.0, 1.0]], WeightVector([0.25, 0.75]))
    assert np.allclose(est.x_hat, [0.25, 0.75])
    with pytest.raises(DimensionMismatchError):
        bma_point_estimate([[1.0]], WeightVector([0.5, 0.5]))
    with pytest.raises(DimensionMismatchError):
        bma_point_estimate([[1.0], [1.0, 2.0]], WeightVector([0.5, 0.5]))


def test_collapse_hand_case():
    # equal mix of N(0,1) and N(2,1): mean 1, variance 1 + 1 = 2
    out = collapse_mixture([GaussianBelief(0.0, 1.0), GaussianBelief(2.0, 1.0)],
                           WeightVector([0.5, 0.5]))
    assert np.allclose(out.mean, [1.0], atol=1e-15)
    assert np.allclose(out.cov, [[2.0]], atol=1e-15)


def test_collapse_mean_equals_bma_exactly():
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        comps = []
        for _ in range(k):
            a = rng.standard_normal((d, d))
            comps.append(GaussianBelief(rng.standard_normal(d), a @ a.T + np.eye(d)))
        raw = rng.random(k) + 1e-3
        w = WeightVector(raw / raw.sum())
        collapsed = collapse_mixture(comps, w)
        est = bma_point_estimate([PointEstimate(c.mean) for c in comps], w)
        # same expression, so the two agree to the bit
        assert np.array_equal(collapsed.mean, est.x_hat)


def test_collapse_matches_direct_moment_formula():
    rng = np.random.default_rng(23)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        means = rng.standard_normal((k, d)) * 3.0
        covs = []
        for _ in range(k):
            a = rng.standard_normal((d, d))
            covs.append(a @ a.T + 0.5 * np.eye(d))
        raw = rng.random(k) + 1e-3
        w = raw / raw.sum()
        out = collapse_mixture(
            [GaussianBelief(m, c) for m, c in zip(means, covs)],
            WeightVector(w))
        mu = w @ means
        second = sum(wk * (c + np.outer(m, m))
                     for wk, m, c in zip(w, means, covs))
        assert np.allclose(out.mean, mu, atol=1e-12)
        assert np.allclose(out.cov, second - np.outer(mu, mu), atol=1e-10)
        assert float(np.linalg.eigvalsh(out.cov).min()) >= -1e-10


def test_collapse_single_component_is_identity():
    b = GaussianBelief([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
    out = collapse_mixture([b], WeightVector([1.0]))
    assert np.allclose(out.mean, b.mean, atol=1e-15)
    assert np.allclose(out.cov, b.cov, atol=1e-15)


@pytest.mark.parametrize("means, w, cov", [
    # a zero-weight component adds nothing, however far off
    ([0.1, 1.5e154], [0.0, 1.0], 1.0),
    # a tiny weight scales the deviation before it is squared
    ([0.0, 1.5e154], [1e-98, 1.0], 1.0 + 1e-98 * 1.5e154 * 1.5e154),
    # huge means whose spread is small: only the spread is squared
    ([2.0 ** 530, 2.0 ** 530 + 2.0 ** 500], [0.5, 0.5], 1.0 + 2.0 ** 998),
], ids=["zero-weight", "tiny-weight", "close-huge-means"])
def test_collapse_of_far_off_means_does_not_overflow(means, w, cov):
    comps = [GaussianBelief(m, 1.0) for m in means]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = collapse_mixture(comps, WeightVector(w))
    assert out.mean.tolist() == [float(np.dot(w, means))]
    assert out.cov[0, 0] == pytest.approx(cov, rel=1e-12)


def test_collapse_of_equal_means_keeps_a_covariance_near_the_float_limit():
    # cov + cov^T would overflow; the symmetrization halves before adding
    comps = [GaussianBelief(0.0, 9.5e307)] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = collapse_mixture(comps, WeightVector([0.5, 0.5]))
    assert out.cov.tolist() == [[9.5e307]]


def test_collapse_that_cannot_be_represented_raises_a_library_error():
    # the true variance, 1.5e154 ** 2 ~ 2.25e308, exceeds the largest double
    comps = [GaussianBelief(1.5e154, 1.0), GaussianBelief(-1.5e154, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteBeliefError):
            collapse_mixture(comps, WeightVector([0.5, 0.5]))


def test_collapse_rejects_mismatches():
    b1 = GaussianBelief(0.0, 1.0)
    b2 = GaussianBelief([0.0, 0.0], np.eye(2))
    with pytest.raises(DimensionMismatchError):
        collapse_mixture([b1, b2], WeightVector([0.5, 0.5]))
    with pytest.raises(DimensionMismatchError):
        collapse_mixture([b1], WeightVector([0.5, 0.5]))


# ---------------------------------------------------------------------------
# counts


COUNTED = {
    "resample": (lambda n: resample([[0.0]], [1.0], n,
                                    np.random.default_rng(0)), ValueError),
    "uniform-weights": (WeightVector.uniform, DimensionMismatchError),
    "markov-matrix": (default_markov_matrix, ConfigMismatchError),
    "toy-horizon": (lambda n: gen_toy_series(ToyConfig(horizon=n, runs=1), 0),
                    ValueError),
    "gp-window": (lambda n: GPTSModel(0, 1, 1, 0.1, n), ValueError),
}


@pytest.mark.parametrize("name", list(COUNTED))
def test_a_count_must_be_a_whole_number(name):
    build, error = COUNTED[name]
    build(2.0)  # a whole-valued float is a count
    for n in (2.5, np.nan, np.inf, "2"):
        with pytest.raises(error):
            build(n)


# ---------------------------------------------------------------------------
# what "sums to 1" means


@pytest.mark.parametrize("module, build", [
    ("bdemm.core", WeightVector),
    ("bdemm.core", lambda w: ParticleEnsemble([[0.0], [1.0]], w)),
    ("bdemm.wtt", lambda w: WTTConfig.markov([w, [0.0, 1.0]])),
], ids=["weights", "particle-weights", "markov-rows"])
def test_every_sums_to_one_check_reads_simplex_atol(monkeypatch, module,
                                                    build):
    w = [0.5, 0.5 + 1e-9]
    with pytest.raises((ValueError, ConfigMismatchError)):
        build(w)
    monkeypatch.setattr(importlib.import_module(module), "SIMPLEX_ATOL", 1e-6)
    build(w)
