"""Evidence estimators: importance sampling and the linear-Gaussian closed form."""

import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from bdemm import (
    GaussianBelief,
    NonFiniteWeightError,
    Proposal,
    SingularInnovationCovError,
    UnnormalizedTarget,
    effective_sample_size,
    gaussian_log_evidence,
    is_evidence,
)


def _std_normal_proposal():
    return Proposal(
        sample=lambda rng, n: rng.standard_normal((n, 1)),
        log_density=lambda x: norm.logpdf(x[:, 0]),
    )


# ---------------------------------------------------------------------------
# importance sampling


def test_self_normalized_case_is_exactly_one():
    # target == proposal density: every weight is exactly 1, estimate exactly 1
    prop = _std_normal_proposal()
    target = UnnormalizedTarget(log_density=prop.log_density)
    est, w = is_evidence(target, prop, 1000, np.random.default_rng(0))
    assert est == 1.0
    assert np.array_equal(w, np.ones(1000))


def test_conjugate_evidence_within_one_percent():
    # prior N(0,1), likelihood N(y=0 | x, 1): evidence is N(0; 0, 2)
    truth = float(norm.pdf(0.0, loc=0.0, scale=np.sqrt(2.0)))
    prop = _std_normal_proposal()
    target = UnnormalizedTarget(
        log_density=lambda x: norm.logpdf(x[:, 0]) + norm.logpdf(0.0, loc=x[:, 0]))
    for seed in range(5):
        est, _ = is_evidence(target, prop, 200_000, np.random.default_rng(seed))
        assert abs(est - truth) / truth < 0.01
    assert truth == pytest.approx(0.28209, abs=1e-5)


def test_scaled_target_scales_the_estimate():
    prop = _std_normal_proposal()
    target = UnnormalizedTarget(
        log_density=lambda x: norm.logpdf(x[:, 0]) + np.log(7.0))
    est, _ = is_evidence(target, prop, 10, np.random.default_rng(1))
    assert est == pytest.approx(7.0, rel=1e-12)


def test_uncovered_target_raises():
    prop = _std_normal_proposal()
    # density ratio +inf wherever the proposal returns -inf... make the
    # target itself blow up instead: +inf log density at every point
    target = UnnormalizedTarget(log_density=lambda x: np.full(x.shape[0], np.inf))
    with pytest.raises(NonFiniteWeightError):
        is_evidence(target, prop, 10, np.random.default_rng(2))
    target = UnnormalizedTarget(log_density=lambda x: np.full(x.shape[0], np.nan))
    with pytest.raises(NonFiniteWeightError):
        is_evidence(target, prop, 10, np.random.default_rng(2))


def test_all_underflowed_weights_warn_and_return_zero():
    prop = _std_normal_proposal()
    target = UnnormalizedTarget(log_density=lambda x: np.full(x.shape[0], -np.inf))
    with pytest.warns(RuntimeWarning):
        est, w = is_evidence(target, prop, 50, np.random.default_rng(3))
    assert est == 0.0
    assert np.array_equal(w, np.zeros(50))


def test_sample_count_validation():
    prop = _std_normal_proposal()
    target = UnnormalizedTarget(log_density=prop.log_density)
    with pytest.raises(ValueError):
        is_evidence(target, prop, 0, np.random.default_rng(0))


def test_estimate_variance_shrinks_with_n():
    # crude but effective: spread of estimates over seeds drops with n
    truth = float(norm.pdf(0.0, scale=np.sqrt(2.0)))
    prop = _std_normal_proposal()
    target = UnnormalizedTarget(
        log_density=lambda x: norm.logpdf(x[:, 0]) + norm.logpdf(0.0, loc=x[:, 0]))
    spreads = []
    for n in (100, 10_000):
        ests = [is_evidence(target, prop, n, np.random.default_rng(100 + s))[0]
                for s in range(20)]
        spreads.append(np.std([e - truth for e in ests]))
    assert spreads[1] < spreads[0]


# ---------------------------------------------------------------------------
# effective sample size


def test_ess_bounds():
    assert effective_sample_size(np.ones(40)) == pytest.approx(40.0, rel=1e-12)
    one_hot = np.zeros(40)
    one_hot[3] = 5.0
    assert effective_sample_size(one_hot) == pytest.approx(1.0, rel=1e-12)
    assert effective_sample_size(np.zeros(4)) == 0.0


def test_ess_is_scale_invariant():
    rng = np.random.default_rng(5)
    w = rng.random(100)
    assert effective_sample_size(w) == pytest.approx(
        effective_sample_size(1e-30 * w), rel=1e-9)


# ---------------------------------------------------------------------------
# linear-Gaussian closed form


def test_gaussian_evidence_standard_normal():
    belief = GaussianBelief(0.0, 0.5)
    log_ev = gaussian_log_evidence(0.0, belief, B=1.0, R=0.5)
    assert np.exp(log_ev) == pytest.approx(0.39894, abs=1e-5)
    assert log_ev == pytest.approx(float(norm.logpdf(0.0)), rel=1e-12)


def test_gaussian_evidence_prediction_case():
    # predicted state N(0, 2), unit observation map and noise, y = 2:
    # observation density N(2; 0, 3)
    log_ev = gaussian_log_evidence(2.0, GaussianBelief(0.0, 2.0), B=1.0, R=1.0)
    assert np.exp(log_ev) == pytest.approx(0.11826, abs=1e-5)
    assert log_ev == pytest.approx(
        float(norm.logpdf(2.0, scale=np.sqrt(3.0))), rel=1e-12)


def test_gaussian_log_evidence_matches_scipy_multivariate():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = rng.standard_normal((d, d))
        belief = GaussianBelief(rng.standard_normal(d), a @ a.T + np.eye(d))
        b_mat = rng.standard_normal((m, d))
        c = rng.standard_normal((m, m))
        r = c @ c.T + 0.5 * np.eye(m)
        y = rng.standard_normal(m) * 2.0
        ours = gaussian_log_evidence(y, belief, b_mat, r)
        s = b_mat @ belief.cov @ b_mat.T + r
        ref = multivariate_normal.logpdf(y, mean=b_mat @ belief.mean, cov=s)
        assert ours == pytest.approx(float(ref), abs=1e-10)


def test_singular_innovation_raises():
    belief = GaussianBelief(0.0, 0.0)
    with pytest.raises(SingularInnovationCovError):
        gaussian_log_evidence(0.0, belief, B=1.0, R=0.0)


def test_observation_dimension_checked():
    belief = GaussianBelief([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        gaussian_log_evidence([1.0, 1.0], belief, B=np.array([[1.0, 0.0]]), R=1.0)


def test_linear_domain_underflow_warns():
    # log evidence about -1800: finite in logs, zero as a double; only the
    # log value is computed, so nothing underflows or warns
    belief = GaussianBelief(0.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian_log_evidence(60.0, belief, 1.0, 0.5) < -1000.0


@pytest.mark.parametrize("y", [1e160, 1e300])
def test_overflowing_quadratic_form_gives_minus_inf_quietly(y):
    belief = GaussianBelief(0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian_log_evidence(y, belief, 1.0, 1.0) == -np.inf


def test_mixed_sign_overflowing_residual_gives_minus_inf_quietly():
    # solve(S, resid) is [-inf, inf], so the dot alone would be inf - inf
    belief = GaussianBelief(np.zeros(2), np.zeros((2, 2)))
    r = np.array([[1e-10, 5e-11], [5e-11, 1e-10]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian_log_evidence([1e300, 1e300], belief, np.eye(2),
                                     r) == -np.inf
        # a NaN observation still reads NaN: nothing bounds its density
        assert np.isnan(gaussian_log_evidence([np.nan, 1e300], belief,
                                              np.eye(2), r))
