"""Evidence estimators: importance sampling and the linear-Gaussian closed form."""

import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from bdemm import (
    DimensionMismatchError,
    GaussianBelief,
    NegativeEntryError,
    NonFiniteWeightError,
    Proposal,
    SingularInnovationCovError,
    UnnormalizedTarget,
    effective_sample_size,
    gaussian_log_evidence,
    is_evidence,
)
from bdemm.evidence import LOG_2PI, gaussian_innovation


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


def test_a_sampler_of_scalars_gives_the_densities_an_n_by_1_cloud():
    # draws of shape (n,) are read as n one-dimensional points
    flat = Proposal(sample=lambda rng, n: rng.standard_normal(n),
                    log_density=lambda x: norm.logpdf(x[:, 0]))
    target = UnnormalizedTarget(
        log_density=lambda x: norm.logpdf(x[:, 0]) + np.log(3.0))
    est, w = is_evidence(target, flat, 50, np.random.default_rng(0))
    ref, w_ref = is_evidence(target, _std_normal_proposal(), 50,
                             np.random.default_rng(0))
    assert est == ref == pytest.approx(3.0, rel=1e-12)
    assert np.array_equal(w, w_ref)


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


def test_overflowing_weights_raise_quietly():
    # the largest double is exp(709.78...): a weight of exp(709) is finite,
    # one of exp(710) is +inf in the linear domain
    prop = _std_normal_proposal()

    def scaled(log_c):
        return UnnormalizedTarget(lambda x: prop.log_density(x) + log_c)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, w = is_evidence(scaled(709.0), prop, 10, np.random.default_rng(4))
        assert est == pytest.approx(np.exp(709.0), rel=1e-12)
        assert np.isfinite(w).all()
        with pytest.raises(NonFiniteWeightError, match="mc_log_evidence"):
            is_evidence(scaled(710.0), prop, 10, np.random.default_rng(4))


def test_sample_count_validation():
    prop = _std_normal_proposal()
    target = UnnormalizedTarget(log_density=prop.log_density)
    with pytest.raises(ValueError):
        is_evidence(target, prop, 0, np.random.default_rng(0))
    # a numpy integer is a whole number of samples
    estimate, weights = is_evidence(target, prop, np.int64(3),
                                    np.random.default_rng(0))
    assert estimate == 1.0
    assert weights.shape == (3,)
    # and so is a whole-valued float, as every count of the package takes it
    estimate, weights = is_evidence(target, prop, 3.0,
                                    np.random.default_rng(0))
    assert estimate == 1.0
    assert weights.shape == (3,)


def test_sample_count_and_density_shapes_raise_library_errors():
    prop = _std_normal_proposal()
    good = prop.log_density
    wide = lambda x: np.append(good(x), 0.0)
    column = lambda x: good(x)[:, None]
    cases = [(good, prop, 0), (good, prop, 2.5), (good, prop, 1e300),
             (good, prop, 2**53 + 2),
             (wide, prop, 10), (column, prop, 10),
             (good, Proposal(prop.sample, wide), 10),
             (good, Proposal(prop.sample, column), 10)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for log_density, proposal, n in cases:
            with pytest.raises(DimensionMismatchError):
                is_evidence(UnnormalizedTarget(log_density), proposal, n,
                            np.random.default_rng(0))


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


def test_ess_of_huge_weights_does_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert effective_sample_size([1e308, 1e308]) == 2.0
    w = np.random.default_rng(6).random(50)
    assert effective_sample_size(w) == pytest.approx(
        float(1.0 / np.sum((w / w.sum()) ** 2)), rel=1e-12)


@pytest.mark.parametrize("weights, error", [
    ([np.nan, 1.0], NonFiniteWeightError),
    ([np.inf, 1.0], NonFiniteWeightError),
    ([-1.0, 2.0], NegativeEntryError),
    ([-np.inf, 1.0], NegativeEntryError),
], ids=["nan", "inf", "negative", "minus-inf"])
def test_ess_rejects_bad_weights(weights, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            effective_sample_size(weights)


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


@pytest.mark.parametrize("y, B, R", [
    (0.0, 1.0, 1.0),                         # B has one column, the belief two
    ([0.0, 0.0], np.eye(2), np.eye(3)),      # R wider than B's two rows
    (0.0, np.array([[1.0, 0.0]]), np.eye(2)),  # R wider than B's one row
    ([1.0, 1.0], np.array([[1.0, 0.0]]), 1.0),  # y longer than B's one row
], ids=["B-columns", "R-vs-B-square", "R-vs-B-rows", "y-vs-B-rows"])
def test_model_dimensions_checked_against_the_belief(y, B, R):
    belief = GaussianBelief([0.0, 0.0], np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError):
            gaussian_log_evidence(y, belief, B=B, R=R)


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


def test_quadratic_form_overflowing_to_minus_inf_gives_minus_inf():
    # the two terms of resid . solve(S, resid) overflow with opposite signs
    # and the dot reads -inf, which would make the density +inf
    belief = GaussianBelief(np.zeros(2), np.zeros((2, 2)))
    r = np.array([[5.07980005, 1.38135999], [1.38135999, 0.58737582]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian_log_evidence([1.15215143e205, 1.15215143e205], belief,
                                     np.eye(2), r) == -np.inf


def test_innovation_singular_to_working_precision_raises():
    # Cholesky accepts this S; the elimination in the solve hits a zero pivot
    belief = GaussianBelief(np.zeros(2), np.zeros((2, 2)))
    r = np.array([[0.5247914532927936, 1.7199053588004087],
                  [1.7199053588004087, 5.6366665742553215]])
    with pytest.raises(SingularInnovationCovError):
        gaussian_log_evidence([1.0, 1.0], belief, np.eye(2), r)


def test_a_scalar_innovation_agrees_with_the_factorization():
    # the m = 1 branch divides where LAPACK factors and solves.  At d = 1
    # both divide once and agree bit for bit.  At d > 1 the solve for the
    # gain has d right-hand sides, and OpenBLAS then multiplies by the
    # reciprocal of the 1x1 S: in 78% of 20000 stacks drawn as below, an
    # entry differs from the branch's exact division in the last bit, so
    # d > 1 is compared to a tolerance and the branch does not copy the
    # BLAS rounding
    rng = np.random.default_rng(27)
    for _ in range(400):
        k, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cov_scale, r_scale = 10.0 ** rng.uniform(-5.0, 5.0, size=2)
        a = rng.standard_normal((k, d, d))
        covs = cov_scale * (a @ a.swapaxes(1, 2) + 0.1 * np.eye(d))
        means = rng.standard_normal((k, d)) * np.sqrt(cov_scale)
        b_mat = rng.standard_normal((k, 1, d))
        r = r_scale * rng.uniform(0.1, 2.0, size=(k, 1, 1))
        y = rng.standard_normal(1) * np.sqrt(cov_scale + r_scale)
        log_ev, resid, gain_t = gaussian_innovation(y, means, covs, b_mat, r)

        # the LAPACK route; a finite 1x1 S is its own symmetrization
        bp = b_mat @ covs
        s = bp @ b_mat.swapaxes(1, 2) + r
        chol = np.linalg.cholesky(s)
        ref_resid = y - (b_mat @ means[:, :, None])[:, :, 0]
        sol = np.linalg.solve(s, ref_resid[:, :, None])
        ref_gain_t = np.linalg.solve(s, bp)
        logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        ref_log_ev = -0.5 * (LOG_2PI + logdet
                             + (ref_resid[:, None, :] @ sol)[:, 0, 0])

        assert np.array_equal(resid, ref_resid)
        np.testing.assert_allclose(log_ev, ref_log_ev, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(gain_t, ref_gain_t, rtol=1e-14, atol=0.0)
        if d == 1:
            assert np.array_equal(log_ev, ref_log_ev)
            assert np.array_equal(gain_t, ref_gain_t)
