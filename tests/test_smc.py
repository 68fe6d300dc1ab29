"""Particle engine: reweighting, resampling, and the ensemble step."""

import copy
import warnings

import numpy as np
import pytest
from scipy.stats import norm, t as student_t

from bdemm import (
    AllZeroError,
    BdemmError,
    DimensionMismatchError,
    GaussianBelief,
    GenericStateSpaceModel,
    InvalidInputError,
    KfEnsembleState,
    LinearGaussianModel,
    NegativeEntryError,
    NonFiniteBeliefError,
    NonFiniteWeightError,
    ParticleEnsemble,
    SmcEnsembleState,
    WeightVector,
    WTTConfig,
    additive_noise_ssm,
    bma_point_estimate,
    gaussian_noise,
    kf_bdemm_step,
    linear_gaussian_ssm,
    mc_log_evidence,
    propagate,
    resample,
    reweight,
    smc_bdemm_step,
    student_t_noise,
    uniform_noise,
)
from bdemm import smc
from bdemm.toy import ToyConfig, toy_pool
from bdemm.smc import DRAW_STRIDE, UNDERFLOW_LOG


def _shift_model(delta=1.0, obs_var=1.0):
    """Deterministic drift by delta, Gaussian likelihood around x."""
    return GenericStateSpaceModel(
        sample_transition=lambda x, t, rng: x + delta,
        log_likelihood=lambda y, x, t: norm.logpdf(y[0], loc=x[:, 0],
                                                   scale=np.sqrt(obs_var)),
    )


def _random_walk_model(step_var=0.25, obs_var=1.0):
    sd = np.sqrt(step_var)
    return GenericStateSpaceModel(
        sample_transition=lambda x, t, rng: x + rng.normal(0.0, sd, size=x.shape),
        log_likelihood=lambda y, x, t: norm.logpdf(y[0], loc=x[:, 0],
                                                   scale=np.sqrt(obs_var)),
    )


# ---------------------------------------------------------------------------
# ParticleEnsemble


def test_ensemble_validation():
    e = ParticleEnsemble([[0.0], [1.0]], [0.5, 0.5])
    assert e.n == 2 and e.dim == 1
    with pytest.raises(ValueError):
        e.particles[0, 0] = 9.0
    with pytest.raises(ValueError):
        ParticleEnsemble([[0.0], [1.0]], [0.6, 0.6])
    with pytest.raises(ValueError):
        ParticleEnsemble([[0.0], [1.0]], [-0.5, 1.5])
    with pytest.raises(DimensionMismatchError):
        ParticleEnsemble([[0.0], [1.0]], [1.0])
    with pytest.raises(ValueError):
        ParticleEnsemble([[np.nan]], [1.0])


def test_equal_weighted_promotes_vectors():
    e = ParticleEnsemble.equal_weighted(np.arange(5.0))
    assert e.particles.shape == (5, 1)
    assert np.array_equal(e.weights, np.full(5, 0.2))


# ---------------------------------------------------------------------------
# propagate / reweight


def test_propagate_applies_the_transition():
    e = ParticleEnsemble.equal_weighted([[0.0], [1.0], [2.0]])
    out = propagate(_shift_model(delta=3.0), e, 1, np.random.default_rng(0))
    assert np.array_equal(out.particles, [[3.0], [4.0], [5.0]])
    assert np.array_equal(out.weights, e.weights)


def test_propagate_rejects_non_finite_particles():
    for bad in (np.nan, np.inf):
        model = GenericStateSpaceModel(
            sample_transition=lambda x, t, rng: x + bad,
            log_likelihood=lambda y, x, t: np.zeros(x.shape[0]),
        )
        e = ParticleEnsemble.equal_weighted([[0.0], [1.0]])
        with pytest.raises(NonFiniteBeliefError):
            propagate(model, e, 1, np.random.default_rng(0))
        state = SmcEnsembleState.initial(e.particles, k=1)
        with pytest.raises(NonFiniteBeliefError):
            smc_bdemm_step(state, [model], 0.0, 1, WTTConfig.identity(),
                           np.random.default_rng(0))


def test_propagate_rejects_shape_changes():
    bad = GenericStateSpaceModel(
        sample_transition=lambda x, t, rng: x[:-1],
        log_likelihood=lambda y, x, t: np.zeros(x.shape[0]),
    )
    e = ParticleEnsemble.equal_weighted([[0.0], [1.0]])
    with pytest.raises(DimensionMismatchError):
        propagate(bad, e, 1, np.random.default_rng(0))


def test_propagate_takes_only_an_n_by_d_cloud_back():
    # an (N,) cloud from a transition of a (N, 1) one is not reshaped
    flat = GenericStateSpaceModel(
        sample_transition=lambda x, t, rng: x[:, 0] + 1.0,
        log_likelihood=lambda y, x, t: np.zeros(x.shape[0]),
    )
    e = ParticleEnsemble.equal_weighted([[0.0], [1.0]])
    with pytest.raises(DimensionMismatchError, match="shape"):
        propagate(flat, e, 1, np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError, match="shape"):
        smc_bdemm_step(SmcEnsembleState.initial(e.particles, k=1), [flat],
                       0.0, 1, WTTConfig.identity(), np.random.default_rng(0))


def test_reweight_equal_likelihoods_stay_uniform():
    e = ParticleEnsemble.equal_weighted([[0.0], [0.0], [0.0]])
    w, log_ev = reweight(_shift_model(), e, np.array([0.0]), 1)
    assert np.allclose(w, np.full(3, 1.0 / 3.0), atol=1e-15)
    # the normalizer of equal likelihoods is that common likelihood
    assert log_ev == pytest.approx(float(norm.logpdf(0.0)), abs=1e-14)


def test_reweight_log_evidence_is_mc_log_evidence_bitwise():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        u = rng.random(n)
        ens = ParticleEnsemble(rng.standard_normal((n, 1)), u / u.sum())
        model = _shift_model(obs_var=float(rng.uniform(0.1, 4.0)))
        y = np.array([rng.normal(0.0, 2.0)])
        _, log_ev = reweight(model, ens, y, 1)
        ll = model.log_likelihood(y, ens.particles, 1)
        assert log_ev == mc_log_evidence(ens.weights, ll)


def test_reweight_dead_particles_stay_dead():
    e = ParticleEnsemble([[0.0], [5.0]], [1.0, 0.0])
    w, _ = reweight(_shift_model(), e, np.array([5.0]), 1)
    # particle 1 explains y far better but carries zero incoming weight
    assert np.array_equal(w, [1.0, 0.0])


def test_reweight_concentrates_on_the_explaining_particle():
    model = GenericStateSpaceModel(
        sample_transition=lambda x, t, rng: x,
        log_likelihood=lambda y, x, t: np.where(x[:, 0] == 0.0, 0.0, -1e9),
    )
    e = ParticleEnsemble.equal_weighted([[0.0], [1.0], [2.0]])
    w, _ = reweight(model, e, np.array([0.0]), 1)
    assert np.array_equal(w, [1.0, 0.0, 0.0])


def test_reweight_raises_on_linear_domain_underflow():
    # every log weight below the smallest representable double: no usable
    # information, whatever the log-domain ordering says
    model = GenericStateSpaceModel(
        sample_transition=lambda x, t, rng: x,
        log_likelihood=lambda y, x, t: np.full(x.shape[0], -1e9),
    )
    e = ParticleEnsemble.equal_weighted([[0.0], [1.0]])
    with pytest.raises(AllZeroError):
        reweight(model, e, np.array([0.0]), 1)


def test_reweight_underflow_threshold_is_linear_not_log():
    e = ParticleEnsemble.equal_weighted([[0.0], [1.0]])

    def make(level):
        return GenericStateSpaceModel(
            sample_transition=lambda x, t, rng: x,
            log_likelihood=lambda y, x, t: np.full(x.shape[0], level),
        )

    # max log weight = log(1/2) + level; just above the cutoff normalizes
    safe = UNDERFLOW_LOG + np.log(2.0) + 1.0
    w, _ = reweight(make(safe), e, np.array([0.0]), 1)
    assert np.allclose(w, [0.5, 0.5], atol=1e-15)
    with pytest.raises(AllZeroError):
        reweight(make(UNDERFLOW_LOG + np.log(2.0) - 1.0), e, np.array([0.0]), 1)


def test_non_finite_loglik_raises_a_library_error():
    # NaN or +inf in any model's row, a dead particle's included
    good = _shift_model()
    for bad in (np.nan, np.inf):
        model = GenericStateSpaceModel(
            sample_transition=lambda x, t, rng: x,
            log_likelihood=lambda y, x, t: np.where(x[:, 0] > 0.5, bad, 0.0),
        )
        e = ParticleEnsemble([[0.0], [1.0]], [1.0, 0.0])
        with pytest.raises(NonFiniteWeightError):
            reweight(model, e, np.array([0.0]), 1)
        state = SmcEnsembleState(e, SmcEnsembleState.initial(
            e.particles, k=2).history)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteWeightError):
                smc_bdemm_step(state, [good, model], 0.0, 1,
                               WTTConfig.identity(), np.random.default_rng(0))
    with pytest.raises(NonFiniteWeightError):
        mc_log_evidence([0.5, 0.5], [0.0, np.nan])
    assert issubclass(NonFiniteWeightError, BdemmError)
    assert issubclass(NonFiniteWeightError, ValueError)


def test_reweight_rejects_nan_and_plus_inf_loglik():
    for bad in (np.nan, np.inf):
        model = GenericStateSpaceModel(
            sample_transition=lambda x, t, rng: x,
            log_likelihood=lambda y, x, t: np.full(x.shape[0], bad),
        )
        e = ParticleEnsemble.equal_weighted([[0.0]])
        with pytest.raises(ValueError):
            reweight(model, e, np.array([0.0]), 1)


# ---------------------------------------------------------------------------
# Monte Carlo evidence


def test_mc_evidence_hand_cases():
    assert np.exp(mc_log_evidence([0.5, 0.5], np.log([2.0, 4.0]))) == \
        pytest.approx(3.0, rel=1e-12)
    assert np.exp(mc_log_evidence([1.0, 0.0], np.log([5.0, 99.0]))) == \
        pytest.approx(5.0, rel=1e-12)
    assert np.exp(mc_log_evidence([1.0], np.log([0.125]))) == \
        pytest.approx(0.125, rel=1e-15)


def test_mc_evidence_all_zero_is_zero_not_an_error():
    assert mc_log_evidence([0.5, 0.5], [-np.inf, -np.inf]) == -np.inf
    # a dead weight silences even a huge likelihood
    assert mc_log_evidence([0.0, 1.0], [100.0, -np.inf]) == -np.inf


def test_mc_evidence_validation():
    with pytest.raises(DimensionMismatchError):
        mc_log_evidence([0.5, 0.5], [0.0])


@pytest.mark.parametrize("u, ll", [([], []), ([[1.0]], [[0.0]])],
                         ids=["empty", "2-d"])
def test_mc_evidence_rejects_empty_and_2d_input(u, ll):
    with pytest.raises(DimensionMismatchError):
        mc_log_evidence(u, ll)


def test_mc_log_evidence_matches_direct_sum():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        u = rng.random(n)
        u /= u.sum()
        lik = rng.random(n) * 5.0
        ours = mc_log_evidence(u, np.log(lik))
        assert ours == pytest.approx(float(np.log(u @ lik)), abs=1e-12)


# ---------------------------------------------------------------------------
# resampling


def test_resample_degenerate_weights_copy_one_particle():
    parts = np.array([[0.0], [1.0], [2.0]])
    out = resample(parts, [1.0, 0.0, 0.0], 5, np.random.default_rng(0))
    assert np.array_equal(out.particles, np.zeros((5, 1)))
    assert np.array_equal(out.weights, np.full(5, 0.2))


def test_resample_single_particle_replicates():
    out = resample([[7.0]], [1.0], 4, np.random.default_rng(0))
    assert np.array_equal(out.particles, np.full((4, 1), 7.0))


def test_resample_accepts_unnormalized_weights():
    out = resample([[0.0], [1.0]], [8.0, 0.0], 3, np.random.default_rng(0))
    assert np.array_equal(out.particles, np.zeros((3, 1)))


def test_resample_multinomial_frequencies_track_weights():
    parts = np.array([[0.0], [1.0]])
    out = resample(parts, [0.5, 0.5], 100_000, np.random.default_rng(11))
    frac = float(out.particles.mean())
    assert abs(frac - 0.5) < 0.01


def _weight_sets(rng):
    """(weights, n_out) pairs: random, with runs of zeros, one nonzero
    weight, a single particle, and n_out below and above N."""
    for n in (1, 2, 7, 50, 400):
        for n_out in sorted({1, max(1, n // 3), n, 3 * n + 1}):
            w = rng.random(n) * 10.0 ** rng.integers(-300, 300)
            yield w, n_out
            runs = w.copy()
            runs[rng.random(n) < 0.6] = 0.0  # flat steps in the CDF
            runs[:n // 4] = 0.0
            if runs.any():
                yield runs, n_out
            one = np.zeros(n)
            one[rng.integers(n)] = rng.random() + 0.5
            yield one, n_out


def test_resample_picks_the_index_each_uniform_searches_to():
    rng = np.random.default_rng(97)
    for w, n_out in _weight_sets(rng):
        n = w.size
        particles = rng.normal(size=(n, 2))
        draws = np.random.default_rng(int(rng.integers(2**32)))
        mirror = copy.deepcopy(draws)
        cdf = np.cumsum(w)
        cdf = cdf / cdf[-1]
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, mirror.random(n_out), side="right")
        assert (w[idx] > 0.0).all()
        out = resample(particles, w, n_out, draws)
        assert out.particles.tobytes() == particles[idx].tobytes()
        # the same draws consumed, so the generators stay in step
        assert draws.random() == mirror.random()


def test_resample_validation():
    with pytest.raises(AllZeroError):
        resample([[0.0], [1.0]], [0.0, 0.0], 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        resample([[0.0]], [1.0], 0, np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError):
        resample([[0.0], [1.0]], [1.0], 2, np.random.default_rng(0))


@pytest.mark.parametrize("weights, error", [
    ([np.nan, 1.0], NonFiniteWeightError),
    ([np.inf, 1.0], NonFiniteWeightError),
    ([1e308, 1e308], NonFiniteWeightError),
    ([-0.5, 1.5], NegativeEntryError),
    ([-np.inf, 1.0], NegativeEntryError),
], ids=["nan", "inf", "total-overflows", "negative", "minus-inf"])
def test_resample_rejects_bad_weights(weights, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            resample([[0.0], [1.0]], weights, 4, np.random.default_rng(0))


def test_resample_rejects_an_empty_set():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError):
            resample(np.empty((0, 1)), [], 2, np.random.default_rng(0))


@pytest.mark.parametrize("particles", [np.zeros((2, 1, 1)), np.float64(0.0)],
                         ids=["rank-3", "rank-0"])
def test_resample_rejects_particles_of_the_wrong_rank(particles):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError, match="particles must be"):
            resample(particles, [0.5, 0.5], 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the ensemble step


def _reference_single_model_step(model, particles, weights, y, t, rng, n_out):
    """Mirror of the documented randomness protocol for K = 1: the transition
    draws straight from ``rng``, which then skips ``DRAW_STRIDE`` draws
    before the resampler draws."""
    moved = model.sample_transition(particles, t, rng)
    ll = model.log_likelihood(np.atleast_1d(y), moved, t)
    with np.errstate(divide="ignore"):
        lw = np.log(weights) + ll
    e = np.exp(lw - lw.max())
    u = e / e.sum()
    estimate = u @ moved
    cdf = np.cumsum(u)
    cdf = cdf / cdf[-1]
    cdf[-1] = 1.0
    rng.bit_generator.advance(DRAW_STRIDE)
    draws = rng.random(n_out)
    idx = np.minimum(np.searchsorted(cdf, draws, side="right"), moved.shape[0] - 1)
    return moved[idx], estimate


def _model_estimates(pool, ensemble, y, t, rng):
    """Each model's own posterior mean, rebuilt through the documented
    randomness protocol (every transition starts from the same generator
    state); a model that explains nothing keeps its incoming particle
    weights."""
    snapshot = rng.bit_generator.state
    estimates = []
    for model in pool:
        rng.bit_generator.state = snapshot
        moved = propagate(model, ensemble, t, rng)
        try:
            u, _ = reweight(model, moved, np.atleast_1d(y), t)
        except AllZeroError:
            u = moved.weights
        estimates.append(u @ moved.particles)
    return estimates


def test_single_model_step_is_bit_identical_to_reference():
    model = _random_walk_model()
    rng_a = np.random.default_rng(101)
    rng_b = np.random.default_rng(101)
    particles = np.linspace(-1.0, 1.0, 50)[:, None]
    state = SmcEnsembleState.initial(particles, k=1)
    ys = [0.3, -0.5, 1.1]
    for i, y in enumerate(ys):
        ref_particles, ref_est = _reference_single_model_step(
            model, state.ensemble.particles, state.ensemble.weights,
            y, i + 1, rng_b, 50)
        state, est, _ = smc_bdemm_step(state, [model], y, i + 1,
                                       WTTConfig.identity(), rng_a)
        assert np.array_equal(state.ensemble.particles, ref_particles)
        assert np.array_equal(est.x_hat, ref_est)
        assert state.model_weights.w[0] == 1.0


def test_shared_propagation_matches_per_model_path_bitwise():
    # [model, model] holds one transition object and propagates once;
    # [model, twin] wraps the same transition in a new callable, so it
    # propagates per model with the same seed: the clouds, weights and
    # estimates must come out identical
    base = _random_walk_model()
    calls = []

    def counted(x, t, rng):
        calls.append(t)
        return base.sample_transition(x, t, rng)

    model = GenericStateSpaceModel(counted, base.log_likelihood)
    twin = GenericStateSpaceModel(lambda x, t, rng: counted(x, t, rng),
                                  base.log_likelihood)
    particles = np.zeros((40, 1))
    ys = [0.2, 0.9, -0.3, 0.5]

    state_s = SmcEnsembleState.initial(particles, k=2)
    state_g = SmcEnsembleState.initial(particles, k=2)
    rng_s = np.random.default_rng(23)
    rng_g = np.random.default_rng(23)
    for i, y in enumerate(ys):
        del calls[:]
        state_s, est_s, _ = smc_bdemm_step(state_s, [model, model], y, i + 1,
                                           WTTConfig.identity(), rng_s)
        assert len(calls) == 1
        state_g, est_g, _ = smc_bdemm_step(state_g, [model, twin], y, i + 1,
                                           WTTConfig.identity(), rng_g)
        assert len(calls) == 3
        assert np.array_equal(state_s.ensemble.particles,
                              state_g.ensemble.particles)
        assert np.array_equal(est_s.x_hat, est_g.x_hat)
        assert np.array_equal(state_s.model_weights.w, state_g.model_weights.w)


def _counted(calls, name, transition):
    def sample(x, t, rng):
        calls.append(name)
        return transition(x, t, rng)
    return sample


def test_step_propagates_once_per_distinct_transition():
    # a and a_shared hold one transition object, so their pool propagates
    # twice per row; twin_a holds a copy of it, so its pool propagates three
    # times, from the same generator state, and comes out bit for bit the same
    calls = []
    walk = _random_walk_model(step_var=0.5).sample_transition
    drift = _random_walk_model(step_var=4.0).sample_transition
    lik = [_random_walk_model(obs_var=v).log_likelihood for v in (1.0, 2.0, 9.0)]
    shared = _counted(calls, "a", walk)
    a = GenericStateSpaceModel(shared, lik[0])
    a_shared = GenericStateSpaceModel(shared, lik[1])
    twin_a = GenericStateSpaceModel(_counted(calls, "a", walk), lik[1])
    b = GenericStateSpaceModel(_counted(calls, "b", drift), lik[2])
    wtt = WTTConfig.forgetting(0.8)
    runs = {}
    pools = {"shared": ([a, a_shared, b], ["a", "b"]),
             "twin": ([a, twin_a, b], ["a", "a", "b"])}
    for name, (pool, propagations) in pools.items():
        rng = np.random.default_rng(17)
        state = SmcEnsembleState.initial(rng.standard_normal((60, 1)), k=3)
        out = []
        for t in range(1, 21):
            del calls[:]
            state, est, log_evs = smc_bdemm_step(state, pool, 0.3 * t, t,
                                                 wtt, rng)
            assert sorted(calls) == propagations
            out.append((state.ensemble.particles, state.model_weights.w,
                        est.x_hat, log_evs))
        runs[name] = out
    for got, want in zip(runs["twin"], runs["shared"]):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_same_master_seed_repeats_bit_for_bit():
    pool = [_random_walk_model(obs_var=1.0), _random_walk_model(step_var=2.0),
            additive_noise_ssm(lambda x, t, r: x + r.standard_t(3.0, x.shape),
                               lambda x, t: x[:, 0], student_t_noise(3.0))]

    def run():
        rng = np.random.default_rng(2024)
        data = np.random.default_rng(5).normal(0.0, 2.0, 50)
        state = SmcEnsembleState.initial(rng.standard_normal((80, 1)), k=3)
        out = []
        for t, y in enumerate(data, start=1):
            state, est, log_evs = smc_bdemm_step(
                state, pool, y, t, WTTConfig.forgetting(0.7), rng)
            out.append((state.ensemble.particles, state.model_weights.w,
                        est.x_hat, log_evs))
        return out

    for got, want in zip(run(), run()):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_no_draw_is_used_twice_however_unequally_transitions_draw(monkeypatch):
    # the first transition draws two uniforms per particle, the second one:
    # neither the resampling draws nor any later step's transitions may
    # reuse a value the first one already turned into particles
    drawn = []

    def heavy(x, t, rng):
        u = rng.random((x.shape[0], 2))
        drawn.append(u.ravel())
        return x + u[:, :1] - u[:, 1:]

    def light(x, t, rng):
        u = rng.random((x.shape[0], 1))
        drawn.append(u.ravel())
        return x + u - 0.5

    def spy(particles, weights, n_out, rng):
        drawn.append(copy.deepcopy(rng).random(n_out))
        return resample(particles, weights, n_out, rng)

    monkeypatch.setattr(smc, "resample", spy)
    obs = lambda x, t: x[:, 0]
    pool = [additive_noise_ssm(heavy, obs, gaussian_noise(1.0)),
            additive_noise_ssm(light, obs, gaussian_noise(2.0))]
    state = SmcEnsembleState.initial(np.zeros((25, 1)), k=2)
    rng = np.random.default_rng(12)
    for t in range(1, 11):
        state, _, _ = smc_bdemm_step(state, pool, 0.1 * t, t,
                                     WTTConfig.identity(), rng)
    # per row: heavy, light, resampling; light repeats heavy's first draws
    assert len(drawn) == 30
    for heavy_u, light_u in zip(drawn[0::3], drawn[1::3]):
        assert np.array_equal(light_u, heavy_u[:25])
    values = np.concatenate([u for i, u in enumerate(drawn) if i % 3 != 1])
    assert np.unique(values).size == values.size == 10 * (50 + 25)


def test_step_needs_a_bit_generator_that_advances():
    calls = []
    model = GenericStateSpaceModel(
        _counted(calls, "a", _random_walk_model().sample_transition),
        _random_walk_model().log_likelihood)
    state = SmcEnsembleState.initial(np.zeros((10, 1)), k=1)
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="advance"):
        smc_bdemm_step(state, [model], 0.0, 1, WTTConfig.identity(), rng)
    assert calls == []


def test_step_creates_no_generator(monkeypatch):
    # every draw comes from the caller's generator
    def refuse(*args, **kwargs):
        raise AssertionError("the step created a generator")

    pool = [_random_walk_model(), _random_walk_model(step_var=1.0)]
    state = SmcEnsembleState.initial(np.zeros((30, 1)), k=2)
    rng = np.random.default_rng(6)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    for t in range(1, 4):
        state, _, _ = smc_bdemm_step(state, pool, 0.1, t,
                                     WTTConfig.identity(), rng)


def test_step_log_evidences_are_mc_log_evidence_bitwise():
    # each model's evidence is the normalizer of its own reweighting row,
    # against the incoming particle weights; the uniform candidate's
    # support misses the far row, so it dies there with -inf
    seen = {}

    def recorded(k, noise):
        model = additive_noise_ssm(lambda x, t, r: x + r.normal(0.0, 0.5, x.shape),
                                   lambda x, t: x[:, 0], noise)

        def log_likelihood(y, x, t):
            seen[k] = model.log_likelihood(y, x, t)
            return seen[k]

        return GenericStateSpaceModel(model.sample_transition, log_likelihood)

    pool = [recorded(0, gaussian_noise(1.0)), recorded(1, student_t_noise(3.0)),
            recorded(2, uniform_noise(-3.0, 3.0))]
    rng = np.random.default_rng(4)
    u = rng.random(40)
    state = SmcEnsembleState(
        ParticleEnsemble(rng.standard_normal((40, 1)), u / u.sum()),
        SmcEnsembleState.initial(np.zeros((1, 1)), k=3).history)
    dead = 0
    for t, y in enumerate([0.2, 40.0, -0.7, 1.5, 0.1], start=1):
        incoming = state.ensemble.weights
        state, _, log_evs = smc_bdemm_step(state, pool, y, t,
                                           WTTConfig.forgetting(0.7), rng)
        for k in range(3):
            assert log_evs[k] == mc_log_evidence(incoming, seen[k])
        dead += log_evs[2] == -np.inf
    assert dead == 1


def test_a_row_that_underflows_as_a_double_is_minus_inf_only_in_the_step():
    # the largest product 0.5 * exp(-1000) is 0.0 as a double; the log-domain
    # evidence keeps its finite log, the step's underflow rule scores -inf
    row = np.array([-1000.0, -1000.0])
    assert mc_log_evidence([0.5, 0.5], row) == -1000.0

    def model(ll):
        return GenericStateSpaceModel(lambda x, t, rng: x, lambda y, x, t: ll)

    state = SmcEnsembleState(
        ParticleEnsemble(np.zeros((2, 1)), [0.5, 0.5]),
        SmcEnsembleState.initial(np.zeros((1, 1)), k=2).history)
    _, _, log_evs = smc_bdemm_step(state, [model(row), model(np.zeros(2))],
                                   0.0, 1, WTTConfig.identity(),
                                   np.random.default_rng(0))
    assert log_evs.tolist() == [-np.inf, 0.0]
    with pytest.raises(AllZeroError):
        reweight(model(row), state.ensemble, 0.0, 1)


def test_ensemble_weights_favor_the_right_noise_model():
    # observations drawn with unit Gaussian noise; the wide-uniform candidate
    # pays a constant density and loses the evidence race
    rng = np.random.default_rng(31)
    gauss = additive_noise_ssm(lambda x, t, r: x + r.normal(0, 0.5, x.shape),
                               lambda x, t: x[:, 0], gaussian_noise(1.0))
    unif = additive_noise_ssm(lambda x, t, r: x + r.normal(0, 0.5, x.shape),
                              lambda x, t: x[:, 0], uniform_noise(-50.0, 50.0))
    state = SmcEnsembleState.initial(np.zeros((100, 1)), k=2)
    x = 0.0
    for i in range(25):
        x += rng.normal(0.0, 0.5)
        y = x + rng.normal(0.0, 1.0)
        state, _, _ = smc_bdemm_step(state, [gauss, unif], y, i + 1,
                                     WTTConfig.identity(), rng)
    assert state.model_weights.w[0] > 0.95


def test_dead_model_gets_zero_weight_and_neg_inf_evidence():
    # uniform support misses y entirely: that candidate dies this step
    shared = lambda x, t, r: x
    obs = lambda x, t: x[:, 0]
    gauss = additive_noise_ssm(shared, obs, gaussian_noise(1.0))
    narrow = additive_noise_ssm(shared, obs, uniform_noise(-0.1, 0.1))
    prior = SmcEnsembleState.initial(np.zeros((30, 1)), k=2)
    state, est, log_evs = smc_bdemm_step(prior, [gauss, narrow], 3.0, 1,
                                         WTTConfig.identity(),
                                         np.random.default_rng(7))
    assert state.model_weights.w.tolist() == [1.0, 0.0]
    assert log_evs[1] == -np.inf
    estimates = _model_estimates([gauss, narrow], prior.ensemble, 3.0, 1,
                                 np.random.default_rng(7))
    assert np.isfinite(estimates[1][0])  # prior-weighted mean
    assert np.array_equal(
        est.x_hat, bma_point_estimate(estimates, state.model_weights).x_hat)


def test_all_models_dead_keeps_predictive_weights_and_cloud():
    # y far outside both supports: the step is open loop
    shared = lambda x, t, r: x + 1.0
    obs = lambda x, t: x[:, 0]
    a = additive_noise_ssm(shared, obs, uniform_noise(-1.0, 1.0))
    b = additive_noise_ssm(shared, obs, uniform_noise(-2.0, 2.0))
    start = WeightVector([0.6, 0.4])
    state = SmcEnsembleState.initial(np.zeros((20, 1)), weights=start)
    new, est, log_evs = smc_bdemm_step(state, [a, b], 1e6, 1,
                                       WTTConfig.identity(),
                                       np.random.default_rng(9))
    assert np.array_equal(new.model_weights.w, start.w)
    assert log_evs.tolist() == [-np.inf, -np.inf]
    # the new cloud is a resample of the propagated one
    assert set(new.ensemble.particles[:, 0]) <= {1.0}
    assert np.allclose(est.x_hat, [1.0], atol=1e-12)


def test_augmented_mixture_estimate_combines_models():
    m_a = _shift_model(delta=0.0)
    m_b = _shift_model(delta=10.0)
    prior = SmcEnsembleState.initial(np.zeros((50, 1)), k=2)
    state, est, _ = smc_bdemm_step(prior, [m_a, m_b], 5.0, 1,
                                   WTTConfig.identity(),
                                   np.random.default_rng(13))
    w = state.model_weights.w
    estimates = _model_estimates([m_a, m_b], prior.ensemble, 5.0, 1,
                                 np.random.default_rng(13))
    manual = w[0] * estimates[0] + w[1] * estimates[1]
    assert np.allclose(est.x_hat, manual, atol=1e-12)
    # equidistant observation, equal priors: both models keep equal weight
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)
    # resampled cloud holds particles from both components
    vals = set(np.round(state.ensemble.particles[:, 0], 6))
    assert vals == {0.0, 10.0}


@pytest.mark.parametrize("model", [
    additive_noise_ssm(lambda x, t, r: x, lambda x, t: x[:, 0],
                       gaussian_noise(0.9)),
    additive_noise_ssm(lambda x, t, r: x, lambda x, t: x[:, 0],
                       student_t_noise(3.0)),
    linear_gaussian_ssm(1.0, 0.1, 1.0, 1.0),
], ids=["gaussian", "student-t", "linear-gaussian"])
def test_overflowing_residual_scores_neg_inf_without_warning(model):
    # resid ** 2 overflows: the density reads -inf, no numpy warning escapes,
    # and with every model dead the step keeps the predictive weights
    start = WeightVector([0.6, 0.4])
    state = SmcEnsembleState.initial(np.zeros((20, 1)), weights=start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new, _, log_evs = smc_bdemm_step(state, [model, model], 1e200, 1,
                                         WTTConfig.identity(),
                                         np.random.default_rng(3))
    assert log_evs.tolist() == [-np.inf, -np.inf]
    assert np.array_equal(new.model_weights.w, start.w)


def test_residual_of_both_infinities_scores_neg_inf_as_the_kalman_step_does():
    # resid = [inf, -inf]: the solve makes its quadratic form NaN, and both
    # engines read that as an overflow, so the step is uninformative
    r = np.array([[1.0, 0.5], [0.5, 1.0]])
    pool = [LinearGaussianModel(np.eye(2), 0.01 * np.eye(2), np.eye(2), s * r)
            for s in (1.0, 4.0)]
    far, y = np.array([-1e308, 1e308]), np.array([1e308, -1e308])
    start = WeightVector([0.6, 0.4])
    _, _, kf_log_evs = kf_bdemm_step(
        KfEnsembleState.initial(GaussianBelief(far, np.eye(2)), weights=start),
        pool, y, WTTConfig.identity())
    state = SmcEnsembleState.initial(np.tile(far, (20, 1)), weights=start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new, _, log_evs = smc_bdemm_step(
            state, [linear_gaussian_ssm(m.A, m.Q, m.B, m.R) for m in pool], y,
            1, WTTConfig.identity(), np.random.default_rng(5))
    assert kf_log_evs.tolist() == log_evs.tolist() == [-np.inf, -np.inf]
    assert np.array_equal(new.model_weights.w, start.w)


def test_step_resamples_back_to_n_uniform_particles():
    model = _random_walk_model()
    state = SmcEnsembleState.initial(np.zeros((64, 1)), k=1)
    state, _, _ = smc_bdemm_step(state, [model], 0.1, 1,
                                 WTTConfig.identity(), np.random.default_rng(1))
    assert state.ensemble.n == 64
    assert np.array_equal(state.ensemble.weights, np.full(64, 1.0 / 64.0))
    assert len(state.history) == 2


def test_step_validates_pool_size():
    state = SmcEnsembleState.initial(np.zeros((10, 1)), k=2)
    with pytest.raises(DimensionMismatchError):
        smc_bdemm_step(state, [_shift_model()], 0.0, 1,
                       WTTConfig.identity(), np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError):
        SmcEnsembleState.initial(np.zeros((10, 1)))


@pytest.mark.parametrize("size", [1, 3])
def test_a_mismatched_pool_raises_before_any_draw(size):
    state = SmcEnsembleState.initial(np.zeros((10, 1)), k=2)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    pool = [_random_walk_model() for _ in range(size)]
    with pytest.raises(DimensionMismatchError, match="pool size"):
        smc_bdemm_step(state, pool, 0.0, 1, WTTConfig.identity(), rng)
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# model constructors


def test_linear_gaussian_ssm_matches_formulas():
    model = linear_gaussian_ssm(A=[[0.9]], Q=[[0.04]], B=[[2.0]], R=[[0.25]])
    cloud = np.array([[1.0], [2.0]])
    moved = model.sample_transition(cloud, 1, np.random.default_rng(0))
    assert moved.shape == (2, 1)
    # mean drift 0.9 x, noise sd 0.2: stays within a few sigma
    assert np.all(np.abs(moved[:, 0] - 0.9 * cloud[:, 0]) < 1.0)
    ll = model.log_likelihood(np.array([2.0]), cloud, 1)
    ref = norm.logpdf(2.0, loc=2.0 * cloud[:, 0], scale=0.5)
    assert np.allclose(ll, ref, atol=1e-12)


def test_linear_gaussian_ssm_rejects_mismatched_shapes():
    cases = [
        dict(A=[1.0], Q=[1.0], B=[1.0, 2.0], R=[1.0]),  # B wider than A
        dict(A=np.eye(2), Q=[[1.0]], B=[[1.0, 0.0]], R=[[1.0]]),  # Q vs A
        dict(A=[0.9], Q=[0.1], B=[[1.0], [1.0]], R=[[1.0]]),  # R vs B
        dict(A=[[1.0, 0.0]], Q=[0.1], B=[1.0], R=[1.0]),  # A not square
    ]
    for case in cases:
        with pytest.raises(DimensionMismatchError):
            linear_gaussian_ssm(**case)


def test_noise_helpers_match_scipy():
    resid = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(gaussian_noise(4.0)(resid),
                       norm.logpdf(resid, scale=2.0), atol=1e-12)
    assert np.allclose(student_t_noise(3.0, 2.0)(resid),
                       student_t.logpdf(resid, df=3.0, scale=2.0), atol=1e-12)
    u = uniform_noise(-2.0, 2.0)
    assert u(np.array([0.0]))[0] == pytest.approx(-np.log(4.0), rel=1e-12)
    assert u(np.array([2.5]))[0] == -np.inf
    assert u(np.array([2.0]))[0] == pytest.approx(-np.log(4.0), rel=1e-12)


def test_noise_helper_validation():
    with pytest.raises(ValueError):
        gaussian_noise(0.0)
    with pytest.raises(ValueError):
        uniform_noise(1.0, 1.0)
    with pytest.raises(ValueError):
        student_t_noise(0.0)


@pytest.mark.parametrize("low, high", [(-1e308, 1e308), (-np.inf, 0.0),
                                       (0.0, np.inf), (np.nan, 1.0)],
                         ids=["width-overflows", "low-inf", "high-inf",
                              "low-nan"])
def test_uniform_noise_rejects_a_support_without_a_finite_width(low, high):
    # a width of inf would make the density -inf everywhere: the candidate
    # would be dead on every row without a word
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="need high > low"):
            uniform_noise(low, high)


@pytest.mark.parametrize("df, scale", [(np.nan, 1.0), (np.inf, 1.0),
                                       (1e307, 1.0), (3.0, np.inf),
                                       (5e-324, 1.0)])
def test_student_t_rejects_parameters_without_a_finite_density(df, scale):
    # 1e307 overflows the log-gamma, and 5e-324 halves to 0, its pole, where
    # math.lgamma raises a domain error; NaN and inf would make every
    # density NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            student_t_noise(df, scale)


def test_additive_noise_ssm_wires_residuals():
    model = additive_noise_ssm(lambda x, t, rng: x,
                               lambda x, t: 2.0 * x[:, 0],
                               gaussian_noise(1.0))
    cloud = np.array([[1.0], [3.0]])
    ll = model.log_likelihood(np.array([2.0]), cloud, 1)
    assert np.allclose(ll, norm.logpdf(2.0 - 2.0 * cloud[:, 0]), atol=1e-12)


def _toy_pool_step(y):
    state = SmcEnsembleState.initial(np.full((20, 1), 1.0), k=2)
    return smc_bdemm_step(state, toy_pool(ToyConfig()), y, 1,
                          WTTConfig.identity(), np.random.default_rng(0))


def test_additive_noise_ssm_scores_only_a_one_entry_observation():
    _, est, log_evs = _toy_pool_step([3.0])
    # one entry in any shape is that entry
    for y in (3.0, [[3.0]]):
        _, other_est, other_evs = _toy_pool_step(y)
        assert other_est.x_hat.tolist() == est.x_hat.tolist()
        assert other_evs.tolist() == log_evs.tolist()
    # a second entry is not dropped
    for y in ([3.0, 99.0], np.empty(0)):
        with pytest.raises(DimensionMismatchError, match="one scalar"):
            _toy_pool_step(y)
    model = toy_pool(ToyConfig())[0]
    with pytest.raises(DimensionMismatchError, match="one scalar"):
        model.log_likelihood(np.array([3.0, 99.0]), np.ones((4, 1)), 1)


def test_linear_gaussian_ssm_takes_one_entry_per_row_of_b():
    model = linear_gaussian_ssm(A=np.eye(2), Q=np.eye(2), B=np.eye(2),
                                R=np.eye(2))
    state = SmcEnsembleState.initial(np.zeros((10, 2)), k=1)
    # no broadcast of [3.0] to [3.0, 3.0], and no raw broadcast error
    for y in ([3.0], [3.0, 3.0, 3.0], [[3.0, 3.0]]):
        with pytest.raises(DimensionMismatchError, match="one entry per row"):
            smc_bdemm_step(state, [model], y, 1, WTTConfig.identity(),
                           np.random.default_rng(0))
        with pytest.raises(DimensionMismatchError, match="one entry per row"):
            model.log_likelihood(np.asarray(y, dtype=float),
                                 state.ensemble.particles, 1)
    smc_bdemm_step(state, [model], [3.0, 3.0], 1, WTTConfig.identity(),
                   np.random.default_rng(0))
