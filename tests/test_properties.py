"""Every public constructor and factory returns or raises a ``BdemmError``.

A bounded, derandomized ``hypothesis`` search over the library's public
constructors and factories, and over single-key perturbations of one valid
``bdemm stream`` config per engine (built, then stepped twice).  Each call
must return, or raise a :class:`~bdemm.errors.BdemmError`: no other
exception and no warning, which ``-W error`` would turn into one, even
under a caller's ``np.errstate(all="raise")``.

Reals come from the edges of the float range (signed zeros, subnormals,
1e300, 1.7e308, NaN and the infinities) and a few ordinary values, beside
strings and short lists.  Counts come only from 0-1000 and from above
2**53, so no example asks numpy to allocate a large array.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdemm import (
    BdemmError,
    GaussianBelief,
    GPTSModel,
    LinearGaussianModel,
    ParticleEnsemble,
    PredictiveGaussian,
    ToyConfig,
    WeightVector,
    WTTConfig,
    default_markov_matrix,
    effective_sample_size,
    gaussian_noise,
    mc_log_evidence,
    perturb_pool,
    resample,
    student_t_noise,
    uniform_noise,
    update_model_weights_log,
)
from bdemm.stream import build_engine
from bdemm.wtt import KINDS

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
         1e300, -1e300, 1.7e308, -1.7e308, np.nan, np.inf, -np.inf]
REALS = st.sampled_from(EDGES) | st.floats(-10.0, 10.0)
WORDS = st.sampled_from(["", "a", "abc", "1.0", "nan", "identity"])
LISTS = st.lists(REALS, max_size=3)
VALUES = REALS | WORDS | LISTS | st.lists(LISTS, max_size=3)
COUNTS = (st.integers(0, 1000) | st.integers(2**53 + 1, 2**80)
          | st.sampled_from([1e300, 1.7e308, 2.0**60, 2.5, np.nan, np.inf])
          | WORDS)


def _returns_or_raises_a_library_error(call, *args, **kwargs):
    # a caller's error state does not reach inside the library either
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        try:
            return call(*args, **kwargs)
        except BdemmError:
            return None


@SETTINGS
@given(VALUES)
@example("a")
@example([1.0])
def test_weight_vector(w):
    _returns_or_raises_a_library_error(WeightVector, w)


@SETTINGS
@given(COUNTS, VALUES)
@example(1e300, 0.9)
def test_counts_of_models(k, stay):
    _returns_or_raises_a_library_error(WeightVector.uniform, k)
    _returns_or_raises_a_library_error(default_markov_matrix, k, stay)


@SETTINGS
@given(VALUES, VALUES)
def test_gaussian_belief(mean, cov):
    _returns_or_raises_a_library_error(GaussianBelief, mean, cov)


@SETTINGS
@given(st.sampled_from(KINDS + ("bogus",)), VALUES)
def test_wtt_config(kind, param):
    _returns_or_raises_a_library_error(WTTConfig, kind, param)


@SETTINGS
@given(VALUES, VALUES, VALUES, VALUES, COUNTS, VALUES)
def test_gp_models_and_pools(mean, signal, lengthscale, noise, window,
                             factors):
    model = _returns_or_raises_a_library_error(
        GPTSModel, mean, signal, lengthscale, noise, window)
    nominal = model or GPTSModel(0.0, 1.0, 1.0, 0.1, 3)
    _returns_or_raises_a_library_error(perturb_pool, nominal, factors)


@SETTINGS
@given(VALUES, VALUES, VALUES)
@example(0.0, 1.0, "a")
@example(0.0, 1.0, [1.0])
def test_predictive_gaussian_and_its_density(mean, var, y):
    forecast = _returns_or_raises_a_library_error(PredictiveGaussian, mean,
                                                  var)
    forecast = forecast or PredictiveGaussian(0.0, 1.0)
    _returns_or_raises_a_library_error(forecast.logpdf, y)


@SETTINGS
@given(VALUES, VALUES, VALUES)
@example(5e-324, 1.0, 1.0)
def test_noise_factories(a, b, c):
    _returns_or_raises_a_library_error(gaussian_noise, a)
    _returns_or_raises_a_library_error(uniform_noise, a, b)
    _returns_or_raises_a_library_error(student_t_noise, a, c)


@SETTINGS
@given(VALUES, VALUES, VALUES, VALUES)
def test_linear_gaussian_model(A, Q, B, R):
    _returns_or_raises_a_library_error(LinearGaussianModel, A, Q, B, R)


@SETTINGS
@given(VALUES, VALUES, COUNTS)
@example([0.0, 1.0], [0.5, 0.5], 1e300)
def test_particles_and_resampling(particles, weights, n_out):
    _returns_or_raises_a_library_error(ParticleEnsemble, particles, weights)
    _returns_or_raises_a_library_error(resample, particles, weights, n_out,
                                       np.random.default_rng(0))
    _returns_or_raises_a_library_error(effective_sample_size, weights)
    _returns_or_raises_a_library_error(mc_log_evidence, weights, particles)


@SETTINGS
@given(st.integers(1, 3), VALUES, VALUES)
def test_weight_update(k, log_evidences, floor):
    _returns_or_raises_a_library_error(
        update_model_weights_log, WeightVector.uniform(k), log_evidences,
        floor)


TOY_FIELDS = {
    "horizon": COUNTS, "runs": COUNTS, "particles": COUNTS,
    "seed": COUNTS | REALS | st.integers(-5, -1),
    "gamma_shape": VALUES, "gamma_scale": VALUES, "gauss_noise_var": VALUES,
    "outlier_steps": VALUES | st.lists(COUNTS, max_size=3),
    "wtt_kind": st.sampled_from(KINDS) | VALUES,
    "forgetting_alpha": VALUES, "weight_floor": VALUES,
}


@SETTINGS
@given(st.sampled_from(sorted(TOY_FIELDS)).flatmap(
    lambda name: st.tuples(st.just(name), TOY_FIELDS[name])))
def test_toy_config(field):
    name, value = field
    _returns_or_raises_a_library_error(ToyConfig, **{name: value})


# one valid parsed config per engine; a perturbation sets one key, present
# or not, to an int, a float, a word or a list of floats, as a config file
# can, or to a string numpy reads as a number, as a caller's dict can
ENGINES = {
    "kf": {
        "engine": "kf", "wtt.kind": "forgetting", "wtt.alpha": 0.8,
        "kf.models": 2,
        "kf.model.1.A": [1.0], "kf.model.1.Q": [0.05],
        "kf.model.1.B": [1.0], "kf.model.1.R": [0.04],
        "kf.model.2.A": [1.0], "kf.model.2.Q": [0.05],
        "kf.model.2.B": [1.0], "kf.model.2.R": [4.0],
        "kf.init.mean": [0.0], "kf.init.cov": [1.0],
    },
    "smc": {
        "engine": "smc", "smc.models": 3, "smc.particles": 50,
        "smc.model.1.kind": "toy_gaussian",
        "smc.model.2.kind": "toy_uniform",
        "smc.model.3.kind": "toy_student_t",
        "smc.init.point": [1.0],
    },
    "intel": {"engine": "intel", "intel.window": 4},
}
# keys each engine reads beside its own, and the keys every engine reads
OPTIONAL_KEYS = {
    "kf": ["kf.init.weights"],
    "smc": ["smc.seed", "smc.gamma_shape", "smc.gamma_scale",
            "smc.model.1.var", "smc.model.2.low", "smc.model.2.high",
            "smc.model.3.df", "smc.model.3.scale", "smc.init.mean",
            "smc.init.cov"],
    "intel": ["intel.mean", "intel.signal_variance", "intel.lengthscale",
              "intel.noise_variance", "intel.noise_factors"],
}
SHARED_KEYS = ["weight_floor", "wtt.kind", "wtt.alpha", "wtt.constants",
               "wtt.matrix", "wtt.beta"]
CONFIG_VALUES = (COUNTS | REALS | WORDS | LISTS
                 | st.sampled_from(KINDS + ("toy_gaussian", "toy_uniform",
                                            "toy_student_t",
                                            "linear_gaussian")))
FINITE = st.sampled_from([x for x in EDGES if np.isfinite(x)]) \
    | st.floats(-10.0, 10.0)


@st.composite
def perturbed_configs(draw):
    """One engine's config with one key set, and two observation rows."""
    engine = draw(st.sampled_from(sorted(ENGINES)))
    config = dict(ENGINES[engine])
    key = draw(st.sampled_from(
        sorted(set(config) | set(SHARED_KEYS)) + OPTIONAL_KEYS[engine]))
    config[key] = draw(CONFIG_VALUES)
    return config, draw(st.tuples(FINITE, FINITE))


def _stepped(config, rows):
    engine = build_engine(config)
    for t, y in enumerate(rows, start=1):
        engine.step(np.full(engine.obs_dim, y), t)


@SETTINGS
@given(perturbed_configs())
@example((dict(ENGINES["smc"], **{"smc.particles": 10**30}), (0.5, 0.5)))
@example((dict(ENGINES["smc"], **{"smc.model.3.df": 5e-324}), (0.5, 0.5)))
@example((dict(ENGINES["intel"], **{"intel.signal_variance": "1.0"}),
          (0.0, 0.0)))
@example((dict(ENGINES["smc"], **{"smc.gamma_shape": -0.0}), (0.0, 0.0)))
def test_a_stream_config_with_one_key_changed(case):
    _returns_or_raises_a_library_error(_stepped, *case)
