"""How `build_engine` reads a parsed config: each reader takes its keys out
of a copy, and the keys left over are the unknown ones."""

import copy

import numpy as np
import pytest

from bdemm.errors import ConfigError
from bdemm.stream import build_engine
from bdemm.toy import ToyConfig

KF = {
    "engine": "kf",
    "wtt.kind": "forgetting",
    "wtt.alpha": 0.9,
    "kf.models": 2,
    "kf.model.1.A": [1.0], "kf.model.1.Q": [0.1],
    "kf.model.1.B": [1.0], "kf.model.1.R": [1.0],
    "kf.model.2.A": [1.0], "kf.model.2.Q": [0.1],
    "kf.model.2.B": [1.0], "kf.model.2.R": [9.0],
    "kf.init.mean": [0.0],
    "kf.init.cov": [1.0],
}

# none of the four toy keys: particles, seed, gamma shape and gamma scale
SMC = {
    "engine": "smc",
    "smc.models": 2,
    "smc.model.1.kind": "toy_gaussian",
    "smc.model.2.kind": "toy_uniform",
    "smc.init.mean": [0.0],
    "smc.init.cov": [1.0],
}


@pytest.mark.parametrize("config", [KF, SMC, dict(KF, typo=1),
                                    {"engine": "kf"}],
                         ids=["kf", "smc", "unknown-key", "missing-key"])
def test_build_engine_leaves_the_callers_dict_unchanged(config):
    before = copy.deepcopy(config)
    try:
        build_engine(config)
    except ConfigError:
        pass
    assert config == before


def test_of_two_unknown_keys_the_error_names_the_first_in_sort_order():
    config = dict(KF, **{"zz.typo": 1, "kf.model.1.Z": [1.0]})
    with pytest.raises(ConfigError, match=r"^unknown key 'kf\.model\.1\.Z'$"):
        build_engine(config)


def test_smc_without_toy_keys_takes_the_toy_defaults():
    toy = ToyConfig()
    engine = build_engine(SMC)
    # N(0, 1) initial cloud: the Cholesky factor is 1, so the draws are it
    cloud = np.random.default_rng(toy.seed).standard_normal((toy.particles, 1))
    assert np.array_equal(engine.state.ensemble.particles, cloud)
    # the gamma noise too: the same rows as with every toy key stated
    stated = build_engine(dict(SMC, **{
        "smc.particles": toy.particles, "smc.seed": toy.seed,
        "smc.gamma_shape": toy.gamma_shape,
        "smc.gamma_scale": toy.gamma_scale}))
    for t, y in enumerate((0.4, 2.0, -1.0), start=1):
        rows = [e.step(np.array([y]), t) for e in (engine, stated)]
        for a, b in zip(*rows, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("key, value", [
    ("smc.model.1.df", 4.0),
    ("smc.model.1.low", -1.0),
    ("smc.model.2.var", 2.0),
    ("smc.model.1.A", [1.0]),
], ids=["df-on-gaussian", "low-on-gaussian", "var-on-uniform",
        "matrix-on-toy"])
def test_a_key_the_models_kind_does_not_read_is_unknown(key, value):
    with pytest.raises(ConfigError, match="^unknown key %r$" % key):
        build_engine(dict(SMC, **{key: value}))
