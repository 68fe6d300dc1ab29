"""Robust-filtering benchmark: series generation, scoring, aggregation."""

import os
import warnings

import numpy as np
import pytest

from bdemm import (
    DimensionMismatchError,
    InvalidInputError,
    NonFiniteBeliefError,
    ToyConfig,
    gen_toy_series,
    mse,
    run_toy_experiment,
    summary_text,
    toy_pool,
    write_report,
)
from bdemm import toy
from bdemm.toy import (
    ALGORITHMS,
    GAMMA_MAX,
    OUTLIER_RANGE,
    REGIME_SWITCH_STEP,
    toy_observation,
    toy_transition,
)


def _noise_free(**kw):
    return ToyConfig(gamma_scale=0.0, **kw)


# ---------------------------------------------------------------------------
# series generation


def test_first_state_noise_free():
    # x0 = 1, zero process noise: x1 = 1 + sin(0.04 pi) + 0.5
    states, _, _ = gen_toy_series(_noise_free(horizon=1), np.random.default_rng(0))
    assert states[0] == pytest.approx(1.62533, abs=1e-5)


def test_noise_free_trajectory_matches_recursion():
    cfg = _noise_free(horizon=40)
    states, _, _ = gen_toy_series(cfg, np.random.default_rng(0))
    x = 1.0
    for i in range(40):
        x = 1.0 + np.sin(0.04 * np.pi * (i + 1)) + 0.5 * x
        assert states[i] == x


def test_observation_map_regimes():
    assert toy_observation(0.0, 31) == pytest.approx(-2.0, abs=1e-12)
    assert toy_observation(2.0, 30) == pytest.approx(0.8, abs=1e-12)
    assert toy_observation(2.0, 31) == pytest.approx(-1.6, abs=1e-12)
    # vectorized over clouds
    out = toy_observation(np.array([0.0, 1.0, 2.0]), 1)
    assert np.allclose(out, [0.0, 0.2, 0.8], atol=1e-12)


def test_the_simulator_observes_through_the_filters_map(monkeypatch):
    # the series is written with the map the filters score against: one
    # vectorized call on each regime's states, and a new map is followed
    cfg = ToyConfig(horizon=45)
    states, obs, _ = gen_toy_series(cfg, 3)
    calls = []

    def silent(x, t):
        calls.append((x.size, t))
        return np.zeros_like(x)

    monkeypatch.setattr(toy, "toy_observation", silent)
    same_states, noise, _ = gen_toy_series(cfg, 3)
    assert calls == [(REGIME_SWITCH_STEP, 1),
                     (45 - REGIME_SWITCH_STEP, REGIME_SWITCH_STEP + 1)]
    assert np.array_equal(same_states, states)
    clean = [toy_observation(x, t) for t, x in enumerate(states, start=1)]
    np.testing.assert_allclose(obs - noise, clean, rtol=1e-12, atol=1e-12)


def test_clean_steps_carry_gaussian_noise_only():
    cfg = _noise_free(horizon=60, gauss_noise_var=0.5)
    states, obs, mask = gen_toy_series(cfg, np.random.default_rng(5))
    steps = np.arange(1, 61)
    clean = np.where(steps <= REGIME_SWITCH_STEP,
                     0.2 * states ** 2, 0.2 * states - 2.0)
    resid = obs - clean
    assert np.array_equal(mask, np.isin(steps, sorted(cfg.outlier_steps)))
    assert np.all(resid[mask] >= OUTLIER_RANGE[0])
    assert np.all(resid[mask] <= OUTLIER_RANGE[1])
    assert np.all(np.abs(resid[~mask]) < 6.0 * np.sqrt(cfg.gauss_noise_var))


def test_series_is_deterministic_per_seed():
    cfg = ToyConfig(horizon=30)
    a = gen_toy_series(cfg, np.random.default_rng(42))
    b = gen_toy_series(cfg, np.random.default_rng(42))
    c = gen_toy_series(cfg, np.random.default_rng(43))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], c[0])
    # int seeds are accepted too
    d = gen_toy_series(cfg, 42)
    assert np.array_equal(a[0], d[0])


def test_outlier_steps_are_configurable():
    cfg = ToyConfig(horizon=20, outlier_steps=frozenset({3}))
    _, _, mask = gen_toy_series(cfg, np.random.default_rng(0))
    assert mask.sum() == 1
    assert bool(mask[2])
    cfg = ToyConfig(horizon=20, outlier_steps=frozenset())
    _, _, mask = gen_toy_series(cfg, np.random.default_rng(0))
    assert mask.sum() == 0


def test_outlier_steps_are_stored_as_a_frozenset_of_ints():
    steps = ToyConfig(outlier_steps=[3.0, np.int64(5), 5]).outlier_steps
    assert steps == frozenset({3, 5})
    assert all(type(t) is int for t in steps)


@pytest.mark.parametrize("steps", [3, None, [2.5], [0], ["a"], [np.nan]],
                         ids=["int", "none", "fraction", "zero", "word", "nan"])
def test_outlier_steps_must_be_whole_numbers_of_at_least_one(steps):
    # a step of 2.5 or 0 never matches a step of the series
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="outlier steps"):
            ToyConfig(outlier_steps=steps)


def test_config_validation():
    with pytest.raises(ValueError):
        ToyConfig(horizon=0)
    with pytest.raises(ValueError):
        ToyConfig(gauss_noise_var=0.0)
    with pytest.raises(ValueError):
        ToyConfig(wtt_kind="simulated_annealing")
    with pytest.raises(Exception):
        ToyConfig(forgetting_alpha=1.5)
    with pytest.raises(ValueError):
        ToyConfig(gamma_shape=-1.0)
    with pytest.raises(ValueError):
        ToyConfig(gamma_scale=-2.0)
    with pytest.raises(ValueError):
        ToyConfig(seed=-1)
    for floor in (-0.01, 0.5, 0.6):
        with pytest.raises(ValueError):
            ToyConfig(weight_floor=floor)
    ToyConfig(seed=0, weight_floor=0.0)


@pytest.mark.parametrize("kw", [
    {"gamma_scale": np.inf}, {"gamma_shape": np.inf}, {"gamma_shape": np.nan},
    {"gamma_shape": 1e308}, {"gamma_shape": 1e200, "gamma_scale": 1e200},
    {"gamma_shape": 1.0, "gamma_scale": 1e308},
], ids=["scale-inf", "shape-inf", "shape-nan", "mean-overflows",
        "both-large", "draws-overflow-the-drift"])
def test_gamma_noise_must_have_a_finite_mean(kw):
    with pytest.raises(InvalidInputError, match="gamma"):
        ToyConfig(**kw)


@pytest.mark.parametrize("kw", [{"gamma_shape": -0.0}, {"gamma_scale": -0.0},
                                {"gamma_shape": "3.0", "gamma_scale": "0"}],
                         ids=["shape-negative-zero", "scale-negative-zero",
                              "words"])
def test_gamma_noise_is_kept_as_the_floats_it_reads_as(kw):
    # numpy's gamma sampler rejects a -0.0 shape or scale as negative
    config = ToyConfig(**kw)
    for name in ("gamma_shape", "gamma_scale"):
        value = getattr(config, name)
        assert type(value) is float and not np.signbit(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, _, _ = gen_toy_series(config, 0)
        toy_transition(config)(np.zeros((3, 1)), 1, np.random.default_rng(0))
    assert np.isfinite(states).all()


@pytest.mark.parametrize("shape", [1e-3, 0.5, 1.0, 3.0, 1e3, GAMMA_MAX])
def test_gamma_noise_at_its_bound_keeps_the_state_finite(shape):
    config = ToyConfig(gamma_shape=shape,
                       gamma_scale=min(GAMMA_MAX, GAMMA_MAX / shape))
    sample = toy_transition(config)
    rng = np.random.default_rng(0)
    x = np.full((10_000, 1), 1e300)
    for t in range(1, 21):
        x = sample(x, t, rng)
    assert np.isfinite(x).all() and x.max() < 1e306


@pytest.mark.parametrize("kw", [
    {"gauss_noise_var": -1.0}, {"gauss_noise_var": 1e308},
    {"weight_floor": 0.5}, {"weight_floor": "abc"}, {"weight_floor": None},
], ids=["noise-var-negative", "noise-var-2-pi-overflows", "floor-at-1/K",
        "floor-word", "floor-none"])
def test_config_builds_the_noises_and_a_weight_step(kw):
    with pytest.raises(InvalidInputError):
        ToyConfig(**kw)


# ---------------------------------------------------------------------------
# scoring


def test_mse_hand_cases():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0, rel=1e-15)
    assert mse([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(DimensionMismatchError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        mse([], [])


def test_mse_rejects_two_dimensional_input():
    with pytest.raises(DimensionMismatchError):
        mse([[1.0]], [[1.0]])


# ---------------------------------------------------------------------------
# candidate pool


def test_pool_likelihood_shapes():
    cfg = ToyConfig()
    gauss, unif = toy_pool(cfg)
    cloud = np.array([[1.0], [2.0], [3.0]])
    y = np.array([toy_observation(2.0, 1)])
    ll_g = gauss.log_likelihood(y, cloud, 1)
    ll_u = unif.log_likelihood(y, cloud, 1)
    assert ll_g.shape == (3,) and ll_u.shape == (3,)
    # the Gaussian candidate peaks at the particle that explains y
    assert np.argmax(ll_g) == 1
    # the uniform candidate is flat over its support
    assert np.allclose(ll_u, ll_u[0])
    # far outside the uniform support the density is zero
    far = np.array([200.0])
    assert np.all(unif.log_likelihood(far, cloud, 1) == -np.inf)


# ---------------------------------------------------------------------------
# the experiment driver


def test_report_is_reproducible_bit_for_bit():
    cfg = ToyConfig(runs=2, horizon=12, particles=40)
    a = run_toy_experiment(cfg)
    b = run_toy_experiment(cfg)
    assert a.per_run_mse == b.per_run_mse
    assert a.run_roots == b.run_roots
    assert np.array_equal(a.avg_weights, b.avg_weights)
    assert a.failures == () and b.failures == ()


def test_report_shapes_and_weight_rows():
    cfg = ToyConfig(runs=2, horizon=12, particles=40)
    rep = run_toy_experiment(cfg)
    assert set(rep.per_run_mse) == set(ALGORITHMS)
    for name in ALGORITHMS:
        assert len(rep.per_run_mse[name]) == 2
        assert np.isfinite(rep.mse_mean[name])
        assert np.isfinite(rep.mse_var[name])
    assert rep.avg_weights.shape == (12, 2)
    assert np.allclose(rep.avg_weights.sum(axis=1), 1.0, atol=1e-9)


def test_a_failed_run_is_recorded_and_left_out_of_the_means(monkeypatch):
    cfg = ToyConfig(runs=3, horizon=8, particles=20)
    clean = run_toy_experiment(cfg)
    calls = []
    run_filter = toy._run_filter

    def failing_in_run_1(*args):
        calls.append(None)
        if len(calls) == len(ALGORITHMS) + 1:  # run 1's first filter
            raise NonFiniteBeliefError("propagated particles are not finite")
        return run_filter(*args)

    monkeypatch.setattr(toy, "_run_filter", failing_in_run_1)
    rep = run_toy_experiment(cfg)
    assert rep.failures == (
        (1, "NonFiniteBeliefError: propagated particles are not finite"),)
    for name in ALGORITHMS:
        runs = rep.per_run_mse[name]
        assert np.isnan(runs[1])
        assert (runs[0], runs[2]) == (clean.per_run_mse[name][0],
                                      clean.per_run_mse[name][2])
        assert rep.mse_mean[name] == float(np.mean([runs[0], runs[2]]))
    assert np.allclose(rep.avg_weights.sum(axis=1), 1.0)
    assert "runs: 2 ok, 1 failed" in summary_text(rep)
    assert ("run 1 failed: NonFiniteBeliefError: propagated particles are "
            "not finite") in summary_text(rep)


def test_a_library_fault_in_a_run_is_not_recorded_as_a_failed_run(
        monkeypatch):
    def faulty(*args):
        raise TypeError("a library bug")

    monkeypatch.setattr(toy, "_run_filter", faulty)
    with pytest.raises(TypeError, match="a library bug"):
        run_toy_experiment(ToyConfig(runs=2, horizon=4, particles=5))


def test_seed_changes_the_draws():
    a = run_toy_experiment(ToyConfig(runs=1, horizon=10, particles=30, seed=0))
    b = run_toy_experiment(ToyConfig(runs=1, horizon=10, particles=30, seed=1))
    assert a.per_run_mse != b.per_run_mse


def test_mse_variance_uses_sample_convention():
    cfg = ToyConfig(runs=3, horizon=10, particles=30)
    rep = run_toy_experiment(cfg)
    vals = np.asarray(rep.per_run_mse["ensemble"])
    assert rep.mse_var["ensemble"] == pytest.approx(float(vals.var(ddof=1)),
                                                    rel=1e-12)
    single = run_toy_experiment(ToyConfig(runs=1, horizon=10, particles=30))
    assert np.isnan(single.mse_var["ensemble"])


def test_aggregates_that_overflow_read_inf_without_a_warning():
    # states near 1e150 give per-run MSEs near 1e300, finite, whose
    # squared deviations from their mean overflow
    cfg = ToyConfig(gamma_scale=1e150, runs=2, horizon=10, particles=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_toy_experiment(cfg)
    assert rep.failures == ()
    for name in ALGORITHMS:
        assert all(np.isfinite(rep.per_run_mse[name]))
        assert np.isfinite(rep.mse_mean[name])
        assert rep.mse_var[name] == np.inf
    assert "inf" in summary_text(rep)


def test_states_whose_observations_overflow_fail_every_run_quietly():
    # states past about 3e154 make 0.2 x^2 infinite: each run raises on its
    # first such row and is recorded, so no run is left to average
    cfg = ToyConfig(gamma_scale=1e300, runs=2, horizon=10, particles=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_toy_experiment(cfg)
    assert len(rep.failures) == cfg.runs
    assert all(msg.startswith("NonFiniteWeightError") for _, msg in rep.failures)
    for name in ALGORITHMS:
        assert np.isnan(rep.mse_mean[name])
    assert "runs: 0 ok, 2 failed" in summary_text(rep)


def test_no_outliers_leaves_ensemble_and_gaussian_close():
    # without contamination the two should be statistically indistinguishable;
    # shrunken configs distort this (the whole series sits in the quadratic
    # regime and the evidence race runs noisy), so use the real defaults
    cfg = ToyConfig(outlier_steps=frozenset())
    rep = run_toy_experiment(cfg)
    n = cfg.runs
    se = np.sqrt(rep.mse_var["ensemble"] / n + rep.mse_var["gaussian_only"] / n)
    gap = abs(rep.mse_mean["ensemble"] - rep.mse_mean["gaussian_only"])
    assert gap <= 2.0 * se


def test_ensemble_hands_weight_to_the_uniform_model_on_outliers():
    cfg = ToyConfig(runs=4, outlier_steps=frozenset({10}))
    rep = run_toy_experiment(cfg)
    uniform_share = rep.avg_weights[:, 1]
    clean = np.delete(uniform_share, 9)
    # step 10 is contaminated: the uniform candidate spikes there
    assert uniform_share[9] > 2.0 * np.median(clean)
    assert uniform_share[9] > 0.4


# ---------------------------------------------------------------------------
# report files


@pytest.mark.parametrize("kind", ["forgetting", "identity", "markov",
                                  "constant", "polya_urn"])
def test_summary_reports_alpha_only_for_the_forgetting_operator(kind):
    rep = run_toy_experiment(ToyConfig(runs=1, horizon=2, particles=5,
                                       wtt_kind=kind, forgetting_alpha=0.25))
    line = summary_text(rep).splitlines()[2]
    want = {"forgetting": "forgetting (alpha=0.25)"}.get(kind, kind)
    assert line == "weight transition: " + want


def test_write_report_files(tmp_path):
    cfg = ToyConfig(runs=2, horizon=8, particles=30)
    rep = run_toy_experiment(cfg)
    paths = write_report(rep, tmp_path)
    assert [os.path.basename(p) for p in paths] == [
        "summary.txt", "runs.csv", "weights.csv"]

    text = (tmp_path / "summary.txt").read_text()
    for name in ALGORITHMS:
        assert name in text
    assert summary_text(rep) == text

    lines = (tmp_path / "runs.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per run
    assert lines[0].startswith("run,seed_root,")
    # repr floats round-trip exactly
    cells = lines[1].split(",")
    assert float(cells[2]) == rep.per_run_mse["ensemble"][0]

    wlines = (tmp_path / "weights.csv").read_text().splitlines()
    assert len(wlines) == 9  # header + one row per step
    # plain round-tripping numbers, not numpy reprs
    cells = wlines[1].split(",")
    assert [float(c) for c in cells[1:]] == rep.avg_weights[0].tolist()
