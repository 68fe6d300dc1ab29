"""Gaussian-process ensemble: prediction, fusion, and the online step."""

import warnings

import numpy as np
import pytest
from scipy.stats import norm

from bdemm import gpts as gpts_module
from bdemm import wtt as wtt_module
from bdemm import (
    DimensionMismatchError,
    FactorizationFailureError,
    GPTSModel,
    IntelState,
    PredictiveGaussian,
    WeightVector,
    WTTConfig,
    apply_wtt,
    gp_predict_next,
    intel_step,
    perturb_pool,
    poe_combine,
    window_predict,
)


def _sqexp_ref(model, a, b):
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[None, :]
    return model.signal_variance * np.exp(-0.5 * ((a - b) / model.lengthscale) ** 2)


def _direct_predict(model, times, values, t_next):
    """Textbook GP regression by a plain solve, no Cholesky, no jitter."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    k_mat = _sqexp_ref(model, times, times) + model.noise_var * np.eye(times.size)
    k_star = _sqexp_ref(model, times, [t_next])[:, 0]
    solve = np.linalg.solve(k_mat, values - model.mean_const)
    mean = model.mean_const + k_star @ solve
    var = (model.signal_variance + model.noise_var
           - k_star @ np.linalg.solve(k_mat, k_star))
    return float(mean), float(var)


# ---------------------------------------------------------------------------
# value types


def test_model_validation():
    GPTSModel(0.0, 1.0, 1.0, 0.0, 5)  # zero noise is allowed
    with pytest.raises(ValueError):
        GPTSModel(0.0, 0.0, 1.0, 0.1, 5)
    with pytest.raises(ValueError):
        GPTSModel(0.0, 1.0, 0.0, 0.1, 5)
    with pytest.raises(ValueError):
        GPTSModel(0.0, 1.0, 1.0, -0.1, 5)
    with pytest.raises(ValueError):
        GPTSModel(0.0, 1.0, 1.0, 0.1, 0)
    # NaN passes a "<= 0" check, so each parameter is also tried at NaN and inf
    for i in range(4):
        for bad in (np.nan, np.inf):
            params = [0.0, 1.0, 1.0, 0.1]
            params[i] = bad
            with pytest.raises(ValueError):
                GPTSModel(*params, window=5)


def test_predictive_gaussian():
    p = PredictiveGaussian(1.0, 4.0)
    assert p.logpdf(1.0) == pytest.approx(float(norm.logpdf(1.0, 1.0, 2.0)),
                                          rel=1e-12)
    assert p.logpdf(3.0) == pytest.approx(float(norm.logpdf(3.0, 1.0, 2.0)),
                                          rel=1e-12)
    with pytest.raises(ValueError):
        PredictiveGaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        PredictiveGaussian(np.inf, 1.0)


def test_intel_state_buffer_must_increase():
    with pytest.raises(ValueError):
        IntelState(((1.0, 0.0), (1.0, 2.0)),
                   __import__("bdemm").WeightHistory.start(WeightVector([1.0])))
    with pytest.raises(DimensionMismatchError):
        IntelState.initial()


# ---------------------------------------------------------------------------
# GP prediction


def test_prediction_matches_direct_solve():
    rng = np.random.default_rng(83)
    for _ in range(100):
        n = int(rng.integers(1, 33))
        model = GPTSModel(
            mean_const=float(rng.normal(0.0, 1.0)),
            signal_variance=float(rng.uniform(0.5, 2.0)),
            lengthscale=float(rng.uniform(1.0, 4.0)),
            noise_var=float(rng.uniform(0.05, 0.5)),
            window=64,
        )
        times = np.sort(rng.uniform(0.0, 30.0, size=n))
        times += np.arange(n) * 1e-6  # break ties
        values = np.sin(times) + rng.normal(0.0, 0.1, size=n)
        t_next = float(times[-1] + rng.uniform(0.5, 2.0))
        ours = gp_predict_next(model, times, values, t_next)
        mean, var = _direct_predict(model, times, values, t_next)
        assert ours.mean == pytest.approx(mean, abs=1e-8)
        assert ours.var == pytest.approx(var, abs=1e-8)


def test_noise_free_interpolation():
    # a noiseless GP must pass through its observations
    model = GPTSModel(0.0, 1.0, 2.0, 0.0, 10)
    times = np.array([0.0, 1.0, 2.5, 4.0])
    values = np.array([0.3, -0.7, 1.1, 0.4])
    for t_obs, v in zip(times, values):
        pred = gp_predict_next(model, times, values, float(t_obs))
        assert pred.mean == pytest.approx(float(v), abs=1e-8)
        assert pred.var < 1e-6


def test_prediction_reverts_to_prior_far_from_data():
    model = GPTSModel(5.0, 2.0, 1.0, 0.1, 10)
    pred = gp_predict_next(model, [0.0], [9.0], 1000.0)
    assert pred.mean == pytest.approx(5.0, abs=1e-8)
    assert pred.var == pytest.approx(2.1, abs=1e-8)


def test_prediction_validation():
    model = GPTSModel(0.0, 1.0, 1.0, 0.1, 10)
    with pytest.raises(ValueError):
        gp_predict_next(model, [1.0, 1.0], [0.0, 0.0], 2.0)  # ties
    with pytest.raises(DimensionMismatchError):
        gp_predict_next(model, [1.0, 2.0], [0.0], 3.0)


def _failing_cholesky(monkeypatch, failures):
    """Make the first ``failures`` factorizations fail; returns the matrices
    every attempt was given."""
    seen = []

    def factor(m):
        seen.append(np.array(m))
        if len(seen) <= failures:
            raise np.linalg.LinAlgError("forced failure")
        return np.linalg.cholesky(m)

    monkeypatch.setattr(gpts_module, "cho_factor", factor)
    return seen


@pytest.mark.parametrize("failures", [0, 1, 3, 6])
def test_jitter_ladder_forecasts_at_the_first_rung_that_factors(monkeypatch,
                                                                failures):
    model = GPTSModel(0.5, 1.5, 2.0, 0.1, 10)
    times = np.arange(10.0)
    values = np.sin(times)
    seen = _failing_cholesky(monkeypatch, failures)
    pred = gp_predict_next(model, times, values, 10.0)
    assert len(seen) == failures + 1
    jitter = gpts_module.JITTER_START * 10.0 ** failures
    k_mat = (_sqexp_ref(model, times, times)
             + (model.noise_var + jitter * model.signal_variance) * np.eye(10))
    np.testing.assert_allclose(seen[-1], k_mat, rtol=1e-15, atol=0.0)
    k_star = _sqexp_ref(model, times, [10.0])[:, 0]
    resid = values - model.mean_const
    mean = model.mean_const + k_star @ np.linalg.solve(k_mat, resid)
    var = (model.signal_variance + model.noise_var
           - k_star @ np.linalg.solve(k_mat, k_star))
    assert np.isfinite(pred.mean) and np.isfinite(pred.var)
    assert pred.mean == pytest.approx(float(mean), abs=1e-12)
    assert pred.var == pytest.approx(float(var), abs=1e-12)


def test_jitter_ladder_gives_up_after_its_last_rung(monkeypatch):
    model = GPTSModel(0.0, 1.0, 1.0, 0.1, 10)
    seen = _failing_cholesky(monkeypatch, 100)
    with pytest.raises(FactorizationFailureError):
        gp_predict_next(model, [0.0, 1.0, 2.0], [0.1, 0.2, 0.3], 3.0)
    # 1e-10, 1e-9, ..., 1e-4 times the signal variance
    assert len(seen) == 7


def test_window_predict_empty_buffer_is_the_prior():
    model = GPTSModel(1.5, 2.0, 1.0, 0.5, 10)
    pred = window_predict(model, (), 7.0)
    assert pred.mean == 1.5
    assert pred.var == 2.5


def test_window_predict_uses_only_the_tail():
    model = GPTSModel(0.0, 1.0, 1.0, 0.1, window=3)
    buffer = tuple((float(t), float(np.sin(t))) for t in range(8))
    full = window_predict(model, buffer, 8.0)
    tail = buffer[-3:]
    direct = gp_predict_next(model, [t for t, _ in tail], [v for _, v in tail], 8.0)
    assert full.mean == direct.mean
    assert full.var == direct.var


# ---------------------------------------------------------------------------
# product-of-experts fusion


def test_poe_hand_case():
    fused = poe_combine([PredictiveGaussian(0.0, 1.0), PredictiveGaussian(2.0, 1.0)],
                        WeightVector([0.5, 0.5]))
    assert fused.mean == pytest.approx(1.0, abs=1e-15)
    assert fused.var == pytest.approx(1.0, abs=1e-15)


def test_poe_degenerate_weight_returns_that_expert():
    a = PredictiveGaussian(-3.0, 0.25)
    fused = poe_combine([a, PredictiveGaussian(9.0, 4.0)], WeightVector([1.0, 0.0]))
    assert fused.mean == pytest.approx(a.mean, rel=1e-12)
    assert fused.var == pytest.approx(a.var, rel=1e-12)


def test_poe_matches_grid_renormalization():
    # numerically renormalize prod_k N(x; m_k, v_k)^{w_k} on a fine grid and
    # compare the first two moments
    rng = np.random.default_rng(89)
    grid = np.linspace(-30.0, 30.0, 200_001)
    dx = grid[1] - grid[0]
    for _ in range(20):
        k = int(rng.integers(2, 5))
        means = rng.uniform(-3.0, 3.0, size=k)
        variances = rng.uniform(0.3, 3.0, size=k)
        raw = rng.random(k) + 0.1
        w = raw / raw.sum()
        fused = poe_combine([PredictiveGaussian(m, v)
                             for m, v in zip(means, variances)],
                            WeightVector(w))
        log_density = sum(wk * norm.logpdf(grid, m, np.sqrt(v))
                          for wk, m, v in zip(w, means, variances))
        density = np.exp(log_density - log_density.max())
        density /= density.sum() * dx
        grid_mean = float(np.sum(grid * density) * dx)
        grid_var = float(np.sum((grid - grid_mean) ** 2 * density) * dx)
        assert fused.mean == pytest.approx(grid_mean, abs=1e-5)
        assert fused.var == pytest.approx(grid_var, abs=1e-5)


def test_poe_validation():
    with pytest.raises(DimensionMismatchError):
        poe_combine([PredictiveGaussian(0.0, 1.0)], WeightVector([0.5, 0.5]))


# ---------------------------------------------------------------------------
# the online step


def _smooth_series(n):
    t = np.arange(float(n))
    return t, np.sin(0.3 * t)


def test_intel_step_weights_find_the_right_noise_level():
    nominal = GPTSModel(0.0, 1.0, 3.0, 0.01, window=10)
    pool = perturb_pool(nominal, [1.0, 400.0])
    state = IntelState.initial(k=2)
    times, values = _smooth_series(20)
    for t, v in zip(times, values):
        state, fused, log_evs = intel_step(state, pool, float(v), float(t),
                                           WTTConfig.identity())
    # the series is smooth: the low-noise candidate wins
    assert state.model_weights.w[0] > 0.99
    assert len(log_evs) == 2
    assert len(state.history) == 21


def test_intel_step_buffer_caps_at_max_window():
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.1, window=4), [1.0, 10.0])
    state = IntelState.initial(k=2)
    times, values = _smooth_series(12)
    for t, v in zip(times, values):
        state, _, _ = intel_step(state, pool, float(v), float(t),
                                 WTTConfig.identity())
    assert len(state.buffer) == 4
    assert state.buffer[-1][0] == 11.0


def test_intel_step_fusion_uses_predictive_weights():
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.1, window=6), [1.0, 25.0])
    state = IntelState.initial(k=2)
    wtt = WTTConfig.forgetting(0.7)
    times, values = _smooth_series(6)
    for t, v in zip(times, values):
        state, fused, _ = intel_step(state, pool, float(v), float(t), wtt)
    # recompute the fusion from the state's forecasts and weight history
    fusion_w = apply_wtt(wtt, state.history)
    ref = poe_combine(state.forecasts, fusion_w)
    assert fused.mean == ref.mean
    assert fused.var == ref.var


def test_intel_step_first_step_scores_against_the_prior():
    model = GPTSModel(0.0, 1.0, 2.0, 0.1, window=5)
    pool = [model, GPTSModel(3.0, 1.0, 2.0, 0.1, 5)]
    state = IntelState.initial(k=2)
    y0 = 0.0  # exactly the first model's prior mean
    state, _, _ = intel_step(state, pool, y0, 0.0, WTTConfig.identity())
    # prior densities: N(0; 0, 1.1) vs N(0; 3, 1.1)
    ev = np.array([np.exp(norm.logpdf(y0, 0.0, np.sqrt(1.1))),
                   np.exp(norm.logpdf(y0, 3.0, np.sqrt(1.1)))])
    assert np.allclose(state.model_weights.w, ev / ev.sum(), atol=1e-12)


def test_intel_step_rejects_stale_timestamps():
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.1, 5), [1.0, 2.0])
    state = IntelState.initial(k=2)
    state, _, _ = intel_step(state, pool, 0.1, 1.0, WTTConfig.identity())
    with pytest.raises(ValueError):
        intel_step(state, pool, 0.2, 1.0, WTTConfig.identity())
    with pytest.raises(DimensionMismatchError):
        intel_step(state, pool[:1], 0.2, 2.0, WTTConfig.identity())


def _counted_run(monkeypatch, pools, times, values, carry=True):
    """Step through ``values``; ``pools[i]`` serves step i.  Returns the
    ``gp_predict_next`` calls per step and each step's weights, fused
    forecast, carried forecasts and log evidences.  With ``carry`` off,
    every step starts from a state that carries no forecasts."""
    calls = []
    original = gpts_module.gp_predict_next

    def counting(*args, **kwargs):
        calls[-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(gpts_module, "gp_predict_next", counting)
    state = IntelState.initial(k=len(pools[0]))
    outputs = []
    for pool, t, v in zip(pools, times, values):
        if not carry:
            state = IntelState(state.buffer, state.history)
        calls.append(0)
        state, fused, log_evs = intel_step(state, pool, float(v), float(t),
                                           WTTConfig.forgetting(0.8))
        assert len(state.forecasts) == len(pool)
        outputs.append((state.model_weights.w.tobytes(), fused.mean,
                        fused.var, state.forecasts, log_evs.tobytes()))
    monkeypatch.undo()
    return calls, outputs


def test_intel_step_forecasts_once_per_model_per_step(monkeypatch):
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
                        [1.0, 10.0, 100.0])
    times, values = _smooth_series(12)
    calls, outputs = _counted_run(monkeypatch, [pool] * 12, times, values)
    # the first step scores against the prior; each step forecasts t + 1 once
    assert calls == [3] * 12
    fresh_calls, fresh = _counted_run(monkeypatch, [pool] * 12, times, values,
                                      carry=False)
    assert fresh_calls == [3] + [6] * 11
    assert outputs == fresh


@pytest.mark.parametrize("times, swap_at, expected", [
    ([1.0, 2.5, 3.5, 6.0], None, [2, 4, 2, 4]),
    ([1.0, 2.0, 3.0, 4.0, 5.0], 3, [2, 2, 2, 4, 2]),
], ids=["time-gaps", "pool-swapped"])
def test_intel_step_recomputes_forecasts_it_cannot_reuse(monkeypatch, times,
                                                         swap_at, expected):
    first = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
                         [1.0, 50.0])
    second = perturb_pool(GPTSModel(0.5, 1.0, 1.5, 0.04, window=6),
                          [1.0, 50.0])
    pools = [second if swap_at is not None and i >= swap_at else first
             for i in range(len(times))]
    values = np.sin(0.3 * np.asarray(times))
    calls, outputs = _counted_run(monkeypatch, pools, times, values)
    assert calls == expected
    _, fresh = _counted_run(monkeypatch, pools, times, values, carry=False)
    assert outputs == fresh


def test_perturb_pool():
    nominal = GPTSModel(0.5, 2.0, 3.0, 0.04, 7)
    pool = perturb_pool(nominal, [1.0, 25.0])
    assert pool[0] == nominal
    assert pool[1].noise_var == pytest.approx(1.0, rel=1e-12)
    assert pool[1].window == 7
    with pytest.raises(ValueError):
        perturb_pool(nominal, [])
    with pytest.raises(ValueError):
        perturb_pool(nominal, [1.0, -2.0])
    zero_noise = GPTSModel(0.0, 1.0, 1.0, 0.0, 5)
    with pytest.raises(ValueError):
        perturb_pool(zero_noise, [1.0, 2.0])
    with pytest.raises(ValueError):  # 1e307 * 100 overflows to inf
        perturb_pool(GPTSModel(0.0, 1.0, 1.0, 1e307, 5), [1.0, 100.0])
    assert len(perturb_pool(zero_noise, [1.0])) == 1


# ---------------------------------------------------------------------------
# non-finite time stamps


@pytest.mark.parametrize("times, t_next", [
    ([0.0, 1.0, 2.0], np.inf),
    ([0.0, 1.0, 2.0], -np.inf),
    ([0.0, 1.0, 2.0], np.nan),
    ([0.0, np.nan, 2.0], 3.0),
    ([-np.inf, 1.0, 2.0], 3.0),
    ([1e308], -1e308),  # the gap to t_next has no double
], ids=["t_next-inf", "t_next-minus-inf", "t_next-nan", "times-nan",
        "times-minus-inf", "gap-overflows"])
def test_non_finite_time_stamps_raise_before_any_factorization(
        monkeypatch, times, t_next):
    model = GPTSModel(0.0, 1.0, 1.0, 0.1, 10)
    seen = _failing_cholesky(monkeypatch, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="time stamps must be finite"):
            gp_predict_next(model, times, np.zeros(len(times)), t_next)
    assert seen == []
    assert model._factored is None


def test_gaps_whose_squares_overflow_forecast_quietly():
    # squared gaps overflow from about 1e154; the spread of the last window
    # does not fit a double at all
    model = GPTSModel(0.0, 1.0, 1.0, 0.1, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for times, t_next in (([0.0, 1e200], 2e200), ([-1e308, 1e308], 0.0)):
            pred = gp_predict_next(model, times, [5.0, 5.0], t_next)
            assert pred.mean == 0.0
            assert pred.var == pytest.approx(1.1, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows_before", [0, 2])
def test_intel_step_rejects_non_finite_time_stamps(bad, rows_before):
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.1, 5), [1.0, 2.0])
    state = IntelState.initial(k=2)
    for t in range(rows_before):
        state, _, _ = intel_step(state, pool, 0.1, float(t),
                                 WTTConfig.identity())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="time stamps must be finite"):
            intel_step(state, pool, 0.2, bad, WTTConfig.identity())


# ---------------------------------------------------------------------------
# the factorized-window memo


def test_reused_factorization_gives_bitwise_a_fresh_models_forecast(
        monkeypatch):
    params = (0.3, 1.5, 2.0, 0.05, 10)
    model = GPTSModel(*params)
    times = np.arange(10.0)
    gp_predict_next(model, times, np.sin(times), 10.0)
    seen = _failing_cholesky(monkeypatch, 0)
    # the same times relative to t_next, other values
    later, values = times + 37.0, np.cos(times)
    reused = gp_predict_next(model, later, values, 47.0)
    assert len(seen) == 0
    fresh = GPTSModel(*params)
    direct = gp_predict_next(fresh, later, values, 47.0)
    assert len(seen) == 1
    assert (reused.mean, reused.var) == (direct.mean, direct.var)
    # the memo is not part of the model's value
    assert model == fresh
    assert hash(model) == hash(fresh)
    assert repr(model) == repr(fresh)


def test_unit_spaced_stream_runs_no_cholesky_once_the_window_is_full(
        monkeypatch):
    window, rows = 6, 20
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=window),
                        [1.0, 10.0, 100.0])
    seen = _failing_cholesky(monkeypatch, 0)
    counts, predicts = [], []
    original = gpts_module.gp_predict_next

    def counting(*args, **kwargs):
        predicts[-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(gpts_module, "gp_predict_next", counting)
    state = IntelState.initial(k=3)
    times, values = _smooth_series(rows)
    for t, v in zip(times, values):
        before = len(seen)
        predicts.append(0)
        state, _, _ = intel_step(state, pool, float(v), float(t),
                                 WTTConfig.forgetting(0.8))
        counts.append(len(seen) - before)
    assert predicts == [3] * rows
    # each new window length factorizes once per model, the full one too
    assert counts == [3] * window + [0] * (rows - window)


def _irregular_times(rng, n):
    return np.cumsum(rng.uniform(0.3, 1.7, size=n))


def test_irregular_time_grid_misses_and_matches_a_direct_solve(monkeypatch):
    rng = np.random.default_rng(97)
    model = GPTSModel(0.2, 1.3, 2.5, 0.08, window=8)
    times = _irregular_times(rng, 60)
    values = np.sin(0.4 * times) + rng.normal(0.0, 0.1, size=times.size)
    seen = _failing_cholesky(monkeypatch, 0)
    for end in range(model.window, times.size):
        before = len(seen)
        window = slice(end - model.window, end)
        ours = gp_predict_next(model, times[window], values[window],
                               float(times[end]))
        mean, var = _direct_predict(model, times[window], values[window],
                                    float(times[end]))
        assert ours.mean == pytest.approx(mean, abs=1e-8)
        assert ours.var == pytest.approx(var, abs=1e-8)
        assert len(seen) > before  # every forecast factorized


def test_each_model_holds_one_window_after_a_long_irregular_run():
    rng = np.random.default_rng(101)
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
                        [1.0, 10.0, 100.0])
    state = IntelState.initial(k=3)
    times = _irregular_times(rng, 500)
    for t in times:
        state, _, _ = intel_step(state, pool, float(np.sin(t)), float(t),
                                 WTTConfig.identity())
    last = np.array([t for t, _ in state.buffer[-6:]])
    for model in pool:
        key, gram, k_star = model._factored
        assert key == (last - (times[-1] + 1.0)).tobytes()
        assert gram.shape == (6, 6)
        assert k_star.shape == (6,)


def test_failed_factorization_is_not_memoized(monkeypatch):
    model = GPTSModel(0.0, 1.0, 1.0, 0.1, 10)
    seen = _failing_cholesky(monkeypatch, 100)
    for attempts in (7, 14):
        with pytest.raises(FactorizationFailureError):
            gp_predict_next(model, [0.0, 1.0, 2.0], [0.1, 0.2, 0.3], 3.0)
        assert len(seen) == attempts
    assert model._factored is None


# ---------------------------------------------------------------------------
# carried predictive weights


def _counted_weight_transitions(monkeypatch, configs, pools):
    calls = []
    original = wtt_module.apply_wtt

    def counting(*args, **kwargs):
        calls[-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(wtt_module, "apply_wtt", counting)
    monkeypatch.setattr(gpts_module, "apply_wtt", counting)
    state = IntelState.initial(k=2)
    times, values = _smooth_series(len(configs))
    outputs = []
    for cfg, pool, t, v in zip(configs, pools, times, values):
        calls.append(0)
        state, fused, _ = intel_step(state, pool, float(v), float(t), cfg)
        outputs.append((state.model_weights.w.tobytes(), fused.mean,
                        fused.var))
    monkeypatch.undo()
    return calls, outputs


def test_intel_step_runs_the_weight_transition_once_per_step(monkeypatch):
    rows = 8
    first = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=4), [1.0, 9.0])
    second = perturb_pool(GPTSModel(0.1, 1.0, 2.0, 0.04, window=4), [1.0, 9.0])
    cfg = WTTConfig.polya_urn([2, 3])
    calls, outputs = _counted_weight_transitions(monkeypatch, [cfg] * rows,
                                                 [first] * rows)
    # the first step has no carried weights; later ones reuse the fusion's
    assert calls == [2] + [1] * (rows - 1)
    # an equal but distinct config, or another pool, is not trusted
    fresh, fresh_outputs = _counted_weight_transitions(
        monkeypatch, [WTTConfig.polya_urn([2, 3]) for _ in range(rows)],
        [first] * rows)
    assert fresh == [2] * rows
    assert fresh_outputs == outputs
    swapped, _ = _counted_weight_transitions(
        monkeypatch, [cfg] * rows, [first] * 4 + [second] * 4)
    assert swapped == [2, 1, 1, 1, 2, 1, 1, 1]
