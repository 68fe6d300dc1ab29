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
    NonFiniteForecastError,
    PredictiveGaussian,
    WeightVector,
    WTTConfig,
    apply_wtt,
    gp_predict_next,
    intel_step,
    perturb_pool,
    poe_combine,
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


@pytest.mark.parametrize("buffer", [
    ((np.nan, 1.0), (1.0, 2.0)),
    ((0.0, np.inf), (1.0, 2.0)),
    ((0.0, 1.0), (np.inf, 2.0)),
    ((0.0, 1.0), (1.0, -np.inf)),
], ids=["time-nan", "value-inf", "time-inf", "value-minus-inf"])
def test_intel_state_buffer_must_be_finite(buffer):
    history = IntelState.initial(k=1).history
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            IntelState(buffer, history)


def _assert_read_only_rows(buffer, n):
    assert isinstance(buffer, np.ndarray) and buffer.dtype == np.float64
    assert buffer.shape == (n, 2)
    assert not buffer.flags.writeable


def test_intel_state_buffer_is_one_read_only_array():
    history = IntelState.initial(k=1).history
    _assert_read_only_rows(IntelState.initial(k=1).buffer, 0)
    for empty in ((), [], np.empty((0, 2))):
        _assert_read_only_rows(IntelState(empty, history).buffer, 0)
    rows = np.array([[0.0, 1.0], [1.0, 2.0]])
    state = IntelState(rows, history)
    rows[0, 1] = 5.0  # the state keeps its own copy
    _assert_read_only_rows(state.buffer, 2)
    assert state.buffer.tolist() == [[0.0, 1.0], [1.0, 2.0]]
    assert IntelState(((0, 1), (1, 2)), history).buffer.tolist() == \
        state.buffer.tolist()
    # every step returns one, capped at the longest window
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.1, window=3), [1.0])
    for t in range(5):
        state, _, _ = intel_step(state, pool, 0.1, 2.0 + t,
                                 WTTConfig.identity())
        _assert_read_only_rows(state.buffer, 3)
    assert state.buffer[:, 0].tolist() == [4.0, 5.0, 6.0]


@pytest.mark.parametrize("buffer", [
    [0.0, 1.0], [[0.0, 1.0, 2.0]], np.zeros((1, 2, 2)), 1.0,
], ids=["one-pair-unwrapped", "three-columns", "3-d", "scalar"])
def test_intel_state_buffer_must_hold_rows_of_two(buffer):
    history = IntelState.initial(k=1).history
    with pytest.raises(DimensionMismatchError, match="rows"):
        IntelState(buffer, history)


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


def test_prediction_conditions_on_the_models_window_only():
    model = GPTSModel(0.0, 1.0, 1.0, 0.1, window=3)
    times = np.arange(8.0)
    full = gp_predict_next(model, times, np.sin(times), 8.0)
    tail = gp_predict_next(model, times[-3:], np.sin(times[-3:]), 8.0)
    # the weights on the older values are zeros, summed in a longer row
    assert full.mean == pytest.approx(tail.mean, rel=0.0, abs=1e-15)
    assert full.var == tail.var


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


BIGGEST = np.finfo(float).max


def test_a_fused_variance_that_overflows_raises_on_both_paths():
    # 0.5 / max + 0.5 / max is subnormal, and its inverse is inf: a value
    # PredictiveGaussian itself rejects
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteForecastError, match="variance inf"):
            poe_combine([PredictiveGaussian(0.0, BIGGEST)] * 2,
                        WeightVector([0.5, 0.5]))
        pool = [GPTSModel(0.0, BIGGEST, 1.0, 0.0, 3)] * 2
        with pytest.raises(NonFiniteForecastError, match="variance inf"):
            intel_step(IntelState.initial(k=2), pool, 0.0, 1.0,
                       WTTConfig.identity())


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
    # recompute the fusion from the state's buffer and weight history
    times, values = np.array(state.buffer).T
    forecasts = [gp_predict_next(m, times, values, times[-1] + 1.0)
                 for m in pool]
    ref = poe_combine(forecasts, apply_wtt(wtt, state.history))
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


def _solve_lookups():
    """Pool solves looked up so far, cached or not."""
    info = gpts_module._pool_solve.cache_info()
    return info.hits + info.misses


def test_intel_step_forecasts_once_per_model_per_step():
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
                        [1.0, 10.0, 100.0])
    state = IntelState.initial(k=3)
    calls = []
    for t, v in zip(*_smooth_series(12)):
        before = _solve_lookups()
        state, _, _ = intel_step(state, pool, float(v), float(t),
                                 WTTConfig.forgetting(0.8))
        calls.append(_solve_lookups() - before)
    # the first step scores y_0 against the priors; every later score is the
    # forecast the step before made for its time, so each step solves once,
    # for t + 1 and the whole pool at once
    assert calls == [2] + [1] * 11


def _forgetting_rows(rows, config):
    """Per row of a smooth series, under forgetting weights: the buffer,
    weights, fusion and log evidences; ``config()`` gives each row's
    config object."""
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
                        [1.0, 10.0, 100.0])
    state = IntelState.initial(k=3)
    for t, v in zip(*_smooth_series(rows)):
        state, fused, evs = intel_step(state, pool, float(v), float(t),
                                       config())
        yield (state.buffer.tobytes(), state.model_weights.w.tobytes(),
               fused.mean, fused.var, evs.tobytes())


def test_a_gp_row_runs_the_weight_operator_once(numpy_calls):
    power = numpy_calls(wtt_module, "power")
    alpha, per_row = WTTConfig.forgetting(0.8), []
    for _ in _forgetting_rows(20, lambda: alpha):
        per_row.append(len(power) - sum(per_row))
    # the first row moves the opening weights, then fuses with the next
    # predictive ones; each later row starts from the weights the row
    # before fused with, which its history kept
    assert per_row == [2] + [1] * 19


def test_kept_predictive_weights_give_bitwise_a_fresh_configs_run():
    alpha = WTTConfig.forgetting(0.8)
    kept = list(_forgetting_rows(40, lambda: alpha))
    # a new, equal config every row: each row runs the operator twice
    assert kept == list(_forgetting_rows(
        40, lambda: WTTConfig.forgetting(0.8)))


@pytest.mark.parametrize("grid", ["unit", "irregular"])
def test_a_gp_row_takes_its_variances_log_once_per_solve(numpy_calls, grid):
    logs = numpy_calls(gpts_module, "log")
    rng = np.random.default_rng(107)
    times = np.cumsum(np.ones(40) if grid == "unit"
                      else rng.uniform(0.5, 1.5, size=40))
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
                        [1.0, 10.0, 100.0])
    state, per_row, misses = IntelState.initial(k=3), [], []
    for t in times:
        before, missed = len(logs), gpts_module._pool_solve.cache_info().misses
        state, _, _ = intel_step(state, pool, float(np.sin(t)), float(t),
                                 WTTConfig.identity())
        per_row.append(len(logs) - before)
        misses.append(gpts_module._pool_solve.cache_info().misses - missed)
    # the solve keeps its variances' log-density constants; a unit grid
    # solves nothing once the window is full, an irregular one every row
    assert per_row == misses
    assert misses == ([2] + [1] * 5 + [0] * 34 if grid == "unit"
                      else [2] * 40)


def _counted_forecasts(monkeypatch):
    """From then on, the forecast time of each pool forecast made."""
    times, forecast = [], gpts_module._forecast

    def counted(pool, window_times, values, t_next):
        times.append(t_next)
        return forecast(pool, window_times, values, t_next)
    monkeypatch.setattr(gpts_module, "_forecast", counted)
    return times


def _row(state, fused, log_evs):
    """What a row returns, as values: buffer, weights, fusion, evidences."""
    return (state.buffer.tobytes(), state.model_weights.w.tobytes(),
            fused.mean, fused.var, log_evs.tobytes())


@pytest.mark.parametrize("grid", ["unit", "half-spaced", "irregular"])
def test_memoized_windows_give_bitwise_a_fresh_pools_run(monkeypatch, grid):
    rng = np.random.default_rng(103)
    steps = {"unit": np.ones(60), "half-spaced": np.full(60, 0.5),
             "irregular": rng.uniform(0.3, 1.7, size=60)}[grid]
    times = np.cumsum(steps)
    values = np.sin(0.3 * times) + rng.normal(0.0, 0.1, size=times.size)
    nominal = GPTSModel(0.1, 1.0, 2.0, 0.04, window=6)
    factors = [1.0, 10.0, 100.0]
    wtt = WTTConfig.polya_urn([1, 2, 3])
    pool = perturb_pool(nominal, factors)
    forecasts = _counted_forecasts(monkeypatch)

    def run(fresh):
        state, out, per_row = IntelState.initial(k=3), [], []
        for t, v in zip(times, values):
            if fresh:
                gpts_module._pool_solve.cache_clear()
                # a constructed state carries no forecast and no weights
                state = IntelState(state.buffer, state.history)
            before = len(forecasts)
            row = intel_step(
                state, perturb_pool(nominal, factors) if fresh else pool,
                float(v), float(t), wtt)
            per_row.append(len(forecasts) - before)
            state = row[0]
            out.append(_row(*row))
        return out, per_row

    kept, per_row = run(fresh=False)
    # an irregular grid never repeats a window
    hits = gpts_module._pool_solve.cache_info().hits
    assert (hits > 0) == (grid != "irregular")
    # only a unit step makes a row's score the forecast the row before
    # carried, so elsewhere every row still forecasts twice
    unit = grid == "unit"
    assert per_row == [2] + [1 if unit else 2] * (times.size - 1)
    fresh, per_row = run(fresh=True)
    assert per_row == [2] * times.size
    assert kept == fresh


def test_memoized_forecasts_are_read_only_and_shared():
    pool = tuple(perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
                              [1.0, 10.0]))
    state, wtt = IntelState.initial(k=2), WTTConfig.forgetting(0.8)
    for t in range(3):
        state, _, _ = intel_step(state, pool, float(np.sin(t)), float(t), wtt)
    kept_pool, t_next, means, var, const, config, predictive = state._carry
    assert kept_pool == pool and t_next == 3.0 and config is wtt
    assert not (means.flags.writeable or var.flags.writeable
                or const.flags.writeable or predictive.flags.writeable)
    # the variances and constants are the cached solve's own arrays
    hits = gpts_module._pool_solve.cache_info().hits
    _, _, solved_var, solved_const = gpts_module._pool_solve(
        pool, (state.buffer[:, 0] - 3.0).tobytes())
    assert gpts_module._pool_solve.cache_info().hits == hits + 1
    assert solved_var is var and solved_const is const


def test_a_forecast_that_raised_raises_again_on_the_same_window():
    # a long lengthscale extrapolates linearly: weights near (-1, 2)
    pool = (GPTSModel(0.0, 1.0, 100.0, 1e-12, 2),)
    history = IntelState.initial(k=1).history
    built = IntelState(((0.0, 0.0), (1.0, 1e308)), history)
    # a stepped state carries the forecast for t = 1, which scores 1e308;
    # the forecast for t = 2 from the window that absorbs it overflows
    stepped, _, _ = intel_step(IntelState(((-1.0, 0.0),), history), pool,
                               0.0, 0.0, WTTConfig.identity())
    for state, y_t, t in ((built, 0.0, 2.0), (stepped, 1e308, 1.0)):
        carry, buffer = state._carry, state.buffer.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                with pytest.raises(NonFiniteForecastError, match="means"):
                    intel_step(state, pool, y_t, t, WTTConfig.identity())
        # the caller's state is unchanged
        assert state._carry is carry and state.buffer.tobytes() == buffer
    assert built._carry == (None,) * 7 and stepped._carry[1] == 1.0


def test_forecast_memo_is_keyed_by_the_pools_values(monkeypatch):
    nominal = GPTSModel(0.0, 1.0, 2.0, 0.04, window=6)
    identity = WTTConfig.identity()
    state, _, _ = intel_step(IntelState.initial(k=3),
                             perturb_pool(nominal, [1.0, 10.0, 100.0]),
                             0.1, 0.0, identity)
    fresh = IntelState(state.buffer, state.history)  # carries nothing
    forecasts = _counted_forecasts(monkeypatch)
    # a pool built apart with equal values scores with the carried
    # forecast; one noise factor apart is another pool
    for factors, made in (([1.0, 10.0, 100.0], [2.0]),
                          ([1.0, 10.0, 99.0], [1.0, 2.0])):
        before = len(forecasts)
        row = intel_step(state, perturb_pool(nominal, factors), 0.2, 1.0,
                         identity)
        assert forecasts[before:] == made
        assert _row(*row) == _row(*intel_step(
            fresh, perturb_pool(nominal, factors), 0.2, 1.0, identity))


def test_a_gp_row_runs_the_operator_once_per_config_object(numpy_calls):
    power = numpy_calls(wtt_module, "power")
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
                        [1.0, 10.0, 100.0])
    alpha, twin = WTTConfig.forgetting(0.5), WTTConfig.forgetting(0.5)
    state, _, _ = intel_step(IntelState.initial(k=3), pool, 0.1, 0.0, alpha)
    predictive = state._carry[6]
    assert predictive.tobytes() == apply_wtt(alpha, state.history).w.tobytes()
    assert not predictive.flags.writeable
    # the carried config object runs the operator once, for the fusion; an
    # equal one is another object and runs it twice, as does a constructed
    # state, which carries no weights
    runs, rows = [], []
    for start, config in ((state, alpha), (state, twin),
                          (IntelState(state.buffer, state.history), alpha)):
        before = len(power)
        rows.append(_row(*intel_step(start, pool, 0.2, 1.0, config)))
        runs.append(len(power) - before)
    assert runs == [1, 2, 2]
    assert rows[0] == rows[1] == rows[2]


def test_two_gp_streams_stepped_in_turn_each_forecast_once_per_row(
        monkeypatch):
    pools = [perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
                          [1.0, 10.0]),
             perturb_pool(GPTSModel(0.5, 1.5, 3.0, 0.1, window=4),
                          [1.0, 100.0, 1e4])]
    wtt = WTTConfig.forgetting(0.9)
    times, values = _smooth_series(30)

    def run(streams):
        states = [IntelState.initial(k=len(pool)) for pool in pools]
        out = [[] for _ in pools]
        per_row = [[] for _ in pools]
        for t, v in zip(times, values):
            for i in streams:
                before = len(forecasts)
                row = intel_step(states[i], pools[i], float(v), float(t), wtt)
                per_row[i].append(len(forecasts) - before)
                states[i] = row[0]
                out[i].append(_row(*row))
        return out, per_row

    forecasts = _counted_forecasts(monkeypatch)
    # each state carries its own forecast, so a second stream stepped in
    # between evicts nothing of the first's
    both, per_row = run([0, 1])
    assert per_row == [[2] + [1] * 29] * 2
    assert both == [run([0])[0][0], run([1])[0][1]]


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
    assert gpts_module._pool_solve.cache_info().currsize == 0


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows_before", [0, 1])
def test_intel_step_rejects_a_non_finite_observation(bad, rows_before):
    # named as the observation on the first row, scored by the priors, and
    # on the second, scored by a forecast from the buffer
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.1, 5), [1.0, 2.0])
    state = IntelState.initial(k=2)
    for t in range(rows_before):
        state, _, _ = intel_step(state, pool, 0.1, float(t),
                                 WTTConfig.identity())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="observations must be finite"):
            intel_step(state, pool, bad, float(rows_before),
                       WTTConfig.identity())


# ---------------------------------------------------------------------------
# the solve cache


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
    gpts_module._pool_solve.cache_clear()
    fresh = GPTSModel(*params)
    direct = gp_predict_next(fresh, later, values, 47.0)
    assert len(seen) == 1
    assert (reused.mean, reused.var) == (direct.mean, direct.var)
    # the cache is keyed by value: an equal model, built apart, hits it
    hits = gpts_module._pool_solve.cache_info().hits
    gp_predict_next(GPTSModel(*params[:4], 10.0), later, values, 47.0)
    assert len(seen) == 1
    assert gpts_module._pool_solve.cache_info().hits == hits + 1
    assert model == fresh
    # the field-tuple hash, computed once when the model is built
    assert hash(model) == hash(fresh) == hash(params)
    assert repr(model) == repr(fresh) == (
        "GPTSModel(mean_const=0.3, signal_variance=1.5, lengthscale=2.0, "
        "noise_var=0.05, window=10)")


def test_a_model_stores_each_real_parameter_as_a_float():
    # a string numpy reads as a number once reached the kernel as a string
    model = GPTSModel("0.5", "1.0", np.float32(2.0), 1, 3)
    assert (model.mean_const, model.signal_variance, model.lengthscale,
            model.noise_var) == (0.5, 1.0, 2.0, 1.0)
    assert all(type(v) is float for v in (
        model.mean_const, model.signal_variance, model.lengthscale,
        model.noise_var))
    fresh = GPTSModel(0.5, 1.0, 2.0, 1.0, 3)
    assert model == fresh and hash(model) == hash(fresh)
    times = np.arange(4.0)
    forecast = gp_predict_next(model, times, np.sin(times), 4.0)
    assert forecast == gp_predict_next(fresh, times, np.sin(times), 4.0)


def test_unit_spaced_stream_runs_no_cholesky_once_the_window_is_full(
        monkeypatch):
    window, rows = 6, 20
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=window),
                        [1.0, 10.0, 100.0])
    seen = _failing_cholesky(monkeypatch, 0)
    counts, lookups = [], []
    state = IntelState.initial(k=3)
    times, values = _smooth_series(rows)
    for t, v in zip(times, values):
        before, looked_up = len(seen), _solve_lookups()
        state, _, _ = intel_step(state, pool, float(v), float(t),
                                 WTTConfig.forgetting(0.8))
        counts.append(len(seen) - before)
        lookups.append(_solve_lookups() - looked_up)
    assert lookups == [2] + [1] * (rows - 1)
    # each new window length factorizes once per model, the full one too;
    # the priors of the first step take none
    assert counts == [3] * window + [0] * (rows - window)
    # scoring y_t and forecasting t + 1 share one window on this grid
    assert gpts_module._pool_solve.cache_info().currsize == window + 1


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


def _irregular_run(rows):
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
                        [1.0, 10.0, 100.0])
    state = IntelState.initial(k=3)
    times = _irregular_times(np.random.default_rng(101), rows)
    for t in times:
        state, _, _ = intel_step(state, pool, float(np.sin(t)), float(t),
                                 WTTConfig.identity())
    return tuple(pool), state, times


def test_each_model_holds_one_window_after_a_long_irregular_run():
    pool, state, times = _irregular_run(500)
    last = np.array([t for t, _ in state.buffer[-6:]])
    hits = gpts_module._pool_solve.cache_info().hits
    _, A, var, const = gpts_module._pool_solve(
        pool, (last - (times[-1] + 1.0)).tobytes())
    assert gpts_module._pool_solve.cache_info().hits == hits + 1
    # one row of forecast weights per model, read-only
    assert A.shape == (3, 6)
    assert (var > 0.0).all()
    assert not (A.flags.writeable or var.flags.writeable
                or const.flags.writeable)


def test_solve_cache_stays_bounded_over_a_long_irregular_run():
    _irregular_run(500)
    info = gpts_module._pool_solve.cache_info()
    # every forecast time misses, yet the cache keeps its fixed size
    assert info.misses > 500
    assert info.maxsize == gpts_module.SOLVE_CACHE_SIZE
    assert info.currsize <= gpts_module.SOLVE_CACHE_SIZE


def test_failed_factorization_is_not_memoized(monkeypatch):
    model = GPTSModel(0.0, 1.0, 1.0, 0.1, 10)
    seen = _failing_cholesky(monkeypatch, 100)
    for attempts in (7, 14):
        with pytest.raises(FactorizationFailureError):
            gp_predict_next(model, [0.0, 1.0, 2.0], [0.1, 0.2, 0.3], 3.0)
        assert len(seen) == attempts
    assert gpts_module._pool_solve.cache_info().currsize == 0


def test_mixed_pool_matches_each_models_own_forecast():
    # means, lengthscales, noise levels and windows all differ
    pool = [GPTSModel(0.0, 1.0, 2.0, 0.04, window=6),
            GPTSModel(0.5, 1.5, 1.0, 0.2, window=3),
            GPTSModel(-0.3, 0.8, 4.0, 0.01, window=1)]
    wtt = WTTConfig.forgetting(0.9)
    rng = np.random.default_rng(107)
    state = IntelState.initial(k=3)
    for t in _irregular_times(rng, 40):
        y = float(np.sin(0.4 * t) + rng.normal(0.0, 0.1))
        times, values = state.buffer.T
        scored = [gp_predict_next(m, times, values, t) if times.size
                  else PredictiveGaussian(m.mean_const,
                                          m.signal_variance + m.noise_var)
                  for m in pool]
        state, fused, log_evs = intel_step(state, pool, y, float(t), wtt)
        np.testing.assert_allclose(log_evs, [p.logpdf(y) for p in scored],
                                   rtol=0.0, atol=1e-12)
        # each model's own tail, not the shared buffer
        times, values = np.array(state.buffer).T
        ref = poe_combine([gp_predict_next(m, times[-m.window:],
                                           values[-m.window:], t + 1.0)
                           for m in pool], apply_wtt(wtt, state.history))
        assert fused.mean == pytest.approx(ref.mean, rel=0.0, abs=1e-12)
        assert fused.var == pytest.approx(ref.var, rel=0.0, abs=1e-12)


def test_log_density_of_an_overflowing_residual_is_minus_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert PredictiveGaussian(-1e308, 1.0).logpdf(1e308) == -np.inf
        assert PredictiveGaussian(0.0, 1e-300).logpdf(1e10) == -np.inf
        pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 1e-6, 3), [1.0, 2.0])
        _, _, log_evs = intel_step(IntelState.initial(k=2), pool, 1e200, 0.0,
                                   WTTConfig.identity())
    assert (log_evs == -np.inf).all()


def test_a_variance_past_the_float_range_raises_from_every_forecast():
    # signal plus noise variance, the prior's variance, has no double
    pool = (GPTSModel(0.0, 1e308, 1.0, 1e308, 3),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):  # a solve that raised is not cached
            with pytest.raises(NonFiniteForecastError, match="variances"):
                intel_step(IntelState.initial(k=1), pool, 0.0, 0.0,
                           WTTConfig.identity())


def test_a_mean_past_the_float_range_raises():
    # a long lengthscale extrapolates linearly: weights near (-1, 2)
    model = GPTSModel(0.0, 1.0, 100.0, 1e-12, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gp_predict_next(model, [0.0, 1.0], [0.0, 1e300], 2.0).mean > 1e300
        with pytest.raises(NonFiniteForecastError, match="means"):
            gp_predict_next(model, [0.0, 1.0], [0.0, 1e308], 2.0)
