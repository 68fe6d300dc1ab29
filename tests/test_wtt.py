"""Weight-transition operators."""

import numpy as np
import pytest

from bdemm import (
    WeightHistory,
    WeightVector,
    WTTConfig,
    apply_wtt,
    default_markov_matrix,
    update_model_weights_log,
    weight_step,
)
from bdemm.errors import ConfigMismatchError
from bdemm.wtt import KINDS


def _history_from_rows(rows):
    h = WeightHistory.start(WeightVector(rows[0]))
    for r in rows[1:]:
        h = h.append(WeightVector(r))
    return h


def _random_rows(rng, k, steps):
    rows = []
    for _ in range(steps + 1):
        raw = rng.random(k) + 1e-6
        rows.append(raw / raw.sum())
    return rows


def _random_history(rng, k, steps):
    return _history_from_rows(_random_rows(rng, k, steps))


def _random_config(rng, kind, k):
    if kind == "identity":
        return WTTConfig.identity()
    if kind == "constant":
        raw = rng.random(k) + 1e-6
        return WTTConfig.constant(raw / raw.sum())
    if kind == "markov":
        raw = rng.random((k, k)) + 1e-6
        return WTTConfig.markov(raw / raw.sum(axis=1, keepdims=True))
    if kind == "forgetting":
        return WTTConfig.forgetting(float(rng.uniform(0.05, 1.0)))
    return WTTConfig.polya_urn(rng.integers(1, 5, size=k))


# ---------------------------------------------------------------------------
# individual operators


def test_identity_returns_the_latest_row_itself():
    h = _history_from_rows([[0.5, 0.5], [0.9, 0.1]])
    out = apply_wtt(WTTConfig.identity(), h)
    assert out is h.last


def test_constant_ignores_history():
    cfg = WTTConfig.constant([0.3, 0.7])
    out = apply_wtt(cfg, _history_from_rows([[0.99, 0.01]]))
    assert np.array_equal(out.w, [0.3, 0.7])


def test_markov_multiplies_by_the_matrix():
    t = np.array([[0.9, 0.1], [0.2, 0.8]])
    out = apply_wtt(WTTConfig.markov(t), _history_from_rows([[1.0, 0.0]]))
    assert np.allclose(out.w, [0.9, 0.1], atol=1e-15)


def test_default_markov_matrix_shape():
    t = default_markov_matrix(3, stay=0.7)
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-15)
    assert np.allclose(np.diag(t), 0.7)
    assert np.allclose(t[0, 1], 0.15)
    assert np.array_equal(default_markov_matrix(1), [[1.0]])


def test_forgetting_hand_case():
    # (0.81, 0.19) at alpha 1/2: (0.9, sqrt(0.19)) renormalized
    out = apply_wtt(WTTConfig.forgetting(0.5), _history_from_rows([[0.81, 0.19]]))
    assert np.allclose(out.w, [0.6737, 0.3263], atol=1e-4)


def test_forgetting_flattens_toward_uniform():
    h = _history_from_rows([[0.9, 0.1]])
    sharp = apply_wtt(WTTConfig.forgetting(0.9), h)
    flat = apply_wtt(WTTConfig.forgetting(0.2), h)
    assert flat.w[0] < sharp.w[0] < 0.9
    assert flat.w[1] > sharp.w[1] > 0.1


def test_forgetting_zero_weight_is_absorbing():
    out = apply_wtt(WTTConfig.forgetting(0.5), _history_from_rows([[1.0, 0.0]]))
    assert np.array_equal(out.w, [1.0, 0.0])


def test_polya_urn_hand_case():
    # unit pseudo-counts, single row (1/2, 1/2): (1.5, 1.5) / 3
    out = apply_wtt(WTTConfig.polya_urn([1, 1]), _history_from_rows([[0.5, 0.5]]))
    assert np.allclose(out.w, [0.5, 0.5], atol=1e-15)


def test_polya_urn_reinforces_track_record():
    rows = [[0.5, 0.5]] + [[0.9, 0.1]] * 10
    out = apply_wtt(WTTConfig.polya_urn([1, 1]), _history_from_rows(rows))
    # column sums (9.5, 1.5) plus counts: 10.5 / 13 vs 2.5 / 13
    assert np.allclose(out.w, [10.5 / 13.0, 2.5 / 13.0], atol=1e-12)


def test_polya_urn_symmetry():
    # swapping the columns of a history swaps the output
    rng = np.random.default_rng(29)
    beta = WTTConfig.polya_urn([2, 2])
    for _ in range(50):
        rows = _random_rows(rng, 2, 5)
        h = _history_from_rows(rows)
        flipped = _history_from_rows([row[::-1] for row in rows])
        a = apply_wtt(beta, h)
        b = apply_wtt(beta, flipped)
        assert np.allclose(a.w, b.w[::-1], atol=1e-15)


# ---------------------------------------------------------------------------
# exact identities


def test_forgetting_alpha_one_is_identity_exactly():
    rng = np.random.default_rng(41)
    cfg = WTTConfig.forgetting(1.0)
    for _ in range(300):
        h = _random_history(rng, int(rng.integers(1, 7)), 3)
        out = apply_wtt(cfg, h)
        assert np.array_equal(out.w, h.last.w)


def test_markov_identity_matrix_is_identity_exactly():
    rng = np.random.default_rng(43)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        h = _random_history(rng, k, 3)
        out = apply_wtt(WTTConfig.markov(np.eye(k)), h)
        assert np.array_equal(out.w, h.last.w)


def test_forgetting_preserves_the_argmax():
    rng = np.random.default_rng(47)
    for _ in range(300):
        k = int(rng.integers(2, 7))
        h = _random_history(rng, k, 1)
        alpha = float(rng.uniform(0.01, 1.0))
        out = apply_wtt(WTTConfig.forgetting(alpha), h)
        assert int(np.argmax(out.w)) == int(np.argmax(h.last.w))


# ---------------------------------------------------------------------------
# simplex preservation, all operators


def test_all_operators_map_simplex_to_simplex():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        k = int(rng.integers(1, 8))
        cfg = _random_config(rng, kind, k)
        h = _random_history(rng, k, int(rng.integers(0, 5)))
        out = apply_wtt(cfg, h)
        assert len(out) == k
        assert np.all(out.w >= 0.0)
        assert abs(float(out.w.sum()) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# validation


def test_config_validation():
    with pytest.raises(ConfigMismatchError):
        WTTConfig("nonsense")
    with pytest.raises(ConfigMismatchError):
        WTTConfig.forgetting(0.0)
    with pytest.raises(ConfigMismatchError):
        WTTConfig.forgetting(1.5)
    with pytest.raises(ConfigMismatchError):
        WTTConfig.markov([[0.5, 0.5], [0.3, 0.8]])  # second row sums to 1.1
    with pytest.raises(ConfigMismatchError):
        WTTConfig.markov([[1.0, 0.0]])  # not square
    with pytest.raises(ConfigMismatchError):
        WTTConfig.markov([[1.2, -0.2], [0.0, 1.0]])
    with pytest.raises(ConfigMismatchError):
        WTTConfig.polya_urn([0, 1])
    with pytest.raises(ConfigMismatchError):
        WTTConfig.polya_urn([1.5, 1.0])
    with pytest.raises(ConfigMismatchError):
        WTTConfig("markov")  # matrix missing
    with pytest.raises(ConfigMismatchError):
        WTTConfig("constant")


def test_apply_rejects_width_mismatches():
    h = _history_from_rows([[0.5, 0.5]])
    with pytest.raises(ConfigMismatchError):
        apply_wtt(WTTConfig.constant([1.0]), h)
    with pytest.raises(ConfigMismatchError):
        apply_wtt(WTTConfig.markov(np.eye(3)), h)
    with pytest.raises(ConfigMismatchError):
        apply_wtt(WTTConfig.polya_urn([1, 1, 1]), h)


def test_markov_matrix_stored_read_only():
    cfg = WTTConfig.markov(np.eye(2))
    with pytest.raises(ValueError):
        cfg.matrix[0, 0] = 0.5


# ---------------------------------------------------------------------------
# weight_step: transition, then Bayes, then append


def test_weight_step_informative_path_is_transition_then_bayes():
    rng = np.random.default_rng(53)
    for kind in KINDS:
        h = _random_history(rng, 3, 4)
        cfg = _random_config(rng, kind, 3)
        log_ev = rng.normal(size=3)
        weights, grown, informative = weight_step(cfg, h, log_ev)
        expected = update_model_weights_log(apply_wtt(cfg, h), log_ev)
        assert informative
        assert np.array_equal(weights.w, expected.w)
        assert grown.last is weights
        assert len(grown) == len(h) + 1
        assert np.array_equal(grown.cumulative, h.cumulative + weights.w)


def test_weight_step_all_zero_evidence_carries_predictive_forward():
    h = _history_from_rows([[0.5, 0.5], [0.9, 0.1]])
    cfg = WTTConfig.forgetting(0.5)
    predictive = apply_wtt(cfg, h)
    weights, grown, informative = weight_step(cfg, h, [-np.inf, -np.inf])
    assert not informative
    assert np.array_equal(weights.w, predictive.w)
    assert grown.last is weights
    assert len(grown) == len(h) + 1
    assert np.array_equal(grown.cumulative, h.cumulative + predictive.w)


def test_weight_step_passes_the_floor_through():
    h = _history_from_rows([[0.5, 0.5]])
    log_ev = [0.0, -50.0]
    weights, _, informative = weight_step(WTTConfig.identity(), h, log_ev,
                                          0.05)
    expected = update_model_weights_log(h.last, log_ev, floor=0.05)
    assert informative
    assert np.array_equal(weights.w, expected.w)
    assert weights.w[1] > 0.04
