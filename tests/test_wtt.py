"""Weight-transition operators."""

import itertools
import math
import warnings

import numpy as np
import pytest

import bdemm.wtt
from bdemm import (
    WeightHistory,
    WeightVector,
    WTTConfig,
    apply_wtt,
    default_markov_matrix,
    update_model_weights_log,
    weight_step,
)
from bdemm.core import SIMPLEX_ATOL
from bdemm.errors import (
    AllZeroError,
    ConfigMismatchError,
    DimensionMismatchError,
    InvalidInputError,
    NonFiniteWeightError,
)
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
    assert out.w is h.last.w


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


@pytest.mark.parametrize("matrix, message", [
    ([[math.nan, 1.0], [0.0, 1.0]], "entries must be finite"),
    ([[math.inf, 0.0], [0.0, 1.0]], "entries must be finite"),
    ([[-math.inf, 1.0], [0.0, 1.0]], "entries must be finite"),
    ([[1.2, -0.2], [0.0, 1.0]], "entries must be >= 0"),
], ids=["nan", "inf", "-inf", "negative"])
def test_markov_entry_faults_are_named(matrix, message):
    # a NaN or infinite entry is a finiteness fault, not a sign fault
    with pytest.raises(ConfigMismatchError, match=message):
        WTTConfig.markov(matrix)


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
        cfg.param[0, 0] = 0.5


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
    expected = update_model_weights_log(h.last, log_ev, weight_floor=0.05)
    assert informative
    assert np.array_equal(weights.w, expected.w)
    assert weights.w[1] > 0.04


# ---------------------------------------------------------------------------
# weight_step against the object-by-object move it replaced


def _reference_apply(config, history):
    """Operator step building a WeightVector, as weight_step once did."""
    last, k = history.last, history.width
    if config.kind == "identity":
        return last
    if config.kind == "constant":
        if config.param.shape != (k,):
            raise ConfigMismatchError("constant vector length != number of models")
        return WeightVector(config.param)
    if config.kind == "markov":
        if config.param.shape != (k, k):
            raise ConfigMismatchError("transition matrix shape != (K, K)")
        raw = last.w @ config.param
    elif config.kind == "forgetting":
        raw = np.power(last.w, config.param)
    else:
        if config.param.shape != (k,):
            raise ConfigMismatchError("pseudo-count length != number of models")
        raw = config.param + history.cumulative
    s = float(raw.sum())
    return WeightVector(raw if abs(s - 1.0) <= SIMPLEX_ATOL else raw / s)


def _reference_update(prior, log_evidences, floor):
    """Two-stage log-sum-exp Bayes update, raising on an all-zero row."""
    if not 0.0 <= floor < 1.0 / prior.w.size:
        raise InvalidInputError("floor out of range")
    log_ev = np.atleast_1d(np.asarray(log_evidences, dtype=float))
    if log_ev.shape != prior.w.shape:
        raise DimensionMismatchError("one evidence per model required")
    with np.errstate(divide="ignore", invalid="ignore"):
        lw = np.log(prior.w) + log_ev
    m = float(lw.max())
    if not m < np.inf:
        raise NonFiniteWeightError("log evidences must be < +inf and not NaN")
    if m == -np.inf:
        raise AllZeroError("all prior-times-evidence products are zero")
    w = np.exp(lw - (m + math.log(float(np.exp(lw - m).sum()))))
    w /= w.sum()
    if floor > 0.0:
        w = np.maximum(w, floor)
        w /= w.sum()
    return WeightVector(w)


def _reference_weight_step(config, history, log_evidences, floor):
    predictive = _reference_apply(config, history)
    try:
        weights = _reference_update(predictive, log_evidences, floor)
        informative = True
    except AllZeroError:
        weights, informative = predictive, False
    return weights, history.append(weights), informative


def _with_zero_models(rng, k, row):
    """``row`` with up to k - 1 random entries zeroed and renormalized."""
    row = np.array(row)
    row[rng.permutation(k)[:int(rng.integers(0, k))]] = 0.0
    return row / row.sum()


def _random_evidences(rng, predictive):
    log_ev = rng.normal(0.0, 30.0, size=predictive.size)
    pick = rng.random()
    if pick < 0.2:
        log_ev[rng.random(predictive.size) < 0.5] = -np.inf
    elif pick < 0.3:
        log_ev[:] = -np.inf
    elif pick < 0.4:
        # every model that still has weight explains nothing
        log_ev[predictive > 0.0] = -np.inf
    elif pick < 0.5:
        log_ev -= 800.0  # exp of every entry underflows
    return log_ev


def test_weight_step_is_bitwise_the_object_by_object_move():
    rng = np.random.default_rng(61)
    uninformative = 0
    for case in range(3000):
        kind = KINDS[case % len(KINDS)]
        k = 1 + (case // len(KINDS)) % 8
        cfg = _random_config(rng, kind, k)
        h = _random_history(rng, k, int(rng.integers(0, 4)))
        if rng.random() < 0.4:
            h = h.append(WeightVector(_with_zero_models(rng, k, h.last.w)))
        if kind == "constant" and rng.random() < 0.4:
            cfg = WTTConfig.constant(_with_zero_models(rng, k, cfg.param))
        floor = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 1.0 / k))
        log_ev = _random_evidences(rng, _reference_apply(cfg, h).w)

        expected = _reference_weight_step(cfg, h, log_ev, floor)
        weights, grown, informative = weight_step(cfg, h, log_ev, floor)
        assert informative == expected[2]
        assert weights.w.tobytes() == expected[0].w.tobytes()
        assert grown.last is weights
        assert grown.cumulative.tobytes() == expected[1].cumulative.tobytes()
        assert len(grown) == len(expected[1])
        uninformative += not informative
    assert uninformative > 300


@pytest.mark.parametrize("log_ev, outcome", [
    (-1e308, None), (-745.0, None), (0.0, None), (709.0, None),
    (1e308, None), (-np.inf, AllZeroError), (np.nan, NonFiniteWeightError),
    (np.inf, NonFiniteWeightError),
], ids=["-1e308", "-745", "0", "709", "1e308", "-inf", "nan", "+inf"])
def test_a_pool_of_one_ends_at_weight_one(log_ev, outcome):
    one = np.ones(1).tobytes()
    rng = np.random.default_rng(79)
    # a last row just off 1 too: the update must not read its value
    histories = [_random_history(rng, 1, 3),
                 _history_from_rows([[1.0], [1.0 + 4e-13]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if outcome is None:
            post = update_model_weights_log(WeightVector([1.0]), [log_ev])
            assert post.w.tobytes() == one
        else:
            with pytest.raises(outcome):
                update_model_weights_log(WeightVector([1.0]), [log_ev])
        for kind, h, floor in itertools.product(KINDS, histories, (0.0, 0.5)):
            cfg = _random_config(rng, kind, 1)
            if outcome is NonFiniteWeightError:
                with pytest.raises(NonFiniteWeightError):
                    weight_step(cfg, h, [log_ev], floor)
                continue
            weights, grown, informative = weight_step(cfg, h, [log_ev], floor)
            assert informative == (outcome is None)
            if informative:
                assert weights.w.tobytes() == one
            else:  # the predictive weights carry forward
                assert weights.w.tobytes() == apply_wtt(cfg, h).w.tobytes()
            assert grown.last is weights


def _error_class(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the class is what is compared
        return type(exc)
    return None


def test_weight_step_raises_what_the_object_by_object_move_raised():
    rng = np.random.default_rng(67)
    h2, h3 = _random_history(rng, 2, 2), _random_history(rng, 3, 2)
    cases = [(_random_config(rng, kind, 2), h2, log_ev, floor)
             for kind in KINDS
             for log_ev, floor in (
                 ([0.0, np.nan], 0.0), ([np.inf, 0.0], 0.0),
                 ([np.nan, -np.inf], 0.1), ([0.0, 0.0, 0.0], 0.0), ([0.0], 0.0),
                 ([[0.0, 0.0]], 0.0), ([0.0, 0.0], -0.1), ([0.0, 0.0], 0.5),
                 ([-np.inf, -np.inf], np.nan), ([-np.inf, -np.inf], 0.5))]
    # a parameter that disagrees with the history's width
    cases += [(_random_config(rng, kind, 3), h2, [0.0, 0.0], 0.0)
              for kind in ("constant", "markov", "polya_urn")]
    cases += [(_random_config(rng, kind, 2), h3, [0.0, 0.0, 0.0], 0.0)
              for kind in ("constant", "markov", "polya_urn")]
    for args in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = _error_class(_reference_weight_step, *args)
            assert expected is not None
            assert _error_class(weight_step, *args) is expected


def test_weight_step_builds_one_vector_and_one_history(monkeypatch):
    built, raised, appended = [], [], []
    trusted = bdemm.wtt._trusted

    def counted(cls, *values):
        built.append(cls)
        return trusted(cls, *values)

    # the history grows in WeightHistory.append, which builds in bdemm.core
    for module in (bdemm.core, bdemm.wtt):
        monkeypatch.setattr(module, "_trusted", counted)
    append = WeightHistory.append
    monkeypatch.setattr(WeightHistory, "append",
                        lambda self, w: appended.append(w) or append(self, w))
    init = AllZeroError.__init__
    monkeypatch.setattr(AllZeroError, "__init__",
                        lambda self, *a: raised.append(a) or init(self, *a))
    rng = np.random.default_rng(71)
    for kind in KINDS:
        cfg, h = _random_config(rng, kind, 3), _random_history(rng, 3, 2)
        for log_ev in ([0.0, -1.0, -2.0], [-np.inf] * 3):
            built.clear()
            appended.clear()
            weight_step(cfg, h, log_ev, 0.1)
            assert built.count(WeightVector) <= 1
            assert built.count(WeightHistory) == 1
            assert len(built) <= 2
            assert len(appended) == 1
    assert raised == []


def test_all_zero_step_reuses_the_operators_own_vector():
    rng = np.random.default_rng(73)
    h = _random_history(rng, 2, 2)
    dead = [-np.inf, -np.inf]
    assert weight_step(WTTConfig.identity(), h, dead)[0].w is h.last.w
    cfg = WTTConfig.constant([0.25, 0.75])
    assert weight_step(cfg, h, dead)[0].w is cfg.param


# ---------------------------------------------------------------------------
# one history under several configs


def test_a_history_stepped_with_several_configs_gives_each_its_own_weights():
    rng = np.random.default_rng(79)
    rows = _random_rows(rng, 3, 4)
    configs = [_random_config(rng, kind, 3) for kind in KINDS]
    configs.append(WTTConfig.forgetting(configs[KINDS.index("forgetting")]
                                        .param))
    h = _history_from_rows(rows)
    log_ev = [0.0, -1.0, -2.5]
    for cfg in configs + configs[::-1] + configs:
        got = bdemm.wtt._transition(cfg, h)
        fresh = bdemm.wtt._transition(cfg, _history_from_rows(rows))
        assert got.tobytes() == fresh.tobytes()
        assert not got.flags.writeable
        weights, _, _ = weight_step(cfg, h, log_ev)
        expected, _, _ = weight_step(cfg, _history_from_rows(rows), log_ev)
        assert weights.w.tobytes() == expected.w.tobytes()


# ---------------------------------------------------------------------------
# raw-constructor parameters


def test_raw_constructor_stores_what_the_operators_read():
    h = _history_from_rows([[0.9, 0.1]])
    log_ev = [0.0, -1.0]
    raw = WTTConfig("constant", [0.25, 0.75])
    assert raw.param.dtype == float and not raw.param.flags.writeable
    assert (weight_step(raw, h, log_ev)[0].w.tobytes()
            == weight_step(WTTConfig.constant([0.25, 0.75]), h,
                           log_ev)[0].w.tobytes())
    raw = WTTConfig("forgetting", "0.5")
    assert type(raw.param) is float and raw.param == 0.5
    assert (weight_step(raw, h, log_ev)[0].w.tobytes()
            == weight_step(WTTConfig.forgetting(0.5), h, log_ev)[0].w.tobytes())
    assert type(WTTConfig.forgetting(np.float32(0.5)).param) is float


@pytest.mark.parametrize("kind, param, wrong, error, match", [
    ("forgetting", 0.5, [[2.0]], ConfigMismatchError, "alpha"),
    ("identity", None, [0.5], ConfigMismatchError, "reads no parameter"),
    ("markov", [[1.0]], 0.5, ConfigMismatchError, "rows must sum to 1"),
    ("polya_urn", [1], [[0.9, 0.1], [0.1, 0.9]], ConfigMismatchError,
     "vector"),
    ("constant", [1.0], [[0.9, 0.1], [0.1, 0.9]], DimensionMismatchError,
     "1-d array"),
], ids=["forgetting", "identity", "markov", "polya_urn", "constant"])
def test_a_parameter_the_operator_does_not_read_raises(kind, param, wrong,
                                                       error, match):
    WTTConfig(kind, param)
    with pytest.raises(error, match=match):
        WTTConfig(kind, wrong)


@pytest.mark.parametrize("alpha", [np.array([0.5, 0.7]), np.array([0.5]),
                                   [0.5], "half", 1j],
                         ids=["vector", "one-element", "list", "word",
                              "complex"])
def test_non_scalar_alpha_raises_config_mismatch(alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigMismatchError):
            WTTConfig("forgetting", alpha)
        with pytest.raises(ConfigMismatchError):
            WTTConfig.forgetting(alpha)


@pytest.mark.parametrize("beta", [[1e308, 1e308], [np.inf, 1], [np.nan, 1],
                                  [-np.inf, 1]],
                         ids=["total-overflows", "infinite", "nan",
                              "minus-infinite"])
def test_polya_urn_pseudo_counts_must_be_finite(beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigMismatchError, match="finite"):
            WTTConfig.polya_urn(beta)


def test_polya_urn_with_large_finite_counts_stays_on_the_simplex():
    cfg = WTTConfig.polya_urn([8e307, 8e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights, _, informative = weight_step(
            cfg, _history_from_rows([[0.9, 0.1]]), [0.0, -1.0])
    assert informative
    assert abs(float(weights.w.sum()) - 1.0) <= SIMPLEX_ATOL
    assert weights.w[0] > weights.w[1] > 0.0
