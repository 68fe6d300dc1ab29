"""File-driven filtering: config grammar, engines, CSV round trips."""

import numpy as np
import pytest

from bdemm import (
    GaussianBelief,
    GPTSModel,
    KfEnsembleState,
    LinearGaussianModel,
    PredictiveGaussian,
    WTTConfig,
    gp_predict_next,
    perturb_pool,
)
from bdemm.errors import ConfigError, ParseError
from bdemm.kalman import kf_bdemm_step
from bdemm.stream import build_engine, parse_config, run_stream
from bdemm.wtt import KINDS

KF_SINGLE = """\
engine = kf
kf.models = 1
kf.model.1.A = [1.0]
kf.model.1.Q = [0.1]
kf.model.1.B = [1.0]
kf.model.1.R = [1.0]
kf.init.mean = [0.0]
kf.init.cov = [1.0]
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# config grammar


def test_parse_scalar_kinds(tmp_path):
    path = _write(tmp_path, "a.cfg", """\
# leading comment
engine = kf
count = 3
rate = 0.5   # trailing comment

name = forgetting
vec = [1.0, 0.5, 2]
""")
    out = parse_config(path)
    assert out == {"engine": "kf", "count": 3, "rate": 0.5,
                   "name": "forgetting", "vec": [1.0, 0.5, 2.0]}
    assert isinstance(out["count"], int)
    assert isinstance(out["rate"], float)


def test_parse_list_separators(tmp_path):
    out = parse_config(_write(tmp_path, "b.cfg", "m = [1 2,3]\n"))
    assert out["m"] == [1.0, 2.0, 3.0]


def test_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("no equals sign\n", 1),
        ("a = 1\nb = 2\nbroken line\n", 3),
        ("a = 1\na = 2\n", 2),
        ("a =\n", 1),
        ("x = [1.0, 2.0\n", 1),
        ("x = [one, two]\n", 1),
    ]
    for text, lineno in cases:
        with pytest.raises(ParseError) as exc:
            parse_config(_write(tmp_path, "bad.cfg", text))
        assert "line %d" % lineno in str(exc.value)


# ---------------------------------------------------------------------------
# engine construction


def test_unknown_keys_are_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        build_engine(parse_config(_write(tmp_path, "c.cfg",
                                         KF_SINGLE + "kf.model.1.Z = [1.0]\n")))
    assert "kf.model.1.Z" in str(exc.value)


def test_missing_required_key(tmp_path):
    with pytest.raises(ConfigError):
        build_engine(parse_config(_write(tmp_path, "d.cfg", "engine = kf\n")))


def test_unknown_engine(tmp_path):
    with pytest.raises(ConfigError):
        build_engine(parse_config(_write(tmp_path, "e.cfg", "engine = ukf\n")))


def test_bad_wtt_kind(tmp_path):
    with pytest.raises(ConfigError):
        build_engine(parse_config(_write(
            tmp_path, "f.cfg", KF_SINGLE + "wtt.kind = annealing\n")))


def test_non_square_matrix_rejected(tmp_path):
    text = KF_SINGLE.replace("kf.model.1.A = [1.0]",
                             "kf.model.1.A = [1.0, 2.0]")
    with pytest.raises(ConfigError) as exc:
        build_engine(parse_config(_write(tmp_path, "g.cfg", text)))
    assert "square" in str(exc.value)


# ---------------------------------------------------------------------------
# observation files


def test_malformed_row_names_its_line(tmp_path):
    cfg = _write(tmp_path, "kf.cfg", KF_SINGLE)
    rows = ["%g" % (0.1 * i) for i in range(1, 11)]
    rows[6] = "not-a-number"  # row 7
    obs = _write(tmp_path, "obs.csv", "\n".join(rows) + "\n")
    out = str(tmp_path / "out.csv")
    with pytest.raises(ParseError) as exc:
        run_stream(cfg, obs, out)
    assert "line 7" in str(exc.value)


def test_wrong_column_count_names_its_line(tmp_path):
    cfg = _write(tmp_path, "kf.cfg", KF_SINGLE)
    obs = _write(tmp_path, "obs.csv", "1.0\n2.0,3.0\n")
    with pytest.raises(ParseError) as exc:
        run_stream(cfg, obs, str(tmp_path / "out.csv"))
    assert "line 2" in str(exc.value)


def test_non_finite_value_rejected(tmp_path):
    cfg = _write(tmp_path, "kf.cfg", KF_SINGLE)
    obs = _write(tmp_path, "obs.csv", "1.0\nnan\n")
    with pytest.raises(ParseError) as exc:
        run_stream(cfg, obs, str(tmp_path / "out.csv"))
    assert "line 2" in str(exc.value)


def test_bad_row_keeps_the_rows_before_it(tmp_path):
    # one pass: rows 1-2 are filtered and written before row 3 is read
    cfg = _write(tmp_path, "kf.cfg", KF_SINGLE)
    bad = _write(tmp_path, "bad.csv", "0.1\n0.2\nbad\n0.4\n")
    good = _write(tmp_path, "good.csv", "0.1\n0.2\n")
    out_bad = tmp_path / "bad_out.csv"
    out_good = tmp_path / "good_out.csv"
    with pytest.raises(ParseError) as exc:
        run_stream(cfg, bad, str(out_bad))
    assert "line 3" in str(exc.value)
    assert run_stream(cfg, good, str(out_good)) == 2
    assert out_bad.read_bytes() == out_good.read_bytes()
    assert len(out_bad.read_text().splitlines()) == 3


def test_a_row_that_is_not_utf8_keeps_the_rows_before_it(tmp_path):
    # the decoder reads ahead, so a strict one would fail before it yields
    # the rows in its buffer: every good row must be written first
    cfg = _write(tmp_path, "kf.cfg", KF_SINGLE)
    good_rows = "".join("%r\n" % (0.001 * i) for i in range(5000))
    bad = tmp_path / "bad.csv"
    bad.write_bytes(good_rows.encode() + b"\xff\n")
    good = _write(tmp_path, "good.csv", good_rows)
    out_bad = tmp_path / "bad_out.csv"
    out_good = tmp_path / "good_out.csv"
    with pytest.raises(ParseError, match="line 5001: row does not parse"):
        run_stream(cfg, str(bad), str(out_bad))
    assert run_stream(cfg, good, str(out_good)) == 5000
    assert out_bad.read_bytes() == out_good.read_bytes()


@pytest.mark.parametrize("line", [b"kf.init.cov = [1.0\xff]",
                                  b"# \xfe comment", b"\xc3 = 1"],
                         ids=["value", "comment", "key"])
def test_a_config_line_that_is_not_utf8_names_its_line(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"engine = kf\n" + line + b"\nkf.models = 1\n")
    with pytest.raises(ParseError, match="line 2: not valid UTF-8"):
        parse_config(str(path))


def test_a_config_in_utf8_reads_as_utf8(tmp_path):
    path = tmp_path / "utf8.cfg"
    path.write_bytes("# é\nname = café\n".encode())
    assert parse_config(str(path)) == {"name": "café"}


def test_empty_input_gives_empty_output(tmp_path):
    cfg = _write(tmp_path, "kf.cfg", KF_SINGLE)
    obs = _write(tmp_path, "obs.csv", "")
    out = tmp_path / "out.csv"
    assert run_stream(cfg, obs, str(out)) == 0
    assert out.read_bytes() == b""


def test_blank_lines_are_skipped(tmp_path):
    cfg = _write(tmp_path, "kf.cfg", KF_SINGLE)
    obs = _write(tmp_path, "obs.csv", "1.0\n\n2.0\n")
    assert run_stream(cfg, obs, str(tmp_path / "out.csv")) == 2


# ---------------------------------------------------------------------------
# end-to-end flows


def test_kf_single_model_stream(tmp_path):
    cfg = _write(tmp_path, "kf.cfg", KF_SINGLE)
    ys = [0.1 * i for i in range(1, 11)]
    obs = _write(tmp_path, "obs.csv", "".join("%r\n" % y for y in ys))
    out = tmp_path / "out.csv"
    assert run_stream(cfg, obs, str(out)) == 10

    lines = out.read_text().splitlines()
    assert lines[0] == "step,est_1,w_1,ev_1"
    assert len(lines) == 11
    # a single model holds weight one on every row
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert int(cells[0]) == i
        assert float(cells[2]) == 1.0

    # the estimates reproduce the library engine exactly
    model = LinearGaussianModel(A=1.0, Q=0.1, B=1.0, R=1.0)
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=1)
    for i, y in enumerate(ys):
        state, est, log_evs = kf_bdemm_step(state, [model], y,
                                            WTTConfig.identity())
        cells = lines[1 + i].split(",")
        assert float(cells[1]) == est.x_hat[0]
        assert float(cells[3]) == np.exp(log_evs[0])


def test_kf_two_model_stream_weights_sum_to_one(tmp_path):
    cfg = _write(tmp_path, "kf2.cfg", """\
engine = kf
wtt.kind = forgetting
wtt.alpha = 0.9
kf.models = 2
kf.model.1.A = [1.0]
kf.model.1.Q = [0.1]
kf.model.1.B = [1.0]
kf.model.1.R = [1.0]
kf.model.2.A = [1.0]
kf.model.2.Q = [0.1]
kf.model.2.B = [1.0]
kf.model.2.R = [100.0]
kf.init.mean = [0.0]
kf.init.cov = [1.0]
""")
    rng = np.random.default_rng(0)
    obs = _write(tmp_path, "obs.csv",
                 "".join("%r\n" % float(v) for v in rng.normal(0, 1, 40)))
    out = tmp_path / "out.csv"
    assert run_stream(cfg, obs, str(out)) == 40
    lines = out.read_text().splitlines()
    assert lines[0] == "step,est_1,w_1,w_2,ev_1,ev_2"
    last = None
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert abs(cells[2] + cells[3] - 1.0) <= 1e-9
        last = cells
    # unit-noise data: the R=1 candidate carries the weight by the end
    assert last[2] > 0.9


# the README's two-model Kalman pool, without its weight transition
README_POOL = """\
engine = kf
kf.models = 2
kf.model.1.A = [1.0]
kf.model.1.Q = [0.05]
kf.model.1.B = [1.0]
kf.model.1.R = [0.04]
kf.model.2.A = [1.0]
kf.model.2.Q = [0.05]
kf.model.2.B = [1.0]
kf.model.2.R = [4.0]
kf.init.mean = [0.0]
kf.init.cov = [1.0]
"""

# each operator's config keys and the factory-built config they stand for
WTT_SETTINGS = {
    "identity": ("", WTTConfig.identity()),
    "constant": ("wtt.constants = [0.3, 0.7]\n",
                 WTTConfig.constant([0.3, 0.7])),
    "markov": ("wtt.matrix = [0.9, 0.1, 0.2, 0.8]\n",
               WTTConfig.markov([[0.9, 0.1], [0.2, 0.8]])),
    "forgetting": ("wtt.alpha = 0.8\n", WTTConfig.forgetting(0.8)),
    "polya_urn": ("wtt.beta = [1, 3]\n", WTTConfig.polya_urn([1, 3])),
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_operator_streams_as_its_factory_config(tmp_path, kind):
    keys, config = WTT_SETTINGS[kind]
    cfg = _write(tmp_path, "wtt.cfg",
                 README_POOL + "wtt.kind = %s\n" % kind + keys)
    ys = np.random.default_rng(4).normal(0.0, 1.0, 30)
    ys[::7] += 5.0  # outliers, so the weights move both ways
    obs = _write(tmp_path, "obs.csv", "".join("%r\n" % float(y) for y in ys))
    out = tmp_path / "out.csv"
    assert run_stream(cfg, obs, str(out)) == ys.size

    pool = [LinearGaussianModel(A=1.0, Q=0.05, B=1.0, R=r)
            for r in (0.04, 4.0)]
    state = KfEnsembleState.initial(GaussianBelief(0.0, 1.0), k=2)
    for line, y in zip(out.read_text().splitlines()[1:], ys, strict=True):
        state, _, _ = kf_bdemm_step(state, pool, y, config)
        written = np.array([float(c) for c in line.split(",")[2:4]])
        assert written.tobytes() == state.model_weights.w.tobytes()


def test_smc_stream_runs_and_is_deterministic(tmp_path):
    cfg = _write(tmp_path, "smc.cfg", """\
engine = smc
smc.models = 2
smc.particles = 80
smc.seed = 5
smc.model.1.kind = toy_gaussian
smc.model.2.kind = toy_uniform
smc.init.point = [1.0]
wtt.kind = forgetting
wtt.alpha = 0.5
weight_floor = 0.02
""")
    obs = _write(tmp_path, "obs.csv", "1.1\n4.0\n45.0\n6.0\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_stream(cfg, obs, str(out_a)) == 4
    assert run_stream(cfg, obs, str(out_b)) == 4
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert len(lines) == 5
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert abs(cells[2] + cells[3] - 1.0) <= 1e-9


SMC_TOY_PAIR = """\
engine = smc
smc.models = 2
smc.particles = 40
smc.model.1.kind = toy_gaussian
smc.model.2.kind = toy_uniform
smc.init.point = [1.0]
"""


@pytest.mark.parametrize("text, counts", [
    (README_POOL, {"kf.models = 2": "kf.models = 2.0"}),
    (SMC_TOY_PAIR, {"smc.models = 2": "smc.models = 2.0",
                    "smc.particles = 40": "smc.particles = 40.0"}),
], ids=["kf", "smc"])
def test_a_whole_valued_float_count_streams_as_the_integer(tmp_path, text,
                                                           counts):
    # the model and particle counts follow the library's whole-number rule
    floats = text
    for key, value in counts.items():
        floats = floats.replace(key, value)
    assert all(value in floats for value in counts.values())
    obs = _write(tmp_path, "obs.csv", "0.1\n0.3\n-0.2\n")
    outs = []
    for i, config in enumerate((text, floats)):
        out = tmp_path / ("%d.csv" % i)
        assert run_stream(_write(tmp_path, "%d.cfg" % i, config), obs,
                          str(out)) == 3
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_smc_toy_models_share_one_transition(tmp_path):
    # one transition object for the whole pool: the step propagates once
    cfg = _write(tmp_path, "smcshared.cfg", """\
engine = smc
smc.models = 3
smc.model.1.kind = toy_gaussian
smc.model.2.kind = toy_uniform
smc.model.3.kind = toy_student_t
smc.init.point = [1.0]
""")
    pool = build_engine(parse_config(cfg)).pool
    assert all(m.sample_transition is pool[0].sample_transition for m in pool)


def test_smc_linear_gaussian_model_kind(tmp_path):
    cfg = _write(tmp_path, "smclg.cfg", """\
engine = smc
smc.models = 1
smc.particles = 60
smc.seed = 1
smc.model.1.kind = linear_gaussian
smc.model.1.A = [0.9]
smc.model.1.Q = [0.25]
smc.model.1.B = [1.0]
smc.model.1.R = [1.0]
smc.init.mean = [0.0]
smc.init.cov = [1.0]
""")
    obs = _write(tmp_path, "obs.csv", "0.5\n-0.2\n0.1\n")
    out = tmp_path / "out.csv"
    assert run_stream(cfg, obs, str(out)) == 3
    lines = out.read_text().splitlines()
    for line in lines[1:]:
        assert float(line.split(",")[2]) == 1.0


def test_smc_linear_gaussian_two_column_observations(tmp_path):
    # B takes R's row count, and the column count comes from the pool
    lines = ["engine = smc", "smc.models = 2", "smc.particles = 100",
             "smc.seed = 2", "smc.init.mean = [0.0]", "smc.init.cov = [1.0]"]
    for i, r in ((1, 0.25), (2, 25.0)):
        lines += ["smc.model.%d.kind = linear_gaussian" % i,
                  "smc.model.%d.A = [0.9]" % i, "smc.model.%d.Q = [0.1]" % i,
                  "smc.model.%d.B = [1.0, 1.0]" % i,
                  "smc.model.%d.R = [%r, 0.0, 0.0, %r]" % (i, r, r)]
    cfg = _write(tmp_path, "smc2.cfg", "\n".join(lines) + "\n")
    rng = np.random.default_rng(3)
    rows = rng.normal(0.0, 0.5, (30, 2))
    obs = _write(tmp_path, "obs.csv",
                 "".join("%r,%r\n" % (float(a), float(b)) for a, b in rows))
    out = tmp_path / "out.csv"
    assert run_stream(cfg, obs, str(out)) == 30
    lines = out.read_text().splitlines()
    assert lines[0] == "step,est_1,w_1,w_2,ev_1,ev_2"
    last = [float(c) for c in lines[-1].split(",")]
    assert abs(last[2] + last[3] - 1.0) <= 1e-9
    # noise sd 0.5 per column: the R = 0.25 candidate carries the weight
    assert last[2] > 0.9
    one_col = _write(tmp_path, "one.csv", "0.1\n")
    with pytest.raises(ParseError) as exc:
        run_stream(cfg, one_col, str(tmp_path / "o.csv"))
    assert "expected 2 column(s)" in str(exc.value)


def test_intel_stream_runs(tmp_path):
    cfg = _write(tmp_path, "intel.cfg", """\
engine = intel
intel.signal_variance = 1.0
intel.lengthscale = 2.0
intel.noise_variance = 0.01
intel.window = 8
intel.noise_factors = [1.0, 100.0]
wtt.kind = identity
""")
    ys = np.sin(0.4 * np.arange(15))
    obs = _write(tmp_path, "obs.csv", "".join("%r\n" % float(v) for v in ys))
    out = tmp_path / "out.csv"
    assert run_stream(cfg, obs, str(out)) == 15
    lines = out.read_text().splitlines()
    assert lines[0] == "step,est_1,w_1,w_2,ev_1,ev_2"
    last = [float(c) for c in lines[-1].split(",")]
    # a smooth series: the low-noise candidate dominates
    assert last[2] > 0.9
    # each row's evidences score its value under the forecasts from the
    # rows before it, not under a stale forecast
    pool = perturb_pool(GPTSModel(0.0, 1.0, 2.0, 0.01, 8), [1.0, 100.0])
    times, values = [], []
    for t, (y, line) in enumerate(zip(ys, lines[1:]), start=1):
        forecasts = [gp_predict_next(m, times, values, t) if times
                     else PredictiveGaussian(m.mean_const,
                                             m.signal_variance + m.noise_var)
                     for m in pool]
        expected = np.exp([f.logpdf(float(y)) for f in forecasts])
        assert [float(c) for c in line.split(",")[4:]] == list(expected)
        times, values = (times + [float(t)])[-8:], (values + [float(y)])[-8:]


def test_output_floats_round_trip(tmp_path):
    cfg = _write(tmp_path, "kf.cfg", KF_SINGLE)
    obs = _write(tmp_path, "obs.csv", "0.3333333333333333\n")
    out = tmp_path / "out.csv"
    run_stream(cfg, obs, str(out))
    cells = out.read_text().splitlines()[1].split(",")
    # repr emits round-trippable doubles
    val = float(cells[1])
    assert repr(val) == cells[1]
