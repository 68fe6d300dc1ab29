"""Console entry point: subcommands, exit codes, reproducibility."""

import warnings

import pytest

from bdemm import cli
from bdemm.cli import _build_parser, main
from bdemm.errors import ConfigError, NonFiniteBeliefError
from bdemm.stream import build_engine, parse_config
from bdemm.toy import ToyConfig

KF_CFG = """\
engine = kf
kf.models = 1
kf.model.1.A = [1.0]
kf.model.1.Q = [0.1]
kf.model.1.B = [1.0]
kf.model.1.R = [1.0]
kf.init.mean = [0.0]
kf.init.cov = [1.0]
"""


def test_toy_subcommand_writes_reports(tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(["toy", "--runs", "2", "--particles", "40", "--out", str(out)])
    assert rc == 0
    for name in ("summary.txt", "runs.csv", "weights.csv"):
        assert (out / name).is_file()
    stdout = capsys.readouterr().out
    assert "ensemble" in stdout
    assert "wrote:" in stdout


def test_toy_defaults_are_the_config_defaults():
    args = _build_parser().parse_args(["toy", "--out", "report"])
    defaults = ToyConfig()
    assert (args.runs, args.particles, args.seed, args.alpha, args.wtt) == (
        defaults.runs, defaults.particles, defaults.seed,
        defaults.forgetting_alpha, defaults.wtt_kind)


def test_toy_same_seed_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["toy", "--runs", "2", "--particles", "40",
                     "--seed", "3", "--out", str(out)]) == 0
    for name in ("summary.txt", "runs.csv", "weights.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_toy_seed_matters(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["toy", "--runs", "1", "--particles", "40", "--seed", "0", "--out", str(a)])
    main(["toy", "--runs", "1", "--particles", "40", "--seed", "1", "--out", str(b)])
    assert (a / "runs.csv").read_bytes() != (b / "runs.csv").read_bytes()


def test_toy_rejects_bad_parameters(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    cases = [
        ["--runs", "0", "--out", str(tmp_path / "x")],
        ["--alpha", "1.5", "--runs", "1", "--out", str(tmp_path / "y")],
        ["--seed", "-1", "--runs", "1", "--out", str(tmp_path / "z")],
        ["--runs", "1", "--out", str(afile / "sub")],
    ]
    for args in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["toy"] + args)
        assert rc == 1
        captured = capsys.readouterr()
        assert "bdemm toy:" in captured.err
        assert "wrote:" not in captured.out


@pytest.mark.parametrize("target, error, code", [
    ("run_toy_experiment", NonFiniteBeliefError("overflow"), 2),
    ("write_report", OSError("disk full"), 1),
], ids=["library-error-in-batch", "os-error-writing"])
def test_toy_maps_errors_of_the_batch_to_exit_codes(tmp_path, capsys,
                                                     monkeypatch, target,
                                                     error, code):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, target, fail)
    rc = main(["toy", "--runs", "1", "--particles", "10",
               "--out", str(tmp_path / "out")])
    assert rc == code
    captured = capsys.readouterr()
    assert captured.err == "bdemm toy: %s\n" % error
    assert "wrote:" not in captured.out


def test_stream_subcommand(tmp_path, capsys):
    cfg = tmp_path / "kf.cfg"
    cfg.write_text(KF_CFG)
    obs = tmp_path / "obs.csv"
    obs.write_text("0.1\n0.2\n0.3\n")
    out = tmp_path / "out.csv"
    rc = main(["stream", "--config", str(cfg), "--input", str(obs),
               "--out", str(out)])
    assert rc == 0
    assert "wrote 3 row(s)" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "step,est_1,w_1,ev_1"


def test_stream_gp_overflowing_rows_exit_zero(tmp_path, capsys):
    # squared residuals overflow: the step falls back as uninformative
    cfg = tmp_path / "intel.cfg"
    cfg.write_text("engine = intel\nwtt.kind = forgetting\nwtt.alpha = 0.8\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("0.1\n0.2\n1e200\n0.3\n-1e300\n0.1\n")
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["stream", "--config", str(cfg), "--input", str(obs),
                   "--out", str(out)])
    assert rc == 0
    assert "wrote 6 row(s)" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 7


@pytest.mark.parametrize("config, rows, written", [
    ("intel.window = 2\nintel.lengthscale = 100\nintel.noise_variance = 1e-6\n",
     "1.0\n-1e308\n1e308\n1.0\n", 1),
    ("intel.mean = 1e308\n", "1e308\n-1e308\n0.0\n", 1),
    ("intel.signal_variance = 1e308\nintel.noise_variance = 1e308\n"
     "intel.noise_factors = [1.0]\n", "0.1\n0.2\n", 0),
    ("intel.lengthscale = 100\n", "1e307\n1e307\n", 0),
], ids=["window-forecast", "residual", "prior", "fused"])
def test_stream_gp_forecast_overflow_exits_two(tmp_path, capsys, config,
                                               rows, written):
    # a forecast that overflows is a numeric failure, not a traceback
    cfg = tmp_path / "intel.cfg"
    cfg.write_text("engine = intel\n" + config)
    obs = tmp_path / "obs.csv"
    obs.write_text(rows)
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["stream", "--config", str(cfg), "--input", str(obs),
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("bdemm stream: numeric failure:")
    # the header and the rows before the failing one
    assert len(out.read_text().splitlines()) == written + 1


def test_stream_gp_forecast_with_a_double_exits_zero(tmp_path, capsys):
    # row 4's forecast mu + a . (v - mu) fits a double, so the row is scored
    cfg = tmp_path / "intel.cfg"
    cfg.write_text("engine = intel\nintel.window = 4\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("1e308\n1e308\n1e308\n1.0\n")
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["stream", "--config", str(cfg), "--input", str(obs),
                   "--out", str(out)])
    assert rc == 0
    assert "wrote 4 row(s)" in capsys.readouterr().out
    header, *rows = out.read_text().splitlines()
    assert len(rows) == 4
    est = float(rows[3].split(",")[header.split(",").index("est_1")])
    assert est == pytest.approx(-3.09e307, rel=1e-2)


def test_stream_kf_prediction_overflow_exits_two(tmp_path, capsys):
    # A cov A^T = 1e309 has no double
    config = (KF_CFG.replace("A = [1.0]", "A = [10.0]")
              .replace("R = [1.0]", "R = [1e300]")
              .replace("cov = [1.0]", "cov = [1e307]"))
    rc, out = _stream_with_warnings_as_errors(tmp_path, config, "0.0\n")
    assert rc == 2
    assert capsys.readouterr().err.startswith("bdemm stream: numeric failure:")
    assert out.read_text().splitlines() == ["step,est_1,w_1,ev_1"]


def test_stream_kf_posterior_overflow_exits_zero(tmp_path, capsys):
    # the gain (~500) times the residual 1e306 has no double, and neither
    # has the quadratic form: the model keeps its prediction for that row
    config = (KF_CFG.replace("Q = [0.1]", "Q = [1.0]")
              .replace("B = [1.0]", "B = [0.001]")
              .replace("R = [1.0]", "R = [1e-6]"))
    rc, out = _stream_with_warnings_as_errors(tmp_path, config,
                                              "0\n1e306\n0\n")
    assert rc == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 4
    assert rows[2] == "2,0.0,1.0,0.0"


KF_README = """\
engine = kf
wtt.kind = forgetting
wtt.alpha = 0.8
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

# two candidates that move the belief to +-1.5e154 and explain y = 0 equally
# well: the collapsed variance, ~2.25e308, has no double
KF_SPLIT = """\
engine = kf
kf.models = 2
kf.model.1.A = [1.0]
kf.model.1.Q = [1.0]
kf.model.1.B = [1.0]
kf.model.1.R = [1e306]
kf.model.2.A = [-1.0]
kf.model.2.Q = [1.0]
kf.model.2.B = [1.0]
kf.model.2.R = [1e306]
kf.init.mean = [1.5e154]
kf.init.cov = [1.0]
"""


def _stream_with_warnings_as_errors(tmp_path, config, rows):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(config)
    obs = tmp_path / "obs.csv"
    obs.write_text(rows)
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["stream", "--config", str(cfg), "--input", str(obs),
                   "--out", str(out)])
    return rc, out


def test_stream_kf_far_off_rows_exit_zero(tmp_path, capsys):
    # the mixture collapse centres the means before squaring them
    for rows in ("0.1\n1.5e154\n0.2\n",
                 "0.1\n1e155\n0.2\n1.3e155\n-1.6e155\n"):
        rc, out = _stream_with_warnings_as_errors(tmp_path, KF_README, rows)
        assert rc == 0
        assert len(out.read_text().splitlines()) == rows.count("\n") + 1


def test_stream_kf_collapse_overflow_exits_two(tmp_path, capsys):
    rc, out = _stream_with_warnings_as_errors(tmp_path, KF_SPLIT, "0.0\n")
    assert rc == 2
    assert capsys.readouterr().err.startswith("bdemm stream: numeric failure:")
    assert out.read_text().splitlines() == ["step,est_1,w_1,w_2,ev_1,ev_2"]


def test_stream_smc_transition_overflow_exits_two(tmp_path, capsys):
    # row 1 moves the cloud to about 1e200, row 2 to about 1e400: no double
    config = """\
engine = smc
smc.models = 1
smc.particles = 20
smc.model.1.kind = linear_gaussian
smc.model.1.A = [1e200]
smc.model.1.Q = [1.0]
smc.model.1.B = [1.0]
smc.model.1.R = [1.0]
smc.init.mean = [0.0]
smc.init.cov = [1.0]
"""
    rc, out = _stream_with_warnings_as_errors(tmp_path, config, "0.0\n0.0\n")
    assert rc == 2
    assert capsys.readouterr().err.startswith("bdemm stream: numeric failure:")
    assert len(out.read_text().splitlines()) == 2  # the header and row 1


def test_stream_config_errors_exit_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("engine = nonsense\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("0.1\n")
    rc = main(["stream", "--config", str(cfg), "--input", str(obs),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "bdemm stream" in capsys.readouterr().err


def test_stream_missing_file_exits_one(tmp_path):
    cfg = tmp_path / "kf.cfg"
    cfg.write_text(KF_CFG)
    rc = main(["stream", "--config", str(cfg),
               "--input", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["toy"])  # --out is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["unknown-subcommand"])
    assert exc.value.code == 1


KF_PAIR = KF_CFG.replace("kf.models = 1", "kf.models = 2") + """\
kf.model.2.A = [1.0]
kf.model.2.Q = [0.1]
kf.model.2.B = [1.0]
kf.model.2.R = [100.0]
"""

SMC_TOY = """\
engine = smc
smc.models = 2
smc.model.1.kind = toy_gaussian
smc.model.2.kind = toy_uniform
smc.init.point = [1.0]
"""

SMC_LINEAR = """\
engine = smc
smc.models = 1
smc.model.1.kind = linear_gaussian
smc.model.1.A = [1.0]
smc.model.1.Q = [-1.0]
smc.model.1.B = [1.0]
smc.model.1.R = [1.0]
smc.init.mean = [0.0]
smc.init.cov = [1.0]
"""

INTEL_CFG = "engine = intel\n"

KF_WIDE = """\
kf.model.2.A = [1.0, 0.0, 0.0, 1.0]
kf.model.2.Q = [0.1, 0.0, 0.0, 0.1]
kf.model.2.B = [1.0, 0.0]
kf.model.2.R = [100.0]
"""

SMC_LINEAR_OK = SMC_LINEAR.replace("Q = [-1.0]", "Q = [1.0]")


@pytest.mark.parametrize("text", [
    KF_PAIR + "weight_floor = 0.6\n",
    KF_PAIR + "weight_floor = -1\n",
    KF_PAIR + "wtt.kind = constant\nwtt.constants = [0.2, 0.3, 0.5]\n",
    KF_PAIR + "wtt.kind = polya_urn\nwtt.beta = [1e308, 1e308]\n",
    KF_PAIR + "wtt.kind = polya_urn\nwtt.beta = [inf, 1]\n",
    KF_PAIR + "kf.init.weights = [1.0]\n",
    KF_PAIR + "kf.init.weights = []\n",
    SMC_TOY + "smc.particles = 2.5\n",
    SMC_TOY + "smc.particles = 0\n",
    SMC_TOY + "smc.seed = -1\n",
    SMC_TOY + "smc.seed = abc\n",
    SMC_TOY + "smc.resampling = bogus\n",
    SMC_TOY + "smc.gamma_shape = -1\n",
    SMC_TOY + "smc.gamma_scale = inf\n",
    SMC_TOY + "smc.gamma_shape = 1e308\n",
    SMC_TOY + "smc.gamma_shape = 1.0\nsmc.gamma_scale = 1e308\n",
    SMC_TOY + "smc.model.1.var = -1\n",
    SMC_LINEAR,
    INTEL_CFG + "intel.window = abc\n",
    INTEL_CFG + "intel.window = 0\n",
    INTEL_CFG + "intel.signal_variance = -1\n",
    INTEL_CFG + "intel.lengthscale = nan\n",
    INTEL_CFG + "intel.noise_variance = 1e307\n",
    INTEL_CFG + "intel.mean = inf\n",
    KF_CFG.replace("kf.models = 1", "kf.models = 2") + KF_WIDE,
    SMC_TOY.replace("smc.init.point = [1.0]", "smc.init.point = [1.0, 2.0]"),
    SMC_LINEAR_OK.replace("mean = [0.0]", "mean = [0.0, 0.0]")
    .replace("cov = [1.0]", "cov = [1.0, 0.0, 0.0, 1.0]"),
    SMC_LINEAR_OK.replace("B = [1.0]", "B = [1.0, 2.0]"),
    SMC_LINEAR_OK.replace("mean = [0.0]", "mean = [0.0, 0.0]")
    .replace("cov = [1.0]", "cov = [1.0, 5.0, 0.0, 1.0]")
    .replace("A = [1.0]", "A = [1.0, 0.0, 0.0, 1.0]")
    .replace("Q = [1.0]", "Q = [1.0, 0.0, 0.0, 1.0]")
    .replace("B = [1.0]", "B = [1.0, 0.0]"),
    SMC_LINEAR_OK.replace("mean = [0.0]", "mean = [0.0, 0.0]"),
    SMC_LINEAR_OK.replace("mean = [0.0]", "mean = [0.0, 0.0]")
    .replace("cov = [1.0]", "cov = [1.0, 0.0, 0.0, 1.0]")
    .replace("A = [1.0]", "A = [1.0, 0.0, 0.0, 1.0]")
    .replace("Q = [1.0]", "Q = [1.0, 1.0, 1.0, 1.0]")
    .replace("B = [1.0]", "B = [1.0, 0.0]"),
    KF_CFG.replace("R = [1.0]", "R = []"),
], ids=["floor-above-1/K", "floor-negative", "wtt-width",
        "urn-total-overflows", "urn-count-infinite", "init-weights-width",
        "init-weights-empty",
        "particles-fraction", "particles-zero", "seed-negative", "seed-word",
        "resampling-unknown", "gamma-shape-negative", "gamma-scale-infinite",
        "gamma-mean-overflows", "gamma-draws-overflow", "noise-var-negative",
        "linear-gaussian-Q-negative", "window-word", "window-zero",
        "signal-variance-negative", "lengthscale-nan",
        "noise-variance-scaled-to-inf", "mean-infinite",
        "kf-candidate-dims-differ",
        "smc-init-point-dim", "smc-init-mean-dim", "linear-gaussian-B-vs-A",
        "smc-init-cov-asymmetric", "smc-init-mean-vs-cov",
        "linear-gaussian-Q-singular", "kf-R-empty"])
def test_stream_bad_config_values_exit_one_before_any_row(tmp_path, capsys,
                                                          text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError):
        build_engine(parse_config(str(cfg)))
    obs = tmp_path / "obs.csv"
    obs.write_text("0.1\n0.2\n")
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["stream", "--config", str(cfg), "--input", str(obs),
                   "--out", str(out)])
    assert rc == 1
    assert "bdemm stream:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (KF_CFG.replace("A = [1.0]", "A = 1.0"), "must be a bracketed list"),
    (KF_CFG.replace("R = [1.0]", "R = [1.0, 0.0, 0.0, 1.0]")
     .replace("B = [1.0]", "B = [1.0, 2.0, 3.0]"), "does not fit the obs dim"),
    (KF_CFG.replace("mean = [0.0]", "mean = [0.0, 0.0]")
     .replace("cov = [1.0]", "cov = [1.0, 0.0, 0.0, 1.0]"),
     "'kf.init.mean' does not match the state dim"),
    (SMC_TOY.replace("toy_uniform", "toy_cauchy"),
     "unknown key 'smc.model.2.kind' value 'toy_cauchy'"),
    (SMC_LINEAR_OK.replace("cov = [1.0]", "cov = [0.0]"),
     "'smc.init.cov' must be positive definite"),
], ids=["list-key-scalar", "B-vs-R", "kf-init-mean-dim", "smc-kind-unknown",
        "smc-init-cov-singular"])
def test_stream_config_layer_rules_exit_one_with_their_message(tmp_path,
                                                               capsys, text,
                                                               message):
    # the rules the config layer states itself: those the library cannot see
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    obs = tmp_path / "obs.csv"
    obs.write_text("0.1\n")
    out = tmp_path / "o.csv"
    rc = main(["stream", "--config", str(cfg), "--input", str(obs),
               "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, bad", [
    ("kf.model.1.A = [1.0]", "kf.model.1.A = [nan]"),
    ("kf.model.1.B = [1.0]", "kf.model.1.B = [inf]"),
], ids=["A-nan", "B-inf"])
def test_stream_kf_non_finite_map_exits_one_before_any_row(tmp_path, capsys,
                                                            line, bad):
    config = KF_CFG.replace(line, bad)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    with pytest.raises(ConfigError):
        build_engine(parse_config(str(cfg)))
    rc, out = _stream_with_warnings_as_errors(tmp_path, config, "0.1\n0.2\n")
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_stream_smc_resampling_is_an_unknown_key(tmp_path, capsys):
    # multinomial is the only resampler, so no key selects one
    config = SMC_TOY + "smc.resampling = multinomial\n"
    rc, out = _stream_with_warnings_as_errors(tmp_path, config, "0.1\n")
    assert rc == 1
    assert "unknown key 'smc.resampling'" in capsys.readouterr().err
    assert not out.exists()
