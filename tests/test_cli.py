"""Console entry point: subcommands, exit codes, reproducibility."""

import warnings

import pytest

from bdemm.cli import main
from bdemm.errors import ConfigError
from bdemm.stream import build_engine, parse_config

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
    ("intel.window = 4\n", "1e308\n1e308\n1e308\n1.0\n", 3),
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


def test_stream_kf_prediction_overflow_exits_two(tmp_path, capsys):
    # A cov A^T = 1e309 has no double
    config = (KF_CFG.replace("A = [1.0]", "A = [10.0]")
              .replace("R = [1.0]", "R = [1e300]")
              .replace("cov = [1.0]", "cov = [1e307]"))
    rc, out = _stream_with_warnings_as_errors(tmp_path, config, "0.0\n")
    assert rc == 2
    assert capsys.readouterr().err.startswith("bdemm stream: numeric failure:")
    assert out.read_text().splitlines() == ["step,est_1,w_1,ev_1"]


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
    KF_PAIR + "kf.init.weights = [1.0]\n",
    SMC_TOY + "smc.particles = 2.5\n",
    SMC_TOY + "smc.particles = 0\n",
    SMC_TOY + "smc.seed = -1\n",
    SMC_TOY + "smc.seed = abc\n",
    SMC_TOY + "smc.resampling = bogus\n",
    SMC_TOY + "smc.gamma_shape = -1\n",
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
], ids=["floor-above-1/K", "floor-negative", "wtt-width", "init-weights-width",
        "particles-fraction", "particles-zero", "seed-negative", "seed-word",
        "resampling-unknown", "gamma-shape-negative", "noise-var-negative",
        "linear-gaussian-Q-negative", "window-word", "window-zero",
        "signal-variance-negative", "lengthscale-nan",
        "noise-variance-scaled-to-inf", "mean-infinite",
        "kf-candidate-dims-differ",
        "smc-init-point-dim", "smc-init-mean-dim", "linear-gaussian-B-vs-A"])
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
