"""The verdicts of tools/same_outputs.py on pairs of output texts, and the
streams it writes."""

import importlib.util
import io
import pathlib

import numpy as np
import pytest

from bdemm import gpts
from bdemm.stream import build_engine, parse_config, run_stream

TOOL = (pathlib.Path(__file__).resolve().parent.parent / "tools"
        / "same_outputs.py")
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


@pytest.mark.parametrize("base, head, verdict", [
    ("t,w\n1,0.5\n", "t,w\n1,0.5\n", "identical"),
    ("t,w\n1,0.5\n2,0.25\n", "t,w\n1,0.5\n2,0.3\n",
     "1 of 3 lines differ; max abs dev 0.05, max rel dev 0.167"),
    ("step,ev_1\n1,-inf\n", "step,ev_1\n1,-1e308\n",
     "1 of 2 lines differ; max abs dev inf, max rel dev inf"),
    ("run 1 failed: nan\n", "run 1 ok: nan\n",
     "1 of 1 lines differ; max abs dev 0, max rel dev 0; text differs"),
    ("a\nb\n", "a\nb\nc\n",
     "1 of 3 lines differ; 3 lines against 2; max abs dev 0, max rel dev 0"),
], ids=["same", "number", "infinity", "text", "longer"])
def test_compare_reports_how_two_outputs_differ(base, head, verdict):
    assert same_outputs.compare(base, head) == verdict


def test_numbers_inside_names_are_text():
    # the digit of a column name such as w1_avg is not a value
    assert same_outputs.NUMBER.findall("w1_avg,ev_2,3.5e-1,-inf,nan") == [
        "3.5e-1", "-inf", "nan"]


def test_boundary_ends_counts_each_stream_once_by_its_reason():
    # the report's robustness file on 20 of its 300 seeds
    text = same_outputs.boundary_ends(seeds=range(20))
    lines = text.splitlines()
    headers = [i for i, line in enumerate(lines) if line.startswith("d = ")]
    assert [lines[i].split(":")[0] for i in headers] == ["d = 1", "d = 2"]
    for start, stop in zip(headers, headers[1:] + [len(lines)]):
        ended, of = (int(w) for w in lines[start].split()[3:6:2])
        reasons = lines[start + 1:stop]
        assert of == 20
        assert ended == sum(int(r.rsplit(": ", 1)[1]) for r in reasons)
        assert reasons == sorted(reasons)
        assert all(r.startswith("  ") for r in reasons)
    # some streams do end early, so the reason lines are exercised
    assert len(lines) > len(headers)


def test_the_tool_writes_its_kalman_shapes(tmp_path):
    # besides the two workloads' streams: a d = 2, m = 1 pool under markov
    # whose weight floor binds, and a 1-D K = 10 pool under constant
    # weights, the first zero, which the collapse drops
    files = same_outputs.write_inputs(tmp_path / "inputs")
    assert sorted(files) == ["gp", "kf", "kf-d2-markov-floor",
                             "kf-k10-constant"]
    shapes = {}
    for name in ("kf-d2-markov-floor", "kf-k10-constant"):
        cfg, csv = files[name]
        engine = build_engine(parse_config(cfg))
        out = tmp_path / ("%s-stream.csv" % name)
        assert run_stream(cfg, csv, out) == same_outputs.SHAPE_ROWS
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        k = len(engine.pool)
        shapes[name] = (engine.est_dim, engine.obs_dim, k, engine.wtt.kind)
        weights = rows[:, 1 + engine.est_dim:1 + engine.est_dim + k]
        if engine.weight_floor:
            assert np.count_nonzero(weights.min(axis=1) < engine.weight_floor)
        else:
            assert (weights[:, 0] == 0.0).all() and (weights[:, 1:] > 0.0).all()
    assert shapes == {"kf-d2-markov-floor": (2, 1, 3, "markov"),
                      "kf-k10-constant": (1, 1, 10, "constant")}


def test_the_tool_writes_its_gp_shapes():
    # compared as these files, each written in the tree's own interpreter
    assert same_outputs.TOOL_FILES == {
        "kf-boundary-ends.txt": "boundary_ends",
        "gp-k2-w8-urn-floor-stream.csv": "gp_urn_floor",
        "gp-irregular.csv": "gp_irregular"}
    rows = same_outputs.SHAPE_ROWS
    # bdemm stream's output for a pool of two under polya_urn, whose
    # weight floor of 0.1 binds: such a weight reads 0.1 / 1.1
    urn = np.loadtxt(io.StringIO(same_outputs.gp_urn_floor()),
                     delimiter=",", skiprows=1)
    assert urn.shape == (rows, 1 + 1 + 2 + 2)
    assert urn[:, 0].tolist() == list(range(1, rows + 1))
    floored = urn[:, 2:4].min(axis=1) < 0.1
    assert 0 < np.count_nonzero(floored) < rows
    # intel_step on gaps uniform in [0.5, 1.5]: every row misses the solve
    # cache twice, for its score and for its forecast
    misses = gpts._pool_solve.cache_info().misses
    text = same_outputs.gp_irregular().splitlines()
    assert gpts._pool_solve.cache_info().misses - misses == 2 * rows
    assert text[0] == ("t,y,mean,var,w_1,w_2,w_3,"
                       "logev_1,logev_2,logev_3")
    irregular = np.array([[float(x) for x in line.split(",")]
                          for line in text[1:]])
    gaps = np.diff(irregular[:, 0])
    assert irregular.shape == (rows, 10)
    assert 0.5 <= gaps.min() and gaps.max() <= 1.5
