"""Tests of the benchmark itself: inputs, references, spans and counts.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import bdemm.stream  # noqa: E402
import bdemm.toy  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("generate", [inputs.kf_stream, inputs.gp_stream])
def test_generators_are_deterministic_per_seed(generate):
    first = inputs.csv_bytes(generate(7, 500))
    assert inputs.csv_bytes(generate(7, 500)) == first
    assert inputs.csv_bytes(generate(8, 500)) != first
    assert inputs.digest(first) == inputs.digest(inputs.csv_bytes(generate(7, 500)))


def _stream_files(tmp_path, name, rows):
    y, config_text, expected = workloads.stream_case(name, 3)
    y, expected = y[:rows], expected[:rows]
    files = {"config": tmp_path / "engine.cfg", "input": tmp_path / "in.csv",
             "output": tmp_path / "out.csv"}
    files["config"].write_text(config_text)
    files["input"].write_bytes(inputs.csv_bytes(y))
    return files, expected


@pytest.mark.parametrize("name,rows", [("kf-stream", 400), ("gp-stream", 150)])
def test_reference_agrees_with_library(tmp_path, name, rows):
    files, expected = _stream_files(tmp_path, name, rows)
    bdemm.stream.run_stream(files["config"], files["input"], files["output"])
    failed, max_dev = workloads.check_stream_output(files["output"], expected)
    assert failed == 0
    assert max_dev < workloads.TOL


def test_output_check_counts_a_wrong_row(tmp_path):
    files, expected = _stream_files(tmp_path, "kf-stream", 100)
    bdemm.stream.run_stream(files["config"], files["input"], files["output"])
    wrong = expected.copy()
    wrong[40, 1] += 1e-6
    assert workloads.check_stream_output(files["output"], wrong)[0] == 1
    assert workloads.check_stream_output(files["output"], expected[:90])[0] == 10
    assert workloads.check_stream_output(files["output"],
                                         np.vstack([expected] * 2))[0] == 100


def test_restated_wall_divides_by_the_smoothed_slowdown():
    clock = speed.SpeedClock()
    ref = speed.REF_NS
    # five loops 10 ms apart read 2x slow; one is hit by an interrupt
    lengths = [2 * ref, 2 * ref, 10 * ref, 2 * ref, 2 * ref]
    clock.samples = [(i * 10**7, i * 10**7 + n) for i, n in enumerate(lengths)]
    assert clock.slowdown_at([0, 2 * 10**7, 10**9]) == pytest.approx([2.0] * 3)
    end = 4 * 10**7 + 2 * ref + 10**6
    assert clock.loop_time_ns(0, end) == sum(lengths)
    program = end - sum(lengths)
    assert clock.restated_wall(0, end) == pytest.approx(program / 2.0 / 1e9)


def test_step_clock_times_the_reference_loop_between_steps(monkeypatch):
    monkeypatch.setattr(speed, "EVERY_NS", 0)  # a loop before every step
    clock = workloads.StepClock()
    step = clock.wrap(lambda y, t: _busy(2000), 1)
    _, raw, restated = clock.timed_call(
        lambda: [step(None, t) for t in range(1, 201)])
    assert len(clock.durations) == 200 and clock.positions[-1] == 200
    samples = clock.speed.samples
    assert len(samples) == 202  # and one before, one after
    loops = clock.speed.loop_time_ns(samples[1][0], samples[-2][1]) / 1e9
    assert sum(clock.durations) / 1e9 < raw < 1.5 * sum(clock.durations) / 1e9
    assert loops > 0
    assert restated > 0
    stats = clock.stats()
    assert stats["samples"] == 200 and stats["restated_us"].shape == (200,)
    assert stats["late"] > 0 and stats["early"] > 0
    # 200 positions in five bands of 40: the band medians' median is the
    # median of the middle band
    stats["restated_us"] = np.arange(1.0, 201.0)
    assert workloads.band_percentiles([stats], 50) == 100.5


def _busy(n):
    return sum(i * i for i in range(n))


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", _busy)

    def middle(n):
        return leaf(n) + _busy(n) + leaf(n)

    mid = tracer.wrap("middle", middle)

    def root(n):
        return mid(n) + _busy(n) + mid(n)

    tracer.wrap("root", root)(2000)
    recs = tracer.records
    selfs = spans.self_times(recs)
    (root_i,) = [i for i, r in enumerate(recs) if r[0] == "root"]
    assert sum(selfs) == recs[root_i][2] - recs[root_i][1]
    assert all(s >= 0 for s in selfs)
    for name, _, _, parent, _, _ in recs:
        expected_parent = {"root": None, "middle": "root", "leaf": "middle"}[name]
        assert (recs[parent][0] if parent >= 0 else None) == expected_parent


def test_uninstall_restores_every_name():
    before = (bdemm.stream.kf_bdemm_step, bdemm.toy.smc_bdemm_step,
              bdemm.core.WeightHistory.append, bdemm.gpts.cho_factor)
    tracer = spans.Tracer()
    tracer.install()
    assert bdemm.stream.kf_bdemm_step is not before[0]
    tracer.uninstall()
    assert (bdemm.stream.kf_bdemm_step, bdemm.toy.smc_bdemm_step,
            bdemm.core.WeightHistory.append, bdemm.gpts.cho_factor) == before


def test_gp_trace_counts_nine_forecasts_on_every_row_after_the_first(tmp_path):
    files, expected = _stream_files(tmp_path, "gp-stream", 60)
    tracer = spans.Tracer()
    rep = workloads.stream_rep(files, expected, tracer)
    assert rep["error"] is None and rep["failed"] == 0
    per_step = np.zeros(len(tracer.step_pos), dtype=int)
    for name, _, _, _, step, _ in tracer.records:
        if name == "gpts.predict":
            per_step[step] += 1
    assert tracer.step_pos[0] == 1 and per_step[0] == 3
    assert (per_step[1:] == 9).all()
    assert rep["layers"]["gpts.predict_calls_per_step"] == 9.0
    assert rep["layers"]["wtt.apply_calls_per_step"] == 2.0
    assert rep["layers"]["kalman.step_us"] == 0.0


def test_kf_trace_counts_two_predicts_per_step(tmp_path):
    files, expected = _stream_files(tmp_path, "kf-stream", 60)
    rep = workloads.stream_rep(files, expected, spans.Tracer())
    assert rep["failed"] == 0
    assert rep["layers"]["kalman.predict_calls_per_step"] == 2.0
    assert rep["layers"]["wtt.apply_calls_per_step"] == 1.0


def test_toy_trace_propagates_once_per_step():
    config = bdemm.toy.ToyConfig(runs=2, horizon=20, particles=50, seed=4)
    tracer = spans.Tracer()
    rep = workloads.toy_rep(config, {}, tracer)
    assert rep["error"] is None and rep["failed"] == 0
    assert rep["steps"] == 2 * 3 * 20
    assert rep["layers"]["smc.propagate_calls_per_step"] == 1.0
    assert 0.0 < rep["layers"]["smc.ess_frac"] <= 1.0
