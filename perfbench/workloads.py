"""The three workloads: make inputs, drive the library, check its outputs.

Each workload is a closed loop with one caller: one process, one step in
flight, and step t+1 consumes the state step t left.  A run repeats the
workload until its time budget is spent and reports medians over the
repetitions.  Per-step times come from one clock pair around each step
call, installed by rebinding the step function at the names its callers
use; the library's files are never touched.  Untraced times are restated
at reference machine speed (``speed.py``); the raw ones go to the details.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import bdemm.smc
import bdemm.stream
import bdemm.toy

import inputs
import reference
import spans
import speed

TOL = 1e-8  # stream outputs vs reference, scaled by max(1, |reference|)
SETUP_LAUNCHES = 4  # fresh interpreters timed before and again after passes
MIN_REPS = 3  # untraced repetitions per run, however short the budget
# Step percentiles are taken per band of positions (fifths of the stream or
# of each toy series), pooled over the run's passes, then the median over
# bands.  Step cost grows with position, so pooling by band keeps each
# percentile's sample to steps of like cost.
BANDS = 5
# The tail reported is the p90, not the p99: on a shared VM 1.4-2% of steps
# lose 0.1-1 ms to descheduling (wall minus thread CPU time), so the p99
# follows the neighbours' load.  Over six kf-stream runs the p90 spread
# 0.063 and the p99 0.177 (quartile distance / median).  The p99 is still
# in the details.
TAIL = 90

_SETUP_HEAD = """\
import sys
sys.path.insert(0, sys.argv[1])
import bdemm
import bdemm.cli
"""
# once ready, the interpreter times the reference loop on its own CPU
_SETUP_TAIL = """\
print(bdemm.__file__, flush=True)
sys.path.insert(0, sys.argv[3])
import speed
print(speed.loop_ns(), flush=True)
"""
_STREAM_SETUP = _SETUP_HEAD + """\
from bdemm.stream import build_engine, parse_config
build_engine(parse_config(sys.argv[2]))
""" + _SETUP_TAIL
_TOY_SETUP = _SETUP_HEAD + """\
from bdemm.toy import ToyConfig, toy_pool
toy_pool(ToyConfig(seed=int(sys.argv[2])))
""" + _SETUP_TAIL


class WorkloadError(RuntimeError):
    """The workload could not be measured at all."""


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def setup_seconds(code, arg, src: Path, warm_up):
    """``(raw, restated)`` times from launching a fresh interpreter until it
    reports its first step ready; restated at the speed its reference loop
    read right after.  With ``warm_up``, one extra untimed launch first
    fills the file cache."""
    raw, restated = [], []
    here = str(Path(__file__).resolve().parent)
    for i in range(SETUP_LAUNCHES + bool(warm_up)):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, "-c", code, str(src), str(arg), here],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            ready = time.perf_counter()
            loop = proc.stdout.read().strip()
        if proc.returncode != 0 or not line or not Path(line).resolve(
        ).is_relative_to(src.resolve()):
            raise WorkloadError("set-up interpreter failed (exit %s, %r)"
                                % (proc.returncode, line))
        if i or not warm_up:
            raw.append(ready - start)
            restated.append((ready - start) * speed.REF_NS / float(loop))
    return raw, restated


@contextlib.contextmanager
def rebound(original, replacement):
    """Rebind ``original`` everywhere in the package for the block."""
    where = spans.rebind_everywhere(original, replacement)
    try:
        yield
    finally:
        for mod, attr in where:
            setattr(mod, attr, original)


class StepClock:
    """One clock pair around each call: starts and durations (ns) and
    positions.  Between calls it lets the speed clock run its loop."""

    def __init__(self):
        self.speed = speed.SpeedClock()
        self.starts = []
        self.durations = []
        self.positions = []

    def wrap(self, fn, pos_arg):
        clock = time.perf_counter_ns
        tick = self.speed.tick
        starts = self.starts
        durations = self.durations
        positions = self.positions

        def timed(*args, **kwargs):
            tick()
            start = clock()
            out = fn(*args, **kwargs)
            durations.append(clock() - start)
            starts.append(start)
            positions.append(args[pos_arg])
            return out

        return timed

    def timed_call(self, fn, *args):
        """``(result, raw wall s, restated wall s)`` of one whole pass;
        reference loops run inside it are left out of both walls."""
        self.speed.tick(force=True)
        start = time.perf_counter_ns()
        out = fn(*args)
        end = time.perf_counter_ns()
        self.speed.tick(force=True)
        raw = (end - start - self.speed.loop_time_ns(start, end)) / 1e9
        return out, raw, self.speed.restated_wall(start, end)

    def stats(self) -> dict:
        """Step times in microseconds restated at reference speed, with
        their positions (rows of a stream, or steps within each toy
        series); their medians over the first and the last tenth of
        positions; and the raw percentiles."""
        raw = np.asarray(self.durations, dtype=float) / 1e3
        d = raw / self.speed.slowdown_at(self.starts)
        pos = np.asarray(self.positions)
        horizon = int(pos.max())
        tenth = max(1, horizon // 10)
        return {"samples": int(d.size), "restated_us": d, "positions": pos,
                "early": float(np.median(d[pos <= tenth])),
                "late": float(np.median(d[pos > horizon - tenth])),
                "raw_p50": float(np.percentile(raw, 50)),
                "raw_p90": float(np.percentile(raw, TAIL)),
                "raw_p99": float(np.percentile(raw, 99))}


def band_percentiles(reps, q) -> float:
    """Median over position bands of the ``q``-th percentile of the
    passes' pooled restated step times in that band."""
    d = np.concatenate([rep["restated_us"] for rep in reps])
    pos = np.concatenate([rep["positions"] for rep in reps])
    band = (pos - 1) * BANDS // int(pos.max())
    return float(np.median([np.percentile(d[band == b], q)
                            for b in range(BANDS)]))


# ---------------------------------------------------------------------------
# stream workloads


def stream_case(name, seed):
    """Input values, config text and expected (estimate, weights) rows."""
    if name == "kf-stream":
        y = inputs.kf_stream(seed)
        est, w = reference.kf_reference(y, inputs.KF_Q, inputs.KF_R,
                                        *inputs.KF_INIT, inputs.ALPHA)
        return y, inputs.kf_config(), np.column_stack([est, w])
    y = inputs.gp_stream(seed)
    noise = inputs.GP_NOISE_VAR * np.asarray(inputs.GP_FACTORS)
    est, w = reference.gp_reference(y, inputs.GP_MEAN, inputs.GP_SIGNAL_VAR,
                                    inputs.GP_LENGTHSCALE, noise,
                                    inputs.GP_WINDOW, inputs.ALPHA)
    return y, inputs.gp_config(), np.column_stack([est, w])


def check_stream_output(path, expected):
    """Rows whose estimate or weights miss the reference, and the largest
    scaled deviation.  Missing, extra or malformed rows count as failed."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return len(expected), float("inf")
    header = rows[0]
    cols = ([i for i, h in enumerate(header) if h.startswith("est_")]
            + [i for i, h in enumerate(header) if h.startswith("w_")])
    if len(cols) != expected.shape[1]:
        return len(expected), float("inf")
    got = np.array([[float(r[i]) for i in cols] for r in rows[1:]],
                   dtype=float).reshape(-1, len(cols))
    n = min(len(got), len(expected))
    if n == 0:
        return len(expected), float("inf")
    dev = np.abs(got[:n] - expected[:n]) / np.maximum(1.0,
                                                       np.abs(expected[:n]))
    failed = int(np.count_nonzero(~(dev <= TOL).all(axis=1)))
    failed += abs(len(got) - len(expected))
    return min(failed, len(expected)), float(dev.max())


def stream_rep(files, expected, tracer):
    """Filter the whole stream once through ``run_stream``."""
    clock = StepClock()
    run = bdemm.stream.run_stream
    if tracer is None:
        def wrap_step(step):
            return clock.wrap(step, 1)
    else:
        def wrap_step(step):
            return tracer.wrap("stream.engine_step", step, pos_arg=1)
        tracer.install()
        run = tracer.wrap("stream.run", run)

    build = bdemm.stream.build_engine

    def build_engine(config):
        engine = build(config)
        engine.step = wrap_step(engine.step)
        return engine

    rows = len(expected)
    rep = {"traced": tracer is not None, "steps": rows, "error": None}
    args = (files["config"], files["input"], files["output"])
    try:
        with rebound(build, build_engine):
            _time_pass(rep, clock, tracer, run, args)
    except Exception as exc:  # counted as failed rows, reported below
        rep["error"] = "%s: %s" % (type(exc).__name__, exc)
        rep["failed"] = rows
        return rep
    finally:
        if tracer is not None:
            tracer.uninstall()
    rep["failed"], rep["max_dev"] = check_stream_output(files["output"],
                                                        expected)
    if tracer is None:
        rep.update(clock.stats())
    else:
        _attach(rep, tracer)
    return rep


def _time_pass(rep, clock, tracer, run, args):
    """Run one pass; its wall time, raw and (untraced) restated, into
    ``rep``.  Returns what ``run`` returned."""
    if tracer is None:
        out, rep["wall"], rep["restated_wall"] = clock.timed_call(run, *args)
        return out
    start = time.perf_counter()
    out = run(*args)
    rep["wall"] = time.perf_counter() - start
    return out


def _attach(rep, tracer):
    rep["layers"] = spans.layer_metrics(tracer)
    tracer.kept.clear()  # the resampled weights are summarised now
    rep["tracer"] = tracer


# ---------------------------------------------------------------------------
# toy batch


def toy_rep(config, first, tracer):
    """One default ``run_toy_experiment`` batch.  ``first`` is the first
    batch's per-run MSEs, which every later batch must repeat exactly."""
    clock = StepClock()
    run = bdemm.toy.run_toy_experiment
    step = bdemm.smc.smc_bdemm_step
    if tracer is None:
        timing = rebound(step, clock.wrap(step, 3))
    else:
        timing = contextlib.nullcontext()
        tracer.install(steps_at=("smc.step", 3))
        run = tracer.wrap("toy.batch", run)
    rep = {"traced": tracer is not None, "error": None}
    try:
        with timing:
            report = _time_pass(rep, clock, tracer, run, (config,))
    except Exception as exc:  # counted as failed runs, reported below
        rep["error"] = "%s: %s" % (type(exc).__name__, exc)
        rep["failed"] = config.runs
        return rep
    finally:
        if tracer is not None:
            tracer.uninstall()
    bad = {r for r, _ in report.failures}
    for name, values in report.per_run_mse.items():
        for r, v in enumerate(values):
            if not np.isfinite(v) or (first and v != first[name][r]):
                bad.add(r)
    rep["failed"] = len(bad)
    rep["per_run_mse"] = report.per_run_mse
    rep["mse_mean"] = report.mse_mean
    if tracer is None:
        rep["steps"] = len(clock.durations)
        rep.update(clock.stats())
    else:
        rep["steps"] = len(tracer.step_pos)
        _attach(rep, tracer)
    return rep


# ---------------------------------------------------------------------------
# repetitions and summary


def _repeat(rep_fn, seconds, trace):
    """Repetitions until the budget would be overrun by one more.

    Untraced runs make at least ``MIN_REPS``; traced runs alternate an
    untraced and a traced repetition, at least one of each.
    """
    reps = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        began = time.perf_counter()
        reps.append(rep_fn(traced))
        now = time.perf_counter()
        # peak so far; the result takes the first pass's, because later
        # passes add only allocator fragmentation and how many of them fit
        # depends on the machine's speed
        reps[-1]["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        enough = len(reps) >= (2 if trace else MIN_REPS)
        if enough and now - start + (now - began) > seconds:
            return reps


def run(name, seed, seconds, trace, src: Path, work: Path):
    """Measure one workload.

    Returns ``(attempted, failed, metrics, details)``: the operations tried
    and failed, ``{metric: value}`` (end-to-end untraced, per-layer
    traced) and everything else worth recording with the result.
    """
    details = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": int(trace), "machine": machine()}

    def tracer_for(traced):
        return spans.Tracer() if traced else None

    if name == "toy-batch":
        config = bdemm.toy.ToyConfig(seed=seed)
        details["input_digest"] = inputs.digest(repr(config).encode())
        details["operation"] = "toy run (%d per batch)" % config.runs
        setup = (_TOY_SETUP, seed)
        first = {}

        def rep_fn(traced):
            rep = toy_rep(config, first, tracer_for(traced))
            if not first and "per_run_mse" in rep:
                first.update(rep["per_run_mse"])
            return rep

        ops_per_rep = config.runs
    else:
        y, config_text, expected = stream_case(name, seed)
        data = inputs.csv_bytes(y)
        files = {"config": work / "engine.cfg", "input": work / "input.csv",
                 "output": work / "output.csv"}
        files["config"].write_text(config_text)
        files["input"].write_bytes(data)
        details["input_digest"] = inputs.digest(data)
        details["operation"] = "stream row (%d per stream)" % len(y)
        setup = (_STREAM_SETUP, files["config"])

        def rep_fn(traced):
            return stream_rep(files, expected, tracer_for(traced))

        ops_per_rep = len(y)

    # set-up launches on both sides of the passes sample the machine's
    # speed at two times, not one
    before = ([], []) if trace else setup_seconds(*setup, src, warm_up=True)
    reps = _repeat(rep_fn, seconds, trace)
    if not trace:
        after = setup_seconds(*setup, src, warm_up=False)
        details["setup_s_raw"] = before[0] + after[0]
        details["setup_s_samples"] = before[1] + after[1]
    return _summarise(name, reps, ops_per_rep, trace, details, work)


def _late_early_pairs(name, reps):
    """Passes whose late and early tenths ran close together in time.

    Restating leaves part of the machine's speed changes in, so a ratio is
    steadier when its two medians were measured close in time.  A toy batch
    interleaves the tenths of its 90 series, so each batch pairs with
    itself.  A stream's last tenth is seconds after its own first tenth but
    directly before the next pass's first tenth, so consecutive passes pair.
    """
    if name == "toy-batch" or len(reps) < 2:
        return zip(reps, reps)
    return zip(reps[:-1], reps[1:])


def _summarise(name, reps, ops_per_rep, trace, details, work):
    errors = [rep["error"] for rep in reps if rep["error"]]
    ok = [rep for rep in reps if rep["error"] is None]
    plain = [rep for rep in ok if not rep["traced"]]
    traced = [rep for rep in ok if rep["traced"]]
    if not plain or (trace and not traced):
        raise WorkloadError("no repetition completed: %s" % "; ".join(errors))

    med = statistics.median
    if trace:
        metrics = {key: med([rep["layers"][key] for rep in traced])
                   for key in traced[0]["layers"]}
        # each traced repetition against the untraced one just before it
        ratios = [(u["wall"] / u["steps"]) / (t["wall"] / t["steps"])
                 for u, t in zip(reps[::2], reps[1::2])
                 if u["error"] is None and t["error"] is None]
        if not ratios:
            raise WorkloadError("no traced pass followed a clean untraced one")
        metrics["trace.overhead_frac"] = 1.0 - med(ratios)
        path = work.parent / "spans" / ("%s-seed%d.jsonl"
                                        % (name, details["seed"]))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write('{"fields": %s}\n' % json.dumps(spans.SPAN_FIELDS))
            for i, rep in enumerate(traced):
                rep.pop("tracer").write(fh, i)
        details["spans_file"] = str(path)
    else:
        metrics = {
            "setup_s": med(details["setup_s_samples"]),
            "steps_per_s": med([rep["steps"] / rep["restated_wall"]
                                for rep in plain]),
            "step_p50_us": band_percentiles(plain, 50),
            "step_p90_us": band_percentiles(plain, TAIL),
            "late_step_ratio": med([a["late"] / b["early"]
                                    for a, b in _late_early_pairs(name, plain)]),
            "peak_rss_mb": plain[0]["peak_rss_mb"],
        }
        details["step_p99_us"] = band_percentiles(plain, 99)
        details["raw"] = {
            "setup_s": med(details["setup_s_raw"]),
            "steps_per_s": med([rep["steps"] / rep["wall"] for rep in plain]),
            "step_p50_us": med([rep["raw_p50"] for rep in plain]),
            "step_p90_us": med([rep["raw_p90"] for rep in plain]),
            "step_p99_us": med([rep["raw_p99"] for rep in plain])}
    details["reps"] = [{k: v for k, v in rep.items()
                        if k not in ("per_run_mse", "mse_mean", "tracer",
                                     "restated_us", "positions")}
                       for rep in reps]
    details["errors"] = errors
    if name == "toy-batch":
        means = ok[0]["mse_mean"]
        details["mse_mean"] = means
        details["ordering"] = " < ".join(sorted(means, key=means.get))
        details["ordering_holds"] = bool(
            means["ensemble"] < means["gaussian_only"] < means["uniform_only"])
    attempted = ops_per_rep * len(reps)
    failed = sum(rep["failed"] for rep in reps)
    return attempted, failed, metrics, details
