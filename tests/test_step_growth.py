"""Per-step cost does not grow with stream length.

Counts only, never times: the calls one engine step makes, at Python and
at C level, are the same deep into a stream as early in it, and the peak
memory ``tracemalloc`` sees over a whole ``run_stream`` is the same for a
stream ten times longer.  Both run on the inputs of the benchmark's kf-stream
and gp-stream workloads.
"""

import collections
import importlib.util
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from bdemm import gpts, kalman, stream

ROOT = pathlib.Path(__file__).resolve().parent.parent
# tracemalloc's peak of two runs that differ only in length
PEAK_SLACK = 4096


def _inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = _inputs()
WORKLOADS = {"kf": (INPUTS.kf_config, INPUTS.kf_stream),
             "gp": (INPUTS.gp_config, INPUTS.gp_stream)}


def _calls(call):
    """Python-level and C-level calls ``call()`` makes."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        counts[event] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_a_step_makes_the_same_calls_at_row_100_and_row_4000(
        workload, tmp_path):
    config, series = WORKLOADS[workload]
    (tmp_path / "stream.cfg").write_text(config())
    engine = stream.build_engine(stream.parse_config(tmp_path / "stream.cfg"))
    counted = {}
    for t, y in enumerate(series(1, 4000), start=1):
        y = np.array([y])
        if t in (100, 4000):
            counted[t] = _calls(lambda: engine.step(y, t))
        else:
            engine.step(y, t)
    assert counted[100] == counted[4000]
    assert min(counted[100]) > 0


def _peak(config, rows, tmp_path):
    """tracemalloc's peak over ``run_stream`` of ``rows``, from empty
    caches."""
    for cache in (gpts._pool_solve, kalman._stacked):
        cache.cache_clear()
    (tmp_path / "stream.cfg").write_text(config)
    (tmp_path / "obs.csv").write_bytes(INPUTS.csv_bytes(rows))
    tracemalloc.start()
    try:
        written = stream.run_stream(tmp_path / "stream.cfg",
                                    tmp_path / "obs.csv", tmp_path / "out.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == len(rows)
    return peak


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_a_stream_ten_times_longer_peaks_at_the_same_memory(
        workload, tmp_path):
    config, series = WORKLOADS[workload]
    short = _peak(config(), series(1, 1000), tmp_path)
    long = _peak(config(), series(1, 10000), tmp_path)
    assert abs(long - short) <= PEAK_SLACK
