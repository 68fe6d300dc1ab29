"""No engine step runs through numpy's Python-level wrappers.

A step reduces, sorts and searches with ufunc and C-level ndarray methods,
and its error scope builds and enters no ``np.errstate`` object per call.
A profiler installed around each step call only counts the frames entered
in ``numpy/_core/_methods.py`` (``a.sum()``, ``a.max()`` and friends) and
``numpy/_core/fromnumeric.py`` (``np.sum``, ``np.argsort``, ``np.ndim``
...), and ``errstate.__init__`` and ``__enter__``, over the inputs of the
benchmark's three workloads.
"""

import collections
import importlib.util
import pathlib
import sys

import numpy as np
import numpy._core._methods
import numpy._core.fromnumeric

from bdemm import gpts, stream, toy

ROOT = pathlib.Path(__file__).resolve().parent.parent
WRAPPER_FILES = {numpy._core._methods.__file__,
                 numpy._core.fromnumeric.__file__}
ERRSTATE_CODES = {np.errstate.__init__.__code__,
                  np.errstate.__enter__.__code__}


def _inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _counted(step, per_call, errstate=True):
    """``step``, appending to ``per_call`` a count of the wrapper frames
    each call enters, by function name; ``errstate=False`` leaves out the
    errstate frames, which ``numpy.linalg`` enters on every call."""
    codes = ERRSTATE_CODES if errstate else set()

    def counted(*args, **kwargs):
        counts = collections.Counter()

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and (code.co_filename in WRAPPER_FILES
                                    or code in codes):
                counts[code.co_name] += 1

        sys.setprofile(profile)
        try:
            return step(*args, **kwargs)
        finally:
            sys.setprofile(None)
            per_call.append(counts)
    return counted


def test_a_toy_batch_step_enters_no_numpy_wrapper(monkeypatch):
    per_step = []
    monkeypatch.setattr(toy, "smc_bdemm_step",
                        _counted(toy.smc_bdemm_step, per_step))
    toy.run_toy_experiment(toy.ToyConfig(runs=2))
    # three filters, two runs, one step per row
    assert len(per_step) == 3 * 2 * toy.ToyConfig().horizon
    assert sum(per_step, collections.Counter()) == {}


def _stream_steps(monkeypatch, tmp_path, step_name, config, series,
                  errstate=True):
    per_step = []
    monkeypatch.setattr(stream, step_name, _counted(
        getattr(stream, step_name), per_step, errstate))
    (tmp_path / "stream.cfg").write_text(config)
    (tmp_path / "obs.csv").write_bytes(_inputs().csv_bytes(series))
    rows = stream.run_stream(tmp_path / "stream.cfg", tmp_path / "obs.csv",
                             tmp_path / "out.csv")
    assert rows == len(per_step) == series.size
    return per_step


def test_a_kalman_stream_step_enters_no_numpy_wrapper(monkeypatch, tmp_path):
    inputs = _inputs()
    per_step = _stream_steps(monkeypatch, tmp_path, "kf_bdemm_step",
                             inputs.kf_config(), inputs.kf_stream(1, 300))
    assert sum(per_step[1:], collections.Counter()) == {}


def test_a_full_window_gp_step_enters_no_numpy_wrapper(monkeypatch, tmp_path):
    # while the window fills, each forecast solves a new set of relative
    # times, and the solve's checks may use the wrappers; once it is full,
    # the unit-spaced rows repeat one set and a cached solve serves them
    inputs = _inputs()
    per_step = _stream_steps(monkeypatch, tmp_path, "intel_step",
                             inputs.gp_config(), inputs.gp_stream(1, 120))
    assert sum(per_step[inputs.GP_WINDOW:], collections.Counter()) == {}


def test_a_gp_step_enters_no_numpy_wrapper_while_its_window_fills(
        monkeypatch, tmp_path):
    # each forecast of rows 1-32 solves a new set of relative times, so the
    # solve itself, the path a cache miss takes, must enter no wrapper
    # either; its factorizations and solves enter numpy.linalg's errstate
    inputs = _inputs()
    per_step = _stream_steps(monkeypatch, tmp_path, "intel_step",
                             inputs.gp_config(),
                             inputs.gp_stream(1, inputs.GP_WINDOW), False)
    assert gpts._pool_solve.cache_info().misses >= inputs.GP_WINDOW
    assert sum(per_step, collections.Counter()) == {}
