"""In-memory span recorder that wraps library functions from the outside.

A span is one call of a wrapped function: its name, start and end
(``perf_counter_ns``), the index of the span that was open when it began
(its parent, -1 at the root), the step it belongs to, and the name of the
exception it raised, if any.  Wrapping rebinds a function at every module
global of the package that refers to it, which is the name its callers
import it by, so the library itself is never edited.  Nothing is written
until the caller asks for it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# (module that defines it, attribute, span name); rebound at every name in
# the ``bdemm`` package that refers to the same object
FUNCTION_SPANS = (
    ("bdemm.kalman", "kf_bdemm_step", "kalman.step"),
    ("bdemm.kalman", "kf_predict", "kalman.predict"),
    ("bdemm.smc", "smc_bdemm_step", "smc.step"),
    ("bdemm.smc", "propagate", "smc.propagate"),
    ("bdemm.smc", "reweight", "smc.reweight"),
    ("bdemm.smc", "mc_log_evidence", "smc.evidence"),
    ("bdemm.smc", "resample", "smc.resample"),
    ("bdemm.gpts", "intel_step", "gpts.step"),
    ("bdemm.gpts", "gp_predict_next", "gpts.predict"),
    ("bdemm.gpts", "poe_combine", "gpts.poe"),
    ("bdemm.core", "update_model_weights_log", "core.weight_update"),
    ("bdemm.core", "collapse_mixture", "core.collapse"),
    ("bdemm.core", "bma_point_estimate", "core.point_estimate"),
    ("bdemm.wtt", "apply_wtt", "wtt.apply"),
    ("bdemm.toy", "gen_toy_series", "toy.series"),
)

# (module, class, method, span name); the method is replaced on the class
METHOD_SPANS = (
    ("bdemm.core", "WeightHistory", "append", "core.history_append"),
)

# (module, attribute, span name) rebound in that one module only: the GP
# factorization is counted where the GP code calls it, not where the Kalman
# code does, so Kalman self time keeps its own factorization
LOCAL_SPANS = (
    ("bdemm.gpts", "cho_factor", "gpts.cholesky"),
)

SPAN_FIELDS = ("rep", "name", "start_ns", "end_ns", "parent", "step", "error")

# span name -> index of the positional argument kept for later inspection
KEEP_ARG = {"smc.resample": 1}


def rebind_everywhere(original, replacement, package="bdemm"):
    """Point every module-level name in ``package`` bound to ``original`` at
    ``replacement``; returns the ``(module, name)`` pairs it changed."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package
                               or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr))
    for mod, attr in found:
        setattr(mod, attr, replacement)
    return found


class Tracer:
    """Collects spans from wrapped callables into a flat list.

    ``records[i]`` is ``(name, start_ns, end_ns, parent, step, error)``,
    where ``step`` is the innermost open step (-1 outside every step) and
    ``step_pos[step]`` is that step's position argument (its time index).
    """

    def __init__(self):
        self.records = []
        self.step_pos = []
        self.kept = defaultdict(list)
        self._stack = []
        self._step = -1
        self._undo = []  # (namespace, attribute, original)

    def wrap(self, name, fn, pos_arg=None):
        """Return ``fn`` wrapped in a span named ``name``.

        With ``pos_arg`` set, each call also opens a new step whose position
        is that positional argument.
        """
        records = self.records
        stack = self._stack
        clock = time.perf_counter_ns
        keep = self.kept[name].append if name in KEEP_ARG else None
        keep_at = KEEP_ARG.get(name)

        def wrapper(*args, **kwargs):
            outer_step = self._step
            if pos_arg is not None:
                self._step = len(self.step_pos)
                self.step_pos.append(args[pos_arg])
            if keep is not None:
                keep(args[keep_at])
            idx = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                records[idx] = (name, start, end, parent, self._step, error)
                self._step = outer_step

        return wrapper

    def install(self, steps_at=None):
        """Wrap every library function listed at module level.

        ``steps_at = (span name, argument index)`` makes that span open a
        step, positioned by that argument.
        """
        step_name, step_arg = steps_at or (None, None)
        for modname, attr, name in FUNCTION_SPANS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, original,
                                pos_arg=step_arg if name == step_name else None)
            self._undo += [(mod, where, original) for mod, where
                           in rebind_everywhere(original, wrapped)]
        for modname, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(sys.modules[modname], cls_name)
            self._undo.append((cls, meth, vars(cls)[meth]))
            setattr(cls, meth, self.wrap(name, vars(cls)[meth]))
        for modname, attr, name in LOCAL_SPANS:
            mod = sys.modules[modname]
            self._undo.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def uninstall(self):
        """Put every wrapped name back."""
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo.clear()

    def write(self, fh, rep):
        """Write one JSON array per span, fields in ``SPAN_FIELDS`` order,
        in the order the spans began."""
        for record in self.records:
            fh.write(json.dumps((rep,) + record, separators=(",", ":")))
            fh.write("\n")


def self_times(records):
    """Each span's duration minus the time its direct children cover."""
    child = [0] * len(records)
    for _, start, end, parent, _, _ in records:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _, _) in enumerate(records)]


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer):
    """Per-layer figures of one traced run; 0 for a layer it never entered.

    Times are means per call in microseconds (``toy.batch_self_s`` is a
    total in seconds); ``*_calls_per_step`` divide by the steps of the
    layer's own step function.
    """
    from bdemm.evidence import effective_sample_size

    recs = tracer.records
    selfs = self_times(recs)
    by_name = defaultdict(list)
    for i, rec in enumerate(recs):
        by_name[rec[0]].append(i)

    def count(name):
        return len(by_name.get(name, ()))

    def mean_us(name, own=False):
        idx = by_name.get(name)
        if not idx:
            return 0.0
        total = sum(selfs[i] if own else recs[i][2] - recs[i][1] for i in idx)
        return total / len(idx) / 1e3

    def per(name, base):
        return count(name) / count(base) if count(base) else 0.0

    def late_ratio(name):
        # median duration over the last tenth of each stream or series,
        # divided by the median over its first tenth
        horizon = max(tracer.step_pos, default=0)
        tenth = max(1, int(horizon) // 10)
        early, late = [], []
        for i in by_name.get(name, ()):
            pos = tracer.step_pos[recs[i][4]]
            if pos <= tenth:
                early.append(recs[i][2] - recs[i][1])
            elif pos > horizon - tenth:
                late.append(recs[i][2] - recs[i][1])
        return _median(late) / _median(early) if early and late else 0.0

    def calls_after_first_step(name):
        # GP steps after the first row, where every model has a window
        calls = defaultdict(int)
        for i in by_name.get(name, ()):
            calls[recs[i][4]] += 1
        first = min(tracer.step_pos, default=0)
        steps = [s for s, pos in enumerate(tracer.step_pos) if pos != first]
        return sum(calls[s] for s in steps) / len(steps) if steps else 0.0

    reweights = by_name.get("smc.reweight", ())
    allzero = sum(recs[i][5] == "AllZeroError" for i in reweights)
    resampled = tracer.kept.get("smc.resample", ())
    ess = [effective_sample_size(w) / len(w) for w in resampled]
    stream_rows = count("stream.engine_step")
    toy_self = sum(selfs[i] for i in by_name.get("toy.batch", ()))
    stream_self = sum(selfs[i] for i in by_name.get("stream.run", ()))

    return {
        "stream.self_us_per_row": (stream_self / stream_rows / 1e3
                                   if stream_rows else 0.0),
        "stream.engine_self_us": mean_us("stream.engine_step", own=True),
        "kalman.step_us": mean_us("kalman.step"),
        "kalman.step_self_us": mean_us("kalman.step", own=True),
        "kalman.predict_us": mean_us("kalman.predict"),
        "kalman.predict_calls_per_step": per("kalman.predict", "kalman.step"),
        "core.history_append_us": mean_us("core.history_append"),
        "core.history_append_late_ratio": late_ratio("core.history_append"),
        "core.weight_update_us": mean_us("core.weight_update"),
        "core.collapse_us": mean_us("core.collapse"),
        "core.point_estimate_us": mean_us("core.point_estimate"),
        "wtt.apply_us": mean_us("wtt.apply"),
        "wtt.apply_calls_per_step": (count("wtt.apply") / len(tracer.step_pos)
                                     if tracer.step_pos else 0.0),
        "smc.step_us": mean_us("smc.step"),
        "smc.step_self_us": mean_us("smc.step", own=True),
        "smc.propagate_us": mean_us("smc.propagate"),
        "smc.propagate_calls_per_step": per("smc.propagate", "smc.step"),
        "smc.reweight_us": mean_us("smc.reweight"),
        "smc.evidence_us": mean_us("smc.evidence"),
        "smc.resample_us": mean_us("smc.resample"),
        "smc.reweight_allzero_frac": (allzero / len(reweights)
                                      if reweights else 0.0),
        "smc.ess_frac": sum(ess) / len(ess) if ess else 0.0,
        "gpts.step_us": mean_us("gpts.step"),
        "gpts.predict_us": mean_us("gpts.predict"),
        "gpts.predict_calls_per_step": calls_after_first_step("gpts.predict"),
        "gpts.cholesky_attempts_per_predict": per("gpts.cholesky",
                                                  "gpts.predict"),
        "gpts.poe_us": mean_us("gpts.poe"),
        "toy.series_us": mean_us("toy.series"),
        "toy.batch_self_s": toy_self / 1e9,
    }
