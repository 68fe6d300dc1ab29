"""Compare this tree's outputs with those of another git revision.

Usage::

    python tools/same_outputs.py --against REV

REV is exported with ``git archive`` into a temporary directory.  Both
trees then run, each in its own subprocesses with its own ``src`` first on
the path, on the inputs of *this* tree's ``perfbench/inputs.py``:

* ``run_stream`` over the seed-1 kf-stream and gp-stream CSVs, and over
  two Kalman streams the tool writes itself (:func:`kf_shapes`), of at
  most 300 rows each: a d = 2, m = 1 pool under ``markov`` with a weight
  floor, which scores through the stacked closed-form innovation, and a
  1-D pool of K = 10 under ``constant`` with one zero constant weight,
  whose collapse drops that model and sums nine;
* two GP runs of 300 rows, each in the tree's own interpreter:
  ``run_stream`` over a pool of K = 2 and an 8-row window under
  ``polya_urn`` with a weight floor (:func:`gp_urn_floor`), and
  ``intel_step`` on irregular time stamps (:func:`gp_irregular`), where
  no window repeats, so every row solves its windows afresh;
* ``bdemm toy --seed 7`` under each of the five ``--wtt`` kinds, and with
  ``--particles 1``: its summary.txt, runs.csv and weights.csv;
* the stdout of each tree's own demos, with the temporary directory that
  ``csv_streaming.py`` prints replaced by ``<tmp>``;
* how often, and why, the random Kalman streams of *this* tree's
  ``tests/test_boundary.py`` end early with a ``BdemmError``, over seeds
  0-299 with d = 1 and d = 2: a change that moves rounding can move these
  robustness counts too.

For each file it prints ``identical``, or the count of lines that differ,
the largest absolute and relative deviation between numbers in the same
place on a line, and whether text other than numbers differs.  It exits 0
when every file is identical and 1 otherwise; it uses plain git and no
network.  The two trees run side by side, each one subprocess at a time.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import importlib.util
import io
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

STREAM_SEED = 1
TOY_SEED = 7
TOY_RUNS = [["--wtt", kind] for kind in (
    "identity", "constant", "markov", "forgetting", "polya_urn")] + [
    ["--particles", "1"]]
TOY_FILES = ("summary.txt", "runs.csv", "weights.csv")
BOUNDARY_SEEDS = range(300)
SHAPE_ROWS = 300

# runs in the tree's interpreter: refuses to run another tree's bdemm
PREAMBLE = """\
import sys
from pathlib import Path
import bdemm
if not Path(bdemm.__file__).resolve().is_relative_to(Path(sys.argv[1])):
    sys.exit("bdemm imported from %s, not %s" % (bdemm.__file__, sys.argv[1]))
"""
RUN_STREAM = PREAMBLE + """\
from bdemm.stream import run_stream
run_stream(*sys.argv[2:5])
"""
RUN_CLI = PREAMBLE + """\
from bdemm.cli import main
sys.exit(main(sys.argv[2:]))
"""
# prints what the tool's function sys.argv[3] returns, on the tree's bdemm
RUN_TOOL = PREAMBLE + """\
sys.path.insert(0, sys.argv[2])
import same_outputs
sys.stdout.write(getattr(same_outputs, sys.argv[3])())
"""
# compared file, and the function of this module that writes it
TOOL_FILES = {"kf-boundary-ends.txt": "boundary_ends",
              "gp-k2-w8-urn-floor-stream.csv": "gp_urn_floor",
              "gp-irregular.csv": "gp_irregular"}

NUMBER = re.compile(r"(?<![\w.])[-+]?(?:inf|nan|(?:\d+\.\d*|\.\d+|\d+)"
                    r"(?:[eE][-+]?\d+)?)(?![\w.])")


def _load(name: str, path: Path):
    """The module at ``path``, imported under ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def boundary_ends(seeds=BOUNDARY_SEEDS) -> str:
    """How many of the random Kalman streams of ``tests/test_boundary.py``
    end early, per dimension, and the count of each ``BdemmError`` message
    that ends them, in the messages' order, as text.  Runs on whichever
    ``bdemm`` the interpreter imports."""
    from bdemm.errors import BdemmError
    boundary = _load("boundary", ROOT / "tests" / "test_boundary.py")
    lines = []
    for d in (1, 2):
        reasons = collections.Counter()
        for seed in seeds:
            step, state, rows = boundary.random_kf_stream(seed, d)
            for t, y in enumerate(rows, start=1):
                try:
                    state = step(state, t, y)[0]
                except BdemmError as exc:
                    reasons[str(exc)] += 1
                    break
        lines.append("d = %d: %d of %d streams end early" % (
            d, sum(reasons.values()), len(seeds)))
        lines += ["  %s: %d" % item for item in sorted(reasons.items())]
    return "\n".join(lines) + "\n"


def export(rev: str, dest: Path) -> Path:
    """The files of ``rev`` under ``dest``, by ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return dest


def _kf_config(models, init_mean, init_cov, *settings) -> str:
    """A ``kf`` stream config: the ``settings`` lines, then one
    ``(A, Q, B, R)`` tuple of row-major lists per model."""
    lines = ["engine = kf", *settings, "kf.models = %d" % len(models)]
    for i, model in enumerate(models, start=1):
        lines += ["kf.model.%d.%s = %r" % (i, name, values)
                  for name, values in zip("AQBR", model)]
    lines += ["kf.init.mean = %r" % init_mean, "kf.init.cov = %r" % init_cov]
    return "\n".join(lines) + "\n"


def kf_shapes(rows: int = SHAPE_ROWS) -> dict:
    """The tool's own Kalman streams, as ``{name: (config, observations)}``.

    ``kf-d2-markov-floor``: three constant-velocity models (d = 2) that see
    the position only (m = 1) and differ in process and observation noise,
    under a sticky ``markov`` operator with ``weight_floor = 0.05``, which
    binds on most rows, tracking a target whose velocity walks.
    ``kf-k10-constant``: ten 1-D models with transitions 1.0 down to 0.91
    and observation variances 0.1 up to 10 under ``constant`` weights, the
    first of them zero, on a noisy random walk.
    """
    rng = np.random.default_rng(STREAM_SEED)
    position = np.cumsum(np.cumsum(rng.normal(0.0, 0.3, rows)))
    track = position + rng.normal(0.0, 1.0, rows)
    walk = np.cumsum(rng.normal(0.0, 0.5, rows)) + rng.normal(0.0, 1.0, rows)
    track_models = [([1.0, 1.0, 0.0, 1.0], [q / 3, q / 2, q / 2, q],
                     [1.0, 0.0], [r])
                    for q, r in ((0.01, 1.0), (0.1, 1.0), (1.0, 9.0))]
    walk_models = [([1.0 - 0.01 * i], [0.25], [1.0], [10.0 ** (i / 4.5 - 1)])
                   for i in range(10)]
    constants = [0.0, 0.25] + [0.125] * 4 + [0.0625] * 4
    return {
        "kf-d2-markov-floor": (_kf_config(
            track_models, [0.0, 0.0], [10.0, 0.0, 0.0, 10.0],
            "wtt.kind = markov",
            "wtt.matrix = [0.98, 0.01, 0.01, 0.01, 0.98, 0.01, 0.01, 0.01, 0.98]",
            "weight_floor = 0.05"), track),
        "kf-k10-constant": (_kf_config(
            walk_models, [0.0], [1.0], "wtt.kind = constant",
            "wtt.constants = %r" % constants), walk),
    }


def gp_urn_floor(rows: int = SHAPE_ROWS) -> str:
    """``run_stream``'s output for the tool's own GP stream, as text.

    Two models of an 8-row window, the second with 25 times the first's
    noise variance, under ``polya_urn`` with ``weight_floor = 0.1``, on a
    sine whose noise switches between the two levels every 50 rows.  Runs
    on whichever ``bdemm`` the interpreter imports.
    """
    from bdemm.stream import run_stream
    rng = np.random.default_rng(STREAM_SEED)
    t = np.arange(1, rows + 1)
    noise_sd = np.where((t - 1) // 50 % 2, 1.0, 0.2)
    series = (np.sin(2.0 * np.pi * t / 60.0)
              + noise_sd * rng.standard_normal(rows))
    with tempfile.TemporaryDirectory() as work:
        cfg, csv, out = (Path(work) / name for name in ("cfg", "csv", "out"))
        cfg.write_text("\n".join([
            "engine = intel", "wtt.kind = polya_urn", "wtt.beta = [1.0, 2.0]",
            "weight_floor = 0.1", "intel.lengthscale = 8.0",
            "intel.noise_variance = 0.04", "intel.window = 8",
            "intel.noise_factors = [1.0, 25.0]"]) + "\n")
        csv.write_text("".join("%r\n" % v for v in series.tolist()))
        run_stream(cfg, csv, out)
        return out.read_text()


def gp_irregular(rows: int = SHAPE_ROWS) -> str:
    """A GP run on irregular time stamps, as CSV text: per row the time,
    the observation, the fused forecast for one time unit on, the weights
    and the log evidences.

    The gaps are uniform in [0.5, 1.5], so no window's times relative to a
    forecast time repeat, and every row solves both of its windows afresh.
    Three models of a 16-row window, with noise variances 1, 9 and 36
    times 0.04, move their weights under a sticky ``markov`` operator.
    Runs on whichever ``bdemm`` the interpreter imports.
    """
    from bdemm import (GPTSModel, IntelState, WTTConfig,
                       default_markov_matrix, intel_step, perturb_pool)
    rng = np.random.default_rng(STREAM_SEED)
    times = np.cumsum(rng.uniform(0.5, 1.5, rows))
    values = np.sin(0.2 * times) + rng.normal(0.0, 0.3, rows)
    pool = perturb_pool(GPTSModel(0.0, 1.0, 3.0, 0.04, 16), [1.0, 9.0, 36.0])
    wtt = WTTConfig.markov(default_markov_matrix(len(pool)))
    state = IntelState.initial(k=len(pool))
    models = range(1, len(pool) + 1)
    lines = [",".join(["t", "y", "mean", "var"] + ["w_%d" % k for k in models]
                      + ["logev_%d" % k for k in models])]
    for t, y in zip(times.tolist(), values.tolist()):
        state, fused, log_evs = intel_step(state, pool, y, t, wtt)
        lines.append(",".join(map(repr, [
            t, y, fused.mean, fused.var, *state.model_weights.w.tolist(),
            *log_evs.tolist()])))
    return "\n".join(lines) + "\n"


def write_inputs(dest: Path) -> dict:
    """The stream configs and CSVs, written under ``dest``: the two stream
    workloads' from this tree's ``perfbench/inputs.py``, and
    :func:`kf_shapes`."""
    inputs = _load("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    dest.mkdir()
    files = {}
    streams = [("kf", inputs.kf_config(), inputs.kf_stream(STREAM_SEED)),
               ("gp", inputs.gp_config(), inputs.gp_stream(STREAM_SEED))]
    streams += [(name, *stream) for name, stream in kf_shapes().items()]
    for name, config, rows in streams:
        cfg, csv = dest / (name + ".cfg"), dest / (name + ".csv")
        cfg.write_text(config)
        csv.write_bytes(inputs.csv_bytes(rows))
        files[name] = (cfg, csv)
    return files


def run(tree: Path, args, scratch: Path) -> str:
    """Run ``python args`` on ``tree``'s library in ``scratch``; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               TMPDIR=str(scratch))
    proc = subprocess.run([sys.executable, *args], cwd=scratch, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s on %s exited %d:\n%s" % (
            " ".join(map(str, args))[:200], tree, proc.returncode,
            proc.stderr))
    return proc.stdout


def produce(tree: Path, inputs: dict, out: Path) -> dict:
    """Every compared output of ``tree``, as ``{name: text}``."""
    scratch = out / "scratch"
    scratch.mkdir(parents=True)
    found = {}
    for name, (cfg, csv) in inputs.items():
        target = out / ("%s-stream.csv" % name)
        run(tree, ["-c", RUN_STREAM, tree, cfg, csv, target], scratch)
        found[target.name] = target.read_text()
    for flags in TOY_RUNS:
        label = "toy-" + "-".join(f.lstrip("-") for f in flags)
        target = out / label
        run(tree, ["-c", RUN_CLI, tree, "toy", "--seed", str(TOY_SEED),
                   *flags, "--out", target], scratch)
        for file in TOY_FILES:
            found["%s/%s" % (label, file)] = (target / file).read_text()
    for demo in sorted((tree / "demos").glob("*.py")):
        text = run(tree, [demo], scratch)
        pattern = re.escape(str(scratch) + os.sep) + r"tmp\w+"
        found["demo-%s.txt" % demo.stem] = re.sub(pattern, "<tmp>", text)
    for name, function in TOOL_FILES.items():
        found[name] = run(tree, ["-c", RUN_TOOL, tree, ROOT / "tools",
                                 function], scratch)
    return found


def _deviation(a: float, b: float):
    """Absolute and relative deviation of two parsed numbers."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    diff = abs(a - b)
    if not diff < math.inf:  # a NaN against a number, or an infinity
        return math.inf, math.inf
    return diff, diff / max(abs(a), abs(b))


def compare(base: str, head: str) -> str:
    """``identical``, or how the lines of ``head`` differ from ``base``."""
    if base == head:
        return "identical"
    old, new = base.splitlines(), head.splitlines()
    rows, text, abs_dev, rel_dev = 0, False, 0.0, 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        rows += 1
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            text = True
            continue
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            d_abs, d_rel = _deviation(float(x), float(y))
            abs_dev, rel_dev = max(abs_dev, d_abs), max(rel_dev, d_rel)
    parts = ["%d of %d lines differ" % (rows + abs(len(old) - len(new)),
                                        max(len(old), len(new)))]
    if len(old) != len(new):
        parts.append("%d lines against %d" % (len(new), len(old)))
    parts.append("max abs dev %.3g, max rel dev %.3g" % (abs_dev, rel_dev))
    if text:
        parts.append("text differs")
    return "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision whose outputs are the reference")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        work = Path(work)
        base_tree = export(args.against, work / "base")
        inputs = write_inputs(work / "inputs")
        # one tree's subprocesses at a time each, the two trees side by side
        with concurrent.futures.ThreadPoolExecutor(1) as other:
            base = other.submit(produce, base_tree, inputs, work / "base-out")
            head = produce(ROOT, inputs, work / "head-out")
            base = base.result()
    same = True
    for name in sorted(set(base) | set(head)):
        if name not in base or name not in head:
            verdict = "only in %s" % ("this tree" if name in head
                                      else args.against)
        else:
            verdict = compare(base[name], head[name])
        same = same and verdict == "identical"
        print("%s: %s" % (name, verdict))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
