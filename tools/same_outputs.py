"""Compare this tree's outputs with those of another git revision.

Usage::

    python tools/same_outputs.py --against REV

REV is exported with ``git archive`` into a temporary directory.  Both
trees then run, each in its own subprocesses with its own ``src`` first on
the path, on the inputs of *this* tree's ``perfbench/inputs.py``:

* ``run_stream`` over the seed-1 kf-stream and gp-stream CSVs;
* ``bdemm toy --seed 7`` under each of the five ``--wtt`` kinds, and with
  ``--particles 1``: its summary.txt, runs.csv and weights.csv;
* the stdout of each tree's own demos, with the temporary directory that
  ``csv_streaming.py`` prints replaced by ``<tmp>``.

For each file it prints ``identical``, or the count of lines that differ,
the largest absolute and relative deviation between numbers in the same
place on a line, and whether text other than numbers differs.  It exits 0
when every file is identical and 1 otherwise; it uses plain git and no
network.
"""

from __future__ import annotations

import argparse
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

ROOT = Path(__file__).resolve().parent.parent

STREAM_SEED = 1
TOY_SEED = 7
TOY_RUNS = [["--wtt", kind] for kind in (
    "identity", "constant", "markov", "forgetting", "polya_urn")] + [
    ["--particles", "1"]]
TOY_FILES = ("summary.txt", "runs.csv", "weights.csv")

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

NUMBER = re.compile(r"(?<![\w.])[-+]?(?:inf|nan|(?:\d+\.\d*|\.\d+|\d+)"
                    r"(?:[eE][-+]?\d+)?)(?![\w.])")


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


def write_inputs(dest: Path) -> dict:
    """The two stream workloads' configs and CSVs, from this tree's
    ``perfbench/inputs.py``, written under ``dest``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    dest.mkdir()
    files = {}
    for name, config, rows in (
            ("kf", inputs.kf_config(), inputs.kf_stream(STREAM_SEED)),
            ("gp", inputs.gp_config(), inputs.gp_stream(STREAM_SEED))):
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
        base = produce(base_tree, inputs, work / "base-out")
        head = produce(ROOT, inputs, work / "head-out")
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
