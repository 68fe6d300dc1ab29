"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kf-stream --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run and writes
the spans under ``.bench_work/spans/``.  The last line of standard output is
the result; the line before it holds the details (seed, input digest,
machine, per-repetition figures).  The library is imported from the
checkout's ``src/``; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# one BLAS thread: the caller model is one process with one step in flight
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("kf-stream", "gp-stream", "toy-batch")


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "bdemm" / "__init__.py").is_file():
        print("perfbench: no bdemm package under %s" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bdemm
    if not Path(bdemm.__file__).resolve().is_relative_to(SRC):
        print("perfbench: bdemm imported from %s, not %s"
              % (bdemm.__file__, SRC), file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK))
    try:
        attempted, failed, values, details = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), SRC, work)
    except workloads.WorkloadError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        print("perfbench: measured %s, BENCHMARK.json declares %s"
              % (sorted(values), sorted(names)), file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    result = {"correct": failed == 0 and not details["errors"],
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps({"details": details}))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
