"""Machine speed read from a fixed reference loop, timed between steps.

On a shared host each virtual CPU switches between speeds up to 1.7x
apart, for seconds to minutes at a time, independently of the other CPU:
on a 2-vCPU Intel Xeon VM a fixed pure-Python loop read 19 ms in one phase
and 29 ms in the next.  A run whose wall times land in one phase or the
other reads up to 1.7x apart for the same code, so the spread between runs
says more about the neighbours than about the program.

A ``SpeedClock`` therefore times ``reference_loop`` in the measuring thread
every ``EVERY_NS`` while the workload runs.  The loop's time divided by
``REF_NS`` is the slow-down at that moment, and a program time divided by
the slow-down at the same moment is that time restated at reference speed.
The loop mixes the same kinds of work as the workloads: interpreter
bookkeeping, element-wise numpy on a 200-vector and a small Cholesky
factorization.  Restated kf-stream step times stayed within about 5% over
20-second windows while the raw ones moved 1.7x.
"""

from __future__ import annotations

import time

import numpy as np

# the loop's time at reference speed, about its median over fast phases on
# a 2-vCPU Intel Xeon VM (slow phases read 180 us); a constant, so restated
# times compare across runs
REF_NS = 100_000
EVERY_NS = 20_000_000  # one reference loop per 20 ms of workload
SMOOTH = 5  # running median over this many loops (about 0.1 s)

_V = np.linspace(0.1, 1.0, 200)
_SPD = np.eye(12) * 2.0 + 0.1


def reference_loop() -> float:
    """Fixed work; only its duration matters."""
    acc = 0.0
    table = {}
    for i in range(8):
        w = np.exp(-_V * (i + 1))
        acc += float(w.sum() / w.size)
        acc += float(np.linalg.cholesky(_SPD + i * 0.01)[0, 0])
        for j in range(30):
            table[j] = table.get(j, 0.0) + acc * 0.5
    return acc + table[0]


def loop_ns(times: int = 21) -> float:
    """Median duration of ``times`` reference loops, in nanoseconds."""
    clock = time.perf_counter_ns
    durations = []
    for _ in range(times):
        start = clock()
        reference_loop()
        durations.append(clock() - start)
    return float(np.median(durations))


class SpeedClock:
    """Reference loops interleaved with the workload, and what they imply.

    ``tick()`` is called by the measuring code between steps; it runs the
    loop when ``EVERY_NS`` has passed since the last one, or when forced.
    ``samples`` holds each loop's ``(start_ns, end_ns)``.
    """

    def __init__(self):
        self.samples = []
        self._due = 0

    def tick(self, force=False):
        clock = time.perf_counter_ns
        if not force and clock() < self._due:
            return
        start = clock()
        reference_loop()
        end = clock()
        self.samples.append((start, end))
        self._due = end + EVERY_NS

    def loop_time_ns(self, start_ns, end_ns):
        """Time spent in reference loops between ``start_ns`` and
        ``end_ns``; the workload's own wall time excludes it."""
        return sum(e - s for s, e in self.samples
                   if start_ns <= s and e <= end_ns)

    def slowdown_at(self, t_ns):
        """Slow-down against reference speed at each time in ``t_ns``,
        interpolated between the smoothed loop readings around it."""
        s = np.asarray(self.samples, dtype=float).reshape(-1, 2)
        if s.size == 0:
            raise ValueError("no reference loop was timed")
        raw = (s[:, 1] - s[:, 0]) / REF_NS
        half = SMOOTH // 2
        smooth = np.array([np.median(raw[max(0, i - half):i + half + 1])
                           for i in range(raw.size)])
        return np.interp(np.asarray(t_ns, dtype=float), s.mean(axis=1),
                         smooth)

    def restated_wall(self, start_ns, end_ns):
        """Wall time from ``start_ns`` to ``end_ns``, reference loops left
        out, each stretch between loops divided by its slow-down (s)."""
        cuts = [start_ns]
        for s, e in self.samples:
            if start_ns <= s and e <= end_ns:
                cuts += [s, e]
        cuts.append(end_ns)
        begin = np.asarray(cuts[0::2], dtype=float)
        end = np.asarray(cuts[1::2], dtype=float)
        slow = self.slowdown_at((begin + end) / 2.0)
        return float(np.sum((end - begin) / slow)) / 1e9
