"""Seeded inputs and engine configs for the two stream workloads.

The same seed always gives the same bytes.  The library sees only the files
written from these arrays, never the seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

ALPHA = 0.8  # forgetting exponent of both stream pools

# kf-stream: the README's two-candidate 1-D Kalman pool
KF_ROWS = 5000
KF_BLOCK = 250  # rows per clean or degraded block
KF_Q = 0.05
KF_R = (0.04, 4.0)  # trusted, degraded measurement variance
KF_INIT = (0.0, 1.0)  # initial mean, variance

# gp-stream: three noise budgets around one nominal GP
GP_ROWS = 3000
GP_BLOCK = 200  # rows per noise block
GP_MEAN = 0.0
GP_SIGNAL_VAR = 1.0
GP_LENGTHSCALE = 10.0
# large enough that the library's 1e-10 factorization jitter moves outputs
# by ~1e-9, well inside the 1e-8 check against a jitter-free solve
GP_NOISE_VAR = 0.04
GP_FACTORS = (1.0, 9.0, 36.0)
GP_WINDOW = 32
GP_PERIOD = 400.0  # rows per sine cycle


def kf_config() -> str:
    lines = ["engine = kf", "wtt.kind = forgetting", "wtt.alpha = %r" % ALPHA,
             "kf.models = %d" % len(KF_R)]
    for i, r in enumerate(KF_R, start=1):
        lines += ["kf.model.%d.A = [1.0]" % i, "kf.model.%d.Q = [%r]" % (i, KF_Q),
                  "kf.model.%d.B = [1.0]" % i, "kf.model.%d.R = [%r]" % (i, r)]
    lines += ["kf.init.mean = [%r]" % KF_INIT[0],
              "kf.init.cov = [%r]" % KF_INIT[1]]
    return "\n".join(lines) + "\n"


def gp_config() -> str:
    factors = ", ".join(repr(f) for f in GP_FACTORS)
    return "\n".join([
        "engine = intel",
        "wtt.kind = forgetting",
        "wtt.alpha = %r" % ALPHA,
        "intel.mean = %r" % GP_MEAN,
        "intel.signal_variance = %r" % GP_SIGNAL_VAR,
        "intel.lengthscale = %r" % GP_LENGTHSCALE,
        "intel.noise_variance = %r" % GP_NOISE_VAR,
        "intel.window = %d" % GP_WINDOW,
        "intel.noise_factors = [%s]" % factors,
    ]) + "\n"


def kf_stream(seed: int, rows: int = KF_ROWS) -> np.ndarray:
    """Random walk observed through noise that alternates clean/degraded.

    Blocks of ``KF_BLOCK`` rows switch between the trusted and the degraded
    measurement variance, so the weight moves back and forth between the
    two candidates.
    """
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(0.0, np.sqrt(KF_Q), size=rows))
    block = (np.arange(rows) // KF_BLOCK) % len(KF_R)
    noise_sd = np.sqrt(np.asarray(KF_R))[block]
    return walk + noise_sd * rng.standard_normal(rows)


def gp_stream(seed: int, rows: int = GP_ROWS) -> np.ndarray:
    """Slow sine with a random phase; each block draws one of the pool's
    noise levels at random, so the best candidate jumps between blocks."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, rows + 1)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    levels = np.sqrt(GP_NOISE_VAR * np.asarray(GP_FACTORS))
    n_blocks = -(-rows // GP_BLOCK)
    block_sd = levels[rng.integers(len(levels), size=n_blocks)]
    noise_sd = block_sd[(t - 1) // GP_BLOCK]
    return (np.sin(2.0 * np.pi * t / GP_PERIOD + phase)
            + noise_sd * rng.standard_normal(rows))


def csv_bytes(values) -> bytes:
    """Headerless one-column CSV; ``repr`` round-trips every double."""
    return "".join("%r\n" % float(v) for v in values).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]
