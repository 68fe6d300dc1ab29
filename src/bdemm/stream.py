"""File-driven filtering: flat key-value configs in, per-step CSV out.

The config grammar is deliberately tiny.  One ``key = value`` pair per
line, ``#`` starts a comment, keys are dotted paths, values are scalars
(int, float, bare word) or bracketed numeric lists like ``[1.0, 0.5]``.
Matrices are row-major lists; square shapes are inferred from the length
and ``B`` takes as many rows as ``R``.  Unknown keys are rejected, so typos
fail loudly instead of silently running a default.

Example::

    engine = kf
    wtt.kind = forgetting
    wtt.alpha = 0.95
    kf.models = 2
    kf.model.1.A = [1.0]
    kf.model.1.Q = [0.1]
    kf.model.1.B = [1.0]
    kf.model.1.R = [1.0]
    kf.model.2.A = [1.0]
    kf.model.2.Q = [0.1]
    kf.model.2.B = [1.0]
    kf.model.2.R = [100.0]
    kf.init.mean = [0.0]
    kf.init.cov = [1.0]

Every bad value, missing key or inconsistency, such as candidates that
differ in dimension, raises :class:`~bdemm.errors.ConfigError` from
:func:`build_engine`, before any observation is read.  Values reach the
library as written, and a rule the library owns reports its own message as
``bad <engine> config: <message>``; one weight step on the opening history
checks ``weight_floor``, the operator and the initial weights.

The observation file is a headerless CSV of numbers, one observation vector
of the pool's dimension per row, read, filtered and written one row at a
time, so memory stays constant.  The output carries one row per input row:
step index, estimate, model weights, per-model evidences.  The estimate is
the state estimate for the ``kf`` and ``smc`` engines; for ``intel`` it is
the fused GP forecast for the next time stamp, ``t + 1``.  The
engines report log evidences; the ``ev_k`` columns hold ``exp`` of them,
which is 0.0 where it underflows and ``inf`` where it overflows.  An input
with no data rows produces an empty output file; a bad row raises
:class:`~bdemm.errors.ParseError` after the rows before it are written.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .core import GaussianBelief, WeightVector, _quiet
from .errors import BdemmError, ConfigError, ParseError
from .gpts import GPTSModel, IntelState, intel_step, perturb_pool
from .kalman import KfEnsembleState, LinearGaussianModel, kf_bdemm_step
from .smc import (
    SmcEnsembleState,
    gaussian_noise,
    linear_gaussian_ssm,
    smc_bdemm_step,
    student_t_noise,
    uniform_noise,
)
from .toy import ToyConfig, toy_candidate, toy_transition
from .wtt import WTTConfig, weight_step

__all__ = ["parse_config", "build_engine", "run_stream"]


def parse_config(path) -> dict:
    """Parse a flat key-value config file into a dict.

    Values come back as int, float, str or list[float].  Raises
    :class:`~bdemm.errors.ParseError` with the offending 1-based line number
    on any syntax problem, including duplicate keys.
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", line=lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ParseError("empty key or value", line=lineno)
            if key in out:
                raise ParseError("duplicate key %r" % key, line=lineno)
            out[key] = _parse_value(value, lineno)
    return out


def _parse_value(value: str, lineno: int):
    if value.startswith("["):
        if not value.endswith("]"):
            raise ParseError("unterminated list", line=lineno)
        body = value[1:-1].replace(",", " ").split()
        try:
            return [float(tok) for tok in body]
        except ValueError:
            raise ParseError("lists may hold numbers only", line=lineno)
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


class _Config:
    """Config dict wrapper that tracks key usage and typing."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.used = set()

    def get(self, key, default=None, required=False):
        if key in self.raw:
            self.used.add(key)
            return self.raw[key]
        if required:
            raise ConfigError("missing required key %r" % key)
        return default

    def get_list(self, key, default=None, required=False):
        val = self.get(key, default=default, required=required)
        if val is not None and not isinstance(val, list):
            raise ConfigError("key %r must be a bracketed list" % key)
        return val

    def get_int(self, key, default=None, required=False, minimum=0):
        val = self.get(key, default=default, required=required)
        if not isinstance(val, int) or val < minimum:
            raise ConfigError("key %r must be an integer >= %d" % (key, minimum))
        return val

    def check_exhausted(self):
        extra = sorted(set(self.raw) - self.used)
        if extra:
            raise ConfigError("unknown key %r" % extra[0])


def _square(values, key):
    n = len(values)
    d = int(round(math.sqrt(n)))
    if not n or d * d != n:
        raise ConfigError("key %r must hold a square matrix (row-major)" % key)
    return np.asarray(values, dtype=float).reshape(d, d)


# the config key of each operator's parameter; identity reads none
_WTT_KEYS = {"constant": "wtt.constants", "markov": "wtt.matrix",
             "forgetting": "wtt.alpha", "polya_urn": "wtt.beta"}


def _wtt_from_config(cfg: _Config) -> WTTConfig:
    kind = cfg.get("wtt.kind", default="identity")
    key = _WTT_KEYS.get(kind) if isinstance(kind, str) else None
    if key is None:  # identity, or a kind WTTConfig rejects
        return WTTConfig(kind)
    if kind == "forgetting":
        return WTTConfig(kind, cfg.get(key, required=True))
    values = cfg.get_list(key, required=True)
    return WTTConfig(kind, _square(values, key) if kind == "markov" else values)


def _linear_model(cfg: _Config, base: str) -> LinearGaussianModel:
    """One linear-Gaussian candidate; ``B`` takes as many rows as ``R``."""
    r = _square(cfg.get_list(base + "R", required=True), base + "R")
    b = cfg.get_list(base + "B", required=True)
    if len(b) % r.shape[0]:
        raise ConfigError("key %r length does not fit the obs dim"
                          % (base + "B",))
    return LinearGaussianModel(
        A=_square(cfg.get_list(base + "A", required=True), base + "A"),
        Q=_square(cfg.get_list(base + "Q", required=True), base + "Q"),
        B=np.reshape(b, (r.shape[0], -1)),
        R=r,
    )


def _pool_dims(dims, engine: str):
    """The (state, obs) dimensions, which every candidate must share."""
    if len(set(dims)) > 1:
        raise ConfigError("%s candidates differ in (state, obs) dimension: %s"
                          % (engine, dims))
    return dims[0]


class _KfEngine:
    def __init__(self, cfg: _Config):
        k = cfg.get_int("kf.models", required=True, minimum=1)
        self.pool = [_linear_model(cfg, "kf.model.%d." % i)
                     for i in range(1, k + 1)]
        self.est_dim, self.obs_dim = _pool_dims(
            [(m.state_dim, m.obs_dim) for m in self.pool], "kf")
        belief = GaussianBelief(
            cfg.get_list("kf.init.mean", required=True),
            _square(cfg.get_list("kf.init.cov", required=True), "kf.init.cov"))
        if belief.dim != self.est_dim:
            raise ConfigError("key 'kf.init.mean' does not match the state dim")
        weights = WeightVector(
            cfg.get_list("kf.init.weights", default=[1.0 / k] * k))
        self.state = KfEnsembleState.initial(belief, weights=weights)

    def step(self, y, t):
        self.state, est, log_evs = kf_bdemm_step(
            self.state, self.pool, y, self.wtt, weight_floor=self.weight_floor)
        return est.x_hat, self.state.model_weights.w, log_evs


def _smc_model(cfg: _Config, base: str, toy: ToyConfig, transition):
    """One candidate and its (state, obs) dimensions; toy kinds are 1-d and
    share ``transition``, so the pool propagates its cloud once per step."""
    kind = cfg.get(base + "kind", required=True)
    if kind == "linear_gaussian":
        m = _linear_model(cfg, base)
        return (linear_gaussian_ssm(m.A, m.Q, m.B, m.R),
                (m.state_dim, m.obs_dim))
    if kind == "toy_gaussian":
        noise = gaussian_noise(cfg.get(base + "var",
                                       default=toy.gauss_noise_var))
    elif kind == "toy_uniform":
        noise = uniform_noise(cfg.get(base + "low", default=toy.robust_low),
                              cfg.get(base + "high", default=toy.robust_high))
    elif kind == "toy_student_t":
        noise = student_t_noise(cfg.get(base + "df", default=3.0),
                                cfg.get(base + "scale", default=1.0))
    else:
        raise ConfigError("unknown key %r value %r" % (base + "kind", kind))
    return toy_candidate(toy, transition, noise), (1, 1)


class _SmcEngine:
    def __init__(self, cfg: _Config):
        k = cfg.get_int("smc.models", required=True, minimum=1)
        n = cfg.get_int("smc.particles", default=200, minimum=1)
        seed = cfg.get_int("smc.seed", default=0)
        toy = ToyConfig(gamma_shape=cfg.get("smc.gamma_shape", default=3.0),
                        gamma_scale=cfg.get("smc.gamma_scale", default=2.0))
        transition = toy_transition(toy)
        self.pool, dims = zip(*[
            _smc_model(cfg, "smc.model.%d." % i, toy, transition)
            for i in range(1, k + 1)])
        self.est_dim, self.obs_dim = _pool_dims(list(dims), "smc")
        self.rng = np.random.default_rng(seed)
        point = cfg.get_list("smc.init.point")
        if point is not None:
            particles = np.tile(np.asarray(point, dtype=float), (n, 1))
        else:
            belief = GaussianBelief(
                cfg.get_list("smc.init.mean", required=True),
                _square(cfg.get_list("smc.init.cov", required=True),
                        "smc.init.cov"))
            try:
                chol = np.linalg.cholesky(belief.cov)
            except np.linalg.LinAlgError:
                raise ConfigError("key 'smc.init.cov' must be positive definite")
            particles = belief.mean + self.rng.standard_normal(
                (n, belief.dim)) @ chol.T
        if particles.shape[1] != self.est_dim:
            raise ConfigError("key %r does not match the state dim" % (
                "smc.init.mean" if point is None else "smc.init.point"))
        self.state = SmcEnsembleState.initial(particles, k=k)

    def step(self, y, t):
        self.state, est, log_evs = smc_bdemm_step(
            self.state, self.pool, y, t, self.wtt, self.rng,
            weight_floor=self.weight_floor)
        return est.x_hat, self.state.model_weights.w, log_evs


class _IntelEngine:
    def __init__(self, cfg: _Config):
        nominal = GPTSModel(
            mean_const=cfg.get("intel.mean", default=0.0),
            signal_variance=cfg.get("intel.signal_variance", default=1.0),
            lengthscale=cfg.get("intel.lengthscale", default=1.0),
            noise_var=cfg.get("intel.noise_variance", default=0.01),
            window=cfg.get("intel.window", default=10),
        )
        factors = cfg.get_list("intel.noise_factors", default=[1.0, 100.0])
        self.pool = perturb_pool(nominal, factors)
        self.state = IntelState.initial(k=len(self.pool))
        self.est_dim = self.obs_dim = 1  # GP candidates are scalar

    def step(self, y, t):
        self.state, fused, log_evs = intel_step(
            self.state, self.pool, y[0], t, self.wtt,
            weight_floor=self.weight_floor)
        return np.array([fused.mean]), self.state.model_weights.w, log_evs


def build_engine(config: dict):
    """Assemble a filtering engine from a parsed config dict.

    The engine's ``step(y, t)`` returns the estimate, the model weights and
    the per-model log evidences.  Any bad value raises
    :class:`~bdemm.errors.ConfigError`; where the library owns the rule, it
    wraps the library's error and carries its message.
    """
    cfg = _Config(config)
    engine_kind = cfg.get("engine", required=True)
    try:
        if engine_kind == "kf":
            engine = _KfEngine(cfg)
        elif engine_kind == "smc":
            engine = _SmcEngine(cfg)
        elif engine_kind == "intel":
            engine = _IntelEngine(cfg)
        else:
            raise ConfigError("unknown key 'engine' value %r" % (engine_kind,))
        # the weight settings are the same for every engine: read them once,
        # and check them against the pool with one step on zero evidence
        engine.wtt = _wtt_from_config(cfg)
        engine.weight_floor = cfg.get("weight_floor", default=0.0)
        weight_step(engine.wtt, engine.state.history,
                    np.zeros(len(engine.pool)), engine.weight_floor)
    except ConfigError:
        raise
    except BdemmError as exc:
        raise ConfigError("bad %s config: %s" % (engine_kind, exc)) from exc
    cfg.check_exhausted()
    return engine


def _observations(fh, obs_dim):
    """Yield each data row of an open CSV as a checked float vector."""
    for lineno, row in enumerate(csv.reader(fh), start=1):
        if not any(cell.strip() for cell in row):
            continue
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise ParseError("row does not parse as numbers", line=lineno)
        if not all(map(math.isfinite, values)):
            raise ParseError("row holds a non-finite value", line=lineno)
        if len(values) != obs_dim:
            raise ParseError(
                "expected %d column(s), got %d" % (obs_dim, len(values)),
                line=lineno)
        yield np.array(values)


@_quiet
def run_stream(config_path, input_path, output_path) -> int:
    """Filter a CSV of observations through a configured engine, one row at
    a time, so memory does not grow with the stream.

    Returns the number of data rows written.  An input with no data rows
    yields an empty output file and returns 0.  A bad row raises
    :class:`~bdemm.errors.ParseError` after the rows before it are written.
    """
    engine = build_engine(parse_config(config_path))
    models = range(1, len(engine.pool) + 1)
    header = (["step"] + ["est_%d" % j for j in range(1, engine.est_dim + 1)]
              + ["w_%d" % j for j in models] + ["ev_%d" % j for j in models])
    t = 0
    with open(input_path, newline="") as src, \
            open(output_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for t, y in enumerate(_observations(src, engine.obs_dim), start=1):
            if t == 1:
                writer.writerow(header)
            est, weights, log_evs = engine.step(y, t)
            writer.writerow([t] + est.tolist() + weights.tolist()
                            + np.exp(log_evs).tolist())
    return t
