"""Gaussian-process ensemble for online time-series prediction.

Each candidate model is a Gaussian-process regressor over a sliding window
of the most recent observations: squared-exponential kernel, constant mean,
additive observation noise.  At every step each model issues a one-step
ahead predictive Gaussian; the observation's density under it is the
model's evidence, weights move transition-then-Bayes as everywhere else in
the package, and the predictions for the *next* point are fused into one
Gaussian by a weighted product of experts:

    precision  = sum_k weight_k / var_k
    mean       = sum_k (weight_k * mean_k / var_k) / precision

The fusion exponents are the predictive (transition-applied) weights, so a
model's influence on the next forecast reflects where the weights are
headed, not where they were.

The kernel is stationary, so a window's forecast weights depend only on its
times relative to the forecast time.  The pool is solved for those at once,
rows ``A[k] = (K_k + noise_k I)^-1 k*_k`` and the variances, and the last
``SOLVE_CACHE_SIZE`` solves are cached; on a hit the K forecast means are
one row-wise product ``mu + A (v - mu)``, so a unit-spaced stream with a
full window runs no Cholesky at all.  A state carries the forecast its
row made for ``t + 1``, so on such a stream the next row scores its
observation with it and forecasts only once.

Candidate pools typically come from :func:`perturb_pool`: take a nominal
model and scale its noise variance by a few factors (say 1x and 100x), so
the ensemble hedges between trusting and discounting fresh observations.
Hyperparameters are fixed at construction; nothing is re-estimated online.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.linalg import cholesky as cho_factor  # the name perfbench traces

from .core import (
    WeightHistory,
    WeightVector,
    _EngineState,
    _count,
    _finite,
    _floats,
    _frozen,
    _not_complex,
    _quiet,
    _real,
    _start_history,
    _trusted,
)
from .errors import (
    DimensionMismatchError,
    FactorizationFailureError,
    InvalidInputError,
    NonFiniteForecastError,
)
from .evidence import LOG_2PI
from .wtt import WTTConfig, _transition, _weight_step

# jitter ladder, as multiples of the signal variance
JITTER_START = 1e-10
JITTER_MAX = 1e-4
# solved (pool, window) pairs kept; a steady stream needs one or two
SOLVE_CACHE_SIZE = 8

__all__ = [
    "GPTSModel",
    "PredictiveGaussian",
    "IntelState",
    "gp_predict_next",
    "poe_combine",
    "intel_step",
    "perturb_pool",
]


@dataclass(frozen=True)
class GPTSModel:
    """Gaussian-process time-series model over a sliding window.

    Parameters
    ----------
    mean_const : float
        Constant prior mean of the series.
    signal_variance : float
        Kernel amplitude (variance of the latent function).
    lengthscale : float
        Kernel lengthscale in time-stamp units.
    noise_var : float
        Observation noise variance (>= 0; zero means noise-free).
    window : int
        Number of most recent observations the model conditions on, a
        whole number of at least 1 (a whole-valued float is taken as one).

    Every parameter must be finite: a NaN or infinite one raises
    ``InvalidInputError``, so :func:`perturb_pool` cannot build a model whose
    scaled noise variance overflows.  Each real one is kept as the float it
    reads as.  Solves are cached by model value; the value hash is computed
    once, when the model is built.
    """

    mean_const: float
    signal_variance: float
    lengthscale: float
    noise_var: float
    window: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # each field becomes the float it reads as, so a string such as "1.0"
        # never reaches the kernel; written so that NaN fails every check
        for name in ("mean_const", "signal_variance", "lengthscale", "noise_var"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not abs(self.mean_const) < np.inf:
            raise InvalidInputError("mean must be finite")
        if not 0.0 < self.signal_variance < np.inf:
            raise InvalidInputError("signal variance must be positive and finite")
        if not 0.0 < self.lengthscale < np.inf:
            raise InvalidInputError("lengthscale must be positive and finite")
        if not 0.0 <= self.noise_var < np.inf:
            raise InvalidInputError("noise variance must be nonnegative and finite")
        object.__setattr__(self, "window", _count(
            self.window, InvalidInputError,
            "window must hold a whole number of observations, at least one"))
        object.__setattr__(self, "_hash", hash((
            self.mean_const, self.signal_variance, self.lengthscale,
            self.noise_var, self.window)))

    def __hash__(self) -> int:
        return self._hash


def _log_density(y, mean, var, const):
    """Elementwise log N(y; mean, var), given ``const = LOG_2PI +
    np.log(var)``; -inf where the residual overflows.  Runs under its
    caller's error scope."""
    resid = y - mean
    return -0.5 * (const + resid * resid / var)


@dataclass(frozen=True)
class PredictiveGaussian:
    """A scalar Gaussian forecast N(mean, var), var > 0."""

    mean: float
    var: float

    def __post_init__(self):
        mean, var = _real(self.mean, "mean"), _real(self.var, "variance")
        if not (math.isfinite(mean) and math.isfinite(var)):
            raise NonFiniteForecastError(
                "forecast is not finite (mean %g, variance %g)" % (mean, var))
        if var <= 0.0:
            raise InvalidInputError("forecast variance must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @_quiet
    def logpdf(self, y: float) -> float:
        """Log density at ``y``; ``-inf`` where the squared residual overflows."""
        return float(_log_density(_real(y, "y"), self.mean, self.var,
                                  LOG_2PI + np.log(self.var)))


@dataclass(frozen=True, eq=False)
class IntelState(_EngineState):
    """Observation window and weight history of a GP ensemble; ``buffer``,
    any (n, 2) array-like of (time, value) rows, becomes a read-only float array.

    A state that :func:`intel_step` returns also carries what its next row
    reuses: the pool, the forecast time ``t + 1``, the read-only (K,)
    means, variances and log-density constants of the pool's forecasts for
    it, and the config object and predictive weights the fusion used.  It
    takes no part in construction or ``repr``; a constructed state carries
    ``None`` for each, so its first row computes both afresh.
    """

    buffer: np.ndarray
    history: WeightHistory
    # (pool, t + 1, means, variances, constants, config, predictive weights)
    _carry: tuple = field(default=(None,) * 7, init=False, repr=False)

    def __post_init__(self):
        buf = _floats(self.buffer, "buffer")
        if buf.size and buf.shape[1:] != (2,):
            raise DimensionMismatchError("buffer must hold (time, value) rows")
        buf = buf.reshape(-1, 2)
        if not (np.isfinite(buf).all() and (buf[1:, 0] > buf[:-1, 0]).all()):
            raise InvalidInputError("buffer must be finite, its times strictly increasing")
        buf.setflags(False)  # write=False, without numpy's keyword parse
        object.__setattr__(self, "buffer", buf)

    @classmethod
    def initial(cls, k: int = None, weights: WeightVector = None) -> "IntelState":
        return cls(np.empty((0, 2)), _start_history(k, weights))


@lru_cache(maxsize=SOLVE_CACHE_SIZE)
def _pool_solve(pool: tuple, key: bytes):
    """Read-only ``(mu, A, var, const)`` of ``pool`` for the window whose
    times relative to the forecast time have the bytes ``key``: the (K,)
    prior means, the (K, W) rows ``a_k = (K_k + noise_k I)^-1 k*_k`` of
    each model's last ``window`` times, zero-padded on the left, the (K,)
    variances and the (K,) log-density constants ``LOG_2PI + log var``,
    so a row that scores from a cached solve takes no logarithm.  Each
    Gram matrix takes a jitter from 1e-10 tenfold up to 1e-4 times
    ``signal_variance`` until it passes a Cholesky factorization; an empty
    window gives the priors.  A variance past the float range raises
    ``NonFiniteForecastError`` here, once per solve, so a forecast from a
    cached solve checks only its means.  Runs under its caller's error
    scope."""
    rel = np.frombuffer(key)
    # Rounding is monotone, so strictly increasing relative times imply
    # strictly increasing times; a cached window therefore needs no check.
    if not _finite(rel) or np.count_nonzero(rel[1:] <= rel[:-1]):
        raise InvalidInputError("time stamps must be finite, finitely far "
                                "apart and strictly increasing")
    mu = np.array([m.mean_const for m in pool], dtype=float)
    A, var = np.zeros((len(pool), rel.size)), np.empty(len(pool))
    for k, model in enumerate(pool):
        ext = np.concatenate((rel[-model.window:], (0.0,)))
        n = ext.size - 1
        # a gap whose square overflows is an infinite one: its entry is 0
        z = (ext[:, None] - ext) / model.lengthscale
        full = model.signal_variance * np.exp(-0.5 * z * z)
        full.flat[::n + 2] += model.noise_var
        gram, k_star = full[:-1, :-1], full[:-1, -1]
        a = k_star  # empty: the prior
        if n:
            jitter = JITTER_START
            while jitter <= JITTER_MAX * (1.0 + 1e-12):
                jittered = gram + jitter * model.signal_variance * np.eye(n)
                try:
                    cho_factor(jittered)
                    break
                except np.linalg.LinAlgError:
                    jitter *= 10.0
            else:
                raise FactorizationFailureError(
                    "Gram matrix failed Cholesky at maximum jitter")
            a = np.linalg.solve(jittered, k_star)
        A[k, rel.size - n:] = a
        var[k] = full[-1, -1] - k_star @ a
    # cancellation can push a near-zero variance a hair negative
    var = np.maximum(var, 1e-300)
    if not _finite(var):
        raise NonFiniteForecastError(
            "forecast is not finite (variances %s)" % (var,))
    return (_frozen(mu), _frozen(A), _frozen(var),
            _frozen(LOG_2PI + np.log(var)))


def _forecast(pool: tuple, times, values, t_next: float):
    """The read-only (K,) means ``mu + A (v - mu)``, variances and
    log-density constants of the pool's forecasts at ``t_next`` from one
    window of ``times`` and ``values``, under its caller's error scope."""
    # a NaN or infinite time stamp, or a gap to t_next past the float range,
    # leaves a non-finite relative time, which the solve rejects
    mu, A, var, const = _pool_solve(pool, (times - t_next).tobytes())
    # values near the float limit overflow here
    means = mu + np.add.reduce(A * (values - mu[:, None]), axis=1)
    if not _finite(means):
        raise NonFiniteForecastError("forecast is not finite (means %s, "
                                     "variances %s)" % (means, var))
    means.setflags(False)  # write=False, without numpy's keyword parse
    return means, var, const


def _fuse(means, variances, w) -> PredictiveGaussian:
    """Product of experts N(means[k], variances[k]) ** w[k], renormalized,
    under its caller's error scope.  On the simplex, with finite variances,
    the precision is at least 1 / max variance > 0 for any pool of fewer than
    1e15 models; a subnormal one inverts to an infinite variance."""
    precision = w / variances
    lam = np.add.reduce(precision)
    # means near the float limit overflow here
    mean, var = float(np.add.reduce(precision * means) / lam), float(1.0 / lam)
    if not (math.isfinite(mean) and 0.0 < var < math.inf):
        raise NonFiniteForecastError(
            "fused forecast is not finite (mean %g, variance %g)" % (mean, var))
    return _trusted(PredictiveGaussian, mean, var)


@_quiet
def gp_predict_next(model: GPTSModel, times, values, t_next: float) -> PredictiveGaussian:
    """One-step-ahead GP forecast from an observation window.

    Conditions on the last ``model.window`` of ``(times, values)`` (finite,
    strictly increasing times) and returns the predictive Gaussian at a
    finite ``t_next``:

        mean = mu + k*^T (K + noise I)^{-1} (v - mu)
        var  = k(t*, t*) + noise - k*^T (K + noise I)^{-1} k*

    It is the ensemble's forecast for a pool of one, so a window whose times
    relative to ``t_next`` are cached runs no factorization and gives bitwise
    a fresh solve's forecast ``mu + a . (v - mu)``.

    Raises
    ------
    InvalidInputError
        If a time stamp is not finite, a gap to ``t_next`` overflows, or the
        times are not strictly increasing (also relative to ``t_next``).
    FactorizationFailureError
        If the Gram matrix cannot be factorized even at maximum jitter.
    NonFiniteForecastError
        Exactly when ``mu + a . (v - mu)`` or the variance is not finite,
        e.g. when values near 1e308 overflow the dot product.
    """
    times = _floats(times, "times", 1)
    values = _floats(values, "values", 1)
    if times.ndim != 1 or times.shape != values.shape or times.size < 1:
        raise DimensionMismatchError("times and values must be matching vectors")
    (mean,), (var,), _ = _forecast((model,), times, values,
                                   _real(t_next, "t_next"))
    return _trusted(PredictiveGaussian, float(mean), float(var))


@_quiet
def poe_combine(predictives, weights: WeightVector) -> PredictiveGaussian:
    """Weighted product-of-experts fusion of scalar Gaussian forecasts.

    Each expert enters with exponent ``weights[k]``; the product of the
    powered Gaussians renormalizes to

        var  = 1 / sum_k w_k / var_k
        mean = var * sum_k w_k mean_k / var_k

    Raises
    ------
    NonFiniteForecastError
        If the fused mean or variance is not finite: means near the float
        limit overflow, and experts whose variances are all near it leave a
        subnormal total precision whose inverse overflows.
    """
    preds = list(predictives)
    if len(preds) != len(weights):
        raise DimensionMismatchError("one forecast per weight required")
    return _fuse(np.array([p.mean for p in preds]),
                 np.array([p.var for p in preds]), weights.w)


@_quiet
def intel_step(state: IntelState, pool, y_t: float, t: float,
               wtt_config: WTTConfig, weight_floor: float = 0.0):
    """One observation's worth of GP-ensemble prediction.

    The pool scores the arriving ``y_t`` under its forecasts for time ``t``
    from the buffer (the priors N(mean, signal_variance + noise_var) on the
    very first step).  Weights update from those evidences, the buffer
    absorbs ``(t, y_t)``, the pool forecasts ``t + 1``, and the forecasts
    fuse by product of experts with the *next-step predictive* weights as
    exponents.  The returned state carries that forecast and those
    weights.  A row whose ``t`` is the carried forecast time, and whose
    pool equals the carried one, scores with the carried forecast, so on a
    unit-spaced grid the row computes only the next-step forecast: one
    cached pool solve plus a row-wise product, with no factorization while
    the window's times relative to the forecast time repeat.  A row
    stepped with the carried ``wtt_config`` object starts from the carried
    predictive weights, so it runs the operator once, not twice; any other
    config object, an equal one too, runs it afresh.  The solve keeps its
    variances' log-density constants, so a row scores without a logarithm.
    Models may differ in every parameter; the buffer keeps the longest
    window, and a shorter one weighs the values before its own by zero, so
    a residual ``v - mu`` that overflows anywhere in the buffer raises
    ``NonFiniteForecastError``.  A ``t`` or ``y_t`` that is not a finite
    number raises ``InvalidInputError`` before any scoring or buffering, and
    so does a ``t`` outside ``[-2**53, 2**53)``: there ``t + 1`` is not a
    float of its own, and rounds to ``t`` or ``t + 2``.

    Returns
    -------
    state : IntelState
        The buffer with ``(t, y_t)`` absorbed and the grown weight history.
    fused : PredictiveGaussian
        Ensemble forecast for time ``t + 1``.
    log_evidences : ndarray, shape (K,)
        Each model's log density of ``y_t``; ``-inf`` where it underflows.
    """
    pool = state._pool(pool)
    try:
        t, y_t = float(_not_complex(t)), float(_not_complex(y_t))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError("t and y_t must be real numbers (%s)" % exc) from None
    if not -2.0**53 <= t < 2.0**53:
        raise InvalidInputError(
            "time stamps must be finite and in [-2**53, 2**53), where t + 1 "
            "is exact (got %r)" % t)
    if state.buffer.size and t <= state.buffer[-1, 0]:
        raise InvalidInputError("time stamps must arrive strictly increasing")
    if not math.isfinite(y_t):
        raise InvalidInputError("observations must be finite (got %r)" % y_t)

    kept_pool, kept_t, means, var, const, config, predictive = state._carry
    if kept_t != t or kept_pool != pool:
        means, var, const = _forecast(pool, state.buffer[:, 0],
                                      state.buffer[:, 1], t)
    log_evs = _log_density(y_t, means, var, const)
    _, history, _ = _weight_step(
        predictive if config is wtt_config
        else _transition(wtt_config, state.history),
        state.history, log_evs, weight_floor)

    buffer = np.concatenate((state.buffer, ((t, y_t),)))[-max(m.window for m in pool):]
    means, var, const = _forecast(pool, buffer[:, 0], buffer[:, 1], t + 1.0)
    predictive = _transition(wtt_config, history)
    fused = _fuse(means, var, predictive)
    return _trusted(IntelState, buffer, history, (
        pool, t + 1.0, means, var, const, wtt_config, predictive)), fused, log_evs


@_quiet
def perturb_pool(nominal: GPTSModel, noise_factors) -> list:
    """Candidate pool built by scaling the nominal noise variance.

    ``noise_factors`` are positive multipliers, one model each; a zero-noise
    nominal cannot be perturbed this way.
    """
    factors = _floats(noise_factors, "noise factors", 1)
    if factors.ndim != 1 or not factors.size:
        raise InvalidInputError("need a vector of at least one factor")
    factors = factors.tolist()
    if any(f <= 0.0 for f in factors):
        raise InvalidInputError("factors must be positive")
    if nominal.noise_var == 0.0 and any(f != 1.0 for f in factors):
        raise InvalidInputError("cannot scale a zero noise variance")
    return [GPTSModel(nominal.mean_const, nominal.signal_variance,
                      nominal.lengthscale, nominal.noise_var * f,
                      nominal.window)
            for f in factors]
