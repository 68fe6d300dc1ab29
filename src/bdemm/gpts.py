"""Gaussian-process ensemble for online time-series prediction.

Each candidate model is a Gaussian-process regressor over a sliding window
of the most recent observations: squared-exponential kernel, constant mean,
additive observation noise.  At every step each model issues a one-step
ahead predictive Gaussian; when the observation arrives, its density under
that prediction is the model's evidence, weights move transition-then-Bayes
as everywhere else in the package, and the per-model predictions for the
*next* point are fused into one Gaussian by a weighted product of experts:

    precision  = sum_k weight_k / var_k
    mean       = sum_k (weight_k * mean_k / var_k) / precision

The fusion exponents are the predictive (transition-applied) weights, so a
model's influence on the next forecast reflects where the weights are
headed, not where they were.

The kernel is stationary, so a window's Gram matrix depends only on its
times relative to the forecast time.  Each model keeps its last factorized
window and factorizes again only when those relative times change: a
unit-spaced stream with a full window runs no Cholesky at all.

Candidate pools typically come from :func:`perturb_pool`: take a nominal
model and scale its noise variance by a few factors (say 1x and 100x), so
the ensemble hedges between trusting and discounting fresh observations.
Hyperparameters are fixed at construction; nothing is re-estimated online.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import cholesky as cho_factor  # the name perfbench traces

from .core import WeightHistory, WeightVector
from .errors import (
    DimensionMismatchError,
    FactorizationFailureError,
    NonFiniteForecastError,
    ZeroPrecisionError,
)
from .evidence import LOG_2PI
from .wtt import WTTConfig, apply_wtt, weight_step

# jitter ladder, as multiples of the signal variance
JITTER_START = 1e-10
JITTER_MAX = 1e-4

__all__ = [
    "GPTSModel",
    "PredictiveGaussian",
    "IntelState",
    "gp_predict_next",
    "poe_combine",
    "intel_step",
    "perturb_pool",
    "window_predict",
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
        Number of most recent observations the model conditions on.

    Every parameter must be finite: a NaN or infinite one raises
    ``ValueError``, so :func:`perturb_pool` cannot build a model whose
    scaled noise variance overflows.

    The instance also holds a memo of its last factorized window, which
    :func:`gp_predict_next` keeps; it takes no part in equality, hashing
    or ``repr``.
    """

    mean_const: float
    signal_variance: float
    lengthscale: float
    noise_var: float
    window: int
    # (bytes of times - t_next, jittered Gram, k*) of the last window factorized
    _factored: tuple = field(default=None, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        # written so that NaN fails every check
        if not abs(self.mean_const) < np.inf:
            raise ValueError("mean must be finite")
        if not 0.0 < self.signal_variance < np.inf:
            raise ValueError("signal variance must be positive and finite")
        if not 0.0 < self.lengthscale < np.inf:
            raise ValueError("lengthscale must be positive and finite")
        if not 0.0 <= self.noise_var < np.inf:
            raise ValueError("noise variance must be nonnegative and finite")
        if int(self.window) < 1:
            raise ValueError("window must hold at least one observation")
        object.__setattr__(self, "window", int(self.window))


@dataclass(frozen=True)
class PredictiveGaussian:
    """A scalar Gaussian forecast N(mean, var), var > 0."""

    mean: float
    var: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.var)):
            raise NonFiniteForecastError(
                "forecast is not finite (mean %g, variance %g)"
                % (self.mean, self.var))
        if self.var <= 0.0:
            raise ValueError("forecast variance must be positive")
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "var", float(self.var))

    def logpdf(self, y: float) -> float:
        """Log density at ``y``; ``-inf`` where the squared residual overflows."""
        with np.errstate(over="ignore"):
            sq = np.float64(y - self.mean) ** 2
        return float(-0.5 * (LOG_2PI + np.log(self.var) + sq / self.var))


@dataclass(frozen=True)
class IntelState:
    """Observation buffer, weight history and the last step's forecasts.

    ``forecasts`` holds one forecast per model of ``pool``, made from
    ``buffer`` for the time one after its newest entry.  Both are empty in
    a state that carries no forecasts, such as :meth:`initial`'s;
    :func:`intel_step` then recomputes them.  ``predictive`` holds the
    weights ``wtt_config`` gives from ``history``, the fusion exponents of
    those forecasts; ``None`` when the state carries none.
    """

    buffer: tuple
    history: WeightHistory
    forecasts: tuple = ()
    pool: tuple = ()
    predictive: WeightVector | None = None
    wtt_config: WTTConfig | None = None

    def __post_init__(self):
        buf = tuple((float(t), float(v)) for t, v in self.buffer)
        times = [t for t, _ in buf]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("buffer timestamps must be strictly increasing")
        object.__setattr__(self, "buffer", buf)

    @property
    def model_weights(self) -> WeightVector:
        """Current model weights (the history's latest row)."""
        return self.history.last

    @classmethod
    def initial(cls, k: int = None, weights: WeightVector = None) -> "IntelState":
        if weights is None:
            if k is None:
                raise DimensionMismatchError("give either k or weights")
            weights = WeightVector.uniform(k)
        return cls((), WeightHistory.start(weights))


def _sqexp(model: GPTSModel, a, b):
    """Squared-exponential kernel matrix between time vectors a and b."""
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[None, :]
    # a gap whose square overflows is an infinite one: its kernel entry is 0
    with np.errstate(over="ignore"):
        z = (a - b) / model.lengthscale
        return model.signal_variance * np.exp(-0.5 * z * z)


def gp_predict_next(model: GPTSModel, times, values, t_next: float) -> PredictiveGaussian:
    """One-step-ahead GP forecast from an observation window.

    Conditions on ``(times, values)`` (finite, strictly increasing times, at
    most a caller-enforced window of them) and returns the predictive
    Gaussian at a finite ``t_next``:

        mean = mu + k*^T (K + noise I)^{-1} (v - mu)
        var  = k(t*, t*) + noise - k*^T (K + noise I)^{-1} k*

    The Gram matrix takes an escalating jitter, from ``1e-10`` tenfold up to
    ``1e-4`` times ``signal_variance``, until it passes a Cholesky
    factorization; one solve on it then serves both right-hand sides.

    The Gram matrix and ``k*`` are built from the times relative to
    ``t_next``, and the model keeps the last jittered Gram it accepted.  A
    window whose relative times are bitwise those of the model's previous
    one reuses it, so a model factorizes only when its window's times
    relative to the next time stamp change, and a reused Gram gives bitwise
    the forecast a fresh factorization would.

    Raises
    ------
    ValueError
        If a time stamp is not finite, a gap to ``t_next`` overflows, or the
        times are not strictly increasing (also relative to ``t_next``).
    FactorizationFailureError
        If the Gram matrix cannot be factorized even at maximum jitter.
    NonFiniteForecastError
        If the mean or variance overflows, e.g. on values near 1e308.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if times.ndim != 1 or times.shape != values.shape or times.size < 1:
        raise DimensionMismatchError("times and values must be matching vectors")
    # a NaN or infinite time stamp, or a gap to t_next past the float range,
    # leaves a non-finite relative time
    with np.errstate(over="ignore", invalid="ignore"):
        rel = times - float(t_next)
    if not np.isfinite(rel).all():
        raise ValueError("time stamps must be finite and finitely far apart")
    key = rel.tobytes()

    factored = model._factored
    if factored is not None and factored[0] == key:
        _, jittered, k_star = factored
    else:
        # Rounding is monotone, so strictly increasing relative times imply
        # strictly increasing times; a reused Gram therefore needs no check.
        if np.any(rel[1:] <= rel[:-1]):
            raise ValueError("times must be strictly increasing")
        ext = np.append(rel, 0.0)
        full = _sqexp(model, ext, ext)
        full.flat[::ext.size + 1] += model.noise_var  # k(t*, t*) is not read
        gram, k_star = full[:-1, :-1], full[:-1, -1]
        jitter = JITTER_START
        while jitter <= JITTER_MAX * (1.0 + 1e-12):
            jittered = gram + jitter * model.signal_variance * np.eye(times.size)
            try:
                cho_factor(jittered)
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        else:
            raise FactorizationFailureError(
                "Gram matrix failed Cholesky at jitter %g * signal variance"
                % JITTER_MAX)
        object.__setattr__(model, "_factored", (key, jittered, k_star))

    # values near the float limit overflow here; PredictiveGaussian reports it
    with np.errstate(over="ignore", invalid="ignore"):
        resid = values - model.mean_const
        solved = np.linalg.solve(jittered, np.column_stack((resid, k_star)))
        mean = model.mean_const + k_star @ solved[:, 0]
        var = model.signal_variance + model.noise_var - k_star @ solved[:, 1]
    # cancellation can push a near-zero variance a hair negative
    var = max(float(var), 1e-300)
    return PredictiveGaussian(float(mean), var)


def window_predict(model: GPTSModel, buffer, t_next: float) -> PredictiveGaussian:
    """Model's forecast at ``t_next`` from the shared buffer (prior if empty)."""
    if not buffer:
        return PredictiveGaussian(model.mean_const,
                                  model.signal_variance + model.noise_var)
    tail = buffer[-model.window:]
    times = [t for t, _ in tail]
    values = [v for _, v in tail]
    return gp_predict_next(model, times, values, t_next)


def poe_combine(predictives, weights: WeightVector) -> PredictiveGaussian:
    """Weighted product-of-experts fusion of scalar Gaussian forecasts.

    Each expert enters with exponent ``weights[k]``; the product of the
    powered Gaussians renormalizes to

        var  = 1 / sum_k w_k / var_k
        mean = var * sum_k w_k mean_k / var_k

    Raises
    ------
    ZeroPrecisionError
        If the total precision is zero (all mass on infinite-variance
        experts, or every exponent zero).
    """
    preds = list(predictives)
    if len(preds) != len(weights):
        raise DimensionMismatchError("one forecast per weight required")
    lam = 0.0
    num = 0.0
    # means near the float limit overflow here; PredictiveGaussian reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for wk, p in zip(weights.w, preds):
            lam += wk / p.var
            num += wk * p.mean / p.var
        if lam <= 0.0:
            raise ZeroPrecisionError("fused forecast has zero precision")
        mean = num / lam
    return PredictiveGaussian(mean, 1.0 / lam)


def intel_step(state: IntelState, pool, y_t: float, t: float,
               wtt_config: WTTConfig, weight_floor: float = 0.0):
    """One observation's worth of GP-ensemble prediction.

    The arriving ``y_t`` is scored under each model's standing forecast for
    time ``t``.  That is the forecast the previous step made and ``state``
    carries, when it was made for this ``t`` by this ``pool``; otherwise it
    is recomputed from the buffer, and on the very first step it is the
    prior N(mean, signal_variance + noise_var).  Weights update from those
    evidences, the buffer absorbs ``(t, y_t)``, every model forecasts
    ``t + 1``, and the forecasts fuse by product of experts with the
    *next-step predictive* weights as exponents.  So each model forecasts
    once per observation, and factorizes only when its window's times
    relative to the next time stamp change.  The predictive weights are
    carried too: the next step's weight update starts from them when its
    pool is this one and its ``wtt_config`` is the same object.

    Returns
    -------
    state : IntelState
        Carries each model's own forecast for time ``t + 1`` and the
        predictive weights that fused them.
    fused : PredictiveGaussian
        Ensemble forecast for time ``t + 1``.
    log_evidences : ndarray, shape (K,)
        Each model's log density of ``y_t``; ``-inf`` where it underflows.
    """
    pool = tuple(pool)
    if len(pool) != len(state.model_weights):
        raise DimensionMismatchError("pool size does not match weight vector")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("time stamps must be finite")
    if state.buffer and t <= state.buffer[-1][0]:
        raise ValueError("time stamps must arrive strictly increasing")
    y_t = float(y_t)

    same_pool = state.pool == pool
    if state.buffer and t == state.buffer[-1][0] + 1.0 and same_pool:
        current = state.forecasts
    else:
        current = [window_predict(m, state.buffer, t) for m in pool]
    log_evs = np.array([p.logpdf(y_t) for p in current])

    # WTTConfig holds arrays, so only the same object is known to be equal
    carried = (state.predictive
               if same_pool and state.wtt_config is wtt_config else None)
    _, history, _ = weight_step(wtt_config, state.history, log_evs,
                                weight_floor, predictive=carried)

    max_window = max(m.window for m in pool)
    buffer = (state.buffer + ((t, y_t),))[-max_window:]

    forecasts = tuple(window_predict(m, buffer, t + 1.0) for m in pool)
    predictive = apply_wtt(wtt_config, history)
    fused = poe_combine(forecasts, predictive)
    state = IntelState(buffer, history, forecasts, pool, predictive,
                       wtt_config)
    return state, fused, log_evs


def perturb_pool(nominal: GPTSModel, noise_factors) -> list:
    """Candidate pool built by scaling the nominal noise variance.

    ``noise_factors`` are positive multipliers, one model each; a zero-noise
    nominal cannot be perturbed this way.
    """
    factors = [float(f) for f in noise_factors]
    if not factors:
        raise ValueError("need at least one factor")
    if any(f <= 0.0 for f in factors):
        raise ValueError("factors must be positive")
    if nominal.noise_var == 0.0 and any(f != 1.0 for f in factors):
        raise ValueError("cannot scale a zero noise variance")
    return [GPTSModel(nominal.mean_const, nominal.signal_variance,
                      nominal.lengthscale, nominal.noise_var * f,
                      nominal.window)
            for f in factors]
