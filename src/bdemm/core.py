"""Core value types and weight arithmetic for dynamic model ensembles.

The objects here are the common currency of every engine in the package:

* :class:`WeightVector` -- a point on the probability simplex, one weight per
  candidate model.
* :class:`WeightHistory` -- the latest posterior weight vector, the running
  column sums of all of them (fuel for urn-style operators) and their count.
* :class:`GaussianBelief` -- mean and covariance of a Gaussian state belief.
* :class:`PointEstimate` -- a bare point estimate of the latent state.

Operations are pure functions: state in, state out, nothing mutated.  The
weight update takes log evidences and normalizes with a log-sum-exp, so tiny
evidences (common under sharply peaked likelihoods) do not underflow it.

Numerical conventions used throughout the package:

* weight vectors must sum to 1 within ``SIMPLEX_ATOL`` (1e-12),
* covariance matrices must be symmetric within ``SYM_ATOL`` and have
  eigenvalues >= -``PSD_ATOL`` (1e-10), both scaled by their magnitude,
* re-symmetrizing halves a matrix before adding its transpose, except a
  1x1 matrix, which is its own transpose and is kept as it is; the two
  differ only on an odd multiple of the smallest subnormal, which halving
  rounds,
* a step tests an array's finiteness once, by counting its finite entries
  (:func:`_finite`), and reduces its masks with ``np.count_nonzero``,
* a step calls ufunc methods and C-level ndarray methods (``np.add.reduce``,
  ``a.argsort()``), not numpy's Python-level wrappers (``np.sum``,
  ``a.sum()``, ``np.argsort``), which only forward to them,
* inputs are validated once, at the boundary: public constructors check
  them, and values an engine step builds from checked ones are not; each
  array a constructor keeps passes one rule, :func:`_array`, which
  converts it once to a fresh read-only float array of a fixed rank,
  with at least one entry and every entry finite (an ``IntelState``
  buffer, which may be empty, and a ``WTTConfig`` Markov matrix or
  pseudo-count vector, whose every fault is a ``ConfigMismatchError``,
  keep rules of their own),
* types that hold arrays compare and hash by identity (``eq=False``), as
  numpy gives no single truth value for two arrays being equal,
* a Bayes update in which every prior-times-evidence product is zero is
  uninformative: the Bayes kernel, which every engine step runs inside
  the kernel of :func:`bdemm.wtt.weight_step`, reports it, and the step
  carries the predictive weights forward unchanged; only the public
  :func:`update_model_weights_log` raises
  :class:`~bdemm.errors.AllZeroError` for it,
* a pool of one model takes no log-sum-exp: its posterior weight is
  exactly 1 whenever its log evidence is finite, as the log-sum-exp
  would give at K = 1 under any floor, and a ``-inf``, NaN or ``+inf``
  evidence is read as it is for a larger pool,
* one floating-point error rule: every public function and constructor
  that computes on caller values runs with numpy's error state set to
  ignore everything (:func:`_quiet`) and checks its results explicitly;
  kernels and model callables run under their caller's scope, which every
  engine step provides.  So no numpy warning escapes, and a caller's
  ``np.seterr`` or ``np.errstate`` settings do not reach inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from .errors import (
    AllZeroError,
    DimensionMismatchError,
    InvalidInputError,
    NegativeEntryError,
    NonFiniteBeliefError,
    NonFiniteWeightError,
)

SIMPLEX_ATOL = 1e-12
SYM_ATOL = 1e-10
PSD_ATOL = 1e-10

__all__ = [
    "WeightVector",
    "WeightHistory",
    "GaussianBelief",
    "PointEstimate",
    "update_model_weights_log",
    "bma_point_estimate",
    "collapse_mixture",
    "checked_cov",
    "SIMPLEX_ATOL",
    "SYM_ATOL",
    "PSD_ATOL",
]


def _quiet(fn):
    """Run ``fn`` with numpy's error state set to ignore everything.

    The one floating-point error scope of a public function or constructor:
    it and the kernels it reaches run under it and check their results
    themselves.  numpy's own errstate decorator, built once per function:
    since numpy 2.0 it keeps each call's context-variable token in that
    call, so a nested or re-entered call restores its caller's state, and
    no errstate object is built or entered per call.
    """
    return np.errstate(all="ignore")(fn)


def _frozen(a):
    """Return a read-only float copy of ``a``."""
    out = np.array(a, dtype=float)
    out.setflags(False)  # write=False, without numpy's keyword parse
    return out


def _not_complex(value):
    """``value`` itself, unless it is a numpy complex number or array, which
    numpy would cast to a real with a ``ComplexWarning``, dropping its
    imaginary part: that raises ``InvalidInputError``, a ``TypeError`` that
    each converter reports as its own error.  (``float`` and ``int``
    already refuse Python's ``complex``.)"""
    if getattr(getattr(value, "dtype", None), "kind", None) == "c":
        raise InvalidInputError("got a numpy complex value")
    return value


def _floats(value, name, ndmin=0, error=InvalidInputError) -> np.ndarray:
    """``value`` as a fresh float array of at least ``ndmin`` dimensions;
    one numpy cannot read as real numbers, a complex one included, raises
    ``error``.  Only an object array, which can hold numpy complex
    scalars, has its elements checked one by one."""
    try:
        x = np.array(value, ndmin=ndmin)
        if x.dtype.char == "d" and x.dtype.isnative:
            return x
        if x.dtype.char == "O":
            for item in x.flat:
                _not_complex(item)
        return _not_complex(x).astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error("%s must be numeric (%s)" % (name, exc)) from None


def _array(value, name, ndim, error=InvalidInputError) -> np.ndarray:
    """``value`` as a fresh, read-only float array of exactly ``ndim``
    dimensions (a lower rank promoted, as ``ndmin`` does), with at least
    one entry and every entry finite.  The package's one array rule for
    public constructors: a value numpy cannot read as real numbers, or
    one with a NaN or infinite entry, raises ``error``; another rank, or
    no entry at all, raises ``DimensionMismatchError``."""
    x = _floats(value, name, ndim, error)
    if x.ndim != ndim or not x.size:
        raise DimensionMismatchError("%s must be a non-empty %d-d array, got shape %r"
                                     % (name, ndim, x.shape))
    if not _finite(x):
        raise error("%s must be finite" % name)
    x.setflags(False)  # write=False, as in _frozen
    return x


def _real(value, name, error=InvalidInputError) -> float:
    """``value`` as a Python float; anything but one real number raises
    ``error``."""
    x = _floats(value, name, error=error)
    if x.ndim:
        raise error("%s must be a real scalar" % name)
    return float(x)


def _count(n, error, message) -> int:
    """``n`` as an ``int`` if it is a whole number from 1 to 2**53, a
    whole-valued float included; anything else, a complex number too,
    raises ``error(message)``.  The package's one whole-number rule: above
    2**53 a float holds no exact whole number, and numpy could not shape
    such a count anyway."""
    try:
        if int(_not_complex(n)) == n and 1 <= n <= 2**53:
            return int(n)
    except (TypeError, ValueError, OverflowError):  # NaN, inf, non-numbers
        pass
    raise error(message)


@cache
def _field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def _trusted(cls, *values):
    """Build the frozen dataclass ``cls`` from already-checked ``values``,
    skipping its ``__post_init__``.  Arrays are marked read-only in place, so
    each must be read-only already or one the caller has just computed."""
    obj = object.__new__(cls)
    for name, value in zip(_field_names(cls), values, strict=True):
        if isinstance(value, np.ndarray):
            value.setflags(False)  # write=False, as in _frozen
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Probability weights over K candidate models.

    Parameters
    ----------
    w : array_like, shape (K,)
        Nonnegative entries summing to 1 within ``SIMPLEX_ATOL``.  The stored
        array is a read-only copy, so instances are safe to share.
    """

    w: np.ndarray

    @_quiet
    def __post_init__(self):
        w = _array(self.w, "weights", 1)
        if np.any(w < 0.0):
            raise NegativeEntryError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > SIMPLEX_ATOL:
            raise InvalidInputError("weights must sum to 1 within %g (got %r)"
                                    % (SIMPLEX_ATOL, float(w.sum())))
        object.__setattr__(self, "w", w)

    def __len__(self) -> int:
        return self.w.size

    @classmethod
    def uniform(cls, k: int) -> "WeightVector":
        """Uniform weights over ``k`` models; ``k`` not a whole number of at
        least 1 raises ``DimensionMismatchError``."""
        k = _count(k, DimensionMismatchError,
                   "need a whole number of models, at least one")
        return cls(np.full(k, 1.0 / k))


@dataclass(frozen=True, eq=False)
class WeightHistory:
    """What the transition operators need of a weight trajectory.

    The first row is the initial weight assignment (time 0); each completed
    step appends its posterior weights, so ``len(history)`` is the number of
    completed steps plus one.  Every operator reads only the latest row and
    the column sums ``cumulative[k] = sum_rows w_k``, so those two and the
    row count are all a history keeps: its size is O(K) however long the
    stream runs.  Callers that want the trajectory record it themselves.
    """

    last: WeightVector
    cumulative: np.ndarray
    count: int = 1

    def __post_init__(self):
        if not isinstance(self.last, WeightVector):
            raise InvalidInputError("history rows must be WeightVector instances")
        cum = _array(self.cumulative, "cumulative sums", 1)
        if cum.shape != (len(self.last),):
            raise DimensionMismatchError("cumulative sums must be one per model")
        # the urn operator renormalizes them without re-checking
        if np.any(cum < 0.0):
            raise InvalidInputError("cumulative sums must be nonnegative")
        object.__setattr__(self, "cumulative", cum)
        object.__setattr__(self, "count", _count(
            self.count, InvalidInputError, "count must be a whole number >= 1"))

    @classmethod
    def start(cls, initial: WeightVector) -> "WeightHistory":
        """History holding only the initial weight assignment."""
        return cls(initial, initial.w)

    def append(self, weights: WeightVector) -> "WeightHistory":
        """New history with ``weights`` as the latest row (self unchanged)."""
        if weights.w.shape != self.cumulative.shape:
            raise DimensionMismatchError("appended row has wrong length")
        return _trusted(WeightHistory, weights, self.cumulative + weights.w,
                        self.count + 1)

    @property
    def width(self) -> int:
        return len(self.last)

    def __len__(self) -> int:
        return self.count


def _start_history(k, weights) -> WeightHistory:
    """An engine's opening history: ``weights`` if given, else uniform
    weights over ``k`` models."""
    if weights is None:
        if k is None:
            raise DimensionMismatchError("give either k or weights")
        weights = WeightVector.uniform(k)
    return WeightHistory.start(weights)


class _EngineState:
    """What the Kalman, particle and GP engine states share: a ``history``
    of model weights, whose latest row is the current ``model_weights``."""

    @property
    def model_weights(self) -> WeightVector:
        """Current model weights (the history's latest row)."""
        return self.history.last

    def _pool(self, pool) -> tuple:
        """``pool`` as a tuple, one model per model weight; a pool of
        another size raises ``DimensionMismatchError``.  Every engine step
        checks its pool here before it computes anything."""
        pool = tuple(pool)
        if len(pool) != len(self.model_weights):
            raise DimensionMismatchError(
                "pool size does not match weight vector")
        return pool


def _finite(*arrays) -> bool:
    """Whether every entry of every array is finite: one counted test per
    array, which skips ``ndarray.all``'s Python-level wrapper."""
    for a in arrays:
        if np.count_nonzero(np.isfinite(a)) != a.size:
            return False
    return True


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """``(a + a^T) / 2`` over the last two axes, halved before the sum so
    that entries near the float limit do not overflow; a 1x1 stack is its
    own transpose and comes back as it is, not a copy."""
    if a.shape[-1] == 1:
        return a
    half = 0.5 * a
    return half + half.swapaxes(-1, -2)


@_quiet
def checked_cov(m, name: str = "covariance") -> np.ndarray:
    """Validate a covariance matrix and return it re-symmetrized, as a
    fresh read-only array.

    It passes :func:`_array` as a 2-d array, a scalar or a vector promoted,
    and must be square, symmetric within ``SYM_ATOL`` and positive
    semidefinite within ``PSD_ATOL``, both scaled by the matrix magnitude so
    large, perfectly healthy covariances are not rejected for roundoff.
    """
    m = _array(m, name, 2)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError("%s must be square" % name)
    scale = max(1.0, float(np.abs(m).max()))
    # entries of opposite sign near the float limit overflow to a rejection
    if float(np.abs(m - m.T).max()) > SYM_ATOL * scale:
        raise InvalidInputError("%s is not symmetric" % name)
    m = _symmetrized(m)
    if float(np.linalg.eigvalsh(m).min()) < -PSD_ATOL * scale:
        raise InvalidInputError("%s is not positive semidefinite" % name)
    m.setflags(False)  # a 1x1 matrix is _array's own, already read-only
    return m


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """Gaussian state belief N(mean, cov).

    The covariance passes :func:`checked_cov`.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _array(self.mean, "mean", 1)
        cov = checked_cov(self.cov)  # square
        if cov.shape[0] != mean.size:
            raise DimensionMismatchError("cov must be (%d, %d), got %r"
                                         % (mean.size, mean.size, cov.shape))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True, eq=False)
class PointEstimate:
    """A bare point estimate of the latent state."""

    x_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_hat",
                           _array(self.x_hat, "point estimate", 1))

    @property
    def dim(self) -> int:
        return self.x_hat.size


def _bayes(w: np.ndarray, log_ev: np.ndarray, weight_floor: float):
    """Posterior weights of the predictive weights ``w`` (on the simplex)
    under the float array ``log_ev``, as a fresh array, or ``None`` when
    every product ``w_k * evidence_k`` is zero; see
    :func:`update_model_weights_log` for the rules and errors.  Runs under
    its caller's error scope."""
    try:
        # NaN fails too; a numpy complex floor would pass the comparison
        in_range = 0.0 <= _not_complex(weight_floor) < 1.0 / w.size
    except (TypeError, ValueError):  # not a number, or not one number
        in_range = False
    if not in_range:
        raise InvalidInputError("floor must sit in [0, 1/K) = [0, %g), got %r"
                                % (1.0 / w.size, weight_floor))
    if log_ev.shape != w.shape:
        raise DimensionMismatchError(
            "one log evidence per weight required, got %d for %d weights"
            % (log_ev.size, w.size))
    # one weight is positive on the simplex, so only its evidence is read
    lw = log_ev if w.size == 1 else np.log(w) + log_ev
    # a NaN or +inf evidence leaves a NaN or +inf maximum
    m = float(np.maximum.reduce(lw))
    if not m < np.inf:
        raise NonFiniteWeightError("log evidences must be < +inf and not NaN")
    if m == -np.inf:
        return None
    if w.size == 1:
        # the log-sum-exp below would give exp(0) = 1, which no floor < 1
        # moves
        return np.ones(1)
    # not through the Monte Carlo evidence kernel: its one exp(lw - m) / sum
    # rounds the weights differently from this log-sum-exp-then-sum, and
    # Kalman streams whose covariance update cancels to roundoff then end
    # on other rows
    w = np.exp(lw - (m + math.log(float(np.add.reduce(np.exp(lw - m))))))
    w /= np.add.reduce(w)
    if weight_floor > 0.0:
        w = np.maximum(w, weight_floor)
        w /= np.add.reduce(w)
    return w


@_quiet
def update_model_weights_log(prior: WeightVector, log_evidences,
                             weight_floor: float = 0.0) -> WeightVector:
    """Bayes update of model weights from log evidences.

    Computes ``w_k ∝ prior_k * exp(log_evidences[k])`` entirely in the log
    domain, so the result is invariant (to roundoff) under a common scaling
    of the evidences.  ``-inf`` entries are legal and zero out the model;
    ``+inf`` or NaN are rejected.  A pool of one (K = 1) skips the
    log-sum-exp: a finite log evidence gives exactly ``[1.0]``, the value
    the log-sum-exp gives at K = 1 under any floor.

    Parameters
    ----------
    prior : WeightVector
        Predictive weights, one per model.
    log_evidences : array_like, shape (K,)
        Log marginal likelihood of the new observation under each model.
    weight_floor : float, optional
        Must sit in ``[0, 1/K)``.  If positive, posterior weights are clamped
        to at least ``weight_floor`` and renormalized; 0 (the default) is off.

    Raises
    ------
    InvalidInputError
        If ``weight_floor`` is not a number, or is NaN, negative or at least
        ``1/K``, whatever the evidences.
    NonFiniteWeightError
        If a log evidence is NaN or ``+inf``.
    AllZeroError
        If every product ``prior_k * evidence_k`` is zero.
    """
    w = _bayes(prior.w, _floats(log_evidences, "log evidences", 1),
               weight_floor)
    if w is None:
        raise AllZeroError("all prior-times-evidence products are zero")
    return _trusted(WeightVector, w)


def _stack_means(estimates):
    """Stack per-model mean vectors into a (K, d) matrix, checking shapes."""
    means = [est.x_hat if isinstance(est, PointEstimate)
             else PointEstimate(est).x_hat for est in estimates]
    if not means:
        raise DimensionMismatchError("need at least one estimate")
    if any(x.size != means[0].size for x in means):
        raise DimensionMismatchError("estimates differ in dimension")
    return np.vstack(means)


@_quiet
def bma_point_estimate(estimates, weights: WeightVector) -> PointEstimate:
    """Weight-averaged point estimate over per-model estimates.

    Parameters
    ----------
    estimates : sequence of PointEstimate or array_like
        K per-model point estimates, all of the same dimension.
    weights : WeightVector
        Current model weights; length must equal K.
    """
    means = _stack_means(estimates)
    if means.shape[0] != len(weights):
        raise DimensionMismatchError("one estimate per weight required")
    return _trusted(PointEstimate, weights.w @ means)


@_quiet
def collapse_mixture(components, weights: WeightVector) -> GaussianBelief:
    """Moment-match a Gaussian mixture down to a single Gaussian.

    The collapsed mean is the weighted mean of the component means (computed
    with the same expression as :func:`bma_point_estimate`, so the two agree
    exactly); the collapsed covariance adds the spread of the means about it:

        cov = sum_{k: w_k > 0} w_k (cov_k + d_k d_k^T),   d_k = mu_k - mu

    re-symmetrized before return.  Centring the means, and scaling each
    deviation by its weight before squaring it, keeps far-off means (1e154
    and up) from overflowing a covariance that is itself representable.

    Raises
    ------
    NonFiniteBeliefError
        If the spread itself overflows: the mixture has no representable
        moment-matched Gaussian.
    """
    comps = list(components)
    if len(comps) != len(weights):
        raise DimensionMismatchError("one component per weight required")
    d = comps[0].dim
    for c in comps:
        if c.dim != d:
            raise DimensionMismatchError("components differ in dimension")
    return _collapse(np.stack([c.mean for c in comps]),
                     np.stack([c.cov for c in comps]), weights.w)


def _collapse(means, covs, w) -> GaussianBelief:
    """:func:`collapse_mixture` of (K, d) ``means`` and (K, d, d) ``covs``
    under the (K,) weights ``w``, on arrays, under its caller's error
    scope."""
    mean = w @ means
    # a zero weight drops its component, whose far-off mean could turn
    # 0 * inf into NaN; with none, the same values are summed unindexed
    if np.count_nonzero(w) < w.size:
        live = w > 0.0
        w, means, covs = w[live], means[live], covs[live]
    dev = means - mean
    spread = (w[:, None] * dev)[:, :, None] * dev[:, None, :]
    # summed over k in order, rounding as adding one component at a time
    # does: Kalman streams at the roundoff limit turn on it
    cov = np.add.reduce(w[:, None, None] * covs + spread, axis=0)
    cov = _symmetrized(cov)
    if not _finite(mean, cov):
        raise NonFiniteBeliefError(
            "mixture collapse overflowed: component means too far apart")
    return _trusted(GaussianBelief, mean, cov)
