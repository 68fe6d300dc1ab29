"""Kalman-filter ensemble: exact Bayesian inference over linear models.

Each candidate model is a linear-Gaussian state-space pair

    x_t = A x_{t-1} + process noise,   process noise ~ N(0, Q)
    y_t = B x_t     + obs noise,       obs noise     ~ N(0, R)

so per-model prediction and update are the textbook Kalman recursions and
the per-model log evidence is available in closed form as a Gaussian log
density.  The ensemble layer mixes the K per-model posteriors: model weights
move through a weight-transition operator, get a Bayes update from the log
evidences, and the posterior mixture is moment-matched back down to a single
Gaussian that seeds all K models at the next step.  That collapse is what
keeps the state representation from branching into K^t components.

A step runs the whole pool at once.  The pool's matrices are stacked once
(and cached) into (K, ., .) arrays, so one batched predict, one batched
innovation (one factorization, two solves), one batched update with one
stacked roundoff check, and one array collapse serve all K models: a row's
count of numpy calls does not grow with K.  :func:`kf_predict` is the K = 1
call of the predict kernel, and a one-model pool runs the textbook filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    PSD_ATOL,
    GaussianBelief,
    PointEstimate,
    WeightHistory,
    WeightVector,
    _EngineState,
    _collapse,
    _floats,
    _frozen,
    _quiet,
    _start_history,
    _symmetrized,
    _trusted,
    checked_cov,
)
from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NonFiniteBeliefError,
)
from .evidence import gaussian_innovation
from .wtt import WTTConfig, _weight_step

__all__ = [
    "LinearGaussianModel",
    "KfEnsembleState",
    "kf_predict",
    "kf_bdemm_step",
]


@dataclass(frozen=True, eq=False)
class LinearGaussianModel:
    """One linear-Gaussian candidate: transition A, Q; observation B, R.

    Every entry must be finite, and ``Q`` and ``R`` must be covariances; a
    bad matrix raises ``InvalidInputError`` when the model is built.  Models
    compare and hash by identity, which is what the pool-stacking cache
    keys on.
    """

    A: np.ndarray
    Q: np.ndarray
    B: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        a = _floats(self.A, "A", 2)
        b = _floats(self.B, "B", 2)
        for name, arr in (("A", a), ("B", b)):
            if not np.isfinite(arr).all():
                raise InvalidInputError("%s must be finite" % name)
        q = checked_cov(self.Q, "Q")
        r = checked_cov(self.R, "R")
        d = a.shape[0]
        if a.shape != (d, d):
            raise DimensionMismatchError("A must be square")
        if q.shape != (d, d):
            raise DimensionMismatchError("Q must match A")
        m = b.shape[0]
        if b.shape != (m, d):
            raise DimensionMismatchError("B must be (obs_dim, state_dim)")
        if r.shape != (m, m):
            raise DimensionMismatchError("R must match B")
        for name, arr in (("A", a), ("Q", q), ("B", b), ("R", r)):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.B.shape[0]


@dataclass(frozen=True, eq=False)
class KfEnsembleState(_EngineState):
    """Collapsed belief + weight history after t steps."""

    belief: GaussianBelief
    history: WeightHistory

    @classmethod
    def initial(cls, belief: GaussianBelief, k: int = None,
                weights: WeightVector = None) -> "KfEnsembleState":
        """Fresh state: uniform weights over ``k`` models unless given."""
        return cls(belief, _start_history(k, weights))


@lru_cache(maxsize=8)
def _stacked(pool: tuple):
    """The pool's ``A, Q, B, R`` stacked into (K, d, d), (K, d, d),
    (K, m, d) and (K, m, m) arrays.  The cache holds the models, so their
    identities are not reused while a stack is kept."""
    d, m = pool[0].state_dim, pool[0].obs_dim
    if any(model.state_dim != d or model.obs_dim != m for model in pool):
        raise DimensionMismatchError(
            "pool models differ in state or observation dimension")
    return tuple(_frozen(np.stack([getattr(model, name) for model in pool]))
                 for name in "AQBR")


def _observation(belief: GaussianBelief, B, y) -> np.ndarray:
    """``y`` as a vector, checked with ``belief`` against the (K, m, d) ``B``."""
    if belief.dim != B.shape[2]:
        raise DimensionMismatchError("belief dimension does not match model")
    y = _floats(y, "y", 1)
    if y.shape != B.shape[1:2]:
        raise DimensionMismatchError("observation dimension does not match model")
    return y


def _predict(A, Q, belief: GaussianBelief):
    """Every model's prediction from one shared belief: (K, d) means
    ``A_k mean`` and (K, d, d) covariances ``A_k cov A_k^T + Q_k``, under
    its caller's error scope."""
    means = A @ belief.mean
    covs = A @ belief.cov @ A.swapaxes(1, 2) + Q
    covs = _symmetrized(covs)
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        raise NonFiniteBeliefError("predicted belief is not finite")
    return means, covs


def _update(means, covs, B, R, y):
    """Measurement update of K predicted beliefs on one ``y``.

    Returns the (K, d) posterior means, (K, d, d) covariances and (K,) log
    evidences.  A model whose log evidence is ``-inf`` keeps its prediction.
    Runs under its caller's error scope.
    """
    log_ev, resid, gain_t = gaussian_innovation(y, means, covs, B, R)
    kept = log_ev == -np.inf
    # gain G = P B^T S^{-1}, as solve(S, B P)^T since P is symmetric
    gain = gain_t.swapaxes(1, 2)
    post_means = means + (gain @ resid[:, :, None])[:, :, 0]
    post_covs = covs - gain @ B @ covs
    post_covs = _symmetrized(post_covs)
    if kept.any():
        post_means[kept] = means[kept]
        post_covs[kept] = covs[kept]
    if not (np.isfinite(post_means).all() and np.isfinite(post_covs).all()):
        raise NonFiniteBeliefError("posterior belief is not finite")
    # P - G B P cancels to roundoff when B P B^T dwarfs R by ~1/eps
    scale = np.maximum(1.0, np.abs(post_covs).max(axis=(1, 2)))
    lost = np.linalg.eigvalsh(post_covs)[:, 0] < -PSD_ATOL * scale
    if (lost & ~kept).any():
        raise NonFiniteBeliefError("posterior covariance lost to roundoff")
    return post_means, post_covs, log_ev


@_quiet
def kf_predict(model: LinearGaussianModel, belief: GaussianBelief) -> GaussianBelief:
    """One-step-ahead prediction: mean -> A mean, cov -> A cov A^T + Q.

    Raises
    ------
    NonFiniteBeliefError
        If the predicted mean or covariance is not finite, e.g. because
        ``A cov A^T`` overflowed.
    """
    if belief.dim != model.state_dim:
        raise DimensionMismatchError("belief dimension does not match model")
    means, covs = _predict(model.A[None], model.Q[None], belief)
    return _trusted(GaussianBelief, means[0], covs[0])


@_quiet
def kf_bdemm_step(state: KfEnsembleState, pool, y, wtt_config: WTTConfig,
                  weight_floor: float = 0.0):
    """One observation's worth of ensemble filtering over K linear models.

    Every model predicts from the shared collapsed belief, updates on ``y``
    and reports its log evidence, all K at once on the pool's stacked
    matrices; the weight-transition operator proposes predictive weights,
    Bayes' rule updates them with the evidences, and the weighted posteriors
    are moment-matched into the next shared belief, whose mean is the point
    estimate.  A model whose log evidence is ``-inf`` (its quadratic form
    overflows: ``y`` is too far out to condition on) contributes its
    prediction; if every model's is, the step is uninformative: the
    predictive weights carry forward unchanged and the next belief collapses
    the predicted beliefs.

    Returns
    -------
    state : KfEnsembleState
    estimate : PointEstimate
        The collapsed mean, which is the weight-averaged posterior mean.
    log_evidences : ndarray, shape (K,)
        Each model's log evidence for ``y``; ``-inf`` where it underflows.

    Raises
    ------
    DimensionMismatchError
        If the pool's size differs from the weights', its models differ in
        state or observation dimension, or ``state`` or ``y`` does not
        match them.
    NonFiniteBeliefError
        If a prediction, a posterior or the collapse overflows, or a
        posterior covariance cancels to roundoff.
    """
    pool = tuple(pool)
    if len(pool) != len(state.model_weights):
        raise DimensionMismatchError("pool size does not match weight vector")
    A, Q, B, R = _stacked(pool)
    y = _observation(state.belief, B, y)
    means, covs = _predict(A, Q, state.belief)
    means, covs, log_evs = _update(means, covs, B, R, y)

    weights, history, _ = _weight_step(wtt_config, state.history, log_evs,
                                       weight_floor)
    belief = _collapse(means, covs, weights.w)
    estimate = _trusted(PointEstimate, belief.mean)
    return KfEnsembleState(belief, history), estimate, log_evs
