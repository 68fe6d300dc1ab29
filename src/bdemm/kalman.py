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
innovation (closed form for a scalar observation, else one factorization
and two solves), one batched update with one stacked roundoff guard, and
one array collapse serve all K models: a row's count of numpy calls does
not grow with K.  :func:`kf_predict` is the K = 1 call of the predict
kernel, and a one-model pool runs the textbook filter.

A pool with a scalar state and a scalar observation (d = m = 1) predicts
and updates instead on the (K,) vectors of its four entries, cached with
the stacks.  That row takes the same elementwise operations in the same
order, where the stacked kernels take a 1x1 matmul for each product, and
raises the same errors in the same order.  It shares the rest: it scores
through the closed form of :func:`gaussian_innovation` and collapses
through :func:`~bdemm.core._collapse`, on (K, 1) and (K, 1, 1) views of its
posteriors.  It makes no LAPACK call, and its values equal the stacked
kernels' under ``==``: a matmul adds its product to +0.0, so only a zero's
sign can differ inside a row, and the estimate, the weights and the
evidences are the same bytes.

The roundoff guard reads each posterior covariance's lowest eigenvalue (a
variance or a 1x1 matrix is its own) and raises when it falls below
``-PSD_ATOL`` times the matrix's largest magnitude, at least 1.  That
tolerance is negative, so the magnitudes are computed only on a row where
some model's lowest eigenvalue is negative.
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
    _array,
    _collapse,
    _finite,
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
    NonFiniteBeliefError,
)
from .evidence import _scalar_log_density, gaussian_innovation
from .wtt import WTTConfig, _transition, _weight_step

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
        a = _array(self.A, "A", 2)
        b = _array(self.B, "B", 2)
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
            object.__setattr__(self, name, arr)

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
    (K, m, d) and (K, m, m) arrays, then, with a scalar state and
    observation, the (K,) vectors of their one entries, else None.  The
    cache holds the models, so their identities are not reused while a
    stack is kept."""
    d, m = pool[0].state_dim, pool[0].obs_dim
    if any(model.state_dim != d or model.obs_dim != m for model in pool):
        raise DimensionMismatchError(
            "pool models differ in state or observation dimension")
    stacks = tuple(_frozen(np.stack([getattr(model, name) for model in pool]))
                   for name in "AQBR")
    entries = tuple(s[:, 0, 0] for s in stacks) if d == m == 1 else None
    return stacks + (entries,)


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
    if not _finite(means, covs):
        raise NonFiniteBeliefError("predicted belief is not finite")
    return means, covs


def _update(means, covs, B, R, y):
    """Measurement update of K predicted beliefs on one ``y``.

    Returns the (K, d) posterior means, (K, d, d) covariances and (K,) log
    evidences.  A model whose log evidence is ``-inf`` keeps its prediction.
    Runs under its caller's error scope.
    """
    log_ev, resid, gain_t = gaussian_innovation(y, means, covs, B, R)
    # gain G = P B^T S^{-1}, as solve(S, B P)^T since P is symmetric
    gain = gain_t.swapaxes(1, 2)
    post_means = means + (gain @ resid[:, :, None])[:, :, 0]
    post_covs = covs - gain @ B @ covs
    post_covs = _symmetrized(post_covs)
    return _posterior(means, covs, post_means, post_covs, log_ev)


def _scalar_update(a, q, b, r, belief: GaussianBelief, y):
    """:func:`_predict`, the closed-form score that :func:`gaussian_innovation`
    takes for a scalar observation (the shared
    :func:`~bdemm.evidence._scalar_log_density`) and :func:`_update`, for a
    pool with a scalar state and observation, on the (K,) vectors
    ``a, q, b, r`` of its entries.

    Each 1x1 matmul of the stacked kernels is one elementwise product here,
    taken in the same order, and every check raises the same error in the
    same order.  So the results equal theirs under ``==``; only a zero's
    sign can differ, since a matmul adds its product to +0.0.  Returns the
    (K,) posterior means, variances and log evidences.  Runs under its
    caller's error scope.
    """
    means = a * belief.mean
    covs = a * belief.cov[0] * a + q
    if not _finite(means, covs):
        raise NonFiniteBeliefError("predicted belief is not finite")
    bp = b * covs
    s = bp * b + r
    resid = y - b * means
    log_ev = _scalar_log_density(resid, s)
    gain = bp / s
    post_means = means + gain * resid
    post_covs = covs - gain * b * covs
    return _posterior(means, covs, post_means, post_covs, log_ev)


def _posterior(means, covs, post_means, post_covs, log_ev):
    """The update's last stage, on stacked beliefs or on a scalar state's
    (K,) vectors: each model whose log evidence is ``-inf`` keeps its
    prediction, then the posterior is checked for finiteness and for
    roundoff.  Returns ``post_means, post_covs, log_ev``."""
    kept = log_ev == -np.inf
    if np.count_nonzero(kept):
        post_means[kept] = means[kept]
        post_covs[kept] = covs[kept]
    if not _finite(post_means, post_covs):
        raise NonFiniteBeliefError("posterior belief is not finite")
    # P - G B P cancels to roundoff when B P B^T dwarfs R by ~1/eps
    # a variance or a 1x1 matrix is its own eigenvalue, and eigvalsh
    # returns it as is
    k = len(post_covs)
    low = (post_covs.reshape(k) if post_covs.size == k
           else np.linalg.eigvalsh(post_covs)[:, 0])
    # the tolerance is at least PSD_ATOL, so only a negative low needs it
    if np.count_nonzero(low < 0.0):
        scale = np.maximum(1.0, np.abs(post_covs).reshape(k, -1).max(axis=1))
        lost = low < -PSD_ATOL * scale
        if np.count_nonzero(lost & ~kept):
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
    A, Q, B, R, entries = _stacked(state._pool(pool))
    y = _observation(state.belief, B, y)
    if entries is None:
        means, covs = _predict(A, Q, state.belief)
        means, covs, log_evs = _update(means, covs, B, R, y)
    else:
        means, covs, log_evs = _scalar_update(*entries, state.belief, y)
        means, covs = means[:, None], covs[:, None, None]

    weights, history, _ = _weight_step(
        _transition(wtt_config, state.history), state.history, log_evs,
        weight_floor)
    belief = _collapse(means, covs, weights.w)
    estimate = _trusted(PointEstimate, belief.mean)
    return KfEnsembleState(belief, history), estimate, log_evs
