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
and updates instead in Python floats, one model at a time, on its four
entries, which the cache holds with the stacks as tuples of floats: a
loop over the models in place of (K,) ufunc calls, whose fixed cost is
most of a small row's.  Python's ``+ - * /`` on floats round as numpy's
elementwise ops do, and the row takes the stacked kernels' operations in
their order, each 1x1 matmul one product, and raises their errors in
their order.  It shares the rest, which stays on numpy because its bits
would move otherwise: it scores through the closed form of
:func:`gaussian_innovation` (``math.log`` differs from numpy's SIMD
``log`` in the last bit on some arguments, and raises where numpy gives
``-inf``), moves the weights through the shared operator (``math.exp``
likewise differs from numpy's ``exp``), and collapses through
:func:`~bdemm.core._collapse` on (K, 1) and (K, 1, 1) views of its
posteriors (its ``w @ means`` BLAS sums with fused multiply-adds, which a
float loop would round differently).  It makes no LAPACK call, and its
values equal the stacked kernels' under ``==``: a matmul adds its
product to +0.0, so only a zero's sign can differ inside a row, and the
estimate, the weights and the evidences are the same bytes.

The 1-D row's cost grows with K, where a row of (K,) ufunc calls costs
about the same at every K tried: in an interleaved in-process sweep (1-D,
forgetting, 2-vCPU Xeon) the float row's step took 0.81 of a (K,) ufunc
row's at K = 2, 0.92 at K = 12, 1.00 at K = 16 and 1.18 at K = 32.  One
row serves every K: the README's and the benchmark's pools have two
models, and no workload here has a larger 1-D pool.

The roundoff guard reads each posterior covariance's lowest eigenvalue (a
variance or a 1x1 matrix is its own) and raises when it falls below
``-PSD_ATOL`` times the matrix's largest magnitude, at least 1.  That
tolerance is negative, so the magnitudes are computed only on a row where
some model's lowest eigenvalue is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf as _INF

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
    observation, the tuples of Python floats of their one entries, which
    :func:`_scalar_update` takes, else None.  The cache holds the models,
    so their identities are not reused while a stack is kept."""
    d, m = pool[0].state_dim, pool[0].obs_dim
    if any(model.state_dim != d or model.obs_dim != m for model in pool):
        raise DimensionMismatchError(
            "pool models differ in state or observation dimension")
    stacks = tuple(_frozen(np.stack([getattr(model, name) for model in pool]))
                   for name in "AQBR")
    entries = (tuple(tuple(s[:, 0, 0].tolist()) for s in stacks)
               if d == m == 1 else None)
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
    pool with a scalar state and observation, in Python floats over the
    entries ``a, q, b, r`` of its K models.

    Each 1x1 matmul of the stacked kernels is one product here, taken in
    the same order, and Python's ``+ - * /`` on floats round as numpy's
    elementwise ops do.  So the results equal theirs under ``==``; only a
    zero's sign can differ, since a matmul adds its product to +0.0.  The
    score takes one (K,) residual and one (K,) variance array, as
    ``math.log`` and numpy's SIMD ``log`` differ in the last bit on some
    arguments.  Every check raises the stacked kernels' error in their
    order, so each pass records its failures and raises after it: every
    prediction is checked before any score, and every posterior's
    finiteness before any roundoff.  A model whose log evidence is
    ``-inf`` keeps its prediction and is excused from the guard.
    Finiteness is a comparison with the infinities, which NaN fails.
    Returns the (K,) posterior means, variances and log evidences.  Runs
    under its caller's error scope.
    """
    mean, cov, y = belief.mean.item(), belief.cov.item(), y.item()
    means, covs, bps, s, resid = [], [], [], [], []
    finite = True
    for ak, qk, bk, rk in zip(a, q, b, r):
        mk = ak * mean
        pk = ak * cov * ak + qk
        finite = finite and -_INF < mk < _INF and -_INF < pk < _INF
        bpk = bk * pk
        means.append(mk)
        covs.append(pk)
        bps.append(bpk)
        s.append(bpk * bk + rk)
        resid.append(y - bk * mk)
    if not finite:
        raise NonFiniteBeliefError("predicted belief is not finite")
    log_ev = _scalar_log_density(np.array(resid), np.array(s))
    lost = False
    for k, lk in enumerate(log_ev.tolist()):
        if lk == -_INF:
            continue
        gk = bps[k] / s[k]
        mk = means[k] = means[k] + gk * resid[k]
        pk = covs[k] = covs[k] - gk * b[k] * covs[k]
        if not (-_INF < mk < _INF and -_INF < pk < _INF):
            finite = False
        # the tolerance is at least PSD_ATOL, so only a negative pk needs it
        elif pk < 0.0 and pk < -PSD_ATOL * max(1.0, -pk):
            lost = True
    if not finite:
        raise NonFiniteBeliefError("posterior belief is not finite")
    if lost:
        raise NonFiniteBeliefError("posterior covariance lost to roundoff")
    return np.array(means), np.array(covs), log_ev


def _posterior(means, covs, post_means, post_covs, log_ev):
    """The update's last stage, on stacked beliefs: each model whose log
    evidence is ``-inf`` keeps its prediction, then the posterior is
    checked for finiteness and for roundoff.  Returns
    ``post_means, post_covs, log_ev``."""
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
    matrices (a 1-D pool's one model at a time, in Python floats); the
    weight-transition operator proposes predictive weights, Bayes' rule
    updates them with the evidences, and the weighted posteriors are
    moment-matched into the next shared belief, whose mean is the point
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
