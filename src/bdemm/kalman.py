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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PSD_ATOL,
    GaussianBelief,
    PointEstimate,
    WeightHistory,
    WeightVector,
    _frozen,
    _trusted,
    checked_cov,
    collapse_mixture,
)
from .errors import DimensionMismatchError, NonFiniteBeliefError
from .evidence import gaussian_innovation
from .wtt import WTTConfig, weight_step

__all__ = [
    "LinearGaussianModel",
    "KfEnsembleState",
    "kf_predict",
    "kf_update",
    "kf_bdemm_step",
]


@dataclass(frozen=True)
class LinearGaussianModel:
    """One linear-Gaussian candidate: transition A, Q; observation B, R.

    Every entry must be finite, and ``Q`` and ``R`` must be covariances;
    a bad matrix raises ``ValueError`` when the model is built.
    """

    A: np.ndarray
    Q: np.ndarray
    B: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_2d(np.asarray(self.B, dtype=float))
        for name, arr in (("A", a), ("B", b)):
            if not np.isfinite(arr).all():
                raise ValueError("%s must be finite" % name)
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


@dataclass(frozen=True)
class KfEnsembleState:
    """Collapsed belief + weight history after t steps."""

    belief: GaussianBelief
    history: WeightHistory

    @property
    def weights(self) -> WeightVector:
        """Current model weights (the history's latest row)."""
        return self.history.last

    @classmethod
    def initial(cls, belief: GaussianBelief, k: int = None,
                weights: WeightVector = None) -> "KfEnsembleState":
        """Fresh state: uniform weights over ``k`` models unless given."""
        if weights is None:
            if k is None:
                raise DimensionMismatchError("give either k or weights")
            weights = WeightVector.uniform(k)
        return cls(belief, WeightHistory.start(weights))


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
    with np.errstate(over="ignore", invalid="ignore"):
        mean = model.A @ belief.mean
        cov = model.A @ belief.cov @ model.A.T + model.Q
        cov = 0.5 * cov + 0.5 * cov.T
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise NonFiniteBeliefError("predicted belief is not finite")
    return _trusted(GaussianBelief, mean, cov)


def kf_update(model: LinearGaussianModel, predicted: GaussianBelief, y):
    """Kalman measurement update plus log evidence from the same innovation.

    Returns
    -------
    posterior : GaussianBelief
        ``predicted`` itself when the log evidence is ``-inf``: such a ``y``
        is too far out to condition on.
    log_evidence : float
        Log density of ``y`` under the predicted observation distribution
        N(B mean, S), S = B P B^T + R; ``-inf`` if its quadratic form
        overflows.

    Raises
    ------
    NonFiniteBeliefError
        If the posterior overflows, or its covariance cancels to roundoff.
    """
    if predicted.dim != model.state_dim:
        raise DimensionMismatchError("belief dimension does not match model")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (model.obs_dim,):
        raise DimensionMismatchError("observation dimension does not match model")
    s, resid, log_ev = gaussian_innovation(y, predicted, model.B, model.R)
    if log_ev == -np.inf:
        return predicted, log_ev
    p = predicted.cov
    with np.errstate(over="ignore", invalid="ignore"):
        # gain G = P B^T S^{-1}, as solve(S, B P)^T since P is symmetric
        gain = np.linalg.solve(s, model.B @ p).T
        mean = predicted.mean + gain @ resid
        cov = p - gain @ model.B @ p
        cov = 0.5 * (cov + cov.T)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise NonFiniteBeliefError("posterior belief is not finite")
    # P - G B P cancels to roundoff when B P B^T dwarfs R by ~1/eps
    scale = max(1.0, float(np.abs(cov).max()))
    if float(np.linalg.eigvalsh(cov)[0]) < -PSD_ATOL * scale:
        raise NonFiniteBeliefError("posterior covariance lost to roundoff")
    return _trusted(GaussianBelief, mean, cov), log_ev


def kf_bdemm_step(state: KfEnsembleState, pool, y, wtt_config: WTTConfig,
                  weight_floor: float = 0.0):
    """One observation's worth of ensemble filtering over K linear models.

    Every model predicts from the shared collapsed belief, updates on ``y``
    and reports its log evidence; the weight-transition operator proposes
    predictive weights, Bayes' rule updates them with the evidences, and the
    weighted posteriors are moment-matched into the next shared belief,
    whose mean is the point estimate.  A model whose log evidence is
    ``-inf`` contributes its prediction (see :func:`kf_update`); if every
    model's is, the step is uninformative: the predictive weights carry
    forward unchanged and the next belief collapses the predicted beliefs.

    Returns
    -------
    state : KfEnsembleState
    estimate : PointEstimate
        The collapsed mean, which is the weight-averaged posterior mean.
    log_evidences : ndarray, shape (K,)
        Each model's log evidence for ``y``; ``-inf`` where it underflows.
    """
    pool = list(pool)
    if len(pool) != len(state.weights):
        raise DimensionMismatchError("pool size does not match weight vector")
    posteriors = []
    log_evs = np.empty(len(pool))
    for k, model in enumerate(pool):
        predicted = kf_predict(model, state.belief)
        posterior, log_evs[k] = kf_update(model, predicted, y)
        posteriors.append(posterior)

    weights, history, _ = weight_step(wtt_config, state.history, log_evs,
                                      weight_floor)
    belief = collapse_mixture(posteriors, weights)
    estimate = _trusted(PointEstimate, belief.mean)
    return KfEnsembleState(belief, history), estimate, log_evs
