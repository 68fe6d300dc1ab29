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

import logging
from dataclasses import dataclass

import numpy as np

from .core import (
    GaussianBelief,
    PointEstimate,
    WeightHistory,
    WeightVector,
    checked_cov,
    collapse_mixture,
)
from .errors import DimensionMismatchError, NonFiniteBeliefError
from .evidence import gaussian_innovation
from .wtt import WTTConfig, weight_step

logger = logging.getLogger(__name__)

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
            arr = np.array(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
    try:
        return GaussianBelief(mean, 0.5 * cov + 0.5 * cov.T)
    except ValueError as exc:
        # the belief's checks fail here only on a non-finite prediction
        raise NonFiniteBeliefError("predicted belief is not finite") from exc


def kf_update(model: LinearGaussianModel, predicted: GaussianBelief, y):
    """Kalman measurement update plus log evidence from the same innovation.

    Returns
    -------
    posterior : GaussianBelief
    log_evidence : float
        Log density of ``y`` under the predicted observation distribution
        N(B mean, S), S = B P B^T + R; ``-inf`` if its quadratic form
        overflows.
    """
    if predicted.dim != model.state_dim:
        raise DimensionMismatchError("belief dimension does not match model")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (model.obs_dim,):
        raise DimensionMismatchError("observation dimension does not match model")
    s, resid, log_ev = gaussian_innovation(y, predicted, model.B, model.R)
    p = predicted.cov
    # gain G = P B^T S^{-1}, computed as solve(S, B P)^T since P is symmetric
    gain = np.linalg.solve(s, model.B @ p).T
    mean = predicted.mean + gain @ resid
    cov = p - gain @ model.B @ p
    return GaussianBelief(mean, 0.5 * (cov + cov.T)), log_ev


def kf_bdemm_step(state: KfEnsembleState, pool, y, wtt_config: WTTConfig,
                  weight_floor: float = 0.0):
    """One observation's worth of ensemble filtering over K linear models.

    Every model predicts from the shared collapsed belief, updates on ``y``
    and reports its log evidence; the weight-transition operator proposes
    predictive weights, Bayes' rule updates them with the evidences, and the
    weighted posteriors are moment-matched into the next shared belief,
    whose mean is the point estimate.  If every log evidence is ``-inf`` the
    step is treated as uninformative: the predictive weights carry forward
    unchanged and the measurement update is skipped, so the next belief
    collapses the predicted beliefs instead of posteriors conditioned on an
    observation no candidate can represent.

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
    predictions = []
    posteriors = []
    log_evs = np.empty(len(pool))
    for k, model in enumerate(pool):
        predicted = kf_predict(model, state.belief)
        posterior, log_ev = kf_update(model, predicted, y)
        predictions.append(predicted)
        posteriors.append(posterior)
        log_evs[k] = log_ev

    weights, history, informative = weight_step(wtt_config, state.history,
                                                log_evs, weight_floor)
    if not informative:
        # Every evidence underflowed even in the log domain, which takes a
        # residual so extreme the quadratic form overflows.  Conditioning on
        # such an observation would push the posterior means out to where
        # the mixture collapse itself overflows, so the step extracts
        # nothing from it: predictive weights, predicted beliefs.
        posteriors = predictions

    belief = collapse_mixture(posteriors, weights)
    estimate = PointEstimate(belief.mean)
    logger.debug("kf step: max model weight %.3g", float(weights.w.max()))

    return KfEnsembleState(belief, history), estimate, log_evs
