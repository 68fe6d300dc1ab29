"""Marginal likelihood (evidence) estimators.

The engines' weight updates take log evidences, and the kernels here give
them: :func:`gaussian_innovation` (through :func:`gaussian_log_evidence`) is
the closed form for the linear-Gaussian case, where the evidence of an
observation is a Gaussian density under the predicted observation
distribution, and it also serves the Kalman update.  The particle engine's
evidence is the normalizer of its reweighting step
(:func:`bdemm.smc.mc_log_evidence`).

:func:`is_evidence` is the generic importance sampler: draw from a proposal,
weight by target-over-proposal, average through a log-sum-exp.  It estimates
the normalizing constant of an unnormalized target density, which is the
model evidence when the target is prior-times-likelihood.  It reports the
estimate in the linear domain: 0.0 with a ``RuntimeWarning`` if that
underflows.

The callables inside :class:`UnnormalizedTarget` and :class:`Proposal` are
vectorized over a leading batch axis: ``sample(rng, n)`` returns an (n, d)
array and ``log_density`` maps (n, d) -> (n,).  That keeps million-sample
estimates at numpy speed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import logsumexp
from .errors import NonFiniteWeightError, SingularInnovationCovError

__all__ = [
    "UnnormalizedTarget",
    "Proposal",
    "is_evidence",
    "gaussian_log_evidence",
    "effective_sample_size",
]

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class UnnormalizedTarget:
    """An unnormalized density known only through its log value.

    ``log_density`` maps an (n, d) batch of points to an (n,) vector of log
    densities; ``-inf`` marks points outside the support.
    """

    log_density: Callable


@dataclass(frozen=True)
class Proposal:
    """A distribution we can sample from and evaluate.

    ``sample(rng, n)`` draws an (n, d) batch; ``log_density`` matches the
    convention of :class:`UnnormalizedTarget`.  The proposal must cover the
    target: wherever the target density is positive, so is the proposal's.
    """

    sample: Callable
    log_density: Callable


def is_evidence(target: UnnormalizedTarget, proposal: Proposal, n: int,
                rng: np.random.Generator):
    """Importance-sampling estimate of a normalizing constant.

    Draws ``n`` points from ``proposal``, forms log weights
    ``target.log_density(x) - proposal.log_density(x)`` and averages them
    through a log-sum-exp, so enormous dynamic ranges in the weights do not
    break the estimate.  When the target equals the proposal's own
    normalized density every weight is exactly one and the estimate is
    exactly 1.0 for any ``n``.

    Returns
    -------
    estimate : float
        Linear-domain estimate of the normalizing constant.  0.0 (with a
        ``RuntimeWarning``) if every weight underflowed.
    importance_weights : ndarray, shape (n,)
        Linear-domain weights, for diagnostics such as
        :func:`effective_sample_size`.  Individual entries may underflow to
        zero; that is harmless.

    Raises
    ------
    NonFiniteWeightError
        If any log weight comes out NaN or +inf, which means the proposal
        does not actually cover the target.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    x = proposal.sample(rng, n)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim == 1:
        x = x[:, None]
    log_w = (np.asarray(target.log_density(x), dtype=float)
             - np.asarray(proposal.log_density(x), dtype=float))
    if log_w.shape != (n,):
        raise ValueError("log densities must return one value per sample")
    if np.any(np.isnan(log_w)) or np.any(log_w == np.inf):
        raise NonFiniteWeightError(
            "importance weight is NaN or +inf; proposal does not cover target")
    if float(np.max(log_w)) == -np.inf:
        warnings.warn("all importance weights underflowed; returning 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0, np.zeros(n)
    estimate = float(np.exp(logsumexp(log_w) - np.log(n)))
    if estimate == 0.0:
        warnings.warn("evidence underflowed in the linear domain; returning 0",
                      RuntimeWarning, stacklevel=2)
    return estimate, np.exp(log_w)


def effective_sample_size(weights) -> float:
    """ESS diagnostic ``1 / sum(wbar_i^2)`` on normalized weights.

    Ranges from 1 (one weight carries everything) to ``n`` (flat weights).
    Diagnostic only; nothing in the package branches on it.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    s = float(w.sum())
    if s <= 0.0:
        return 0.0
    wbar = w / s
    return float(1.0 / np.sum(wbar * wbar))


def gaussian_innovation(y, predictive, B, R):
    """Innovation terms of a Gaussian belief under a linear observation.

    For a Gaussian state belief pushed through ``y = B x + noise`` with noise
    covariance ``R``, the observation is Gaussian with mean ``B mean`` and
    covariance ``S = B cov B^T + R``.  Returns ``(S, resid, log_ev)``: the
    symmetrized ``S``, the residual ``y - B mean`` and the log density of
    ``y``.  A residual so large that its quadratic form overflows, whatever
    the signs of its entries, gives ``log_ev = -inf``; a NaN in ``y`` gives
    a NaN ``log_ev``.

    Raises
    ------
    SingularInnovationCovError
        If ``S`` is not finite or cannot be Cholesky-factorized.
    ValueError
        If ``y`` does not match the rows of ``B``.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        s = B @ predictive.cov @ B.T + R
    s = 0.5 * s + 0.5 * s.T
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCovError(
            "innovation covariance is not positive definite") from exc
    # a non-finite S factors without error but leaves its mark on the diagonal
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    if not np.isfinite(logdet):
        raise SingularInnovationCovError("innovation covariance is not finite")
    resid = y - B @ predictive.mean
    if resid.shape != (s.shape[0],):
        raise ValueError("observation dimension does not match B")
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(resid @ np.linalg.solve(s, resid))
    # S is positive definite, so a NaN here from a NaN-free residual is
    # inf - inf between overflowed terms of a form whose value is +inf
    if math.isnan(quad) and not np.isnan(resid).any():
        quad = math.inf
    return s, resid, -0.5 * (y.size * LOG_2PI + logdet + quad)


def gaussian_log_evidence(y, predictive, B, R) -> float:
    """Log density of ``y`` under the predicted observation distribution.

    See :func:`gaussian_innovation`, whose third result this is.
    """
    return gaussian_innovation(y, predictive, B, R)[2]
