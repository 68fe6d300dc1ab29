"""Marginal likelihood (evidence) estimators.

The engines' weight updates take log evidences, and the kernels here give
them: :func:`gaussian_innovation` (through :func:`gaussian_log_evidence`) is
the closed form for the linear-Gaussian case, where the evidence of an
observation is a Gaussian density under the predicted observation
distribution; it takes a stack of K beliefs and also solves for their
Kalman gains, so one call serves a whole Kalman pool's update.  Every Monte
Carlo evidence, an importance-sampling average of likelihoods, normalizes
through one log-domain kernel, :func:`_log_normalize`: the particle
engine's reweighting (:mod:`bdemm.smc`) and :func:`is_evidence`.

:func:`is_evidence` is the generic importance sampler: draw from a proposal,
weight by target-over-proposal, average through that kernel.  It estimates
the normalizing constant of an unnormalized target density, which is the
model evidence when the target is prior-times-likelihood.  It reports the
estimate in the linear domain: 0.0 with a ``RuntimeWarning`` if that
underflows, a ``NonFiniteWeightError`` if it or a weight overflows.

The callables inside :class:`UnnormalizedTarget` and :class:`Proposal` are
vectorized over a leading batch axis: ``sample(rng, n)`` returns an (n, d)
array and ``log_density`` maps (n, d) -> (n,).  That keeps million-sample
estimates at numpy speed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _count, _finite, _floats, _quiet, _symmetrized
from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NonFiniteWeightError,
    SingularInnovationCovError,
)

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


def _log_normalize(lw: np.ndarray):
    """Normalize log weights over their last axis, in the log domain.

    Returns the weights, the log normalizers (row log-sum-exps) and the row
    maxima that shift each row before it is exponentiated.  A row whose
    maximum is ``-inf`` comes out NaN in the first two; callers branch on
    the maximum, and the kernel runs under their error scope.

    Raises
    ------
    NonFiniteWeightError
        If a log weight is NaN or ``+inf``.
    """
    top = np.maximum.reduce(lw, axis=-1, keepdims=True)
    if np.count_nonzero(top < np.inf) < top.size:  # NaN fails too
        raise NonFiniteWeightError("log weights must be < +inf and not NaN")
    e = np.exp(lw - top)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    return e / total, (top + np.log(total))[..., 0], top[..., 0]


@_quiet
def is_evidence(target: UnnormalizedTarget, proposal: Proposal, n: int,
                rng: np.random.Generator):
    """Importance-sampling estimate of a normalizing constant.

    Draws ``n`` points from ``proposal``, forms log weights
    ``target.log_density(x) - proposal.log_density(x)`` and averages them
    through the log-domain kernel every Monte Carlo evidence shares, so
    enormous dynamic ranges in the weights do not break the estimate.  When
    the target equals the proposal's own normalized density every weight
    is exactly one and the estimate is exactly 1.0 for any ``n``.

    Returns
    -------
    estimate : float
        Linear-domain estimate of the normalizing constant.  0.0 (with a
        ``RuntimeWarning``) if it underflows, every weight zero included.
    importance_weights : ndarray, shape (n,)
        Linear-domain weights, for diagnostics such as
        :func:`effective_sample_size`.  Individual entries may underflow to
        zero; that is harmless.

    Raises
    ------
    DimensionMismatchError
        If ``n`` is not a whole number from 1 to 2**53 (a whole-valued float
        included), or a log density does not give one value per sample.
    NonFiniteWeightError
        If any log weight comes out NaN or +inf, which means the proposal
        does not actually cover the target, or if a weight or the estimate
        overflows the linear domain; :func:`bdemm.smc.mc_log_evidence`
        gives the log estimate the message names.
    """
    n = _count(n, DimensionMismatchError,
               "need a whole number of samples, at least one (got %r)" % (n,))
    x = proposal.sample(rng, n)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim == 1:
        x = x[:, None]
    log_target = np.asarray(target.log_density(x), dtype=float)
    log_proposal = np.asarray(proposal.log_density(x), dtype=float)
    if not log_target.shape == log_proposal.shape == (n,):
        raise DimensionMismatchError("need one log density per sample")
    log_w = log_target - log_proposal
    log_z, top = _log_normalize(log_w)[1:]
    log_estimate = float(log_z - np.log(n))
    estimate = float(np.exp(log_estimate))
    # the largest double's log: any weight above it is +inf as a double
    if top > np.log(np.finfo(float).max) or estimate == np.inf:
        raise NonFiniteWeightError(
            "weights overflow the linear domain (log estimate %r); "
            "bdemm.smc.mc_log_evidence gives the log value" % log_estimate)
    if not estimate > 0.0:  # NaN when every weight is zero
        warnings.warn("evidence underflowed in the linear domain; returning 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0, np.exp(log_w)
    return estimate, np.exp(log_w)


@_quiet
def effective_sample_size(weights) -> float:
    """ESS diagnostic ``1 / sum(wbar_i^2)`` on normalized weights.

    Ranges from 1 (one weight carries everything) to ``n`` (flat weights).
    Diagnostic only; nothing in the package branches on it.

    Raises
    ------
    NonFiniteWeightError
        If a weight is NaN or infinite.
    NegativeEntryError
        If a weight is negative.
    """
    w = _floats(weights, "weights", 1)
    top = float(w.max(initial=0.0))
    if not top < np.inf:  # NaN fails too
        raise NonFiniteWeightError("weights must be finite")
    if w.min(initial=0.0) < 0.0:
        raise NegativeEntryError("weights must be nonnegative")
    if top <= 0.0:
        return 0.0
    v = w / top  # the ESS is scale-free, and so huge weights cannot overflow
    return float(v.sum() ** 2 / np.sum(v * v))


def gaussian_innovation(y, means, covs, B, R):
    """Innovation terms of K Gaussian beliefs, each under its own linear map.

    For a Gaussian state belief N(mean_k, cov_k) pushed through
    ``y = B_k x + noise`` with noise covariance ``R_k``, the observation is
    Gaussian with mean ``B_k mean_k`` and covariance
    ``S_k = B_k cov_k B_k^T + R_k``.  Takes (K, d) ``means``, (K, d, d)
    ``covs``, (K, m, d) ``B``, (K, m, m) ``R`` and one (m,) ``y``, and
    returns ``(log_ev, resid, gain_t)``: the (K,) log densities of ``y``,
    the (K, m) residuals ``y - B_k mean_k`` and the (K, m, d) solves
    ``S_k^{-1} B_k cov_k``, the transposed Kalman gains.  A scalar
    observation (m = 1) is closed form, with no LAPACK call: ``sqrt(S_k)``
    is the Cholesky factor and each solve a division, bit for bit with one
    right-hand side, and :func:`_scalar_log_density`, which the Kalman
    engine's 1-D vector row shares, gives the log density; for m > 1 one
    Cholesky factorization and two solves of the stack serve all K.  A
    residual so large that its quadratic form overflows, whatever the signs
    of its entries, gives ``log_ev = -inf``; a NaN in ``y`` gives a NaN
    ``log_ev``.  Runs under its caller's error scope.

    Raises
    ------
    SingularInnovationCovError
        If any ``S_k`` is not finite, cannot be Cholesky-factorized or is
        singular to working precision.
    """
    bp = B @ covs
    s = bp @ B.swapaxes(1, 2) + R
    s = _symmetrized(s)
    resid = y - (B @ means[:, :, None])[:, :, 0]
    if s.shape[1] == 1:
        return _scalar_log_density(resid[:, 0], s[:, 0, 0]), resid, bp / s
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCovError(
            "innovation covariance is not positive definite") from exc
    # a non-finite S factors without error but leaves its mark on the
    # diagonal
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    if not _finite(logdet):
        raise SingularInnovationCovError(
            "innovation covariance is not finite")
    try:
        # two solves, not one of [resid | B P]: LAPACK divides by the
        # pivots for one right-hand side but multiplies by their
        # reciprocals for several, and the residual's solve keeps dividing
        sol = np.linalg.solve(s, resid[:, :, None])
        gain_t = np.linalg.solve(s, bp)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCovError(
            "innovation covariance is numerically singular") from exc
    quad = _overflowed_to_inf((resid[:, None, :] @ sol)[:, 0, 0], resid)
    return -0.5 * (y.size * LOG_2PI + logdet + quad), resid, gain_t


def _scalar_log_density(resid, s):
    """The (K,) log densities of residuals ``resid`` under scalar innovation
    variances ``s``: :func:`gaussian_innovation`'s closed form for m = 1,
    which the Kalman engine's vector row of a scalar state shares.  Runs
    under its caller's error scope.

    Raises
    ------
    SingularInnovationCovError
        If an ``s`` is not positive (NaN included, as it fails the
        factorization) or its log determinant is not finite.
    """
    if np.count_nonzero(s > 0.0) < s.size:
        raise SingularInnovationCovError(
            "innovation covariance is not positive definite")
    logdet = 2.0 * np.log(np.sqrt(s))
    if not _finite(logdet):
        raise SingularInnovationCovError(
            "innovation covariance is not finite")
    # with s finite and positive, r * (r / s) is finite or +inf for any
    # NaN-free r, never NaN: there is no inf - inf for the fixup of the
    # m > 1 path to mend
    return -0.5 * (LOG_2PI + logdet + resid * (resid / s))


def _overflowed_to_inf(quad: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """Set to ``+inf``, in place, each non-finite entry of ``quad`` whose row
    of ``resid`` holds no NaN, and return ``quad``.

    ``quad[i]`` is the quadratic form of ``resid[i]`` under a positive
    definite matrix, so it cannot be negative: when it is not finite for a
    NaN-free residual, it overflowed, even where ``inf - inf`` inside the
    solve made it NaN, and the residual's log density is ``-inf``.
    """
    overflowed = ~np.isfinite(quad)
    if np.count_nonzero(overflowed):
        quad[overflowed & ~np.isnan(resid).any(axis=-1)] = np.inf
    return quad


@_quiet
def gaussian_log_evidence(y, predictive, B, R) -> float:
    """Log density of ``y`` under the predicted observation distribution.

    The K = 1 call of :func:`gaussian_innovation`: the first of its results
    for the one belief ``predictive`` under ``y = B x + noise``, noise
    covariance ``R``.

    Raises
    ------
    DimensionMismatchError
        If ``B`` is not (m, d) for the belief's dimension d, ``y`` is not
        (m,), or ``R`` is not (m, m).
    """
    y = _floats(y, "y", 1)
    B = _floats(B, "B", 2)
    R = _floats(R, "R", 2)
    if B.ndim != 2 or B.shape[1] != predictive.dim:
        raise DimensionMismatchError("B must have one column per state dimension")
    if y.shape != B.shape[:1]:
        raise DimensionMismatchError("y must have one entry per row of B")
    if R.shape != (B.shape[0], B.shape[0]):
        raise DimensionMismatchError("R must be (m, m) for the m rows of B")
    log_ev = gaussian_innovation(y, predictive.mean[None], predictive.cov[None],
                                 B[None], R[None])[0]
    return float(log_ev[0])
