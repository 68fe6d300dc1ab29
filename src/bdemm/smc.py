"""Sequential Monte Carlo ensemble for nonlinear / non-Gaussian models.

Each candidate model k supplies a transition sampler and a log likelihood;
nothing else is assumed about it.  A single particle cloud is shared by the
whole pool.  Per step and per model the cloud is propagated through the
model's transition and reweighted by its likelihood; the normalizer of that
reweighting, the likelihood average under the incoming particle weights, is
the model's (log) evidence.
Model weights then get the usual transition-then-Bayes treatment, and the
clouds are merged back into one: every (model, particle) pair enters an
augmented set with weight ``model_weight * particle_weight``, from which N
particles are resampled.  Resampling runs every step; the effective sample
size is logged as a diagnostic but never acted on.

Vectorization convention
------------------------
``sample_transition(x, t, rng)`` and ``log_likelihood(y, x, t)`` act on the
whole cloud at once: ``x`` is an (N, d) array, the transition returns
(N, d) with row i drawn from the model's transition density at particle i,
and the likelihood returns (N,) log values.  Semantically these are still
per-particle maps; the batch axis only buys numpy speed.

Randomness protocol
-------------------
:func:`smc_bdemm_step` draws exactly two integers from the caller's
generator per step, in this order::

    seeds = rng.integers(2**63, size=2)   # [propagation, resampling]

Transition sampling runs on ``default_rng(seeds[0])`` -- a *fresh* generator
per model, all seeded identically -- and the resampler on
``default_rng(seeds[1])``.  Two consequences: results are reproducible from
the master seed alone, and models that share a transition see identical
draws, so when every model holds the same ``sample_transition`` object the
step propagates the cloud once, bit-identical to propagating it per model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    PointEstimate,
    WeightHistory,
    WeightVector,
    _frozen,
    _trusted,
    bma_point_estimate,
    logsumexp,
)
from .errors import AllZeroError, DimensionMismatchError
from .evidence import effective_sample_size
from .kalman import LinearGaussianModel
from .wtt import WTTConfig, weight_step

logger = logging.getLogger(__name__)

RESAMPLING_SCHEMES = ("multinomial", "systematic")

# Log of the smallest positive double (subnormal).  A log weight below this
# is exactly 0.0 after exponentiation, i.e. a genuine linear-domain underflow.
UNDERFLOW_LOG = float(np.log(np.nextafter(0.0, 1.0)))

__all__ = [
    "GenericStateSpaceModel",
    "ParticleEnsemble",
    "SmcEnsembleState",
    "propagate",
    "reweight",
    "mc_log_evidence",
    "resample",
    "smc_bdemm_step",
    "linear_gaussian_ssm",
    "additive_noise_ssm",
    "gaussian_noise",
    "uniform_noise",
    "student_t_noise",
    "RESAMPLING_SCHEMES",
]


@dataclass(frozen=True)
class GenericStateSpaceModel:
    """A model known only through sampling and likelihood evaluation.

    sample_transition : callable (x, t, rng) -> ndarray
        Draws x_t given the (N, d) cloud x_{t-1}; row i conditions on row i.
    log_likelihood : callable (y, x, t) -> ndarray
        Log p(y_t | x_t) for each row of the (N, d) cloud, as an (N,) array.
    """

    sample_transition: Callable
    log_likelihood: Callable


@dataclass(frozen=True)
class ParticleEnsemble:
    """N weighted particles over a d-dimensional state."""

    particles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.particles, dtype=float)
        if p.ndim == 1:
            p = p[:, None]
        if p.ndim != 2 or p.shape[0] < 1:
            raise DimensionMismatchError("particles must be an (N, d) array")
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape != (p.shape[0],):
            raise DimensionMismatchError("one weight per particle required")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
            raise ValueError("particles and weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("particle weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("particle weights must sum to 1")
        object.__setattr__(self, "particles", _frozen(p))
        object.__setattr__(self, "weights", _frozen(w))

    @classmethod
    def equal_weighted(cls, particles) -> "ParticleEnsemble":
        particles = np.asarray(particles, dtype=float)
        n = particles.shape[0]
        return cls(particles, np.full(n, 1.0 / n))

    @property
    def n(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]


@dataclass(frozen=True)
class SmcEnsembleState:
    """Shared particle cloud + weight history."""

    ensemble: ParticleEnsemble
    history: WeightHistory

    @property
    def model_weights(self) -> WeightVector:
        """Current model weights (the history's latest row)."""
        return self.history.last

    @classmethod
    def initial(cls, particles, k: int = None,
                weights: WeightVector = None) -> "SmcEnsembleState":
        """Fresh state from an initial cloud; uniform model weights by default."""
        if weights is None:
            if k is None:
                raise DimensionMismatchError("give either k or weights")
            weights = WeightVector.uniform(k)
        ens = ParticleEnsemble.equal_weighted(particles)
        return cls(ens, WeightHistory.start(weights))


def propagate(model: GenericStateSpaceModel, ensemble: ParticleEnsemble,
              t: int, rng: np.random.Generator) -> ParticleEnsemble:
    """Push every particle through the model's transition; weights carry over."""
    moved = np.asarray(model.sample_transition(ensemble.particles, t, rng),
                       dtype=float)
    if moved.ndim == 1:
        moved = moved[:, None]
    if moved.shape != ensemble.particles.shape:
        raise DimensionMismatchError("transition changed the cloud's shape")
    return ParticleEnsemble(moved, ensemble.weights)


def _checked_loglik(model, y, particles, t):
    # a residual so large that its square overflows scores -inf
    with np.errstate(over="ignore"):
        ll = np.asarray(model.log_likelihood(y, particles, t), dtype=float)
    if ll.shape != (particles.shape[0],):
        raise DimensionMismatchError("log likelihood must return one value per particle")
    if np.any(np.isnan(ll)) or np.any(ll == np.inf):
        raise ValueError("log likelihoods must be < +inf and not NaN")
    return ll


def reweight(model: GenericStateSpaceModel, propagated: ParticleEnsemble,
             y, t: int):
    """Fold the observation into the particle weights.

    New weights are ``u_i ∝ u_prev_i * p(y | x_i)``, normalized in the log
    domain.  The normalizer is the model's log evidence,
    :func:`mc_log_evidence` of the incoming weights and the likelihoods, and
    is returned with the weights.

    Raises
    ------
    AllZeroError
        If every product underflows (no particle explains the observation).
    """
    ll = _checked_loglik(model, y, propagated.particles, t)
    with np.errstate(divide="ignore"):
        lw = np.log(propagated.weights) + ll
    # Underflow is judged in the linear domain: if even the largest product
    # u_i * p(y|x_i) rounds to exactly zero as a double, the observation is
    # unrepresentable under this model and carries no usable information.
    # Normalizing such weights anyway would amount to inventing a posterior
    # from pure rounding noise, so the caller gets to decide the fallback.
    if float(np.max(lw)) < UNDERFLOW_LOG:
        raise AllZeroError("all particle weights underflowed")
    log_ev = mc_log_evidence(propagated.weights, ll)
    w = np.exp(lw - log_ev)
    w = w / w.sum()
    return w, log_ev


def mc_log_evidence(incoming_weights, log_likelihoods) -> float:
    """Log of ``sum_i u_i p(y | x_i)``; ``-inf`` when it underflows entirely.

    With uniform incoming weights this is the log of the plain average of
    the likelihood values.
    """
    u = np.atleast_1d(np.asarray(incoming_weights, dtype=float))
    ll = np.atleast_1d(np.asarray(log_likelihoods, dtype=float))
    if u.shape != ll.shape:
        raise DimensionMismatchError("weights and likelihoods must align")
    with np.errstate(divide="ignore"):
        lw = np.log(u) + ll
    return logsumexp(lw)


def resample(particles, weights, n_out: int, rng: np.random.Generator,
             scheme: str = "multinomial") -> ParticleEnsemble:
    """Draw ``n_out`` particles (with replacement) from a weighted set.

    ``multinomial`` inverts the weight CDF at iid uniforms: draw v ~ U(0,1)
    and pick the first index whose cumulative weight exceeds v.
    ``systematic`` uses one uniform offset and a stratified comb
    ``(i + v) / n_out`` instead.  Output weights are uniform ``1/n_out``.
    ``particles`` must be finite: the output is not checked again.
    """
    if scheme not in RESAMPLING_SCHEMES:
        raise ValueError("unknown resampling scheme %r" % (scheme,))
    particles = np.asarray(particles, dtype=float)
    if particles.ndim == 1:
        particles = particles[:, None]
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape != (particles.shape[0],):
        raise DimensionMismatchError("one weight per particle required")
    if n_out < 1:
        raise ValueError("need at least one output particle")
    cdf = np.cumsum(w)
    if cdf[-1] <= 0.0:
        raise AllZeroError("cannot resample from an all-zero weight set")
    cdf = cdf / cdf[-1]
    cdf[-1] = 1.0  # guard the top edge against roundoff
    if scheme == "multinomial":
        draws = rng.random(n_out)
    else:
        draws = (np.arange(n_out) + rng.random()) / n_out
    idx = np.searchsorted(cdf, draws, side="right")
    idx = np.minimum(idx, particles.shape[0] - 1)
    return _trusted(ParticleEnsemble, particles[idx],
                    np.full(n_out, 1.0 / n_out))


def smc_bdemm_step(state: SmcEnsembleState, pool, y, t: int,
                   wtt_config: WTTConfig, rng: np.random.Generator,
                   weight_floor: float = 0.0, resampling: str = "multinomial"):
    """One observation's worth of ensemble particle filtering.

    See the module docstring for the randomness protocol; when every model
    holds the same ``sample_transition`` object the cloud is propagated once
    and shared.  Per-model point estimates are posterior weighted means
    (minimum mean squared error estimates); the ensemble estimate mixes them
    with the updated model weights.  If *every* model's likelihood
    underflows on all particles, the step keeps the predictive model
    weights, scores each model with its incoming particle weights and
    resamples from that predictive mixture -- the last mixture with finite
    weights.

    Returns
    -------
    state : SmcEnsembleState
        Ensemble resampled back to N uniform-weight particles.
    estimate : PointEstimate
    log_evidences : ndarray, shape (K,)
        Each model's log evidence for ``y``; ``-inf`` for a model whose
        likelihood underflows on every particle.
    """
    pool = list(pool)
    k_models = len(pool)
    if k_models != len(state.model_weights):
        raise DimensionMismatchError("pool size does not match weight vector")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ens = state.ensemble
    seeds = rng.integers(2 ** 63, size=2)

    transition = pool[0].sample_transition
    if all(m.sample_transition is transition for m in pool):
        moved = propagate(pool[0], ens, t, np.random.default_rng(seeds[0]))
        clouds = [moved] * k_models
    else:
        clouds = [propagate(m, ens, t, np.random.default_rng(seeds[0]))
                  for m in pool]

    log_evs = np.empty(k_models)
    per_weights = []
    estimates = []
    for k, model in enumerate(pool):
        try:
            u, log_evs[k] = reweight(model, clouds[k], y, t)
        except AllZeroError:
            # model explains nothing this step: dead weight, prior estimate
            u = clouds[k].weights
            log_evs[k] = -np.inf
        per_weights.append(u)
        estimates.append(_trusted(PointEstimate, u @ clouds[k].particles))

    weights, history, _ = weight_step(wtt_config, state.history, log_evs,
                                      weight_floor)
    estimate = bma_point_estimate(estimates, weights)

    aug_particles = np.vstack([c.particles for c in clouds])
    aug_weights = np.concatenate([wk * u for wk, u in zip(weights.w, per_weights)])
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("smc step %d: ess %.1f of %d", t,
                     effective_sample_size(aug_weights), aug_weights.size)
    new_ens = resample(aug_particles, aug_weights, ens.n,
                       np.random.default_rng(seeds[1]), scheme=resampling)

    return SmcEnsembleState(new_ens, history), estimate, log_evs


# ---------------------------------------------------------------------------
# model constructors


def linear_gaussian_ssm(A, Q, B, R) -> GenericStateSpaceModel:
    """Wrap a linear-Gaussian model for the particle engine.

    The matrices are checked as a :class:`~bdemm.kalman.LinearGaussianModel`.
    Useful for validating the particle path against the exact Kalman answer.
    """
    model = LinearGaussianModel(A=A, Q=Q, B=B, R=R)
    A, B = model.A, model.B
    d, m = model.state_dim, model.obs_dim
    q_chol = np.linalg.cholesky(model.Q + 1e-300 * np.eye(d))
    r_chol = np.linalg.cholesky(model.R + 1e-300 * np.eye(m))
    r_logdet = 2.0 * float(np.sum(np.log(np.diag(r_chol))))
    const = -0.5 * (m * np.log(2.0 * np.pi) + r_logdet)

    def sample_transition(x, t, rng):
        noise = rng.standard_normal((x.shape[0], d)) @ q_chol.T
        return x @ A.T + noise

    def log_likelihood(y, x, t):
        resid = y[None, :] - x @ B.T
        z = np.linalg.solve(r_chol, resid.T)
        return const - 0.5 * np.sum(z * z, axis=0)

    return GenericStateSpaceModel(sample_transition, log_likelihood)


def additive_noise_ssm(transition, observation, noise_logpdf) -> GenericStateSpaceModel:
    """Model with observation ``y = observation(x, t) + noise``.

    ``transition(x, t, rng)`` samples the next cloud, ``observation(x, t)``
    maps an (N, d) cloud to (N,) predicted observations (scalar y only), and
    ``noise_logpdf(resid)`` scores the residuals elementwise.  This is the
    shape shared by the robust-filtering candidate models, which differ only
    in their noise assumption.
    """
    def log_likelihood(y, x, t):
        resid = float(y[0] if np.ndim(y) else y) - observation(x, t)
        return noise_logpdf(np.asarray(resid, dtype=float))

    return GenericStateSpaceModel(transition, log_likelihood)


def gaussian_noise(var: float):
    """Elementwise log N(0, var) density."""
    if var <= 0.0:
        raise ValueError("variance must be positive")
    const = -0.5 * float(np.log(2.0 * np.pi * var))

    def logpdf(resid):
        return const - 0.5 * resid * resid / var

    return logpdf


def uniform_noise(low: float, high: float):
    """Elementwise log density of U(low, high): flat inside, -inf outside."""
    if not high > low:
        raise ValueError("need high > low")
    level = -float(np.log(high - low))

    def logpdf(resid):
        return np.where((resid >= low) & (resid <= high), level, -np.inf)

    return logpdf


def student_t_noise(df: float, scale: float = 1.0):
    """Elementwise log density of a scaled Student's t (heavy tails)."""
    # written so that NaN fails
    if not (0.0 < df < np.inf and 0.0 < scale < np.inf):
        raise ValueError("df and scale must be positive and finite")
    try:
        const = float(math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
                      - 0.5 * np.log(df * np.pi) - np.log(scale))
    except OverflowError:
        raise ValueError("df too large: its log-gamma overflows") from None

    def logpdf(resid):
        z = resid / scale
        return const - 0.5 * (df + 1.0) * np.log1p(z * z / df)

    return logpdf
