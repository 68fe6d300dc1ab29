"""Sequential Monte Carlo ensemble for nonlinear / non-Gaussian models.

Each candidate model k supplies a transition sampler and a log likelihood;
nothing else is assumed about it.  A single particle cloud is shared by the
whole pool.  Each step propagates the cloud once per distinct transition,
and the models holding a transition share its moved cloud; then every
model's likelihood reweights its cloud, all K as one (K, N) array through
the log-domain kernel of :mod:`bdemm.evidence`.  The normalizer of a
model's reweighting, the likelihood average under the incoming particle
weights, is its (log) evidence.
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
per-particle maps; the batch axis only buys numpy speed.  Like every
model callable they run under their caller's floating-point error scope:
the step's, where numpy ignores every error, and the step checks what they
return instead.  :func:`propagate` runs on every row and enters no scope
of its own, so :func:`linear_gaussian_ssm`'s transition, whose matrix
product can overflow on finite input, sets its own.

Randomness protocol
-------------------
:func:`smc_bdemm_step` draws from the caller's generator directly and
creates none of its own.  Models are grouped by ``sample_transition``
object, and each distinct transition propagates the cloud once.  Before
the first one runs the step takes a snapshot of
``rng.bit_generator.state``, and it restores that snapshot before each
further one, so every transition starts from the same draws.  After the
last propagation the step advances the generator by :data:`DRAW_STRIDE`
draws, and resampling continues from there.  So the resampling draws, and
everything the next step draws, lie past every value any transition of
this step used (as long as a transition draws fewer than ``DRAW_STRIDE``
values), however unequally the transitions draw.  This needs a bit
generator with ``advance``, such as numpy's default ``PCG64``.
Two consequences: results are reproducible from the master seed alone,
and models that share a transition, or hold twins of it (distinct objects
that draw the same way), see identical draws, so sharing one transition
object is bit-identical to giving each model its own copy.
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
    _EngineState,
    _count,
    _floats,
    _frozen,
    _quiet,
    _real,
    _start_history,
    _trusted,
)
from .errors import (
    AllZeroError,
    DimensionMismatchError,
    FactorizationFailureError,
    InvalidInputError,
    NegativeEntryError,
    NonFiniteBeliefError,
    NonFiniteWeightError,
)
from .evidence import (
    _log_normalize,
    _overflowed_to_inf,
    effective_sample_size,
)
from .kalman import LinearGaussianModel
from .wtt import WTTConfig, _weight_step

logger = logging.getLogger(__name__)

# Log of the smallest positive double (subnormal).  A log weight below this
# is exactly 0.0 after exponentiation, i.e. a genuine linear-domain underflow.
UNDERFLOW_LOG = float(np.log(np.nextafter(0.0, 1.0)))

# Draws the step skips after its propagations (the randomness protocol):
# more than any transition draws in one step.
DRAW_STRIDE = 2**64

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
    "DRAW_STRIDE",
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


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """N weighted particles over a d-dimensional state; the weights must
    pass as a :class:`~bdemm.core.WeightVector`."""

    particles: np.ndarray
    weights: np.ndarray

    @_quiet
    def __post_init__(self):
        p = _floats(self.particles, "particles")
        if p.ndim == 1:
            p = p[:, None]
        if p.ndim != 2 or p.shape[0] < 1:
            raise DimensionMismatchError("particles must be an (N, d) array")
        w = WeightVector(self.weights).w
        if w.shape != (p.shape[0],):
            raise DimensionMismatchError("one weight per particle required")
        if not np.all(np.isfinite(p)):
            raise InvalidInputError("particles must be finite")
        object.__setattr__(self, "particles", _frozen(p))
        object.__setattr__(self, "weights", w)

    @classmethod
    def equal_weighted(cls, particles) -> "ParticleEnsemble":
        particles = _floats(particles, "particles", 1)
        n = particles.shape[0]
        return cls(particles, np.full(n, 1.0 / n))

    @property
    def n(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]


@dataclass(frozen=True, eq=False)
class SmcEnsembleState(_EngineState):
    """Shared particle cloud + weight history."""

    ensemble: ParticleEnsemble
    history: WeightHistory

    @classmethod
    def initial(cls, particles, k: int = None,
                weights: WeightVector = None) -> "SmcEnsembleState":
        """Fresh state from an initial cloud; uniform model weights by default."""
        return cls(ParticleEnsemble.equal_weighted(particles),
                   _start_history(k, weights))


def propagate(model: GenericStateSpaceModel, ensemble: ParticleEnsemble,
              t: int, rng: np.random.Generator) -> ParticleEnsemble:
    """Push every particle through the model's transition; weights carry over.

    Raises
    ------
    DimensionMismatchError
        If the transition returns anything but the cloud's (N, d) shape; an
        (N,) array for an (N, 1) cloud is not reshaped.
    NonFiniteBeliefError
        If a moved particle is NaN or infinite (the transition overflowed).
    """
    moved = np.asarray(model.sample_transition(ensemble.particles, t, rng),
                       dtype=float)
    if moved.shape != ensemble.particles.shape:
        raise DimensionMismatchError("transition changed the cloud's shape")
    if not np.isfinite(moved).all():
        raise NonFiniteBeliefError("propagated particles are not finite")
    return _trusted(ParticleEnsemble, moved, ensemble.weights)


def _likelihood_rows(models, clouds, y, t) -> np.ndarray:
    """The (K, N) log likelihoods of ``y``, row k under model k on cloud k."""
    ll = np.empty((len(models), clouds[0].shape[0]))
    for k, (model, cloud) in enumerate(zip(models, clouds)):
        row = np.asarray(model.log_likelihood(y, cloud, t), dtype=float)
        if row.shape != ll.shape[1:]:
            raise DimensionMismatchError(
                "log likelihood must return one value per particle")
        ll[k] = row
    return ll


@_quiet
def reweight(model: GenericStateSpaceModel, propagated: ParticleEnsemble,
             y, t: int):
    """Fold the observation into the particle weights.

    New weights are ``u_i ∝ u_prev_i * p(y | x_i)``, normalized in the log
    domain.  The normalizer is the model's log evidence,
    :func:`mc_log_evidence` of the incoming weights and the likelihoods, and
    is returned with the weights.  This is the one-model call of the kernel
    :func:`smc_bdemm_step` runs on the whole pool.

    Raises
    ------
    AllZeroError
        If every product underflows (no particle explains the observation).
    NonFiniteWeightError
        If a log likelihood is NaN or ``+inf``.
    """
    ll = _likelihood_rows([model], [propagated.particles], y, t)
    u, log_ev, top = _log_normalize(np.log(propagated.weights) + ll)
    # Underflow is judged in the linear domain: if even the largest product
    # u_i * p(y|x_i) rounds to exactly zero as a double, the observation is
    # unrepresentable under this model and carries no usable information.
    # Normalizing such weights anyway would amount to inventing a posterior
    # from pure rounding noise, so the caller gets to decide the fallback.
    if top[0] < UNDERFLOW_LOG:
        raise AllZeroError("all particle weights underflowed")
    return u[0], float(log_ev[0])


@_quiet
def mc_log_evidence(incoming_weights, log_likelihoods) -> float:
    """Log of ``sum_i u_i p(y | x_i)``, taken in the log domain.

    With uniform incoming weights this is the log of the plain average of
    the likelihood values.  It is ``-inf`` only when every product is
    exactly zero (each term has a zero weight or a ``-inf`` log
    likelihood).  A sum that underflows as a double keeps its finite log:
    weights ``[0.5, 0.5]`` and log likelihoods ``[-1000, -1000]`` give
    ``-1000.0``, where :func:`smc_bdemm_step` scores the row ``-inf``.

    Raises
    ------
    DimensionMismatchError
        If the two are not vectors of one equal, nonzero length.
    NonFiniteWeightError
        If a log likelihood is NaN or ``+inf``.
    """
    u = _floats(incoming_weights, "incoming weights", 1)
    ll = _floats(log_likelihoods, "log likelihoods", 1)
    if u.shape != ll.shape or u.ndim != 1 or not u.size:
        raise DimensionMismatchError(
            "weights and likelihoods must be aligned, non-empty vectors")
    _, log_ev, top = _log_normalize(np.log(u) + ll)
    return float(log_ev) if top > -np.inf else -np.inf


@_quiet
def resample(particles, weights, n_out: int,
             rng: np.random.Generator) -> ParticleEnsemble:
    """Draw ``n_out`` particles (with replacement) from a weighted set.

    Multinomial: each of ``n_out`` iid uniforms picks the first index whose
    normalized cumulative weight exceeds it, that is, the uniforms ``u``
    pick ``particles[np.searchsorted(cdf, u, side="right")]``, where ``cdf``
    is the cumulative sum of the weights divided by its last entry, with
    that entry set to exactly 1.  The uniforms are searched in sorted order
    (Hol, Schön & Gustafsson 2006), which is cheaper and picks the same
    indices, so the draws and the indices are those of the plain search.
    Output weights are ``1/n_out``.
    ``n_out`` not a whole number of at least 1 raises ``InvalidInputError``.
    ``particles`` must be finite and of shape (N,) or (N, d) (another rank
    raises ``DimensionMismatchError``): the output is not checked again.  A
    negative weight raises ``NegativeEntryError``, a NaN or infinite weight
    or total ``NonFiniteWeightError`` and all-zero weights ``AllZeroError``.
    """
    particles = _floats(particles, "particles")
    if particles.ndim == 1:
        particles = particles[:, None]
    if particles.ndim != 2:
        raise DimensionMismatchError("particles must be (N,) or (N, d)")
    w = _floats(weights, "weights", 1)
    if w.shape != (particles.shape[0],) or not w.size:
        raise DimensionMismatchError("one weight per particle, and at least "
                                     "one particle, required")
    n_out = _count(n_out, InvalidInputError,
                   "need a whole number of output particles, at least one")
    if w.min() < 0.0:
        raise NegativeEntryError("particle weights must be nonnegative")
    cdf = np.cumsum(w)  # an overflowing total fails below
    if not 0.0 < cdf[-1] < np.inf:  # NaN fails too
        if cdf[-1] == 0.0:
            raise AllZeroError("cannot resample from an all-zero weight set")
        raise NonFiniteWeightError("particle weight total is not finite")
    cdf = cdf / cdf[-1]
    cdf[-1] = 1.0  # every uniform in [0, 1) then picks an index below n
    u = rng.random(n_out)
    # each uniform's index is its own: searched in sorted order, where the
    # binary search narrows from the last one, and put back in draw order
    order = np.argsort(u)
    idx = np.empty(n_out, dtype=np.intp)
    idx[order] = np.searchsorted(cdf, u[order], side="right")
    return _trusted(ParticleEnsemble, particles[idx],
                    np.full(n_out, 1.0 / n_out))


@_quiet
def smc_bdemm_step(state: SmcEnsembleState, pool, y, t: int,
                   wtt_config: WTTConfig, rng: np.random.Generator,
                   weight_floor: float = 0.0):
    """One observation's worth of ensemble particle filtering.

    The step runs the whole pool at once, as the module docstring says: one
    propagation per distinct ``sample_transition`` object under its
    randomness protocol, one (K, N) reweighting and one multinomial
    resample of the augmented set.  Per-model point estimates are posterior
    weighted means (minimum mean squared error estimates), one row each of
    ``(K, N) @ cloud``; the ensemble estimate mixes them with the updated
    model weights.  A model whose likelihood underflows on every particle
    keeps its incoming particle weights and scores ``-inf``.  If *every*
    model does, the step keeps the predictive model weights and resamples
    from that predictive mixture -- the last mixture with finite weights.

    Returns
    -------
    state : SmcEnsembleState
        Ensemble resampled back to N uniform-weight particles.
    estimate : PointEstimate
    log_evidences : ndarray, shape (K,)
        Each model's log evidence for ``y``: bitwise :func:`mc_log_evidence`
        of the incoming particle weights and its likelihoods, except that a
        model whose largest product ``u_i p(y | x_i)`` is zero as a double
        (its log below ``UNDERFLOW_LOG``) scores ``-inf``, where
        :func:`mc_log_evidence` keeps the finite log (``-1000.0`` for
        weights ``[0.5, 0.5]`` and log likelihoods ``[-1000, -1000]``).

    Raises
    ------
    InvalidInputError
        If ``rng`` has no bit generator with an ``advance`` method.
    NonFiniteBeliefError
        If a transition moves a particle to NaN or infinity.
    NonFiniteWeightError
        If a log likelihood is NaN or ``+inf``.
    """
    advance = getattr(getattr(rng, "bit_generator", None), "advance", None)
    if advance is None:
        raise InvalidInputError("the particle step needs a bit generator with "
                                "advance(), such as numpy's default PCG64")
    pool = list(pool)
    k_models = len(pool)
    if k_models != len(state.model_weights):
        raise DimensionMismatchError("pool size does not match weight vector")
    y = _floats(y, "y", 1)
    ens = state.ensemble

    # the first model holding each distinct transition propagates for all;
    # the list keeps every object, and so its id, alive until the grouping
    transitions = [model.sample_transition for model in pool]
    first = {}
    owner = [first.setdefault(id(f), k) for k, f in enumerate(transitions)]
    snapshot = rng.bit_generator.state if len(first) > 1 else None
    moved = {}
    for k in first.values():
        if moved:
            rng.bit_generator.state = snapshot
        moved[k] = propagate(pool[k], ens, t, rng).particles
    clouds = [moved[k] for k in owner]
    aug_particles = np.concatenate(clouds)
    # each model's estimate is one (1, N) @ (N, d) product, so sharing a
    # cloud does not change its rounding
    cloud = aug_particles.reshape((k_models,) + ens.particles.shape)

    ll = _likelihood_rows(pool, clouds, y, t)
    u, log_evs, top = _log_normalize(np.log(ens.weights) + ll)
    dead = top < UNDERFLOW_LOG  # see reweight
    if dead.any():
        u[dead] = ens.weights
        log_evs[dead] = -np.inf

    weights, history, _ = _weight_step(wtt_config, state.history, log_evs,
                                       weight_floor)
    estimates = (u[:, None, :] @ cloud)[:, 0]
    estimate = _trusted(PointEstimate, weights.w @ estimates)

    aug_weights = (weights.w[:, None] * u).ravel()
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("smc step %d: ess %.1f of %d", t,
                     effective_sample_size(aug_weights), aug_weights.size)
    advance(DRAW_STRIDE)  # past every transition's draws, however many
    new_ens = resample(aug_particles, aug_weights, ens.n, rng)

    return SmcEnsembleState(new_ens, history), estimate, log_evs


# ---------------------------------------------------------------------------
# model constructors


def linear_gaussian_ssm(A, Q, B, R) -> GenericStateSpaceModel:
    """Wrap a linear-Gaussian model for the particle engine.

    The matrices are checked as a :class:`~bdemm.kalman.LinearGaussianModel`.
    Useful for validating the particle path against the exact Kalman answer.
    As in :func:`~bdemm.evidence.gaussian_innovation`, a residual whose
    quadratic form overflows has log likelihood ``-inf``.  A ``Q`` or ``R``
    that a 1e-300 jitter leaves without a Cholesky factor (a singular one
    such as ``[[1, 1], [1, 1]]``) raises ``FactorizationFailureError``.
    """
    model = LinearGaussianModel(A=A, Q=Q, B=B, R=R)
    A, B = model.A, model.B
    d, m = model.state_dim, model.obs_dim
    try:
        q_chol = np.linalg.cholesky(model.Q + 1e-300 * np.eye(d))
        r_chol = np.linalg.cholesky(model.R + 1e-300 * np.eye(m))
    except np.linalg.LinAlgError:
        raise FactorizationFailureError(
            "Q or R is singular: it has no Cholesky factor") from None
    r_logdet = 2.0 * float(np.sum(np.log(np.diag(r_chol))))
    const = -0.5 * (m * np.log(2.0 * np.pi) + r_logdet)

    def sample_transition(x, t, rng):
        noise = rng.standard_normal((x.shape[0], d)) @ q_chol.T
        # an overflow reads inf or NaN, which propagate rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return x @ A.T + noise

    def log_likelihood(y, x, t):
        resid = y[None, :] - x @ B.T
        z = np.linalg.solve(r_chol, resid.T)
        return const - 0.5 * _overflowed_to_inf(np.sum(z * z, axis=0), resid)

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


@_quiet
def gaussian_noise(var: float):
    """Elementwise log N(0, var) density."""
    var = _real(var, "variance")
    if not var > 0.0:  # NaN fails too
        raise InvalidInputError("variance must be positive")
    const = -0.5 * float(np.log(2.0 * np.pi * var))

    def logpdf(resid):
        return const - 0.5 * resid * resid / var

    return logpdf


@_quiet
def uniform_noise(low: float, high: float):
    """Elementwise log density of U(low, high): flat inside, -inf outside."""
    low, high = _real(low, "low"), _real(high, "high")
    if not high > low:
        raise InvalidInputError("need high > low")
    level = -float(np.log(high - low))

    def logpdf(resid):
        return np.where((resid >= low) & (resid <= high), level, -np.inf)

    return logpdf


def student_t_noise(df: float, scale: float = 1.0):
    """Elementwise log density of a scaled Student's t (heavy tails)."""
    df, scale = _real(df, "df"), _real(scale, "scale")
    # written so that NaN fails
    if not (0.0 < df < np.inf and 0.0 < scale < np.inf):
        raise InvalidInputError("df and scale must be positive and finite")
    try:
        const = float(math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
                      - 0.5 * np.log(df * np.pi) - np.log(scale))
    except OverflowError:
        raise InvalidInputError("df too large: its log-gamma overflows") from None

    def logpdf(resid):
        z = resid / scale
        return const - 0.5 * (df + 1.0) * np.log1p(z * z / df)

    return logpdf
