"""Weight-transition operators: how model weights drift between updates.

A dynamic ensemble alternates two moves per time step.  First the previous
posterior weights are pushed through a *transition operator* to give
predictive weights; then Bayes' rule folds in the new observation's
per-model evidence.  This module is the first move.  Five operators are
provided:

``identity``
    Weights carry over unchanged.
``constant``
    Weights reset to a fixed vector every step (memoryless).
``markov``
    ``w' = w @ T`` with a row-stochastic transition matrix ``T``; a common
    choice keeps mass 0.9 on the diagonal and spreads the rest evenly.
``forgetting``
    ``w'_k = w_k^alpha / sum_j w_j^alpha`` with ``0 < alpha <= 1``.  Values
    below one flatten the weights toward uniform, which lets a written-off
    model recover quickly; ``alpha = 1`` is the identity.
``polya_urn``
    ``w'_k = (beta_k + S_k) / sum_j (beta_j + S_j)`` where ``S_k`` is the
    column sum of the whole weight history and ``beta_k`` are positive
    integer pseudo-counts.  Models with a strong track record keep mass.

Every operator maps the simplex to the simplex; none of them looks at data.
:func:`weight_step` runs one whole move of the dynamic ensemble, the
operator followed by Bayes' rule; every engine updates its weights with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    WeightHistory,
    WeightVector,
    normalize_weights,
    update_model_weights_log,
)
from .errors import AllZeroError, ConfigMismatchError

KINDS = ("identity", "constant", "markov", "forgetting", "polya_urn")

MTM_ATOL = 1e-12

__all__ = ["WTTConfig", "apply_wtt", "weight_step", "default_markov_matrix",
           "KINDS"]


def default_markov_matrix(k: int, stay: float = 0.9) -> np.ndarray:
    """Row-stochastic matrix keeping ``stay`` on the diagonal.

    Off-diagonal mass is spread evenly, ``(1 - stay) / (k - 1)`` per entry.
    With ``k = 1`` the only valid matrix is ``[[1.0]]``.
    """
    if k < 1:
        raise ConfigMismatchError("need at least one model")
    if not 0.0 <= stay <= 1.0:
        raise ConfigMismatchError("diagonal mass must sit in [0, 1]")
    if k == 1:
        return np.ones((1, 1))
    t = np.full((k, k), (1.0 - stay) / (k - 1))
    np.fill_diagonal(t, stay)
    return t


@dataclass(frozen=True)
class WTTConfig:
    """Which weight-transition operator to run, plus its parameters.

    Build instances through the classmethods (:meth:`identity`,
    :meth:`constant`, :meth:`markov`, :meth:`forgetting`, :meth:`polya_urn`)
    rather than the raw constructor; they validate the parameter that the
    chosen operator needs.
    """

    kind: str
    constants: WeightVector | None = None
    matrix: np.ndarray | None = None
    alpha: float | None = None
    beta: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigMismatchError(
                "unknown operator %r (choose from %s)" % (self.kind, ", ".join(KINDS)))
        if self.kind == "constant":
            if self.constants is None:
                raise ConfigMismatchError("constant operator needs its weight vector")
        elif self.kind == "markov":
            if self.matrix is None:
                raise ConfigMismatchError("markov operator needs a transition matrix")
            t = np.atleast_2d(np.asarray(self.matrix, dtype=float))
            if t.ndim != 2 or t.shape[0] != t.shape[1]:
                raise ConfigMismatchError("transition matrix must be square")
            if np.any(t < 0.0) or not np.all(np.isfinite(t)):
                raise ConfigMismatchError("transition matrix entries must be >= 0")
            if float(np.abs(t.sum(axis=1) - 1.0).max()) > MTM_ATOL:
                raise ConfigMismatchError("transition matrix rows must sum to 1")
            t = t.copy()
            t.flags.writeable = False
            object.__setattr__(self, "matrix", t)
        elif self.kind == "forgetting":
            if self.alpha is None:
                raise ConfigMismatchError("forgetting operator needs alpha")
            if not 0.0 < float(self.alpha) <= 1.0:
                raise ConfigMismatchError("alpha must sit in (0, 1]")
        elif self.kind == "polya_urn":
            if self.beta is None:
                raise ConfigMismatchError("polya urn needs pseudo-counts")
            b = np.atleast_1d(np.asarray(self.beta))
            if b.ndim != 1 or b.size < 1:
                raise ConfigMismatchError("pseudo-counts must be a vector")
            if np.any(b != np.floor(b)) or np.any(b < 1):
                raise ConfigMismatchError("pseudo-counts must be integers >= 1")
            b = b.astype(float)
            b.flags.writeable = False
            object.__setattr__(self, "beta", b)

    @classmethod
    def identity(cls) -> "WTTConfig":
        return cls("identity")

    @classmethod
    def constant(cls, constants) -> "WTTConfig":
        if not isinstance(constants, WeightVector):
            constants = WeightVector(np.asarray(constants, dtype=float))
        return cls("constant", constants=constants)

    @classmethod
    def markov(cls, matrix) -> "WTTConfig":
        return cls("markov", matrix=matrix)

    @classmethod
    def forgetting(cls, alpha: float) -> "WTTConfig":
        return cls("forgetting", alpha=float(alpha))

    @classmethod
    def polya_urn(cls, beta) -> "WTTConfig":
        return cls("polya_urn", beta=beta)


def apply_wtt(config: WTTConfig, history: WeightHistory) -> WeightVector:
    """Run one weight-transition step: posterior history in, predictive out.

    ``identity``, ``markov`` and ``forgetting`` read the latest row,
    ``polya_urn`` the running column sums, ``constant`` neither.

    Raises
    ------
    ConfigMismatchError
        If the config's parameter disagrees with the history width.
    """
    last = history.last
    k = history.width

    if config.kind == "identity":
        return last

    if config.kind == "constant":
        if len(config.constants) != k:
            raise ConfigMismatchError("constant vector length != number of models")
        return config.constants

    if config.kind == "markov":
        if config.matrix.shape != (k, k):
            raise ConfigMismatchError("transition matrix shape != (K, K)")
        # w'_j = sum_i w_i T_ij; rows of T sum to 1 so w' stays on the simplex
        return normalize_weights(last.w @ config.matrix)

    if config.kind == "forgetting":
        # 0^alpha = 0: a model with exactly zero weight stays dead
        return normalize_weights(np.power(last.w, config.alpha))

    if config.kind == "polya_urn":
        if config.beta.shape != (k,):
            raise ConfigMismatchError("pseudo-count length != number of models")
        return normalize_weights(config.beta + history.cumulative)

    raise ConfigMismatchError("unknown operator %r" % (config.kind,))


def weight_step(config: WTTConfig, history: WeightHistory, log_evidences,
                floor: float = 0.0, predictive: WeightVector | None = None):
    """One transition-then-Bayes move of the model weights.

    The operator turns ``history`` into predictive weights, and
    :func:`~bdemm.core.update_model_weights_log` folds in the per-model log
    evidences (``floor`` is passed through).  If every evidence is zero the
    observation is uninformative: the predictive weights carry forward.
    A caller that already holds ``apply_wtt(config, history)`` passes it as
    ``predictive``, and the operator does not run again.

    Returns
    -------
    weights : WeightVector
        Posterior weights, or the predictive ones on an uninformative step.
    history : WeightHistory
        ``history`` with ``weights`` appended.
    informative : bool
        False when the predictive weights were carried forward.
    """
    if predictive is None:
        predictive = apply_wtt(config, history)
    try:
        weights = update_model_weights_log(predictive, log_evidences,
                                           floor=floor)
        informative = True
    except AllZeroError:
        weights, informative = predictive, False
    return weights, history.append(weights), informative
