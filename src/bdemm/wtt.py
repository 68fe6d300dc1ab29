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
operator followed by Bayes' rule; every engine step runs its kernel,
``_weight_step``, under the step's own error scope.  Both moves run on
plain arrays (the operator kernel here, the Bayes kernel in
:mod:`bdemm.core`), so a step builds one posterior ``WeightVector`` and
one ``WeightHistory`` and nothing else; :func:`apply_wtt` and
:func:`~bdemm.core.update_model_weights_log` are the one-call public forms
of the two kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SIMPLEX_ATOL,
    WeightHistory,
    WeightVector,
    _bayes,
    _frozen,
    _quiet,
    _trusted,
)
from .errors import ConfigMismatchError

KINDS = ("identity", "constant", "markov", "forgetting", "polya_urn")

MTM_ATOL = 1e-12

# each operator parameter and the one operator that reads it
_PARAMETERS = {"constants": "constant", "matrix": "markov",
               "alpha": "forgetting", "beta": "polya_urn"}

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

    The classmethods (:meth:`identity`, :meth:`constant`, :meth:`markov`,
    :meth:`forgetting`, :meth:`polya_urn`) are the short forms; the raw
    constructor validates the same way.  The chosen operator's parameter is
    checked and stored in the form the operator reads: ``constants`` as a
    :class:`~bdemm.core.WeightVector`, ``matrix`` and ``beta`` as read-only
    float arrays and ``alpha`` as a float.  Anything else, including a
    parameter the chosen operator does not read, raises
    :class:`~bdemm.errors.ConfigMismatchError`, or the ``WeightVector``
    error for bad constants.
    """

    kind: str
    constants: WeightVector | None = None
    matrix: np.ndarray | None = None
    alpha: float | None = None
    beta: np.ndarray | None = None

    @_quiet
    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigMismatchError(
                "unknown operator %r (choose from %s)" % (self.kind, ", ".join(KINDS)))
        for name, reader in _PARAMETERS.items():
            if getattr(self, name) is not None and self.kind != reader:
                raise ConfigMismatchError("%s operator does not read %s"
                                          % (self.kind, name))
        if self.kind == "constant":
            if self.constants is None:
                raise ConfigMismatchError("constant operator needs its weight vector")
            if not isinstance(self.constants, WeightVector):
                object.__setattr__(self, "constants", WeightVector(
                    np.asarray(self.constants, dtype=float)))
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
            object.__setattr__(self, "matrix", _frozen(t))
        elif self.kind == "forgetting":
            if self.alpha is None:
                raise ConfigMismatchError("forgetting operator needs alpha")
            try:
                if np.ndim(self.alpha) != 0:
                    raise TypeError
                alpha = float(self.alpha)
            except (TypeError, ValueError):
                raise ConfigMismatchError("alpha must be a real scalar, got %r"
                                          % (self.alpha,)) from None
            if not 0.0 < alpha <= 1.0:
                raise ConfigMismatchError("alpha must sit in (0, 1]")
            object.__setattr__(self, "alpha", alpha)
        elif self.kind == "polya_urn":
            if self.beta is None:
                raise ConfigMismatchError("polya urn needs pseudo-counts")
            b = np.atleast_1d(np.asarray(self.beta, dtype=float))
            if b.ndim != 1 or b.size < 1:
                raise ConfigMismatchError("pseudo-counts must be a vector")
            # the operator divides by the counts' total plus the column
            # sums; a non-finite count leaves a non-finite total too
            if not math.isfinite(float(b.sum())):
                raise ConfigMismatchError(
                    "pseudo-counts and their total must be finite")
            if np.any(b != np.floor(b)) or np.any(b < 1):
                raise ConfigMismatchError("pseudo-counts must be integers >= 1")
            object.__setattr__(self, "beta", _frozen(b))

    @classmethod
    def identity(cls) -> "WTTConfig":
        return cls("identity")

    @classmethod
    def constant(cls, constants) -> "WTTConfig":
        return cls("constant", constants=constants)

    @classmethod
    def markov(cls, matrix) -> "WTTConfig":
        return cls("markov", matrix=matrix)

    @classmethod
    def forgetting(cls, alpha: float) -> "WTTConfig":
        return cls("forgetting", alpha=alpha)

    @classmethod
    def polya_urn(cls, beta) -> "WTTConfig":
        return cls("polya_urn", beta=beta)


def _transition(config: WTTConfig, history: WeightHistory) -> np.ndarray:
    """The operator kernel: predictive weights of ``history`` as an array.

    ``identity`` returns ``history.last.w`` itself and ``constant``
    ``config.constants.w``; the others return a fresh array, divided by its
    sum unless that sum is 1 within ``SIMPLEX_ATOL``.  Only the width of
    the config's parameter is checked against the history; the weights and
    the parameter were validated when they were built.
    """
    last = history.last.w
    kind = config.kind

    if kind == "identity":
        return last
    if kind == "constant":
        if config.constants.w.shape != last.shape:
            raise ConfigMismatchError("constant vector length != number of models")
        return config.constants.w
    if kind == "markov":
        if config.matrix.shape != (last.size, last.size):
            raise ConfigMismatchError("transition matrix shape != (K, K)")
        # w'_j = sum_i w_i T_ij; rows of T sum to 1 so w' stays on the simplex
        raw = last @ config.matrix
    elif kind == "forgetting":
        # 0^alpha = 0: a model with exactly zero weight stays dead
        raw = np.power(last, config.alpha)
    elif kind == "polya_urn":
        if config.beta.shape != last.shape:
            raise ConfigMismatchError("pseudo-count length != number of models")
        raw = config.beta + history.cumulative
    else:
        raise ConfigMismatchError("unknown operator %r" % (kind,))
    s = float(raw.sum())
    return raw if abs(s - 1.0) <= SIMPLEX_ATOL else raw / s


def _as_weights(w: np.ndarray, config: WTTConfig,
                history: WeightHistory) -> WeightVector:
    """The operator kernel's array ``w`` as a ``WeightVector``: the one that
    already holds it when it is the history's or the constant operator's."""
    if w is history.last.w:
        return history.last
    if config.kind == "constant":
        return config.constants
    return _trusted(WeightVector, w)


@_quiet
def apply_wtt(config: WTTConfig, history: WeightHistory) -> WeightVector:
    """Run one weight-transition step: posterior history in, predictive out.

    ``identity``, ``markov`` and ``forgetting`` read the latest row,
    ``polya_urn`` the running column sums, ``constant`` neither.  The
    history's weights were validated when they were built, so the operators
    renormalize without re-checking them.

    Raises
    ------
    ConfigMismatchError
        If the config's parameter disagrees with the history width.
    """
    return _as_weights(_transition(config, history), config, history)


def _weight_step(config: WTTConfig, history: WeightHistory, log_evidences,
                 floor: float):
    """The move kernel of :func:`weight_step`, which every engine step runs
    under its own error scope."""
    predictive = _transition(config, history)
    w = _bayes(predictive, log_evidences, floor)
    informative = w is not None
    if informative:
        weights = _trusted(WeightVector, w)
    else:
        w = predictive
        weights = _as_weights(w, config, history)
    grown = _trusted(WeightHistory, weights, history.cumulative + w,
                     history.count + 1)
    return weights, grown, informative


@_quiet
def weight_step(config: WTTConfig, history: WeightHistory, log_evidences,
                floor: float = 0.0):
    """One transition-then-Bayes move of the model weights.

    The operator turns ``history`` into predictive weights, and Bayes' rule
    folds in the per-model log evidences as
    :func:`~bdemm.core.update_model_weights_log` does (``floor`` is passed
    through; outside ``[0, 1/K)`` it raises ``ValueError``).  If every
    evidence is zero the observation is uninformative: the predictive
    weights carry forward.  Both moves run on arrays, so the call builds one
    ``WeightVector`` and one ``WeightHistory``.

    Returns
    -------
    weights : WeightVector
        Posterior weights, or the predictive ones on an uninformative step.
    history : WeightHistory
        ``history`` with ``weights`` appended.
    informative : bool
        False when the predictive weights were carried forward.
    """
    return _weight_step(config, history, log_evidences, floor)
