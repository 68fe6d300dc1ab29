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
A :class:`WTTConfig` is ``(kind, param)``, the operator and the one
parameter it reads; against a history only the width of an array parameter
is checked, with one :class:`~bdemm.errors.ConfigMismatchError` message.
:func:`weight_step` runs one whole move of the dynamic ensemble, the
operator followed by Bayes' rule; every engine step runs its two kernels,
``_transition`` and ``_weight_step``, under the step's own error scope.
Both moves run on plain arrays, so a step builds one posterior
``WeightVector`` and one ``WeightHistory``; :func:`apply_wtt` and
:func:`~bdemm.core.update_model_weights_log` are the one-call public forms
of the two kernels.  ``_weight_step`` takes the predictive weights, not
the config, so the GP step, whose state carries the predictive weights
its fusion used, starts its next row from them and runs the operator
once per row.
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
    _count,
    _finite,
    _floats,
    _frozen,
    _quiet,
    _real,
    _trusted,
)
from .errors import ConfigMismatchError

KINDS = ("identity", "constant", "markov", "forgetting", "polya_urn")

__all__ = ["WTTConfig", "apply_wtt", "weight_step", "default_markov_matrix",
           "KINDS"]


def default_markov_matrix(k: int, stay: float = 0.9) -> np.ndarray:
    """Row-stochastic matrix keeping ``stay`` on the diagonal.

    Off-diagonal mass is spread evenly, ``(1 - stay) / (k - 1)`` per entry;
    ``k = 1`` gives ``[[1.0]]``.  Raises ``ConfigMismatchError`` unless ``k``
    is a whole number >= 1 and ``stay`` a real number in [0, 1].
    """
    k = _count(k, ConfigMismatchError, "need a whole number of models >= 1")
    stay = _real(stay, "stay", ConfigMismatchError)
    if not 0.0 <= stay <= 1.0:
        raise ConfigMismatchError("diagonal mass must sit in [0, 1]")
    if k == 1:
        return np.ones((1, 1))
    t = np.full((k, k), (1.0 - stay) / (k - 1))
    np.fill_diagonal(t, stay)
    return t


@dataclass(frozen=True, eq=False)
class WTTConfig:
    """Which weight-transition operator to run, and the one parameter it reads.

    ``identity`` reads none, so ``param`` stays ``None``.  The constant
    weights (a :class:`~bdemm.core.WeightVector` or anything it accepts), the
    Markov matrix and the Pólya-urn pseudo-counts are stored as read-only
    float arrays, alpha as a float.  The classmethods are the short forms;
    the raw constructor validates the same way.  A missing parameter, one of
    the wrong kind or one given to ``identity`` raises
    :class:`~bdemm.errors.ConfigMismatchError`, or the ``WeightVector`` error
    for bad constants.
    """

    kind: str
    param: object = None

    @_quiet
    def __post_init__(self):
        kind, p = self.kind, self.param
        if kind not in KINDS:
            raise ConfigMismatchError(
                "unknown operator %r (choose from %s)" % (kind, ", ".join(KINDS)))
        if (p is None) != (kind == "identity"):
            raise ConfigMismatchError("%s operator reads %s parameter" % (
                kind, "no" if kind == "identity" else "one"))
        if kind == "identity":
            return
        if kind == "constant":
            p = p.w if isinstance(p, WeightVector) else WeightVector(p).w
        elif kind == "markov":
            t = _floats(p, "transition matrix", 2, ConfigMismatchError)
            if t.ndim != 2 or t.shape[0] != t.shape[1]:
                raise ConfigMismatchError("transition matrix must be square")
            if not _finite(t):
                raise ConfigMismatchError("transition matrix entries must be finite")
            if np.any(t < 0.0):
                raise ConfigMismatchError("transition matrix entries must be >= 0")
            if float(np.abs(t.sum(axis=1) - 1.0).max()) > SIMPLEX_ATOL:
                raise ConfigMismatchError("transition matrix rows must sum to 1")
            p = _frozen(t)
        elif kind == "forgetting":
            p = _real(p, "alpha", ConfigMismatchError)
            if not 0.0 < p <= 1.0:
                raise ConfigMismatchError("alpha must sit in (0, 1]")
        else:
            b = _floats(p, "pseudo-counts", 1, ConfigMismatchError)
            if b.ndim != 1 or b.size < 1:
                raise ConfigMismatchError("pseudo-counts must be a vector")
            # the operator divides by the counts' total plus the column
            # sums; a non-finite count leaves a non-finite total too
            if not math.isfinite(float(b.sum())):
                raise ConfigMismatchError(
                    "pseudo-counts and their total must be finite")
            if np.any(b != np.floor(b)) or np.any(b < 1):
                raise ConfigMismatchError("pseudo-counts must be integers >= 1")
            p = _frozen(b)
        object.__setattr__(self, "param", p)

    @classmethod
    def identity(cls) -> "WTTConfig":
        return cls("identity")

    @classmethod
    def constant(cls, constants) -> "WTTConfig":
        return cls("constant", constants)

    @classmethod
    def markov(cls, matrix) -> "WTTConfig":
        return cls("markov", matrix)

    @classmethod
    def forgetting(cls, alpha: float) -> "WTTConfig":
        return cls("forgetting", alpha)

    @classmethod
    def polya_urn(cls, beta) -> "WTTConfig":
        return cls("polya_urn", beta)


def _transition(config: WTTConfig, history: WeightHistory) -> np.ndarray:
    """The operator kernel: predictive weights of ``history`` as a read-only
    array.

    ``identity`` returns ``history.last.w`` itself and ``constant``
    ``config.param``; the others return a fresh array, divided by its sum
    unless that sum is 1 within ``SIMPLEX_ATOL``.  Only the width of the
    config's array parameter is checked against the history; the weights
    and the parameter were validated when they were built.
    """
    w = history.last.w
    kind, p = config.kind, config.param
    if kind != "identity":
        # each array parameter holds one row per model (markov's is square)
        if kind != "forgetting" and p.shape[0] != w.size:
            raise ConfigMismatchError(
                "%s parameter has width %d for %d models"
                % (kind, p.shape[0], w.size))
        if kind == "constant":
            w = p
        else:
            # forgetting: 0^alpha = 0, so a model with exactly zero weight
            # stays dead; markov: w' = w @ T stays on the simplex, as the
            # rows of T sum to 1
            raw = (np.power(w, p) if kind == "forgetting" else
                   w @ p if kind == "markov" else p + history.cumulative)
            s = float(np.add.reduce(raw))
            w = raw if abs(s - 1.0) <= SIMPLEX_ATOL else raw / s
            w.setflags(False)  # write=False, without numpy's keyword parse
    return w


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
    return _trusted(WeightVector, _transition(config, history))


def _weight_step(predictive: np.ndarray, history: WeightHistory,
                 log_ev: np.ndarray, weight_floor: float):
    """The move kernel of :func:`weight_step`, from the read-only
    predictive weights :func:`_transition` gave for ``history``, on a float
    array of log evidences; every engine step runs it on its own evidence
    array, under the step's error scope."""
    w = _bayes(predictive, log_ev, weight_floor)
    informative = w is not None
    weights = _trusted(WeightVector, w if informative else predictive)
    return weights, history.append(weights), informative


@_quiet
def weight_step(config: WTTConfig, history: WeightHistory, log_evidences,
                weight_floor: float = 0.0):
    """One transition-then-Bayes move of the model weights.

    The operator turns ``history`` into predictive weights, and Bayes' rule
    folds in the per-model log evidences as
    :func:`~bdemm.core.update_model_weights_log` does (``weight_floor`` is
    passed through; outside ``[0, 1/K)`` it raises ``InvalidInputError``).  If every
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
    return _weight_step(_transition(config, history), history,
                        _floats(log_evidences, "log evidences", 1),
                        weight_floor)
