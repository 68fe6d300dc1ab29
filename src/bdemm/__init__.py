"""Dynamic Bayesian ensembles of models for robust online prediction.

A pool of candidate models filters one observation stream together.  Per
step, model weights first move through a weight-transition operator (how
much yesterday's winners are trusted today), then take a Bayes update from
each model's evidence for the new observation.  Point estimates average the
per-model estimates under those weights.  Three engines share this skeleton:

* :mod:`bdemm.kalman` -- exact inference over linear-Gaussian candidates;
* :mod:`bdemm.smc`    -- particle filtering over generic nonlinear models;
* :mod:`bdemm.gpts`   -- Gaussian-process regressors fused by a weighted
  product of experts.

:mod:`bdemm.toy` packages a heavy-outlier benchmark, :mod:`bdemm.stream`
runs engines over CSV files, and the ``bdemm`` console script fronts both.
"""

from .core import (
    GaussianBelief,
    PointEstimate,
    WeightHistory,
    WeightVector,
    bma_point_estimate,
    collapse_mixture,
    update_model_weights_log,
)
from .errors import (
    AllZeroError,
    BdemmError,
    ConfigError,
    ConfigMismatchError,
    DimensionMismatchError,
    FactorizationFailureError,
    InvalidInputError,
    NegativeEntryError,
    NonFiniteBeliefError,
    NonFiniteForecastError,
    NonFiniteWeightError,
    ParseError,
    SingularInnovationCovError,
)
from .evidence import (
    Proposal,
    UnnormalizedTarget,
    effective_sample_size,
    gaussian_log_evidence,
    is_evidence,
)
from .gpts import (
    GPTSModel,
    IntelState,
    PredictiveGaussian,
    gp_predict_next,
    intel_step,
    perturb_pool,
    poe_combine,
)
from .kalman import (
    KfEnsembleState,
    LinearGaussianModel,
    kf_bdemm_step,
    kf_predict,
)
from .smc import (
    GenericStateSpaceModel,
    ParticleEnsemble,
    SmcEnsembleState,
    additive_noise_ssm,
    gaussian_noise,
    linear_gaussian_ssm,
    mc_log_evidence,
    propagate,
    resample,
    reweight,
    smc_bdemm_step,
    student_t_noise,
    uniform_noise,
)
from .toy import (
    ToyConfig,
    RunReport,
    gen_toy_series,
    mse,
    run_toy_experiment,
    summary_text,
    toy_pool,
    write_report,
)
from .wtt import WTTConfig, apply_wtt, default_markov_matrix, weight_step

__version__ = "0.1.0"
