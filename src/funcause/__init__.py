"""Causal inference for functional outcomes.

Fréchet-mean and kernel-based treatment effect estimators for outcomes
(and covariates) observed as curves on a shared grid, with elastic
registration, asymptotic confidence intervals, and a synthetic benchmark
harness.
"""
from .errors import (
    ArmEmptyError,
    DomainError,
    FuncauseError,
    GridTooSmall,
    NumericalError,
    SchemaError,
    WeightError,
)
from .fdata import (
    Curve,
    Dataset,
    Grid,
    derivative,
    grid_norm,
    load_dataset,
    resample,
    save_dataset,
)
from .elastic import (
    KarcherMeanResult,
    SrsfCurve,
    WarpingFunction,
    align_batch,
    align_pair,
    fr_distance_sphere,
    fr_distance_srsf,
    karcher_mean,
    srsf_inverse,
    srsf_transform,
    warp_curve,
    warp_srsf,
)
from .frechet import (
    DynamicEffect,
    FrechetMeanResult,
    Metric,
    effect_from_means,
    frechet_mean,
    group_potential_outcomes,
)
from .classical import (
    OutcomeModel,
    PropensityModel,
    dr_effect,
    fit_outcome_models,
    fit_propensity,
    ipw_effect,
)
from .kernels import (
    GramMatrix,
    KernelFamily,
    KernelSpec,
    cross_gram,
    input_gram,
    median_heuristic,
    output_gram,
)
from .estimators import (
    ESTIMATOR_NAMES,
    DoseResponseCurve,
    IterativeConfig,
    IterativeResult,
    KrrModel,
    dose_response,
    iterative_srvf_estimate,
    kernel_dynamic_effect,
    kernel_setup,
    krr_fit,
    potential_outcome,
    register_outcomes,
    run_estimator,
    select_hyperparameters,
)
from .inference import EffectCI, Regime, TTestResult, effect_ci, pointwise_ci, welch_t_test
from .simgen import GroundTruth, Scenario, ScenarioConfig, effect_error, generate

__version__ = "0.1.0"
