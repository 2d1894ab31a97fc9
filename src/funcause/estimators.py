"""Kernel ridge regression machinery for curve-valued causal estimators.

Fits the Kronecker-structured system (K_XV (x) K_Y + lambda I) alpha =
vec(Y) through the paired eigendecompositions of the two factors, so the
nT x nT matrix is never materialized.  Builds potential-outcome curves,
dynamic effects, dose-response curves, outcome pre-registration, the
iterative SRVF-registration estimation loop and the holdout hyperparameter
search, and runs every named estimator through ``run_estimator``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import classical, elastic, frechet
from .elastic import warp_curve
from .errors import NumericalError
from .fdata import Curve, Dataset, Grid, _moving_average
from .frechet import DynamicEffect, Metric, Weighting, effect_from_means
from .kernels import (
    GramMatrix,
    KernelFamily,
    KernelSpec,
    _covariate_points,
    cross_gram,
    input_gram,
    median_heuristic,
    output_gram,
)

__all__ = [
    "ESTIMATOR_NAMES",
    "KrrModel",
    "DoseResponseCurve",
    "IterativeConfig",
    "IterativeResult",
    "krr_fit",
    "predict_curve",
    "potential_outcome",
    "kernel_dynamic_effect",
    "dose_response",
    "register_outcomes",
    "kernel_setup",
    "select_regularization",
    "select_hyperparameters",
    "iterative_srvf_estimate",
    "run_estimator",
]

ESTIMATOR_NAMES = (
    "ipw",
    "dr",
    "frechet-euclid",
    "frechet-fr",
    "kernel",
    "operator-kernel",
    "srvf-operator-kernel",
    "iterative-srvf",
)

_LAM_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1)
_SCALE_GRID = (0.5, 1.0, 2.0)


@dataclass
class KrrModel:
    """Fitted curve-valued kernel ridge regression."""

    alpha: np.ndarray  # n x T coefficient matrix
    lam: float
    kx: KernelSpec
    kv: Optional[KernelSpec]
    treatments: np.ndarray
    covariate_points: np.ndarray  # rows kv acts on (SRSF features for FR kernels)
    k_y: Optional[np.ndarray]  # output Gram, None means identity
    grid: Grid

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if not np.all(np.isfinite(self.alpha)):
            raise NumericalError("non-finite KRR coefficients")


@dataclass
class DoseResponseCurve:
    levels: list
    effects: list
    curves: list = field(default_factory=list)


def kernel_setup(ds: Dataset, scale: float = 1.0):
    """Default treatment and covariate kernel specs for a dataset, with every
    median-heuristic bandwidth multiplied by ``scale``."""
    if ds.is_binary():
        kx = KernelSpec(KernelFamily.BINARY_INDICATOR)
    else:
        kx = KernelSpec(
            KernelFamily.SQUARED_EXPONENTIAL, scale * median_heuristic(ds.treatments)
        )
    if ds.covariate_grid is not None:
        med = median_heuristic([s.covariate_curve for s in ds.samples], metric="fisher_rao")
        kv = KernelSpec(KernelFamily.FISHER_RAO_GAUSSIAN, 1.0 / (2.0 * (scale * med) ** 2))
    elif ds.covariate_matrix.shape[1] > 0:
        kv = KernelSpec(
            KernelFamily.SQUARED_EXPONENTIAL, scale * median_heuristic(ds.covariate_matrix)
        )
    else:
        kv = None
    return kx, kv


def _ridge_path(k_in: np.ndarray, y: np.ndarray, k_y: Optional[np.ndarray]):
    """Return lam -> alpha solving (K_in (x) K_Y + lam I) vec(alpha) = vec(Y).

    Eigendecomposes both Gram factors once and rescales in the joint
    eigenbasis for each lambda; with identity K_Y (None) this reduces to a
    single n x n solve applied to every output column.
    """
    d1, u1 = np.linalg.eigh(k_in)
    if k_y is None:
        ytil = u1.T @ y
        denom = d1[:, None]
    else:
        d2, u2 = np.linalg.eigh(k_y)
        ytil = u1.T @ y @ u2
        denom = d1[:, None] * d2[None, :]

    def solve(lam: float) -> np.ndarray:
        if lam <= 0:
            raise ValueError("lambda must be positive")
        alpha = u1 @ (ytil / (denom + lam))
        if k_y is not None:
            alpha = alpha @ u2.T
        if not np.all(np.isfinite(alpha)):
            raise NumericalError("KRR solve produced non-finite coefficients")
        return alpha

    return solve


def _outputs(rows: np.ndarray, alpha: np.ndarray, k_y: Optional[np.ndarray]) -> np.ndarray:
    """Predicted curves for input-kernel rows against the training units."""
    out = rows @ alpha
    return out if k_y is None else out @ k_y


def krr_fit(
    ds: Dataset,
    kx: KernelSpec,
    kv: Optional[KernelSpec],
    k_y: Optional[GramMatrix] = None,
    lam: float = 1e-3,
) -> KrrModel:
    """Solve (K_XV (x) K_Y + lambda I) vec(alpha) = vec(Y)."""
    ky_mat = None if k_y is None else k_y.entries
    alpha = _ridge_path(input_gram(ds, kx, kv).entries, ds.outcome_matrix, ky_mat)(lam)
    return KrrModel(
        alpha=alpha,
        lam=lam,
        kx=kx,
        kv=kv,
        treatments=ds.treatments,
        covariate_points=_covariate_points(ds.samples, kv),
        k_y=ky_mat,
        grid=ds.outcome_grid,
    )


def _kernel_rows(model: KrrModel, x, points) -> np.ndarray:
    """Input-kernel rows between units (x[j], points[j]) and the training units."""
    return cross_gram(model.kx, x, model.treatments) * cross_gram(
        model.kv, points, model.covariate_points
    )


def predict_curve(model: KrrModel, x: float, v_index: int) -> np.ndarray:
    """Predicted outcome curve at treatment x with training unit v_index's
    covariates."""
    row = _kernel_rows(model, [x], model.covariate_points[v_index : v_index + 1])
    return _outputs(row, model.alpha, model.k_y)[0]


def potential_outcome(model: KrrModel, x: float) -> Curve:
    """Expected potential outcome curve: the prediction averaged over the
    training covariate distribution (equivalently, the averaged kernel row
    applied to the coefficients)."""
    v = model.covariate_points
    row = cross_gram(model.kx, [x], model.treatments)[0] * cross_gram(model.kv, v, v).mean(axis=0)
    return Curve(model.grid, _outputs(row, model.alpha, model.k_y))


def kernel_dynamic_effect(model: KrrModel, metric: Metric = Metric.EUCLIDEAN) -> DynamicEffect:
    """Effect between the potential outcomes at x = 1 and x = 0 for binary
    treatments, and at the mean treatment level plus and minus 0.5
    otherwise."""
    x = model.treatments
    if np.all((x == 0.0) | (x == 1.0)):
        x1, x0 = 1.0, 0.0
    else:
        xbar = float(x.mean())
        x1, x0 = xbar + 0.5, xbar - 0.5
    return effect_from_means(potential_outcome(model, x1), potential_outcome(model, x0), metric)


def dose_response(
    model: KrrModel, levels: Sequence[float], metric: Metric = Metric.EUCLIDEAN
) -> DoseResponseCurve:
    """Norm of the potential-outcome curve at each treatment level."""
    curves, effects = [], []
    zero = Curve(model.grid, np.zeros(len(model.grid)))
    for x in levels:
        c = potential_outcome(model, float(x))
        curves.append(c)
        effects.append(effect_from_means(c, zero, metric).scalar_norm)
    return DoseResponseCurve(levels=list(levels), effects=effects, curves=curves)


def register_outcomes(
    ds: Dataset,
    max_iter: int = 10,
    tol: float = 1e-6,
    penalty: float = 0.05,
    smooth_window: Optional[int] = None,
    per_arm: bool = False,
):
    """Register every outcome curve to the elastic Karcher mean.

    ``smooth_window`` defaults to about a fifth of the grid length.  With
    ``smooth_window`` > 1 each curve is split into a moving-average
    smooth part and a rough residual: the warps are estimated from and
    applied to the smooth part only, and the residual is added back
    unwarped.  Warping rough observation noise makes it locally smooth,
    which defeats downstream output smoothing; this split avoids that.
    ``per_arm`` registers each treatment arm to its own (phase-centered)
    mean, which preserves the arm contrast.  Returns the registered dataset
    and the per-sample warps.
    """
    grid = ds.outcome_grid
    y = ds.outcome_matrix
    if smooth_window is None:
        smooth_window = max(3, len(grid) // 5) | 1
    if smooth_window > 1:
        smooth = np.array([_moving_average(row, smooth_window) for row in y])
        resid = y - smooth
    else:
        smooth = y
        resid = np.zeros_like(y)

    n = len(ds)
    warps = [None] * n
    if per_arm and ds.is_binary():
        groups = [ds.arm_indices(0.0), ds.arm_indices(1.0)]
    else:
        groups = [np.arange(n)]
    registered = y.copy()
    for idx in groups:
        result = elastic.karcher_mean(
            [Curve(grid, smooth[i]) for i in idx],
            max_iter=max_iter,
            tol=tol,
            penalty=penalty,
        )
        for i, g in zip(idx, result.warps):
            warps[i] = g
            registered[i] = warp_curve(Curve(grid, smooth[i]), g).values + resid[i]
    return ds.with_outcomes(registered), warps


def register_covariate_curves(
    ds: Dataset,
    max_iter: int = 10,
    tol: float = 1e-6,
    penalty: float = 0.0,
    smooth_window: int = 0,
):
    curves = [s.covariate_curve for s in ds.samples]
    result = elastic.karcher_mean(
        curves, max_iter=max_iter, tol=tol, penalty=penalty, smooth_window=smooth_window
    )
    registered = np.array([warp_curve(c, g).values for c, g in zip(curves, result.warps)])
    return ds.with_covariate_curves(registered), result.warps


def _holdout_split(ds: Dataset, holdout: float, seed: int):
    n = len(ds)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = max(1, int(round(holdout * n)))
    test_idx = set(perm[:n_test].tolist())
    train = [s for i, s in enumerate(ds.samples) if i not in test_idx]
    test = [s for i, s in enumerate(ds.samples) if i in test_idx]
    return train, test


def _holdout_errors(
    ds: Dataset,
    kx: KernelSpec,
    kv: Optional[KernelSpec],
    k_y: Optional[GramMatrix],
    lam_grid: Sequence[float],
    holdout: float = 0.2,
    seed: int = 0,
) -> list:
    """Squared prediction error on a random holdout for every lambda.

    Fits on the remaining units from one eigendecomposition of their Gram
    and scores each held-out unit at its own treatment and covariates.
    Every error is inf when the split degenerates.
    """
    train, test = _holdout_split(ds, holdout, seed)
    try:
        ds_train = Dataset(train)
    except ValueError:
        return [math.inf] * len(lam_grid)
    ky_mat = None if k_y is None else k_y.entries
    solve = _ridge_path(input_gram(ds_train, kx, kv).entries, ds_train.outcome_matrix, ky_mat)
    rows = cross_gram(kx, [s.treatment for s in test], ds_train.treatments) * cross_gram(
        kv, _covariate_points(test, kv), _covariate_points(train, kv)
    )
    y_test = np.array([s.outcome.values for s in test])
    return [
        float(np.sum((_outputs(rows, solve(lam), ky_mat) - y_test) ** 2)) for lam in lam_grid
    ]


def holdout_error(
    ds: Dataset,
    kx: KernelSpec,
    kv: Optional[KernelSpec],
    k_y: Optional[GramMatrix] = None,
    lam: float = 1e-3,
    holdout: float = 0.2,
    seed: int = 0,
) -> float:
    """Squared prediction error on a random 20% holdout; inf when the split
    degenerates."""
    return _holdout_errors(ds, kx, kv, k_y, (lam,), holdout, seed)[0]


def select_regularization(
    ds: Dataset,
    kx: KernelSpec,
    kv: Optional[KernelSpec],
    k_y: Optional[GramMatrix] = None,
    lam_grid: Sequence[float] = _LAM_GRID,
    holdout: float = 0.2,
    seed: int = 0,
) -> float:
    """Pick lambda by 20% holdout prediction error (the first minimum)."""
    return lam_grid[int(np.argmin(_holdout_errors(ds, kx, kv, k_y, lam_grid, holdout, seed)))]


def select_hyperparameters(ds: Dataset, k_y: Optional[GramMatrix] = None, seed: int = 0):
    """Grid search over bandwidth scales and lambdas on a 20% holdout.

    Returns (kx, kv, lam) with the first minimum error in scale-major
    order, or the default kernels with lambda = 1e-2 when every error is
    inf.
    """
    candidates = []
    for scale in _SCALE_GRID:
        kx, kv = kernel_setup(ds, scale)
        errs = _holdout_errors(ds, kx, kv, k_y, _LAM_GRID, seed=seed)
        candidates += [(err, kx, kv, lam) for lam, err in zip(_LAM_GRID, errs)]
    err, kx, kv, lam = min(candidates, key=lambda c: c[0])
    if err == math.inf:
        return (*kernel_setup(ds), 1e-2)
    return kx, kv, lam


@dataclass
class IterativeConfig:
    """Settings for the iterative registration + KRR loop; the kernels are
    ``kernel_setup``'s defaults for the registered curves."""

    lam: float = 1e-2
    r_max: int = 10
    eps: float = 1e-4
    karcher_max_iter: int = 5
    karcher_tol: float = 1e-4
    smooth_window: Optional[int] = None  # outcome split window; T//10 if None
    penalty: float = 0.05
    levels: Optional[Sequence[float]] = None  # dose levels for continuous treatments
    metric: Metric = Metric.EUCLIDEAN


@dataclass
class IterativeResult:
    effect: object  # DynamicEffect or DoseResponseCurve
    registered: Dataset
    trace: list
    converged: bool
    model: KrrModel


def iterative_srvf_estimate(ds: Dataset, config: Optional[IterativeConfig] = None) -> IterativeResult:
    """Iterate registration of covariate and outcome curves with KRR refits.

    Each round computes Karcher means of the current registered curves,
    aligns every curve to its mean, rebuilds the covariate Gram on the
    registered covariates, refits the ridge regression, and stops once the
    training predictions move less than ``eps`` between rounds.  Without
    covariate curves this reduces to a single outcome-registration pass.
    """
    cfg = config or IterativeConfig()
    has_vcurves = ds.covariate_grid is not None

    current = ds
    prev_pred = None
    trace = []
    converged = False
    model = None
    window = cfg.smooth_window
    if window is None:
        window = max(3, len(ds.outcome_grid) // 10) | 1
    rounds = cfg.r_max if has_vcurves else 1
    for r in range(rounds):
        # registration always restarts from the raw curves with one more
        # Karcher sweep per round; warping already-warped curves compounds
        # interpolation error instead of converging
        current = ds
        sweeps = cfg.karcher_max_iter + r
        if has_vcurves:
            current, _ = register_covariate_curves(
                current, max_iter=sweeps, tol=cfg.karcher_tol
            )
        current, _ = register_outcomes(
            current,
            max_iter=sweeps,
            tol=cfg.karcher_tol,
            penalty=cfg.penalty,
            smooth_window=window,
        )
        model = krr_fit(current, *kernel_setup(current), lam=cfg.lam)
        pred = _kernel_rows(model, model.treatments, model.covariate_points) @ model.alpha
        if prev_pred is not None:
            diff = float(np.linalg.norm(pred - prev_pred))
            trace.append(diff)
            if diff < cfg.eps:
                converged = True
                break
        prev_pred = pred
    if not has_vcurves:
        converged = True

    if ds.is_binary() or cfg.levels is None:
        effect = kernel_dynamic_effect(model, cfg.metric)
    else:
        effect = dose_response(model, cfg.levels, cfg.metric)
    return IterativeResult(
        effect=effect, registered=current, trace=trace, converged=converged, model=model
    )


def run_estimator(
    ds: Dataset,
    name: str,
    lam: Optional[float] = None,
    search: bool = False,
    seed: int = 0,
) -> DynamicEffect:
    """Run one named estimator and return its dynamic effect."""
    if name not in ESTIMATOR_NAMES:
        raise ValueError(f"unknown estimator: {name}")

    if name == "ipw":
        return classical.ipw_effect(ds, classical.fit_propensity(ds))
    if name == "dr":
        pm = classical.fit_propensity(ds)
        om = classical.fit_outcome_models(ds)
        return classical.dr_effect(ds, pm, om)
    if name == "frechet-euclid":
        f1, f0 = frechet.group_potential_outcomes(ds, Metric.EUCLIDEAN, Weighting.UNIFORM)
        return frechet.dynamic_effect(f1, f0)
    if name == "frechet-fr":
        f1, f0 = frechet.group_potential_outcomes(ds, Metric.FISHER_RAO_SRSF, Weighting.UNIFORM)
        return frechet.dynamic_effect(f1, f0, Metric.EUCLIDEAN)

    if name == "iterative-srvf":
        cfg = IterativeConfig(lam=lam if lam is not None else 1e-2)
        return iterative_srvf_estimate(ds, cfg).effect

    work_ds = ds
    if name == "srvf-operator-kernel":
        work_ds, _ = register_outcomes(ds, per_arm=True, max_iter=5)
    k_y = None
    if name in ("operator-kernel", "srvf-operator-kernel"):
        k_y = output_gram(work_ds.outcome_grid)

    if search:
        kx, kv, chosen = select_hyperparameters(work_ds, k_y=k_y, seed=seed)
        lam = chosen if lam is None else lam
    else:
        kx, kv = kernel_setup(work_ds)
        if lam is None:
            lam = 1e-2
    return kernel_dynamic_effect(krr_fit(work_ds, kx, kv, k_y=k_y, lam=lam))
