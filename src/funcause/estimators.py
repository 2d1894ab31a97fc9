"""Kernel ridge regression machinery for curve-valued causal estimators.

Fits the Kronecker-structured system (K_XV (x) K_Y + lambda I) alpha =
vec(Y) through the paired eigendecompositions of the two factors, so the
nT x nT matrix is never materialized.  Builds potential-outcome curves,
dynamic effects, dose-response curves, outcome pre-registration, the
registered-curve estimator (covariate and outcome curves registered once
to their Karcher means, then one fit) and the holdout hyperparameter
search.  ``run_estimator`` runs every named estimator: classical, Fréchet
(``_FRECHET``) or kernel (``_KERNEL``, fitted by ``_kernel_model``).  It
reads a dataset's arrays and derives new datasets with
``dataclasses.replace`` (registered curves) and ``Dataset.take`` (the
holdout's training units).  Each fit or search, and each estimator run
that searches and then fits, builds the dataset's kernel inputs once
(``kernels._Input``: the covariate rows and each input's pairwise
distances) and slices every Gram block and median heuristic from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import classical, elastic, frechet
from .errors import NumericalError
from .fdata import Curve, Dataset, Grid, grid_norm
from .frechet import DynamicEffect, Metric, effect_from_means
from .kernels import (
    GramMatrix,
    KernelFamily,
    KernelSpec,
    _covariate_points,
    _Input,
    cross_gram,
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
    "select_hyperparameters",
    "iterative_srvf_estimate",
    "run_estimator",
]

# Fréchet estimators by the metric of their means; kernel estimators by
# (registration run before the fit or None, operator-valued output kernel?),
# each registration looking its function up here when it runs
_FRECHET = {"frechet-euclid": Metric.EUCLIDEAN, "frechet-fr": Metric.FISHER_RAO_SRSF}
_KERNEL = {
    "kernel": (None, False),
    "operator-kernel": (None, True),
    "srvf-operator-kernel": (lambda ds: register_outcomes(ds, per_arm=True, max_iter=5)[0], True),
    "iterative-srvf": (lambda ds: _register_iterative(ds, IterativeConfig())[0], False),
}
ESTIMATOR_NAMES = ("ipw", "dr", *_FRECHET, *_KERNEL)

_LAM_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1)
# ridge penalty when none is given and none is searched for
DEFAULT_LAM = 1e-2
_SCALE_GRID = (0.5, 1.0, 2.0)
# share of the units the hyperparameter search holds out
HOLDOUT = 0.2


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
    covariate_mean_row: np.ndarray  # column means of the training covariate Gram

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


def kernel_setup(ds: Dataset):
    """Default treatment and covariate kernel specs, with median-heuristic
    bandwidths, for a dataset."""
    return _default_kernels(ds)[1](1.0)


def _inputs(ds: Dataset, kv: Optional[KernelSpec]):
    """The (treatment, covariate) kernel inputs of ``ds`` under the
    covariate kernel ``kv``; their distances are computed on first use."""
    return _Input(ds.treatments), _Input(_covariate_points(ds, kv))


def _default_kernels(ds: Dataset):
    """The kernel inputs of the default covariate kernel (SRSF features of
    the covariate curves if there are any) and ``kernel_setup`` as a
    function of the scale, from one median heuristic per input."""
    fisher_rao = ds.covariate_grid is not None
    inputs = xin, vin = _inputs(
        ds, KernelSpec(KernelFamily.FISHER_RAO_GAUSSIAN) if fisher_rao else None
    )
    mx = None if ds.is_binary() else xin.median()
    mv = vin.median() if vin.rows.shape[1] > 0 else None

    def setup(scale: float):
        kx = KernelSpec(KernelFamily.BINARY_INDICATOR)
        if mx is not None:
            kx = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, scale * mx)
        if mv is None:
            return kx, None
        if fisher_rao:
            zeta = 1.0 / (2.0 * (scale * mv) ** 2)
            return kx, KernelSpec(KernelFamily.FISHER_RAO_GAUSSIAN, zeta)
        return kx, KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, scale * mv)

    return inputs, setup


def _ridge_path(k_in: np.ndarray, y: np.ndarray, k_y: Optional[GramMatrix]):
    """Return lam -> alpha solving (K_in (x) K_Y + lam I) vec(alpha) = vec(Y).

    Eigendecomposes K_in once and rescales in the joint eigenbasis for each
    lambda; K_Y's decomposition is the one its ``GramMatrix`` keeps, so a
    search and the final fit decompose the output Gram once.  With identity
    K_Y (None) this reduces to a single n x n solve applied to every output
    column.  ``eigh`` reads one triangle of ``k_in``; every input-Gram
    product is exactly symmetric, as its distances are.
    """
    d1, u1 = np.linalg.eigh(k_in)
    if k_y is None:
        ytil = u1.T @ y
        denom = d1[:, None]
    else:
        d2, u2 = k_y.eigh
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
    lam: float = DEFAULT_LAM,
) -> KrrModel:
    """Solve (K_XV (x) K_Y + lambda I) vec(alpha) = vec(Y)."""
    return _fit(ds, _inputs(ds, kv), kx, kv, k_y, lam)


def _fit(ds, inputs, kx, kv, k_y, lam) -> KrrModel:
    """``krr_fit`` on the kernel inputs ``_inputs(ds, kv)``."""
    xin, vin = inputs
    kv_gram = vin.gram(kv)
    return KrrModel(
        alpha=_ridge_path(xin.gram(kx) * kv_gram, ds.outcome_matrix, k_y)(lam),
        lam=lam,
        kx=kx,
        kv=kv,
        treatments=ds.treatments,
        covariate_points=vin.rows,
        k_y=None if k_y is None else k_y.entries,
        grid=ds.outcome_grid,
        covariate_mean_row=kv_gram.mean(axis=0),
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
    row = cross_gram(model.kx, [x], model.treatments)[0] * model.covariate_mean_row
    return Curve(model.grid, _outputs(row, model.alpha, model.k_y))


def kernel_dynamic_effect(model: KrrModel) -> DynamicEffect:
    """Euclidean effect between the potential outcomes at x = 1 and x = 0
    for binary treatments, and at the mean treatment level plus and minus
    0.5 otherwise."""
    x = model.treatments
    if np.all((x == 0.0) | (x == 1.0)):
        x1, x0 = 1.0, 0.0
    else:
        xbar = float(x.mean())
        x1, x0 = xbar + 0.5, xbar - 0.5
    return effect_from_means(
        potential_outcome(model, x1), potential_outcome(model, x0), Metric.EUCLIDEAN
    )


def dose_response(model: KrrModel, levels: Sequence[float]) -> DoseResponseCurve:
    """Euclidean norm of the potential-outcome curve at each treatment
    level."""
    curves, effects = [], []
    for x in levels:
        c = potential_outcome(model, float(x))
        curves.append(c)
        effects.append(grid_norm(c.values, model.grid))
    return DoseResponseCurve(levels=list(levels), effects=effects, curves=curves)


# slope penalty of every outcome registration, and of `funcause register`;
# sweep budget and relative tolerance of the `register_*` Karcher means
REGISTER_PENALTY = 0.05
REGISTER_SWEEPS = 10
REGISTER_TOL = 1e-6


def _moving_average(v: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average of a 1-D array, with edge padding."""
    pad = window // 2
    padded = np.pad(v, pad, mode="edge")
    return np.convolve(padded, np.ones(window) / window, mode="same")[pad : pad + v.size]


def _register_rows(y, grid, groups, max_iter, tol, penalty, window):
    """Warp each group of rows of ``y`` to the group's elastic Karcher mean.

    With ``window`` > 1 each row is split into a moving-average smooth part
    and a rough residual: the warps are estimated from and applied to the
    smooth part only, and the residual is added back unwarped.  Returns the
    registered rows, the read-only matrix of their warps and whether every
    group's Karcher mean converged.
    """
    if window > 1:
        smooth = np.array([_moving_average(row, window) for row in y])
        resid = y - smooth
    else:
        smooth = y
        resid = np.zeros_like(y)
    warps = np.empty_like(y)
    registered = y.copy()
    converged = True
    for idx in groups:
        result = elastic.karcher_mean(smooth[idx], grid, max_iter, tol, penalty=penalty)
        converged = converged and result.converged
        warps[idx] = result.warps
        registered[idx] = elastic._interp_rows(result.warps, grid.points, smooth[idx]) + resid[idx]
    return registered, elastic._read_only(warps), converged


def register_outcomes(
    ds: Dataset,
    max_iter: int = REGISTER_SWEEPS,
    smooth_window: Optional[int] = None,
    per_arm: bool = False,
):
    """Register every outcome curve to the elastic Karcher mean, with slope
    penalty ``REGISTER_PENALTY`` and tolerance ``REGISTER_TOL``.

    ``smooth_window`` (default about a fifth of the grid length) is the
    window of ``_register_rows``' smooth/residual split: warping rough
    observation noise makes it locally smooth, which defeats downstream
    output smoothing.  ``per_arm`` registers each treatment arm to its own
    (phase-centered) mean, which preserves the arm contrast.  Returns the
    registered dataset and the read-only (n, T) matrix of its warps.
    """
    grid = ds.outcome_grid
    if smooth_window is None:
        smooth_window = max(3, len(grid) // 5) | 1
    if per_arm and ds.is_binary():
        groups = [ds.arm_indices(0.0), ds.arm_indices(1.0)]
    else:
        groups = [np.arange(len(ds))]
    y, warps, _ = _register_rows(
        ds.outcome_matrix, grid, groups, max_iter, REGISTER_TOL, REGISTER_PENALTY, smooth_window
    )
    return replace(ds, outcome_matrix=y), warps


def register_covariate_curves(ds: Dataset):
    """Register every covariate curve, unsmoothed, to their elastic Karcher
    mean with the ``REGISTER_*`` settings.  Returns the registered dataset
    and the read-only (n, Tc) matrix of its warps."""
    v, warps, _ = _register_rows(
        ds.covariate_curve_matrix, ds.covariate_grid, [np.arange(len(ds))],
        REGISTER_SWEEPS, REGISTER_TOL, REGISTER_PENALTY, 0,
    )
    return replace(ds, covariate_curve_matrix=v), warps


def _holdout_split(ds: Dataset, seed: int):
    """Sorted (train, test) unit indices of a random ``HOLDOUT`` split, or
    None when the training units do not form a valid dataset."""
    n = len(ds)
    perm = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(round(HOLDOUT * n)))
    train, test = np.sort(perm[n_test:]), np.sort(perm[:n_test])
    try:
        ds.take(train)
    except ValueError:
        return None
    return train, test


def _holdout_errors(
    ds: Dataset,
    inputs,
    split,
    kx: KernelSpec,
    kv: Optional[KernelSpec],
    k_y: Optional[GramMatrix],
    lam_grid: Sequence[float],
) -> list:
    """Squared prediction error on the holdout ``split`` for every lambda.

    Fits on the training units from one eigendecomposition of their Gram
    and scores each held-out unit at its own treatment and covariates;
    both Gram blocks are sliced from the kernel inputs ``inputs``
    (``_inputs(ds, kv)``).
    """
    xin, vin = inputs
    train, test = split
    ky_mat = None if k_y is None else k_y.entries
    k_train = xin.gram(kx, train, train) * vin.gram(kv, train, train)
    solve = _ridge_path(k_train, ds.outcome_matrix[train], k_y)
    rows = xin.gram(kx, test, train) * vin.gram(kv, test, train)
    y_test = ds.outcome_matrix[test]
    return [
        float(np.sum((_outputs(rows, solve(lam), ky_mat) - y_test) ** 2)) for lam in lam_grid
    ]


def holdout_error(
    ds: Dataset,
    kx: KernelSpec,
    kv: Optional[KernelSpec],
    k_y: Optional[GramMatrix] = None,
    lam: float = DEFAULT_LAM,
    seed: int = 0,
) -> float:
    """Squared prediction error on a random 20% holdout; inf when the split
    degenerates."""
    split = _holdout_split(ds, seed)
    if split is None:
        return math.inf
    return _holdout_errors(ds, _inputs(ds, kv), split, kx, kv, k_y, (lam,))[0]


def select_hyperparameters(ds: Dataset, k_y: Optional[GramMatrix] = None, seed: int = 0):
    """Grid search over bandwidth scales and lambdas on a 20% holdout.

    Returns (kx, kv, lam) with the first minimum error in scale-major
    order, or ``kernel_setup``'s kernels with ``DEFAULT_LAM`` when the
    training units of the split do not form a valid dataset (as when the
    split leaves an arm without training units).
    """
    return _search(ds, *_default_kernels(ds), k_y, seed)


def _search(ds, inputs, setup, k_y, seed):
    """``select_hyperparameters`` on the kernel inputs and ``setup`` of
    ``_default_kernels(ds)``: one split, and every scale's Gram blocks
    sliced from the same distances."""
    split = _holdout_split(ds, seed)
    if split is None:
        return (*setup(1.0), DEFAULT_LAM)
    candidates = []
    for scale in _SCALE_GRID:
        kx, kv = setup(scale)
        errs = _holdout_errors(ds, inputs, split, kx, kv, k_y, _LAM_GRID)
        candidates += [(err, kx, kv, lam) for lam, err in zip(_LAM_GRID, errs)]
    return min(candidates, key=lambda c: c[0])[1:]


# relative objective decrease that stops the Karcher means
ITER_KARCHER_TOL = 1e-4


@dataclass
class IterativeConfig:
    """Settings of ``iterative_srvf_estimate``.  Only the sweep budget
    ``karcher_max_iter + r_max - 1`` (``karcher_max_iter`` without covariate
    curves) matters; ``ITER_KARCHER_TOL``, ``REGISTER_PENALTY`` and the
    outcome smoothing window ``max(3, T // 10) | 1`` are fixed."""

    lam: float = DEFAULT_LAM
    r_max: int = 10
    karcher_max_iter: int = 5

    def __post_init__(self):
        if self.r_max < 1 or self.karcher_max_iter < 1:
            raise ValueError("r_max and karcher_max_iter must be at least 1")


@dataclass
class IterativeResult:
    """``converged``: every Karcher mean it ran (outcomes, and covariate
    curves if any) stopped at ``ITER_KARCHER_TOL``.  ``trace`` is always
    empty, as one fit has no rounds; the benchmark's tracer still reads it."""

    effect: DynamicEffect
    registered: Dataset
    trace: list
    converged: bool
    model: KrrModel


def _register_iterative(ds: Dataset, cfg: IterativeConfig):
    """The registration half of ``iterative_srvf_estimate``: the registered
    dataset, and whether every Karcher mean converged."""
    everyone = [np.arange(len(ds))]
    has_vcurves = ds.covariate_grid is not None
    sweeps = cfg.karcher_max_iter + (cfg.r_max - 1 if has_vcurves else 0)
    window = max(3, len(ds.outcome_grid) // 10) | 1
    y, _, converged = _register_rows(
        ds.outcome_matrix, ds.outcome_grid, everyone, sweeps, ITER_KARCHER_TOL,
        REGISTER_PENALTY, window,
    )
    v = ds.covariate_curve_matrix
    if has_vcurves:
        v, _, v_converged = _register_rows(
            v, ds.covariate_grid, everyone, sweeps, ITER_KARCHER_TOL, 0.0, 0
        )
        converged = converged and v_converged
    return replace(ds, outcome_matrix=y, covariate_curve_matrix=v), converged


def iterative_srvf_estimate(ds: Dataset, config: Optional[IterativeConfig] = None) -> IterativeResult:
    """Register covariate and outcome curves once, then fit KRR on them.

    Each curve set is aligned to its elastic Karcher mean from the raw
    curves within ``IterativeConfig``'s sweep budget (the outcomes with the
    smooth/residual split and ``REGISTER_PENALTY``), and the ridge
    regression is fitted once with ``kernel_setup``'s kernels.  The effect
    is ``kernel_dynamic_effect`` of the model; pass ``result.model`` to
    ``dose_response`` for a continuous treatment's dose response.
    """
    cfg = config or IterativeConfig()
    registered, converged = _register_iterative(ds, cfg)
    model = _kernel_model(registered, None, cfg.lam, False, 0)
    return IterativeResult(
        kernel_dynamic_effect(model), registered, trace=[], converged=converged, model=model
    )


def _kernel_model(ds, k_y, lam, search, seed) -> KrrModel:
    """KRR with the default kernels and ``DEFAULT_LAM``, or the ``search``'s
    choice of both; a given ``lam`` replaces either."""
    inputs, setup = _default_kernels(ds)
    if search:
        kx, kv, chosen = _search(ds, inputs, setup, k_y, seed)
    else:
        (kx, kv), chosen = setup(1.0), DEFAULT_LAM
    return _fit(ds, inputs, kx, kv, k_y, chosen if lam is None else lam)


def run_estimator(
    ds: Dataset, name: str, lam: Optional[float] = None, search: bool = False, seed: int = 0
) -> DynamicEffect:
    """Run one named estimator and return its dynamic effect.

    ``lam`` (ridge penalty), ``search`` and its split's ``seed`` tune the
    kernel estimators; the others reject ``lam`` and ignore the rest.
    """
    if name not in ESTIMATOR_NAMES:
        raise ValueError(f"unknown estimator: {name}")
    if name in _KERNEL:
        register, operator = _KERNEL[name]
        work_ds = ds if register is None else register(ds)
        k_y = output_gram(work_ds.outcome_grid) if operator else None
        return kernel_dynamic_effect(_kernel_model(work_ds, k_y, lam, search, seed))
    if lam is not None:
        raise ValueError(f"{name} takes no ridge penalty")
    if name in _FRECHET:
        f1, f0 = frechet.group_potential_outcomes(ds, _FRECHET[name])
        return effect_from_means(f1.mean, f0.mean, Metric.EUCLIDEAN)
    pm = classical.fit_propensity(ds)
    if name == "ipw":
        return classical.ipw_effect(ds, pm)
    return classical.dr_effect(ds, pm, classical.fit_outcome_models(ds))
