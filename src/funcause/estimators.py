"""Kernel ridge regression machinery for curve-valued causal estimators.

Fits the Kronecker-structured system (K_XV (x) K_Y + lambda I) alpha =
vec(Y) through the paired eigendecompositions of the two factors, so the
nT x nT matrix is never materialized.  Under the indicator treatment
kernel the input Gram is zero across treatment levels, so every fit and
holdout score solves one such system per level (``_levels``) on that
level's block, and a binary treatment's fit decomposes two arm-sized
blocks instead of one n x n Gram.  Each block is decomposed once
(``_ridge_path``): the fit solves at its lambda there, and a holdout
scores the search's whole lambda grid in that eigenbasis in one batched
product, without forming any lambda's coefficients.  Builds
potential-outcome curves, dynamic effects, dose-response curves, outcome
pre-registration, the registered-curve estimator (covariate and outcome
curves registered once to their Karcher means, then one fit) and the
holdout hyperparameter search.  ``run_estimators`` runs named
estimators on one dataset: classical, Fréchet (``_FRECHET``) or kernel
(``_KERNEL``, fitted by ``_kernel_models``), and ``run_estimator`` is its
one-name case; ``estimate`` also attaches its interval.  Kernel names that
share a registration run as one group (``estimator_groups``), and the
ridge layer takes the group's list of output Grams: each search block is
decomposed once for all of them, and each fit block once per chosen
(kx, kv).  Each argument is checked where it enters, before any
registration or fit (λ by ``_check_lam``).  It reads a dataset's arrays
and derives new datasets with ``dataclasses.replace`` (registered curves)
and ``Dataset.take`` (the holdout's training units).  Each fit or search,
and each estimator group that searches and then fits, builds the
dataset's kernel inputs once (``kernels._Input``: the covariate rows and
each input's pairwise distances) and slices every Gram block and median
heuristic from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import classical, elastic, frechet
from .errors import NumericalError
from .fdata import Curve, Dataset, Grid, grid_norm
from .frechet import DynamicEffect, Metric, effect_from_means
from .inference import EffectCI, check_ci, effect_ci
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
    "Estimate",
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
    "iterative_srvf_estimate",
    "run_estimator",
    "run_estimators",
    "estimator_groups",
    "estimate",
]

# Fréchet estimators by the metric of their means; kernel estimators by
# (registration run before the fit or None, operator-valued output kernel?),
# each registration looking its function up here when it runs
_FRECHET = {"frechet-euclid": Metric.EUCLIDEAN, "frechet-fr": Metric.FISHER_RAO_SRSF}
_KERNEL = {
    "kernel": (None, False),
    "operator-kernel": (None, True),
    "srvf-operator-kernel": (lambda ds: register_outcomes(ds, per_arm=True)[0], True),
    "iterative-srvf": (lambda ds: _register_iterative(ds, IterativeConfig())[0], False),
}
ESTIMATOR_NAMES = ("ipw", "dr", *_FRECHET, *_KERNEL)

_LAM_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1)
# ridge penalty when none is given and none is searched for
DEFAULT_LAM = 1e-2
_SCALE_GRID = (0.5, 1.0, 2.0)
# share of the units the hyperparameter search holds out
HOLDOUT = 0.2


def _check_lam(lam: float) -> None:
    """The ridge penalty's one rule, checked where a penalty enters."""
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")


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
        if not np.all(np.isfinite(self.alpha)):
            raise NumericalError("non-finite KRR coefficients")


@dataclass
class DoseResponseCurve:
    levels: list
    effects: list
    curves: list


def _inputs(ds: Dataset, kv: Optional[KernelSpec]):
    """The (treatment, covariate) kernel inputs of ``ds`` under the
    covariate kernel ``kv``; their distances are computed on first use."""
    return _Input(ds.treatments), _Input(_covariate_points(ds, kv))


def _default_kernels(ds: Dataset):
    """The kernel inputs of the default covariate kernel (SRSF features of
    the covariate curves if there are any), and the default treatment and
    covariate kernel specs as a function of the bandwidth scale, from one
    median heuristic per input; scale 1 gives the default kernels."""
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


def _levels(kx: KernelSpec, x: np.ndarray) -> list:
    """The groups of units that the input Gram couples.

    The indicator kernel is zero between units at different treatment
    levels, so its Gram is block-diagonal and the ridge system splits into
    one independent system per level (as index arrays, in level order).
    Any other treatment kernel couples every unit: one group,
    ``slice(None)``, which slices every block as a view.
    """
    if kx.family is KernelFamily.BINARY_INDICATOR:
        return [np.flatnonzero(x == level) for level in np.unique(x)]
    return [slice(None)]


class _RidgePath(NamedTuple):
    """One block's ridge system in the joint eigenbasis of K_in = U1 D1 U1'
    and K_Y = U2 D2 U2': ``ytil`` is U1' Y U2 and ``denom`` is D1 (x) D2
    (U1' Y and D1, with no ``d2`` and ``u2``, for identity K_Y)."""

    u1: np.ndarray
    ytil: np.ndarray
    denom: np.ndarray
    d2: Optional[np.ndarray] = None
    u2: Optional[np.ndarray] = None

    def __call__(self, lam: float) -> np.ndarray:
        """The coefficients alpha at penalty ``lam``."""
        alpha = self.u1 @ (self.ytil / (self.denom + lam))
        if self.u2 is not None:
            alpha = alpha @ self.u2.T
        return alpha

    def holdout_errors(self, rows: np.ndarray, y_te: np.ndarray, lams) -> np.ndarray:
        """Squared error against ``y_te`` of the predictions
        ``_outputs(rows, self(lam), K_Y)`` for every lambda of ``lams``,
        without forming any alpha.

        With R = rows U1, one batched product gives every lambda's
        predictions P = R (ytil / (denom + lam)) in the output eigenbasis,
        and as U2 is orthogonal the error is ||P D2 - Y_te U2||^2
        (||P - Y_te||^2 for identity K_Y).  A block with no training units
        predicts zero.
        """
        lams = np.asarray(lams, dtype=float)[:, None, None]
        pred = (rows @ self.u1) @ (self.ytil / (self.denom + lams))
        if self.u2 is None:
            resid = pred - y_te
        else:
            resid = pred * self.d2 - y_te @ self.u2
        return np.einsum("lij,lij->l", resid, resid)


def _ridge_path(k_in: np.ndarray, y: np.ndarray, k_ys: Sequence[Optional[GramMatrix]]):
    """The systems (K_in (x) K_Y + lam I) vec(alpha) = vec(Y) of one block
    of the input Gram (one group of ``_levels``), one per output Gram K_Y of
    ``k_ys``, each in its joint eigenbasis.

    Eigendecomposes K_in once, when called, and returns an iterator of one
    ``_RidgePath`` per output Gram, each built when it is reached, so a
    caller uses one before the next is built and K_in is not kept: the fit
    calls it with its lambda for alpha, and a holdout scores the whole
    lambda grid on it (``_RidgePath.holdout_errors``).
    K_Y's decomposition is the one its ``GramMatrix`` keeps, so a search and
    the final fit decompose the output Gram once.  With identity K_Y (None)
    this reduces to a single solve applied to every output column.  ``eigh``
    reads one triangle of ``k_in``; every input-Gram product is exactly
    symmetric, as its distances are.  An empty block gives an empty alpha.
    """
    d1, u1 = np.linalg.eigh(k_in)

    def path(k_y):
        if k_y is None:
            return _RidgePath(u1, u1.T @ y, d1[:, None])
        d2, u2 = k_y.eigh
        return _RidgePath(u1, u1.T @ y @ u2, d1[:, None] * d2[None, :], d2, u2)

    return map(path, k_ys)


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
    """Solve (K_XV (x) K_Y + lambda I) vec(alpha) = vec(Y), one treatment
    level at a time under the indicator kernel (see ``_levels``)."""
    _check_lam(lam)
    return _fit(ds, _inputs(ds, kv), kx, kv, [k_y], [lam])[0]


def _fit(ds, inputs, kx, kv, k_ys, lams) -> list:
    """``krr_fit`` on the kernel inputs ``_inputs(ds, kv)``, one model per
    output Gram of ``k_ys`` at its penalty in ``lams``: each group of
    ``_levels`` is decomposed once, and every model's solve there writes
    that group's rows of its ``alpha``."""
    xin, vin = inputs
    kv_gram = vin.gram(kv)
    mean_row = kv_gram.mean(axis=0)
    # every eigh runs without the n x n covariate Gram or the last
    # group's eigenbasis held, so the alphas of all output Grams fit
    # beside it in the memory one fit took
    blocks = [(g, kv_gram[g][:, g]) for g in _levels(kx, ds.treatments)]
    del kv_gram
    y = ds.outcome_matrix
    alphas = [np.empty_like(y) for _ in k_ys]
    for g, kv_block in blocks:
        paths = _ridge_path(xin.gram(kx, g, g) * kv_block, y[g], k_ys)
        for alpha, path, lam in zip(alphas, paths, lams):
            alpha[g] = path(lam)
        del paths, path
    return [
        KrrModel(
            alpha=alpha,
            lam=lam,
            kx=kx,
            kv=kv,
            treatments=ds.treatments,
            covariate_points=vin.rows,
            k_y=None if k_y is None else k_y.entries,
            grid=ds.outcome_grid,
            covariate_mean_row=mean_row,
        )
        for alpha, k_y, lam in zip(alphas, k_ys, lams)
    ]


def predict_curve(model: KrrModel, x: float, v_index: int) -> np.ndarray:
    """Predicted outcome curve at treatment x with training unit v_index's
    covariates."""
    row = cross_gram(model.kx, [x], model.treatments) * cross_gram(
        model.kv, model.covariate_points[v_index : v_index + 1], model.covariate_points
    )
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


# slope penalty of every outcome registration, and of `funcause register`
REGISTER_PENALTY = 0.05


def _moving_average(v: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average of a 1-D array, with edge padding."""
    pad = window // 2
    padded = np.pad(v, pad, mode="edge")
    return np.convolve(padded, np.ones(window) / window, mode="same")[pad : pad + v.size]


def _register(rows, grid, penalty, window, max_iter=elastic.KARCHER_SWEEPS):
    """Warp ``rows`` on ``grid`` to their elastic Karcher mean of at most
    ``max_iter`` sweeps with slope penalty ``penalty``.

    With ``window`` > 1 each row is split into a moving-average smooth part
    and a rough residual: the warps are estimated from and applied to the
    smooth part only, and the residual is added back unwarped.  Returns the
    registered rows and the mean's ``KarcherMeanResult``, whose ``warps``
    is the read-only matrix of their warps.
    """
    if window > 1:
        smooth = np.array([_moving_average(row, window) for row in rows])
        resid = rows - smooth
    else:
        smooth, resid = rows, np.zeros_like(rows)
    mean = elastic.karcher_mean(smooth, grid, max_iter, penalty=penalty)
    return elastic._interp_rows(mean.warps, grid.points, smooth) + resid, mean


def register_outcomes(ds: Dataset, smooth_window: Optional[int] = None, per_arm: bool = False):
    """Register every outcome curve to the elastic Karcher mean, with slope
    penalty ``REGISTER_PENALTY`` and ``elastic``'s stop rule.

    ``smooth_window`` (default about a fifth of the grid length) is the
    window of ``_register``'s smooth/residual split: warping rough
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
    y = ds.outcome_matrix
    registered, warps = np.empty_like(y), np.empty_like(y)
    for idx in groups:
        registered[idx], mean = _register(y[idx], grid, REGISTER_PENALTY, smooth_window)
        warps[idx] = mean.warps
    return replace(ds, outcome_matrix=registered), elastic._read_only(warps)


def register_covariate_curves(ds: Dataset):
    """Register every covariate curve, unsmoothed, to their elastic Karcher
    mean, as ``register_outcomes`` does.  Returns the registered dataset
    and the read-only (n, Tc) matrix of its warps."""
    v, mean = _register(ds.covariate_curve_matrix, ds.covariate_grid, REGISTER_PENALTY, 0)
    return replace(ds, covariate_curve_matrix=v), mean.warps


def _holdout_split(ds: Dataset):
    """Sorted (train, test) unit indices of the fixed ``HOLDOUT`` split, from
    the seed-0 permutation (the units are i.i.d., so it is as good as a
    fresh one), or None when the training units do not form a valid dataset."""
    perm = np.random.default_rng(0).permutation(len(ds))
    n_test = max(1, int(round(HOLDOUT * len(ds))))
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
    k_ys: Sequence[Optional[GramMatrix]],
    lam_grid: Sequence[float],
) -> list:
    """Squared prediction error on the holdout ``split`` for every lambda,
    as one row of errors per output Gram of ``k_ys``.

    Decomposes each group of ``_levels``' training block once, and scores
    the whole lambda grid of each output Gram in turn in that eigenbasis
    (``_RidgePath.holdout_errors``): each held-out unit is predicted at its
    own treatment and covariates from its group's training units, and a
    unit whose group has no training unit is predicted as zero.  Every Gram
    block is sliced from the kernel inputs ``inputs`` (``_inputs(ds, kv)``).
    A non-finite error raises ``NumericalError``.
    """
    xin, vin = inputs
    train, test = split
    y = ds.outcome_matrix
    errs = np.zeros((len(k_ys), len(lam_grid)))
    for g in _levels(kx, ds.treatments):
        member = np.zeros(len(ds), dtype=bool)
        member[g] = True
        tr, te = train[member[train]], test[member[test]]
        paths = _ridge_path(xin.gram(kx, tr, tr) * vin.gram(kv, tr, tr), y[tr], k_ys)
        rows = xin.gram(kx, te, tr) * vin.gram(kv, te, tr)
        for row, path in zip(errs, paths):
            row += path.holdout_errors(rows, y[te], lam_grid)
    if not np.all(np.isfinite(errs)):
        raise NumericalError("holdout scoring produced non-finite errors")
    return errs.tolist()


def holdout_error(
    ds: Dataset,
    kx: KernelSpec,
    kv: Optional[KernelSpec],
    k_y: Optional[GramMatrix] = None,
    lam: float = DEFAULT_LAM,
) -> float:
    """Squared prediction error on the fixed 20% holdout of
    ``_holdout_split``; inf when the split degenerates."""
    _check_lam(lam)
    split = _holdout_split(ds)
    if split is None:
        return math.inf
    return _holdout_errors(ds, _inputs(ds, kv), split, kx, kv, [k_y], (lam,))[0][0]


def _search(ds, inputs, setup, k_ys):
    """Grid search over bandwidth scales and lambdas on the fixed 20%
    holdout of ``_holdout_split``, so the choice depends only on ``ds``;
    ``inputs`` and ``setup`` are ``_default_kernels(ds)``, so every scale's
    Gram blocks are sliced from the same distances.  Each scale decomposes
    every training block once and scores all of ``_LAM_GRID`` in its
    eigenbasis for every output Gram of ``k_ys`` (``_holdout_errors``).

    Returns one (kx, kv, lam) per output Gram: the first minimum of its
    errors in scale-major order, or the default kernels (``setup(1.0)``) with
    ``DEFAULT_LAM`` when the training units of the split do not form a
    valid dataset (as when the split leaves an arm without training units).
    """
    split = _holdout_split(ds)
    if split is None:
        return [(*setup(1.0), DEFAULT_LAM)] * len(k_ys)
    candidates = [[] for _ in k_ys]
    for scale in _SCALE_GRID:
        kx, kv = setup(scale)
        rows = _holdout_errors(ds, inputs, split, kx, kv, k_ys, _LAM_GRID)
        for cands, errs in zip(candidates, rows):
            cands += [(err, kx, kv, lam) for lam, err in zip(_LAM_GRID, errs)]
    return [min(cands, key=lambda c: c[0])[1:] for cands in candidates]


@dataclass
class IterativeConfig:
    """Settings of ``iterative_srvf_estimate``.  Only the sweep budget
    ``karcher_max_iter + r_max - 1`` (``karcher_max_iter`` without covariate
    curves) matters, and by default it is ``elastic.KARCHER_SWEEPS``;
    ``elastic.KARCHER_TOL``, ``REGISTER_PENALTY`` and the outcome smoothing
    window ``max(3, T // 10) | 1`` are fixed."""

    lam: float = DEFAULT_LAM
    r_max: int = 1
    karcher_max_iter: int = elastic.KARCHER_SWEEPS

    def __post_init__(self):
        _check_lam(self.lam)
        if self.r_max < 1 or self.karcher_max_iter < 1:
            raise ValueError("r_max and karcher_max_iter must be at least 1")


@dataclass
class IterativeResult:
    """``converged``: every Karcher mean it ran (outcomes, and covariate
    curves if any) stopped at ``elastic.KARCHER_TOL``, neither on a rising
    sweep nor at the budget.  ``trace`` is always
    empty, as one fit has no rounds; the benchmark's tracer still reads it."""

    effect: DynamicEffect
    registered: Dataset
    trace: list
    converged: bool
    model: KrrModel


def _register_iterative(ds: Dataset, cfg: IterativeConfig):
    """The registration half of ``iterative_srvf_estimate``: the registered
    dataset, and whether every Karcher mean converged."""
    has_vcurves = ds.covariate_grid is not None
    sweeps = cfg.karcher_max_iter + (cfg.r_max - 1 if has_vcurves else 0)
    window = max(3, len(ds.outcome_grid) // 10) | 1
    y, mean = _register(ds.outcome_matrix, ds.outcome_grid, REGISTER_PENALTY, window, sweeps)
    converged = mean.converged
    v = ds.covariate_curve_matrix
    if has_vcurves:
        v, mean = _register(v, ds.covariate_grid, 0.0, 0, sweeps)
        converged = converged and mean.converged
    return replace(ds, outcome_matrix=y, covariate_curve_matrix=v), converged


def iterative_srvf_estimate(ds: Dataset, config: Optional[IterativeConfig] = None) -> IterativeResult:
    """Register covariate and outcome curves once, then fit KRR on them.

    Each curve set is aligned to its elastic Karcher mean from the raw
    curves within ``IterativeConfig``'s sweep budget (the outcomes with the
    smooth/residual split and ``REGISTER_PENALTY``), and the ridge
    regression is fitted once with the default kernels.  The effect
    is ``kernel_dynamic_effect`` of the model; pass ``result.model`` to
    ``dose_response`` for a continuous treatment's dose response.
    """
    cfg = config or IterativeConfig()
    registered, converged = _register_iterative(ds, cfg)
    (model,) = _kernel_models(registered, [None], cfg.lam, False)
    return IterativeResult(
        kernel_dynamic_effect(model), registered, trace=[], converged=converged, model=model
    )


def _kernel_models(ds, k_ys, lam, search) -> list:
    """One KRR model per output Gram of ``k_ys``, with the default kernels
    and ``DEFAULT_LAM``, or the ``search``'s choice of both; a given ``lam``
    replaces either.  The output Grams that chose the same (kx, kv) share
    one fit, so each of its blocks is decomposed once."""
    inputs, setup = _default_kernels(ds)
    if search:
        choices = _search(ds, inputs, setup, k_ys)
    else:
        choices = [(*setup(1.0), DEFAULT_LAM)] * len(k_ys)
    by_kernels = {}
    for i, (kx, kv, _) in enumerate(choices):
        by_kernels.setdefault((kx, kv), []).append(i)
    models = [None] * len(k_ys)
    for (kx, kv), idx in by_kernels.items():
        lams = [choices[i][2] if lam is None else lam for i in idx]
        for i, model in zip(idx, _fit(ds, inputs, kx, kv, [k_ys[i] for i in idx], lams)):
            models[i] = model
    return models


def estimator_groups(names: Sequence[str]) -> list:
    """The lists of ``names`` that ``run_estimators`` runs together, in
    order of their first name: the kernel names that share a ``_KERNEL``
    registration (``kernel`` and ``operator-kernel``, which register
    nothing) form one group, and every other name runs alone.  An unknown
    or repeated name is rejected."""
    for name in names:
        if name not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator: {name}")
    if len(set(names)) < len(names):
        raise ValueError(f"repeated estimators: {', '.join(names)}")
    groups = {}
    for name in names:
        # a registration entry is None or a function, never a name
        groups.setdefault(_KERNEL[name][0] if name in _KERNEL else name, []).append(name)
    return list(groups.values())


def _run_group(ds, group, lam, search) -> list:
    """The effects of one group of ``estimator_groups``.  A kernel group
    registers once and builds its kernel inputs, holdout split and output
    Gram once; its names differ only in their output Gram (``_KERNEL``)."""
    if group[0] in _KERNEL:
        register = _KERNEL[group[0]][0]
        work_ds = ds if register is None else register(ds)
        operators = [_KERNEL[name][1] for name in group]
        k_y = output_gram(work_ds.outcome_grid) if any(operators) else None
        models = _kernel_models(work_ds, [k_y if op else None for op in operators], lam, search)
        return [kernel_dynamic_effect(model) for model in models]
    (name,) = group
    if name in _FRECHET:
        f1, f0 = frechet.group_potential_outcomes(ds, _FRECHET[name])
        return [effect_from_means(f1.mean, f0.mean, Metric.EUCLIDEAN)]
    pm = classical.fit_propensity(ds)
    if name == "ipw":
        return [classical.ipw_effect(ds, pm)]
    return [classical.dr_effect(ds, pm, classical.fit_outcome_models(ds))]


def run_estimators(
    ds: Dataset, names: Sequence[str], lam: Optional[float] = None, search: bool = False
) -> list:
    """Run named estimators on one dataset and return their dynamic effects
    in the order of ``names``; each effect equals its own ``run_estimator``.

    The names of one group of ``estimator_groups`` run together, so the
    work that does not depend on the output Gram is done once for all of
    them: the default kernels' distances and medians, the holdout split,
    every training block's ``eigh`` in the search, and the final fit's
    block ``eigh`` for the names that chose the same kernels.  ``lam``
    (ridge penalty) and ``search`` (on a holdout fixed by ``ds``) tune the
    kernel estimators; the others reject ``lam`` and ignore ``search``.
    Every name and ``lam`` are checked before any work: an unknown or
    repeated name, or ``lam`` with a name that takes none, is rejected.
    """
    groups = estimator_groups(names)
    if lam is not None:
        for name in names:
            if name not in _KERNEL:
                raise ValueError(f"{name} takes no ridge penalty")
        _check_lam(lam)
    effects = {}
    for group in groups:
        effects.update(zip(group, _run_group(ds, group, lam, search)))
    return [effects[name] for name in names]


def run_estimator(
    ds: Dataset, name: str, lam: Optional[float] = None, search: bool = False
) -> DynamicEffect:
    """Run one named estimator and return its dynamic effect: the one-name
    case of ``run_estimators``, whose checks and tuning it shares."""
    return run_estimators(ds, [name], lam, search)[0]


class Estimate(NamedTuple):
    """One run's effect and its confidence interval (None without a level)."""

    effect: DynamicEffect
    ci: Optional[EffectCI]


def estimate(
    ds: Dataset, name: str, lam: Optional[float] = None, search: bool = False,
    level: Optional[float] = None,
) -> Estimate:
    """``run_estimator``, with ``effect_ci``'s interval at a given ``level``;
    ``check_ci`` runs first, so every argument is checked before any work."""
    if level is not None:
        check_ci(ds, level)
    effect = run_estimator(ds, name, lam=lam, search=search)
    return Estimate(effect, None if level is None else effect_ci(ds, effect.delta, level=level))
