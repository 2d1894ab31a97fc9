"""Empirical Fréchet means and metric-space treatment effects.

Weighted Fréchet means under the Euclidean metric (closed form), the
elastic Fisher-Rao metric (weighted Karcher mean in SRSF space) and the
spherical Fisher-Rao metric (Karcher mean on the sphere of square-root
densities).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import elastic
from .errors import ArmEmptyError, DomainError
from .fdata import Curve, Dataset, Grid, grid_norm

__all__ = [
    "Metric",
    "Weighting",
    "FrechetMeanResult",
    "DynamicEffect",
    "frechet_mean",
    "group_potential_outcomes",
    "dynamic_effect",
    "effect_from_means",
]

# every propensity score is clipped to [PROPENSITY_CLIP, 1 - PROPENSITY_CLIP]
PROPENSITY_CLIP = 0.01


class Metric(enum.Enum):
    EUCLIDEAN = "euclidean"
    FISHER_RAO_SRSF = "fisher_rao_srsf"
    FISHER_RAO_SPHERE = "fisher_rao_sphere"


class Weighting(enum.Enum):
    UNIFORM = "uniform"
    INVERSE_PROPENSITY = "inverse_propensity"


@dataclass
class FrechetMeanResult:
    mean: Curve
    metric: Metric
    objective: float
    converged: bool


@dataclass
class DynamicEffect:
    """Pointwise effect curve and its scalar norm under a metric."""

    delta: Curve
    scalar_norm: float
    metric: Metric


def _sphere_mean(
    ymat: np.ndarray, grid: Grid, w: np.ndarray, max_iter: int = 50, tol: float = 1e-10
) -> FrechetMeanResult:
    """Karcher mean on the unit sphere of square-root densities (rows of ``ymat``).

    Each curve p enters as u = sqrt(p / sum(p)): inputs whose mass is
    below one (or above) are normalised, and a negative entry or a zero
    mass raises ``DomainError``.  From the normalised weighted mean of the
    u, the iteration steps along the exponential map of the weighted mean
    of the log maps, log_mu u = theta / sin(theta) (u - cos(theta) mu),
    until the step's norm is at most ``tol``.  Returns mu**2 and the
    objective sum_i w_i (2 theta_i)**2, in the units of
    ``fr_distance_sphere``.
    """
    mass = ymat.sum(axis=1)
    if np.any(ymat < 0) or np.any(mass <= 0):
        raise DomainError("spherical metric needs nonnegative curves of positive mass")
    u = np.sqrt(ymat / mass[:, None])
    mu = w @ u
    mu /= np.linalg.norm(mu)
    converged = False
    for _ in range(max_iter):
        cos = np.clip(u @ mu, -1.0, 1.0)
        # theta / sin(theta), equal to 1 at theta = 0
        step = (w / np.sinc(np.arccos(cos) / np.pi)) @ (u - cos[:, None] * mu)
        norm = np.linalg.norm(step)
        if norm <= tol:
            converged = True
            break
        mu = np.cos(norm) * mu + np.sinc(norm / np.pi) * step
    theta = np.arccos(np.clip(u @ mu, -1.0, 1.0))
    obj = float(np.sum(w * (2.0 * theta) ** 2))
    return FrechetMeanResult(Curve(grid, mu**2), Metric.FISHER_RAO_SPHERE, obj, converged)


def frechet_mean(
    curves: Sequence[Curve],
    weights=None,
    metric: Metric = Metric.EUCLIDEAN,
    **options,
) -> FrechetMeanResult:
    """Weighted empirical Fréchet mean of curves under a chosen metric.

    The curves must share a grid, and are stacked once for every metric.
    ``options`` go to the iterative solvers of the two Fisher-Rao metrics,
    which both take ``max_iter`` and ``tol`` (see ``elastic.karcher_mean``
    and ``_sphere_mean``).
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve")
    grid = curves[0].grid
    if any(c.grid != grid for c in curves):
        raise ValueError("curves must share a grid")
    w = elastic._normalized_weights(len(curves), weights)
    ymat = np.array([c.values for c in curves])

    if metric is Metric.EUCLIDEAN:
        mean = w @ ymat
        obj = elastic._weighted_spread(mean, ymat, w, grid)
        return FrechetMeanResult(Curve(grid, mean), metric, obj, True)

    if metric is Metric.FISHER_RAO_SRSF:
        result = elastic.karcher_mean(ymat, grid, weights=w, **options)
        return FrechetMeanResult(
            result.mean, metric, result.objective_trace[-1], result.converged
        )

    if metric is Metric.FISHER_RAO_SPHERE:
        return _sphere_mean(ymat, grid, w, **options)

    raise ValueError(f"unknown metric: {metric}")


def group_potential_outcomes(
    ds: Dataset,
    metric: Metric = Metric.EUCLIDEAN,
    weighting: Weighting = Weighting.UNIFORM,
    propensity=None,
):
    """Per-arm weighted Fréchet means (F1, F0) for a binary dataset.

    With inverse-propensity weighting, treated units get weight 1/pi(V) and
    controls 1/(1 - pi(V)), with propensities clipped away from {0, 1}.
    """
    if not ds.is_binary():
        raise ValueError("group potential outcomes need binary treatments")
    x = ds.treatments
    idx1, idx0 = np.flatnonzero(x == 1.0), np.flatnonzero(x == 0.0)
    if idx1.size == 0 or idx0.size == 0:
        raise ArmEmptyError("both treatment arms must be non-empty")

    if weighting is Weighting.UNIFORM:
        w1 = w0 = None
    else:
        if propensity is None:
            raise ValueError("inverse propensity weighting needs a fitted model")
        pi = np.clip(propensity.predict(ds.covariate_matrix), PROPENSITY_CLIP, 1 - PROPENSITY_CLIP)
        w1 = 1.0 / pi[idx1]
        w0 = 1.0 / (1.0 - pi[idx0])

    y, grid = ds.outcome_matrix, ds.outcome_grid
    f1 = frechet_mean([Curve(grid, y[i]) for i in idx1], weights=w1, metric=metric)
    f0 = frechet_mean([Curve(grid, y[i]) for i in idx0], weights=w0, metric=metric)
    return f1, f0


def effect_from_means(mean1: Curve, mean0: Curve, metric: Metric) -> DynamicEffect:
    """Assemble a DynamicEffect from two mean curves."""
    if mean1.grid != mean0.grid:
        raise ValueError("means must share a grid")
    delta = Curve(mean1.grid, mean1.values - mean0.values)
    if metric is Metric.EUCLIDEAN:
        norm = grid_norm(delta.values, delta.grid)
    elif metric is Metric.FISHER_RAO_SRSF:
        norm = elastic.fr_distance_srsf(mean1, mean0)
    elif metric is Metric.FISHER_RAO_SPHERE:
        norm = elastic.fr_distance_sphere(mean1, mean0)
    else:
        raise ValueError(f"unknown metric: {metric}")
    return DynamicEffect(delta=delta, scalar_norm=norm, metric=metric)


def dynamic_effect(
    f1: FrechetMeanResult, f0: FrechetMeanResult, metric: Optional[Metric] = None
) -> DynamicEffect:
    """Pointwise difference of group means plus its scalar norm."""
    return effect_from_means(f1.mean, f0.mean, metric or f1.metric)
