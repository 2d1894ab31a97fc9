"""Empirical Fréchet means and metric-space treatment effects.

Weighted Fréchet means under the Euclidean metric (closed form), the
elastic Fisher-Rao metric (weighted Karcher mean in SRSF space) and the
spherical Fisher-Rao metric (Karcher mean on the sphere of square-root
densities).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import elastic
from .errors import DomainError
from .fdata import Curve, Dataset, Grid, grid_norm

__all__ = [
    "Metric",
    "FrechetMeanResult",
    "DynamicEffect",
    "frechet_mean",
    "group_potential_outcomes",
    "effect_from_means",
]


class Metric(enum.Enum):
    EUCLIDEAN = "euclidean"
    FISHER_RAO_SRSF = "fisher_rao_srsf"
    FISHER_RAO_SPHERE = "fisher_rao_sphere"


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


# iteration budget and step-norm tolerance of the sphere mean
_SPHERE_MAX_ITER = 50
_SPHERE_TOL = 1e-10


def _sphere_mean(ymat: np.ndarray, grid: Grid, w: np.ndarray) -> FrechetMeanResult:
    """Karcher mean on the unit sphere of square-root densities (rows of ``ymat``).

    Each curve p enters as u = sqrt(p / sum(p)): inputs whose mass is
    below one (or above) are normalised, and a negative entry or a zero
    mass raises ``DomainError``.  From the normalised weighted mean of the
    u, the iteration steps along the exponential map of the weighted mean
    of the log maps, log_mu u = theta / sin(theta) (u - cos(theta) mu),
    until the step's norm is at most ``_SPHERE_TOL``, for at most
    ``_SPHERE_MAX_ITER`` steps.  Returns mu**2 and the objective
    sum_i w_i (2 theta_i)**2, in the units of ``fr_distance_sphere``.
    """
    mass = ymat.sum(axis=1)
    if np.any(ymat < 0) or np.any(mass <= 0):
        raise DomainError("spherical metric needs nonnegative curves of positive mass")
    u = np.sqrt(ymat / mass[:, None])
    mu = w @ u
    mu /= np.linalg.norm(mu)
    converged = False
    for _ in range(_SPHERE_MAX_ITER):
        cos = np.clip(u @ mu, -1.0, 1.0)
        # theta / sin(theta), equal to 1 at theta = 0
        step = (w / np.sinc(np.arccos(cos) / np.pi)) @ (u - cos[:, None] * mu)
        norm = np.linalg.norm(step)
        if norm <= _SPHERE_TOL:
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
) -> FrechetMeanResult:
    """Weighted empirical Fréchet mean of curves under a chosen metric.

    The curves must share a grid, and are stacked once for every metric.
    The two Fisher-Rao metrics run their iterative solvers
    (``elastic.karcher_mean`` and ``_sphere_mean``) at their module
    constants.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve")
    grid = curves[0].grid
    if any(c.grid != grid for c in curves):
        raise ValueError("curves must share a grid")
    w = elastic._normalized_weights(len(curves), weights)
    return _frechet_mean(np.array([c.values for c in curves]), w, grid, metric)


def _frechet_mean(ymat: np.ndarray, w: np.ndarray, grid: Grid, metric: Metric):
    """The ``frechet_mean`` under ``metric`` of the rows of ``ymat`` on
    ``grid`` with weights ``w``, already normalised.  A Fisher-Rao SRSF
    mean is ``elastic.karcher_mean`` at its defaults, which normalises
    ``w`` once more; that can move the last bit of a weight, so the mean is
    the one that ``karcher_mean(ymat, weights=w)`` gives."""
    if metric is Metric.EUCLIDEAN:
        mean = w @ ymat
        obj = elastic._weighted_spread(mean, ymat, w, grid)
        return FrechetMeanResult(Curve(grid, mean), metric, obj, True)
    if metric is Metric.FISHER_RAO_SRSF:
        m = elastic.karcher_mean(ymat, grid, weights=w)
        return FrechetMeanResult(m.mean, metric, m.objective_trace[-1], m.converged)
    if metric is Metric.FISHER_RAO_SPHERE:
        return _sphere_mean(ymat, grid, w)
    raise ValueError(f"unknown metric: {metric}")


def group_potential_outcomes(ds: Dataset, metric: Metric = Metric.EUCLIDEAN, propensity=None):
    """Per-arm Fréchet means (F1, F0) for a binary dataset.

    The weights are uniform without a ``propensity`` model.  With a fitted
    ``classical.PropensityModel``, each arm takes its units' rows of
    ``propensity.inverse_weights(ds)``: 1/pi(V) for the treated and
    1/(1 - pi(V)) for the controls.  Each arm's mean is taken straight
    from its rows of the outcome matrix, by the code that ``frechet_mean``
    runs after stacking its curves.
    """
    if not ds.is_binary():
        raise ValueError("group potential outcomes need binary treatments")
    idx1, idx0 = ds.arm_indices(1.0), ds.arm_indices(0.0)
    w1 = w0 = None
    if propensity is not None:
        w1, w0 = propensity.inverse_weights(ds)
        w1, w0 = w1[idx1], w0[idx0]

    y, grid = ds.outcome_matrix, ds.outcome_grid
    return tuple(
        _frechet_mean(y[idx], elastic._normalized_weights(len(idx), w), grid, metric)
        for idx, w in ((idx1, w1), (idx0, w0))
    )


def _euclidean_effect(delta: np.ndarray, grid: Grid) -> DynamicEffect:
    """Euclidean effect of the pointwise difference ``delta`` on ``grid``."""
    return DynamicEffect(Curve(grid, delta), grid_norm(delta, grid), Metric.EUCLIDEAN)


def effect_from_means(mean1: Curve, mean0: Curve, metric: Metric) -> DynamicEffect:
    """Assemble a DynamicEffect from two mean curves."""
    if mean1.grid != mean0.grid:
        raise ValueError("means must share a grid")
    delta = mean1.values - mean0.values
    if metric is Metric.EUCLIDEAN:
        return _euclidean_effect(delta, mean1.grid)
    if metric is Metric.FISHER_RAO_SRSF:
        norm = elastic.fr_distance_srsf(mean1, mean0)
    elif metric is Metric.FISHER_RAO_SPHERE:
        norm = elastic.fr_distance_sphere(mean1, mean0)
    else:
        raise ValueError(f"unknown metric: {metric}")
    return DynamicEffect(Curve(mean1.grid, delta), norm, metric)
