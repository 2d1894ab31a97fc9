"""Classical per-grid-point causal estimators for functional outcomes.

A regularized logistic propensity model plus inverse-probability-weighted
and doubly robust effect estimators, applied coordinate-wise over the
outcome grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fdata import Dataset
from .frechet import DynamicEffect, _euclidean_effect

__all__ = [
    "PropensityModel",
    "OutcomeModel",
    "fit_propensity",
    "ipw_effect",
    "fit_outcome_models",
    "dr_effect",
]

# L2 penalty of the propensity regression's slopes
PROPENSITY_L2 = 1e-4
# every propensity score is clipped to [PROPENSITY_CLIP, 1 - PROPENSITY_CLIP]
PROPENSITY_CLIP = 0.01


def _design(covariates) -> np.ndarray:
    """Design matrix (1, V) of an intercept column and the covariate rows."""
    v = np.atleast_2d(np.asarray(covariates, dtype=float))
    return np.hstack([np.ones((v.shape[0], 1)), v])


@dataclass(frozen=True)
class PropensityModel:
    """Logistic propensity score; predictions clipped to
    [PROPENSITY_CLIP, 1 - PROPENSITY_CLIP]."""

    coefficients: np.ndarray  # intercept first, length d + 1

    def predict(self, covariates: np.ndarray) -> np.ndarray:
        p = 1.0 / (1.0 + np.exp(-_design(covariates) @ self.coefficients))
        return np.clip(p, PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)

    def inverse_weights(self, ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Per-unit weights (x / pi, (1 - x) / (1 - pi)) of the treated and
        control arms: 1/pi(V) and 1/(1 - pi(V)) on each arm's units, 0 off it."""
        x = ds.treatments
        pi = self.predict(ds.covariate_matrix)
        return x / pi, (1.0 - x) / (1.0 - pi)


@dataclass(frozen=True)
class OutcomeModel:
    """Per-grid-point linear ridge outcome regressions, one per arm."""

    coef_treated: np.ndarray  # (d + 1) x T, intercept row first
    coef_control: np.ndarray

    def predict(self, covariates: np.ndarray, arm: int) -> np.ndarray:
        coef = self.coef_treated if arm == 1 else self.coef_control
        return _design(covariates) @ coef


def fit_propensity(ds: Dataset) -> PropensityModel:
    """L2-regularized logistic regression fitted by Newton/IRLS.

    The slopes carry the penalty ``PROPENSITY_L2``; the intercept is
    unpenalized.  Converged when the max coefficient change
    drops below 1e-8, capped at 100 iterations; separable data degrades
    gracefully through the regularizer.
    """
    if not ds.is_binary():
        raise ValueError("propensity model needs binary treatments")
    x = ds.treatments
    z = _design(ds.covariate_matrix)
    d1 = z.shape[1]
    pen = PROPENSITY_L2 * np.eye(d1)
    pen[0, 0] = 0.0
    beta = np.zeros(d1)
    for _ in range(100):
        eta = z @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        wdiag = np.maximum(p * (1.0 - p), 1e-10)
        grad = z.T @ (x - p) - pen @ beta
        hess = (z * wdiag[:, None]).T @ z + pen
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < 1e-8:
            break
    return PropensityModel(coefficients=beta)


def ipw_effect(ds: Dataset, pm: PropensityModel) -> DynamicEffect:
    """Inverse probability weighting applied coordinate-wise over the grid."""
    if not ds.is_binary():
        raise ValueError("IPW needs binary treatments")
    w1, w0 = pm.inverse_weights(ds)
    w = w1 - w0
    return _euclidean_effect((w[:, None] * ds.outcome_matrix).mean(axis=0), ds.outcome_grid)


def _ridge_fit(z: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    if ridge == 0.0:
        coef, *_ = np.linalg.lstsq(z, y, rcond=None)
        return coef
    pen = ridge * np.eye(z.shape[1])
    pen[0, 0] = 0.0  # intercept unpenalized, keeps location equivariance
    return np.linalg.solve(z.T @ z + pen, z.T @ y)


def fit_outcome_models(ds: Dataset, ridge: float = 1e-6) -> OutcomeModel:
    """Per-arm, per-grid-point linear ridge regressions of Y(t) on (1, V)."""
    if not ds.is_binary():
        raise ValueError("outcome models need binary treatments")
    x = ds.treatments
    y = ds.outcome_matrix
    z = _design(ds.covariate_matrix)
    i1, i0 = x == 1.0, x == 0.0
    return OutcomeModel(
        coef_treated=_ridge_fit(z[i1], y[i1], ridge),
        coef_control=_ridge_fit(z[i0], y[i0], ridge),
    )


def dr_effect(ds: Dataset, pm: PropensityModel, om: OutcomeModel) -> DynamicEffect:
    """Doubly robust estimator: IPW residuals augmented with outcome models."""
    if not ds.is_binary():
        raise ValueError("doubly robust estimation needs binary treatments")
    y = ds.outcome_matrix
    v = ds.covariate_matrix
    w1, w0 = pm.inverse_weights(ds)
    m1 = om.predict(v, arm=1)
    m0 = om.predict(v, arm=0)
    contrib = w1[:, None] * (y - m1) + m1 - w0[:, None] * (y - m0) - m0
    return _euclidean_effect(contrib.mean(axis=0), ds.outcome_grid)
