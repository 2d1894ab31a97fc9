"""Synthetic scenario generator for benchmark studies.

Three scenarios: binary treatment with a nonmonotonic (multi-bump) effect,
binary treatment with a monotonic cumulative effect, and a continuous
treatment with functional covariate curves whose phase varies independently
of the confounder.  Generation is fully deterministic given (seed,
replicate).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fdata import Curve, Dataset, Grid, grid_norm

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "GroundTruth",
    "generate",
    "effect_error",
]

# centres of the treatment-effect bumps on [0, 1]
BUMP_CENTERS = (0.25, 0.5, 0.75)
# amplitude of the sinusoidal outcome baseline
BASELINE_AMPLITUDE = 0.5


class Scenario(enum.Enum):
    BINARY_NONMONOTONIC = "binary_nonmonotonic"
    BINARY_MONOTONIC = "binary_monotonic"
    CONTINUOUS_FUNCTIONAL = "continuous_functional"


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one synthetic scenario.

    ``amplitude`` scales the treatment-effect bumps centred at
    ``BUMP_CENTERS`` and ``width`` sets their width, ``noise`` is the iid
    observation noise level, ``shift`` bounds the per-sample uniform peak
    misalignment, and ``confounding`` scales how strongly the covariates
    drive both the treatment and the outcome.
    """

    n: int = 100
    t: int = 50
    scenario: Scenario = Scenario.BINARY_NONMONOTONIC
    amplitude: float = 1.0
    width: float = 0.05
    noise: float = 0.1
    shift: float = 0.05
    confounding: float = 1.0
    seed: int = 0
    n_covariates: int = 3
    baseline_offset: float = 0.0

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("need at least 4 samples")
        if self.t < 8:
            raise ValueError("need at least 8 grid points")
        if self.width <= 0:
            raise ValueError("bump width must be positive")
        if self.noise < 0:
            raise ValueError("noise level must be nonnegative")
        if not 0.0 <= self.shift <= 0.2:
            raise ValueError("shift must be in [0, 0.2]")
        if self.n_covariates < 0:
            raise ValueError("n_covariates must be nonnegative")


@dataclass
class GroundTruth:
    """True effect curves for a generated scenario.

    ``beta_x`` is the unshifted population effect curve (per-unit dose slope
    for the continuous scenario); ``true_phi_date`` is its quadrature norm.
    """

    beta_x: Curve
    true_phi_date: float
    scenario: Scenario


def _bumps(tvals: np.ndarray, cfg: ScenarioConfig, shift: float = 0.0) -> np.ndarray:
    out = np.zeros_like(tvals)
    for c in BUMP_CENTERS:
        out += np.exp(-((tvals - c - shift) ** 2) / (2.0 * cfg.width**2))
    return cfg.amplitude * out


def _true_beta(grid: Grid, cfg: ScenarioConfig) -> np.ndarray:
    beta = _bumps(grid.points, cfg)
    if cfg.scenario is Scenario.BINARY_MONOTONIC:
        beta = np.cumsum(beta) * grid.spacing
    return beta


def _vbar(v: np.ndarray) -> np.ndarray:
    if v.shape[1] == 0:
        return np.zeros(v.shape[0])
    return v.mean(axis=1)


def generate(cfg: ScenarioConfig, replicate: int = 0) -> Tuple[Dataset, GroundTruth]:
    """Draw one dataset plus its ground truth.

    Reruns with the same ``(cfg.seed, replicate)`` reproduce the dataset
    bit for bit.
    """
    rng = np.random.default_rng([cfg.seed, replicate])
    grid = Grid.uniform(cfg.t)
    tvals = grid.points
    n, d = cfg.n, cfg.n_covariates

    v = rng.standard_normal((n, d))
    u = _vbar(v)
    shifts = rng.uniform(-cfg.shift, cfg.shift, size=n)

    if cfg.scenario is Scenario.CONTINUOUS_FUNCTIONAL:
        x = np.abs(rng.normal(1.0 + 0.3 * cfg.confounding * u, 0.5))
        # covariate curves: amplitude carries the confounder, phase is noise
        heights = 1.0 + 0.3 * u
        phases = rng.uniform(-0.15, 0.15, size=n)[:, None]
        vcurves = heights[:, None] * np.exp(
            -((tvals - 0.5 - phases) ** 2) / (2.0 * (2.0 * cfg.width) ** 2)
        )
    else:
        p = 1.0 / (1.0 + np.exp(-cfg.confounding * u))
        x = (rng.uniform(size=n) < p).astype(float)
        # both arms must be populated; flip one unit if a draw degenerates
        if np.all(x == x[0]):
            x[0] = 1.0 - x[0]
        vcurves = None

    eps = rng.standard_normal((n, cfg.t))
    # one row per unit, each on its own shifted time axis
    ts = tvals - shifts[:, None]
    effect = x[:, None] * _bumps(ts, cfg)
    arc_shape = np.exp(-((ts - 0.5) ** 2) / (2.0 * (3.0 * cfg.width) ** 2))
    if cfg.scenario is Scenario.BINARY_MONOTONIC:
        # the per-sample phase shift moves only the peaked features; the
        # confounder moves the level of the accumulated curve, not its
        # shape, and observation noise sits on top of the smooth
        # accumulated process
        baseline = cfg.baseline_offset + BASELINE_AMPLITUDE * np.sin(2.0 * np.pi * tvals)
        z = baseline + 0.5 * arc_shape + effect
        y = (
            np.cumsum(z, axis=1) * grid.spacing
            + 0.2 * cfg.confounding * u[:, None]
            + cfg.noise * eps
        )
    else:
        # the whole signal shares the per-sample phase shift, so a
        # reparameterization of [0, 1] can undo it
        baseline = cfg.baseline_offset + BASELINE_AMPLITUDE * np.sin(2.0 * np.pi * ts)
        z = baseline + (0.5 + cfg.confounding * u[:, None]) * arc_shape + effect
        y = z + cfg.noise * eps

    ds = Dataset(
        ids=[f"s{i:04d}" for i in range(n)],
        treatments=x,
        covariate_matrix=v,
        outcome_grid=grid,
        outcome_matrix=y,
        covariate_grid=None if vcurves is None else grid,
        covariate_curve_matrix=vcurves,
    )

    beta = _true_beta(grid, cfg)
    truth = GroundTruth(
        beta_x=Curve(grid, beta),
        true_phi_date=grid_norm(beta, grid),
        scenario=cfg.scenario,
    )
    return ds, truth


def effect_error(estimate, truth: GroundTruth) -> Tuple[float, Curve]:
    """Mean absolute error of an effect curve against the ground truth,
    plus the pointwise absolute-error curve.

    Accepts either a raw Curve or an effect object exposing ``.delta``.
    """
    if hasattr(estimate, "delta"):
        estimate = estimate.delta
    if estimate.grid != truth.beta_x.grid:
        raise ValueError("estimate and truth must share a grid")
    per_t = np.abs(estimate.values - truth.beta_x.values)
    return float(per_t.mean()), Curve(estimate.grid, per_t)
