"""Kernel specs, bandwidth heuristics and Gram-matrix construction.

Input Grams combine a treatment kernel and a covariate kernel entrywise;
the output Gram encodes correlation among grid points.  Curve inputs go
through the Fisher-Rao SRSF embedding, which keeps the Gaussian curve
kernel positive definite.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .elastic import _srsf_rows
from .fdata import Curve, Grid

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "GramMatrix",
    "median_heuristic",
    "cross_gram",
    "input_gram",
    "output_gram",
]


class KernelFamily(enum.Enum):
    SQUARED_EXPONENTIAL = "se"
    BINARY_INDICATOR = "binary"
    FISHER_RAO_GAUSSIAN = "fisher_rao"
    CONSTANT = "constant"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its bandwidth (lengthscale or decay rate)."""

    family: KernelFamily
    lengthscale: float = 1.0

    def __post_init__(self):
        if self.lengthscale <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric PSD kernel matrix with provenance; ``entries`` is
    read-only."""

    entries: np.ndarray
    spec: Optional[KernelSpec] = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("gram matrix must be square")
        if np.max(np.abs(m - m.T), initial=0.0) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ValueError("gram matrix must be symmetric")
        entries = (m + m.T) / 2.0
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @functools.cached_property
    def eigh(self):
        """``np.linalg.eigh(entries)``, computed on first use and kept, so
        every ridge solve against this Gram shares one decomposition;
        both arrays are read-only."""
        evals, evecs = np.linalg.eigh(self.entries)
        evals.flags.writeable = evecs.flags.writeable = False
        return evals, evecs


def _srsf_feature_matrix(curves: Sequence[Curve]) -> np.ndarray:
    """SRSF values scaled so Euclidean row distances equal d_FR."""
    grid = curves[0].grid
    qmat = _srsf_rows(np.array([c.values for c in curves]), grid)
    w = np.full(len(grid), grid.spacing)
    w[0] = w[-1] = grid.spacing / 2.0
    return qmat * np.sqrt(w)


def median_heuristic(points, metric: str = "euclidean") -> float:
    """Median pairwise distance, with degenerate-case fallbacks.

    Falls back to the mean positive distance when the median is zero, and
    to 1.0 when every pairwise distance vanishes.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    if metric == "euclidean":
        mat = np.atleast_2d(np.asarray(points, dtype=float))
        if mat.shape[0] == 1:
            mat = mat.T
        dists = pdist(mat)
    elif metric == "fisher_rao":
        dists = pdist(_srsf_feature_matrix(list(points)))
    else:
        raise ValueError(f"unknown metric: {metric}")
    med = float(np.median(dists))
    if med > 0:
        return med
    positive = dists[dists > 0]
    if positive.size:
        return float(np.mean(positive))
    return 1.0


def cross_gram(spec: Optional[KernelSpec], a, b) -> np.ndarray:
    """Kernel matrix between the rows of ``a`` and the rows of ``b``.

    Rows are scalar treatments (1-D input) or covariate vectors; Fisher-Rao
    kernels take SRSF feature rows, whose Euclidean distances equal d_FR.
    A None spec, a constant kernel or zero-width rows give all ones.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a, b = a[:, None], b[:, None]
    if spec is None or spec.family is KernelFamily.CONSTANT or a.shape[1] == 0:
        return np.ones((len(a), len(b)))
    if spec.family is KernelFamily.BINARY_INDICATOR:
        return (a == b.T).astype(float)
    d2 = cdist(a, b, "sqeuclidean")
    if spec.family is KernelFamily.SQUARED_EXPONENTIAL:
        return np.exp(-d2 / (2.0 * spec.lengthscale**2))
    if spec.family is KernelFamily.FISHER_RAO_GAUSSIAN:
        return np.exp(-spec.lengthscale * d2)
    raise ValueError(f"unsupported kernel family: {spec.family}")


def _covariate_points(samples, kv: Optional[KernelSpec]) -> np.ndarray:
    """Rows the covariate kernel acts on: SRSF features of the covariate
    curves for Fisher-Rao kernels, the baseline covariates otherwise."""
    if kv is not None and kv.family is KernelFamily.FISHER_RAO_GAUSSIAN:
        if samples[0].covariate_curve is None:
            raise ValueError("dataset has no covariate curves")
        return _srsf_feature_matrix([s.covariate_curve for s in samples])
    return np.array([s.covariates for s in samples])


def input_gram(
    ds, kx: KernelSpec, kv: Optional[KernelSpec], v: Optional[np.ndarray] = None
) -> GramMatrix:
    """Entrywise product of treatment and covariate Grams.

    ``kv`` may be None (or have zero covariate columns), in which case the
    covariate factor is constant one.  Fisher-Rao covariate kernels act on
    the dataset's covariate curves.  ``v`` holds the covariate rows
    ``_covariate_points(ds.samples, kv)`` when the caller already has them.
    """
    v = _covariate_points(ds.samples, kv) if v is None else v
    x = ds.treatments
    return GramMatrix(cross_gram(kx, x, x) * cross_gram(kv, v, v), spec=kx)


def output_gram(grid: Grid, lengthscale: Optional[float] = None) -> GramMatrix:
    """Squared exponential Gram over grid points.

    Defaults the lengthscale to the median heuristic over the grid points.
    """
    pts = grid.points
    if lengthscale is None:
        lengthscale = median_heuristic(pts)
    spec = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, lengthscale)
    return GramMatrix(cross_gram(spec, pts, pts), spec=spec)
