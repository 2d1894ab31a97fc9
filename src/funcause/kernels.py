"""Kernel specs, bandwidth heuristics and Gram-matrix construction.

Input Grams combine a treatment kernel and a covariate kernel entrywise;
the output Gram encodes correlation among grid points.  Curve inputs go
through the Fisher-Rao SRSF embedding, which keeps the Gaussian curve
kernel positive definite.  Every distance kernel and median heuristic reads
squared Euclidean distances from ``_sq_dists``; ``_Input`` keeps one input's
n x n distances, so a fit or search computes them once and slices blocks.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elastic import _srsf_rows
from .fdata import Grid

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


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its bandwidth (lengthscale or decay rate)."""

    family: KernelFamily
    lengthscale: float = 1.0

    def __post_init__(self):
        if not 0 < self.lengthscale < math.inf:
            raise ValueError("bandwidth must be positive and finite")


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric PSD kernel matrix; ``entries`` is read-only."""

    entries: np.ndarray

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


def _srsf_feature_matrix(fmat: np.ndarray, grid: Grid) -> np.ndarray:
    """SRSF values of the rows of ``fmat`` scaled so Euclidean row
    distances equal d_FR."""
    qmat = _srsf_rows(fmat, grid)
    w = np.full(len(grid), grid.spacing)
    w[0] = w[-1] = grid.spacing / 2.0
    return qmat * np.sqrt(w)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of 2-D ``a`` and ``b``.

    Adds the squared differences column by column in order, as
    ``scipy.spatial.distance.cdist(a, b, "sqeuclidean")`` does, so the two
    agree bit for bit.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError("rows must have the same number of columns")
    d2 = np.zeros((len(a), len(b)))
    diff = np.empty_like(d2)
    for ak, bk in zip(a.T, b.T):
        np.subtract.outer(ak, bk, out=diff)
        diff *= diff
        d2 += diff
    return d2


def _as_rows(points) -> np.ndarray:
    """Float rows: a 1-D input is one scalar per row."""
    p = np.asarray(points, dtype=float)
    return p[:, None] if p.ndim == 1 else p


class _Input:
    """The rows one kernel acts on, with their pairwise squared distances
    computed on first use and kept: every Gram block and median heuristic
    of a fit or search slices the one n x n matrix."""

    def __init__(self, points):
        self.rows = _as_rows(points)

    @functools.cached_property
    def sq_dists(self) -> np.ndarray:
        """Read-only n x n squared distances."""
        d2 = _sq_dists(self.rows, self.rows)
        d2.flags.writeable = False
        return d2

    def median(self) -> float:
        """Median distance over the pairs of rows, with ``median_heuristic``'s
        fallbacks."""
        dists = np.sqrt(self.sq_dists[np.triu_indices(len(self.rows), 1)])
        med = float(np.median(dists))
        if med > 0:
            return med
        positive = dists[dists > 0]
        if positive.size:
            return float(np.mean(positive))
        return 1.0

    def gram(self, spec: Optional[KernelSpec], rows=slice(None), cols=slice(None)) -> np.ndarray:
        """Kernel block between the rows ``rows`` and the rows ``cols``, by
        default all of them; equal to ``cross_gram`` on those rows."""
        return _gram(
            spec, self.rows[rows], self.rows[cols], lambda: self.sq_dists[rows][:, cols]
        )


def median_heuristic(points, metric: str = "euclidean") -> float:
    """Median pairwise distance, with degenerate-case fallbacks.

    Falls back to the mean positive distance when the median is zero, and
    to 1.0 when every pairwise distance vanishes.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    if metric == "euclidean":
        mat = _as_rows(points)
    elif metric == "fisher_rao":
        curves = list(points)
        mat = _srsf_feature_matrix(np.array([c.values for c in curves]), curves[0].grid)
    else:
        raise ValueError(f"unknown metric: {metric}")
    return _Input(mat).median()


def _gram(spec: Optional[KernelSpec], a: np.ndarray, b: np.ndarray, sq_dists) -> np.ndarray:
    """Kernel matrix between the rows of 2-D ``a`` and ``b``; only the
    distance kernels call ``sq_dists()`` for their squared distances."""
    if spec is None or a.shape[1] == 0:
        return np.ones((len(a), len(b)))
    if spec.family is KernelFamily.BINARY_INDICATOR:
        return (a == b.T).astype(float)
    if spec.family is KernelFamily.SQUARED_EXPONENTIAL:
        return np.exp(-sq_dists() / (2.0 * spec.lengthscale**2))
    if spec.family is KernelFamily.FISHER_RAO_GAUSSIAN:
        return np.exp(-spec.lengthscale * sq_dists())
    raise ValueError(f"unsupported kernel family: {spec.family}")


def cross_gram(spec: Optional[KernelSpec], a, b) -> np.ndarray:
    """Kernel matrix between the rows of ``a`` and the rows of ``b``.

    Rows are scalar treatments (1-D input) or covariate vectors; Fisher-Rao
    kernels take SRSF feature rows, whose Euclidean distances equal d_FR.
    A None spec or zero-width rows give all ones.
    """
    a, b = _as_rows(a), _as_rows(b)
    return _gram(spec, a, b, lambda: _sq_dists(a, b))


def _covariate_points(ds, kv: Optional[KernelSpec]) -> np.ndarray:
    """Rows the covariate kernel acts on: SRSF features of the covariate
    curves for Fisher-Rao kernels, the baseline covariates otherwise."""
    if kv is not None and kv.family is KernelFamily.FISHER_RAO_GAUSSIAN:
        if ds.covariate_curve_matrix is None:
            raise ValueError("dataset has no covariate curves")
        return _srsf_feature_matrix(ds.covariate_curve_matrix, ds.covariate_grid)
    return ds.covariate_matrix


def input_gram(ds, kx: KernelSpec, kv: Optional[KernelSpec]) -> GramMatrix:
    """Entrywise product of treatment and covariate Grams.

    ``kv`` may be None (or have zero covariate columns), in which case the
    covariate factor is constant one.  Fisher-Rao covariate kernels act on
    the dataset's covariate curves.
    """
    v = _covariate_points(ds, kv)
    x = ds.treatments
    return GramMatrix(cross_gram(kx, x, x) * cross_gram(kv, v, v))


def output_gram(grid: Grid) -> GramMatrix:
    """Squared exponential Gram over grid points, with the median heuristic
    over the grid points as its lengthscale."""
    pts = _Input(grid.points)
    return GramMatrix(pts.gram(KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, pts.median())))
