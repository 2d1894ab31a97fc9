"""Elastic registration of curves via square-root slope functions.

Provides the SRSF transform and its inverse, the warping group action,
dynamic-programming pairwise alignment, Karcher means under the elastic
metric, and the two Fisher-Rao distances (SRSF-embedding form for general
curves, spherical arccos form for density-like vectors).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import DomainError, WeightError
from .fdata import Curve, Grid, derivative, grid_norm

__all__ = [
    "SrsfCurve",
    "WarpingFunction",
    "KarcherMeanResult",
    "srsf_transform",
    "srsf_inverse",
    "warp_srsf",
    "warp_curve",
    "align_pair",
    "karcher_mean",
    "fr_distance_srsf",
    "fr_distance_sphere",
]

# DP lattice moves (rows, cols); slopes cover [1/3, 3].  The diagonal move
# comes first so that ties resolve toward the identity warp.
_STEPS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
SLOPE_CAP = 3.0


@dataclass(frozen=True, eq=False)
class SrsfCurve:
    """Square-root slope representation; carries f(0) for inversion."""

    grid: Grid
    values: np.ndarray
    origin: float = 0.0

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if arr.shape != (len(self.grid),):
            raise ValueError("values length must match grid length")
        if not np.all(np.isfinite(arr)):
            raise ValueError("srsf values must be finite")


@dataclass(frozen=True, eq=False)
class WarpingFunction:
    """Boundary-fixed strictly increasing reparameterization of [0, 1]."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if arr.shape != (len(self.grid),):
            raise ValueError("values length must match grid length")
        if arr[0] != 0.0 or arr[-1] != 1.0:
            raise ValueError("warping must fix the endpoints")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("warping must be strictly increasing")

    @classmethod
    def identity(cls, grid: Grid) -> "WarpingFunction":
        return cls(grid, grid.points)


@dataclass
class KarcherMeanResult:
    mean: Curve
    warps: list
    objective_trace: list
    mean_srsf: SrsfCurve
    converged: bool


def srsf_transform(f: Curve) -> SrsfCurve:
    """q(t) = sign(f'(t)) sqrt(|f'(t)|) of the unsmoothed ``derivative``,
    with origin f(0)."""
    df = derivative(f).values
    q = np.sign(df) * np.sqrt(np.abs(df))
    return SrsfCurve(f.grid, q, origin=float(f.values[0]))


def srsf_inverse(q: SrsfCurve) -> Curve:
    """Recover f(t) = f(0) + int_0^t q|q| by trapezoidal integration."""
    integrand = q.values * np.abs(q.values)
    f = cumulative_trapezoid(integrand, q.grid.points, initial=0.0) + q.origin
    return Curve(q.grid, f)


def _warp_slopes(gamma: WarpingFunction) -> np.ndarray:
    slopes = np.gradient(gamma.values, gamma.grid.spacing, edge_order=2)
    return np.clip(slopes, 0.0, None)


def warp_srsf(q: SrsfCurve, gamma: WarpingFunction) -> SrsfCurve:
    """Group action (q o gamma) sqrt(gamma') on the shared grid."""
    if q.grid != gamma.grid:
        raise ValueError("srsf and warping must share a grid")
    warped = np.interp(gamma.values, q.grid.points, q.values)
    out = warped * np.sqrt(_warp_slopes(gamma))
    return SrsfCurve(q.grid, out, origin=q.origin)


def warp_curve(f: Curve, gamma: WarpingFunction) -> Curve:
    """Reparameterize a curve: (f o gamma) on the shared grid."""
    if f.grid != gamma.grid:
        raise ValueError("curve and warping must share a grid")
    return Curve(f.grid, np.interp(gamma.values, f.grid.points, f.values))


def _step_cost_tables(q1: np.ndarray, q2: np.ndarray, grid: Grid, penalty: float):
    """Per-step tables C[i, j]: cost of arriving at node (i, j) from
    (i - di, j - dj) along a linear warp segment.

    The segment cost is the trapezoidal integral of (q1 - (q2 o g) sqrt(g'))^2
    over the segment, so a full path cost equals the trapezoidal norm of the
    residual against the warped curve it induces.
    """
    t = q1.size
    h = grid.spacing
    cols = np.arange(t, dtype=float)
    tables = []
    for di, dj in _STEPS:
        s = dj / di
        sq = math.sqrt(s)
        cost = np.zeros((t, t))
        for m in range(di + 1):
            w = h * (0.5 if m in (0, di) else 1.0)
            pos = (cols - dj + s * m) * h
            q2m = np.interp(np.clip(pos, 0.0, 1.0), grid.points, q2)
            shift = di - m
            row = np.full(t, np.inf)
            row[shift:] = q1[: t - shift] if shift else q1
            diff = row[:, None] - sq * q2m[None, :]
            cost += w * diff * diff
        if penalty > 0.0:
            cost += penalty * (s - 1.0) ** 2 * (di * h)
        tables.append(cost)
    return tables


def align_pair(q1: SrsfCurve, q2: SrsfCurve, penalty: float = 0.0):
    """Optimal warping of q2 toward q1 over a monotone lattice of paths.

    Returns ``(gamma, aligned_q2, distance)`` where ``distance`` is the
    post-alignment trapezoidal L2 norm of the residual.  Falls back to the
    identity warp whenever alignment would not improve on it.
    """
    if q1.grid != q2.grid:
        raise ValueError("srsf curves must share a grid")
    grid = q1.grid
    t = len(grid)
    h = grid.spacing
    a1, a2 = q1.values, q2.values

    pre = grid_norm(a1 - a2, grid)
    tables = _step_cost_tables(a1, a2, grid, penalty)

    # row i of the DP: every step's candidate cost in one (steps, T) array,
    # inf where the step does not fit; argmin takes the first minimum, so
    # ties resolve in _STEPS order
    dist = np.full((t, t), np.inf)
    choice = np.zeros((t, t), dtype=np.int8)
    dist[0, 0] = 0.0
    cand = np.full((len(_STEPS), t), np.inf)
    for i in range(1, t):
        for k, (di, dj) in enumerate(_STEPS):
            if i >= di:
                cand[k, dj:] = dist[i - di, : t - dj] + tables[k][i, dj:]
        choice[i] = cand.argmin(axis=0)
        dist[i] = cand.min(axis=0)

    # backtrack the node path from (t-1, t-1)
    nodes = [(t - 1, t - 1)]
    i, j = t - 1, t - 1
    while i > 0:
        di, dj = _STEPS[choice[i, j]]
        i, j = i - di, j - dj
        nodes.append((i, j))
    nodes = np.array(nodes[::-1])

    # each grid row lies on the path segment that starts at or before it
    rows = np.arange(t)
    seg = np.minimum(np.searchsorted(nodes[:, 0], rows, side="right") - 1, len(nodes) - 2)
    (ia, ja), (ib, jb) = nodes[seg].T, nodes[seg + 1].T
    s = (jb - ja) / (ib - ia)
    gamma_vals = (ja + s * (rows - ia)) * h
    warped = np.sqrt(s) * np.interp(gamma_vals, grid.points, a2)
    gamma_vals[0], gamma_vals[-1] = 0.0, 1.0

    post = grid_norm(a1 - warped, grid)
    # fall back to the identity whenever the penalized path cost does not
    # beat the identity path (whose cost is exactly pre^2 under the same
    # quadrature); this keeps repeated registration at a fixed point
    total = float(dist[t - 1, t - 1])
    if post > pre or total >= pre**2 - 1e-15:
        return WarpingFunction.identity(grid), SrsfCurve(grid, a2, q2.origin), pre
    gamma = WarpingFunction(grid, gamma_vals)
    return gamma, SrsfCurve(grid, warped, origin=q2.origin), post


def _normalized_weights(n: int, weights) -> np.ndarray:
    """Weights scaled to sum to one, uniform when ``weights`` is None;
    ``WeightError`` unless there is one nonnegative weight per curve and
    their sum is positive."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,) or np.any(w < 0):
        raise WeightError("weights must be nonnegative, one per curve")
    total = w.sum()
    if total <= 0:
        raise WeightError("weights must not all be zero")
    return w / total


def _weighted_spread(mu: np.ndarray, rows: np.ndarray, w: np.ndarray, grid: Grid) -> float:
    """sum_i w_i ||mu - rows_i||^2 in the trapezoidal L2 norm."""
    return float(sum(wi * grid_norm(mu - row, grid) ** 2 for wi, row in zip(w, rows)))


def karcher_mean(
    curves: Sequence[Curve],
    max_iter: int = 20,
    tol: float = 1e-6,
    weights: Optional[np.ndarray] = None,
    penalty: float = 0.0,
) -> KarcherMeanResult:
    """Karcher mean under the elastic metric.

    Alternates (a) averaging of aligned SRSFs and (b) re-alignment of every
    curve to the current mean, until the relative objective decrease drops
    below ``tol``.  The objective trace is guaranteed non-increasing.
    Curves enter unsmoothed; each sweep calls ``align_pair`` once per curve.
    """
    curves = list(curves)
    n = len(curves)
    if n == 0:
        raise ValueError("need at least one curve")
    grid = curves[0].grid
    w = _normalized_weights(n, weights)

    qs = [srsf_transform(c) for c in curves]
    qmat = np.array([q.values for q in qs])
    origins = np.array([q.origin for q in qs])
    mean_vals = w @ qmat
    warps = [WarpingFunction.identity(grid) for _ in range(n)]
    aligned = qmat.copy()

    trace = [_weighted_spread(mean_vals, aligned, w, grid)]
    converged = False
    for _ in range(max_iter):
        mu = SrsfCurve(grid, mean_vals)
        new_warps, new_aligned = [], np.empty_like(aligned)
        for i, q in enumerate(qs):
            g, qa, _ = align_pair(mu, q, penalty=penalty)
            new_warps.append(g)
            new_aligned[i] = qa.values
        new_mean = w @ new_aligned
        obj = _weighted_spread(new_mean, new_aligned, w, grid)
        if obj > trace[-1]:
            # float slip; keep the previous (better) iterate
            converged = True
            break
        warps, aligned, mean_vals = new_warps, new_aligned, new_mean
        prev = trace[-1]
        trace.append(obj)
        if prev - obj <= tol * max(prev, 1e-30):
            converged = True
            break

    # center the warps: compose with the inverse of their average so the
    # mean warp is the identity and the mean keeps the population phase
    gmat = np.array([g.values for g in warps])
    gbar = w @ gmat
    if np.all(np.diff(gbar) > 0):
        gbar_inv = np.interp(grid.points, gbar, grid.points)
        gbar_inv[0], gbar_inv[-1] = 0.0, 1.0
        centered = []
        for g in warps:
            vals = np.interp(gbar_inv, grid.points, g.values)
            vals[0], vals[-1] = 0.0, 1.0
            if np.all(np.diff(vals) > 0):
                centered.append(WarpingFunction(grid, vals))
            else:
                centered = None
                break
        if centered is not None:
            warps = centered
            aligned = np.array(
                [warp_srsf(q, g).values for q, g in zip(qs, warps)]
            )
            mean_vals = w @ aligned

    mean_srsf = SrsfCurve(grid, mean_vals, origin=float(w @ origins))
    return KarcherMeanResult(
        mean=srsf_inverse(mean_srsf),
        warps=warps,
        objective_trace=trace,
        mean_srsf=mean_srsf,
        converged=converged,
    )


def fr_distance_srsf(f: Curve, g: Curve) -> float:
    """Fisher-Rao geodesic distance via the SRSF embedding: ||q_f - q_g||.

    No alignment is performed; this is the embedding distance that makes the
    Gaussian curve kernel positive definite.
    """
    if f.grid != g.grid:
        raise ValueError("curves must share a grid")
    return grid_norm(srsf_transform(f).values - srsf_transform(g).values, f.grid)


def fr_distance_sphere(p: Curve, r: Curve) -> float:
    """Spherical Fisher-Rao distance 2 arccos(sum_j sqrt(p_j r_j)).

    For nonnegative vectors of unit mass, such as the sphere Fréchet mean,
    this is twice the geodesic distance between sqrt(p) and sqrt(r) on the
    unit sphere.  Masses are taken as given, not normalised.
    """
    if p.grid != r.grid:
        raise ValueError("curves must share a grid")
    if np.any(p.values < 0) or np.any(r.values < 0):
        raise DomainError("spherical distance needs nonnegative values")
    s = float(np.sum(np.sqrt(p.values * r.values)))
    return 2.0 * math.acos(min(1.0, max(-1.0, s)))
