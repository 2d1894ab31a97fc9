"""Elastic registration of curves via square-root slope functions.

Provides the SRSF transform and its inverse, the warping group action,
dynamic-programming alignment of a batch of curves to one template (a pair
is the batch of one), Karcher means under the elastic metric, whose every
sweep aligns all curves to the mean in one dynamic program, and the two
Fisher-Rao distances (SRSF-embedding form for general curves, spherical
arccos form for density-like vectors).
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
    "align_batch",
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


def align_batch(template: SrsfCurve, Q, penalty: float = 0.0):
    """Optimal warping of every row of ``Q`` toward ``template``.

    ``Q`` is an (n, T) matrix of SRSF values on the template's grid.  One
    dynamic program over a monotone lattice of paths aligns all n curves,
    one DP row at a time.  A path's cost is the trapezoidal integral of
    (q1 - (q2 o g) sqrt(g'))^2 along its linear warp segments, plus
    ``penalty`` (s - 1)^2 per unit of template time on a segment of slope s.

    Returns ``(gammas, aligned, distances)`` of shapes (n, T), (n, T) and
    (n,): the warps, the warped SRSFs and the post-alignment trapezoidal L2
    norms of the residuals.  Each curve falls back to the identity warp
    whenever alignment would not improve on it, so row c is exactly what
    ``align_pair`` gives for ``Q[c]`` alone.
    """
    grid = template.grid
    q1 = template.values
    Q = np.asarray(Q, dtype=float)
    t = len(grid)
    if Q.ndim != 2 or Q.shape[1] != t:
        raise ValueError("Q must hold one row of grid values per curve")
    if not np.all(np.isfinite(Q)):
        raise ValueError("srsf values must be finite")
    n = Q.shape[0]
    h = grid.spacing
    cols = np.arange(t, dtype=float)

    # Step k's segment into column j has quadrature nodes m = 0..di, where
    # the template takes its value at DP row i - di + m and each curve the
    # value sqrt(s) (q2 o pos).  Block m holds node m of every step that has
    # one; arrays are (T, n), so that a column shift is a contiguous slice.
    blocks, interp = [], {}  # interp: the curves at each distinct pos
    for m in range(max(di for di, _ in _STEPS) + 1):
        steps = [k for k, (di, _) in enumerate(_STEPS) if m <= di]
        vals = np.empty((len(steps), t, n))
        for b, k in enumerate(steps):
            di, dj = _STEPS[k]
            s = dj / di
            if (dj, s * m) not in interp:
                pos = np.clip((cols - dj + s * m) * h, 0.0, 1.0)
                interp[dj, s * m] = np.array([np.interp(pos, grid.points, q) for q in Q])
            vals[b] = (math.sqrt(s) * interp[dj, s * m]).T
        dis = np.array([_STEPS[k][0] for k in steps])
        weight = np.where((m == 0) | (m == dis), 0.5 * h, h)[:, None, None]
        blocks.append((steps, vals, weight, m - dis))
    step_penalty = np.array([penalty * (dj / di - 1.0) ** 2 * (di * h) for di, dj in _STEPS])

    # row i of the DP: every step's candidate cost for every curve in one
    # (steps, T, n) array, inf where the step does not fit.  The choice is
    # the first step attaining the minimum (ties resolve in _STEPS order),
    # found by rank because argmin over the leading axis is several times
    # slower.  Steps reach back three rows at most; only those are kept.
    rank = np.arange(len(_STEPS), 0, -1, dtype=np.int8)[:, None, None]
    choice = np.zeros((t, t, n), dtype=np.int8)
    row0 = np.full((t, n), np.inf)
    row0[0] = 0.0
    recent = [row0]  # recent[d - 1] holds the distances of DP row i - d
    cand = np.full((len(_STEPS), t, n), np.inf)
    for i in range(1, t):
        # each step's cost sums its node terms in node order; every step has
        # nodes 0 and 1
        for m, (steps, vals, weight, offset) in enumerate(blocks):
            diff = q1[np.maximum(i + offset, 0)][:, None, None] - vals
            term = weight * diff
            term *= diff
            if m == 0:
                cost = term
            elif m == 1:
                cost += term
            else:
                cost[steps] += term
        if penalty > 0.0:
            cost += step_penalty[:, None, None]
        for k, (di, dj) in enumerate(_STEPS):
            if i >= di and dj < t:
                np.add(recent[di - 1][: t - dj], cost[k, dj:], out=cand[k, dj:])
        best = cand.min(axis=0)
        choice[i] = len(_STEPS) - ((cand == best) * rank).max(axis=0)
        recent = [best] + recent[:2]
    totals = recent[0][t - 1]

    gammas, aligned, distances = np.empty((n, t)), np.empty((n, t)), np.empty(n)
    rows = np.arange(t)
    for c in range(n):
        a2 = Q[c]
        pre = grid_norm(q1 - a2, grid)

        # backtrack the node path from (t-1, t-1)
        nodes = [(t - 1, t - 1)]
        i, j = t - 1, t - 1
        while i > 0:
            di, dj = _STEPS[choice[i, j, c]]
            i, j = i - di, j - dj
            nodes.append((i, j))
        nodes = np.array(nodes[::-1])

        # each grid row lies on the path segment that starts at or before it
        seg = np.minimum(np.searchsorted(nodes[:, 0], rows, side="right") - 1, len(nodes) - 2)
        (ia, ja), (ib, jb) = nodes[seg].T, nodes[seg + 1].T
        s = (jb - ja) / (ib - ia)
        gamma_vals = (ja + s * (rows - ia)) * h
        warped = np.sqrt(s) * np.interp(gamma_vals, grid.points, a2)
        gamma_vals[0], gamma_vals[-1] = 0.0, 1.0

        post = grid_norm(q1 - warped, grid)
        # fall back to the identity whenever the penalized path cost does not
        # beat the identity path (whose cost is exactly pre^2 under the same
        # quadrature); this keeps repeated registration at a fixed point
        if post > pre or totals[c] >= pre**2 - 1e-15:
            gammas[c], aligned[c], distances[c] = grid.points, a2, pre
        else:
            gammas[c], aligned[c], distances[c] = gamma_vals, warped, post
    return gammas, aligned, distances


def align_pair(q1: SrsfCurve, q2: SrsfCurve, penalty: float = 0.0):
    """Optimal warping of q2 toward q1: the one-curve case of ``align_batch``.

    Returns ``(gamma, aligned_q2, distance)`` where ``distance`` is the
    post-alignment trapezoidal L2 norm of the residual.  Falls back to the
    identity warp whenever alignment would not improve on it.
    """
    if q1.grid != q2.grid:
        raise ValueError("srsf curves must share a grid")
    gammas, aligned, distances = align_batch(q1, q2.values[None, :], penalty)
    grid = q1.grid
    return (
        WarpingFunction(grid, gammas[0]),
        SrsfCurve(grid, aligned[0], origin=q2.origin),
        float(distances[0]),
    )


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
    Curves enter unsmoothed; each sweep aligns all of them to the mean in
    one call of ``align_batch``.
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
    gmat = np.tile(grid.points, (n, 1))
    aligned = qmat.copy()

    trace = [_weighted_spread(mean_vals, aligned, w, grid)]
    converged = False
    for _ in range(max_iter):
        new_gmat, new_aligned, _ = align_batch(SrsfCurve(grid, mean_vals), qmat, penalty)
        new_mean = w @ new_aligned
        obj = _weighted_spread(new_mean, new_aligned, w, grid)
        if obj > trace[-1]:
            # float slip; keep the previous (better) iterate
            converged = True
            break
        gmat, aligned, mean_vals = new_gmat, new_aligned, new_mean
        prev = trace[-1]
        trace.append(obj)
        if prev - obj <= tol * max(prev, 1e-30):
            converged = True
            break

    # center the warps: compose with the inverse of their average so the
    # mean warp is the identity and the mean keeps the population phase
    warps = [WarpingFunction(grid, g) for g in gmat]
    gbar = w @ gmat
    if np.all(np.diff(gbar) > 0):
        gbar_inv = np.interp(grid.points, gbar, grid.points)
        gbar_inv[0], gbar_inv[-1] = 0.0, 1.0
        centered = np.array([np.interp(gbar_inv, grid.points, g) for g in gmat])
        centered[:, 0], centered[:, -1] = 0.0, 1.0
        if np.all(np.diff(centered, axis=1) > 0):
            warps = [WarpingFunction(grid, g) for g in centered]
            aligned = np.array([warp_srsf(q, g).values for q, g in zip(qs, warps)])
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
