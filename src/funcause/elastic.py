"""Elastic registration of curves via square-root slope functions.

Provides the SRSF transform and its inverse, the warping group action,
dynamic-programming alignment of a batch of curves to one template (a pair
is the batch of one), Karcher means under the elastic metric, and the two
Fisher-Rao distances (SRSF-embedding form for general curves, spherical
arccos form for density-like vectors).

The DP visits only the band of lattice cells that a path of slopes in
[1/3, 3] from corner to corner can cross, which gives the same result as
the full lattice.  A Karcher mean takes its curves as one (n, T) matrix
and returns their warps as one; it builds the curves' side of the DP once,
and the whole sweep (DP, backtrack, warp read-off, norms, centring) works on
(n, T) matrices, with no per-curve objects.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, WeightError
from .fdata import (
    Curve, Grid, _curve_values, _derivative_rows, _row_norms, _trapezoid_terms, grid_norm
)

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
# The DP keeps the steps in order of rise, so that the steps with a
# quadrature node m (those of rise >= m) form the suffix _BY_RISE[_FIRST[m]:].
# Its node terms are kept as one stack, node by node: _NODES lists the
# (node, step) pair of each layer.
_BY_RISE = sorted(range(len(_STEPS)), key=lambda k: _STEPS[k][0])
_FIRST = [next(p for p, k in enumerate(_BY_RISE) if _STEPS[k][0] >= m) for m in range(4)]
_NODES = [(m, k) for m, first in enumerate(_FIRST) for k in _BY_RISE[first:]]
_DI = np.array([di for di, _ in _STEPS])
_DJ = np.array([dj for _, dj in _STEPS])


@dataclass(frozen=True, eq=False)
class SrsfCurve:
    """Square-root slope representation; carries f(0) for inversion."""

    grid: Grid
    values: np.ndarray
    origin: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", _curve_values(self.values, self.grid, "srsf"))


@dataclass(frozen=True, eq=False)
class WarpingFunction:
    """Boundary-fixed strictly increasing reparameterization of [0, 1]."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = _curve_values(self.values, self.grid, "warping")
        object.__setattr__(self, "values", arr)
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
    warps: np.ndarray  # read-only (n, T): row i warps curve i to the mean
    objective_trace: list
    mean_srsf: SrsfCurve
    converged: bool


def _srsf_rows(fmat, grid: Grid) -> np.ndarray:
    """SRSF values of every row of ``fmat``: sign(f') sqrt(|f'|) of the
    unsmoothed second-order finite-difference derivative (``derivative``)."""
    df = _derivative_rows(fmat, grid)
    return np.sign(df) * np.sqrt(np.abs(df))


def srsf_transform(f: Curve) -> SrsfCurve:
    """q(t) = sign(f'(t)) sqrt(|f'(t)|) of the unsmoothed ``derivative``,
    with origin f(0)."""
    return SrsfCurve(f.grid, _srsf_rows(f.values, f.grid), origin=float(f.values[0]))


def srsf_inverse(q: SrsfCurve) -> Curve:
    """Recover f(t) = f(0) + int_0^t q|q| by trapezoidal integration."""
    terms = _trapezoid_terms(q.values * np.abs(q.values), q.grid.points)
    f = np.cumsum(np.concatenate(([0.0], terms))) + q.origin
    return Curve(q.grid, f)


def _warp_slopes(gmat, grid: Grid) -> np.ndarray:
    return np.clip(_derivative_rows(gmat, grid), 0.0, None)


def _interp_rows(x, xp: np.ndarray, fmat: np.ndarray) -> np.ndarray:
    """``np.interp(x_c, xp, fmat[c])`` for every row c at once, bit for bit
    on finite values.

    ``x`` is shared by all rows (shape (m,)) or has one row per row of
    ``fmat`` (shape (n, m)).  Like ``np.interp`` it clamps outside ``xp``
    and takes ``slope * (x - xp[j]) + fp[j]`` on [xp[j], xp[j + 1]).
    """
    x = np.asarray(x)
    j = np.searchsorted(xp, x, side="right") - 1
    inner = np.clip(j, 0, len(xp) - 2)
    at = np.broadcast_to(inner, (len(fmat), x.shape[-1]))
    f_lo = np.take_along_axis(fmat, at, axis=-1)
    f_hi = np.take_along_axis(fmat, at + 1, axis=-1)
    x_lo = xp[inner]
    out = (f_hi - f_lo) / (xp[inner + 1] - x_lo) * (x - x_lo) + f_lo
    out = np.where(j < 0, fmat[:, :1], out)
    return np.where(j >= len(xp) - 1, fmat[:, -1:], out)


def warp_srsf(q: SrsfCurve, gamma: WarpingFunction) -> SrsfCurve:
    """Group action (q o gamma) sqrt(gamma') on the shared grid."""
    if q.grid != gamma.grid:
        raise ValueError("srsf and warping must share a grid")
    warped = np.interp(gamma.values, q.grid.points, q.values)
    out = warped * np.sqrt(_warp_slopes(gamma.values, gamma.grid))
    return SrsfCurve(q.grid, out, origin=q.origin)


def warp_curve(f: Curve, gamma: WarpingFunction) -> Curve:
    """Reparameterize a curve: (f o gamma) on the shared grid."""
    if f.grid != gamma.grid:
        raise ValueError("curve and warping must share a grid")
    return Curve(f.grid, np.interp(gamma.values, f.grid.points, f.values))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# _band and _start_cells depend on T only; every sweep of a Karcher mean
# asks for the same T, so the last few are kept, read-only
@functools.lru_cache(maxsize=4)
def _band(t: int):
    """Columns [lo[i], hi[i]) of DP row i that some path from (0, 0) to
    (t-1, t-1) can cross: every step has a slope in [1/3, 3], so a cell
    must lie in that cone from both corners.  Cells outside are unreachable
    (their cost is inf) or reach no cell on a path to the end."""
    i = np.arange(t)
    r = t - 1 - i
    lo = np.maximum(-(-i // 3), t - 1 - 3 * r)
    hi = np.minimum(3 * i, t - 1 - -(-r // 3)) + 1
    return _read_only(lo), _read_only(hi)


@functools.lru_cache(maxsize=4)
def _start_cells(t: int) -> np.ndarray:
    """Where DP cell (i, j) finds the distance of step p's start cell.

    Entry [i, p, j] indexes the rows of a (3t + 1, n) ring that holds the
    distances of DP rows i - 1 to i - 3, DP row r at rows (r % 3) t to
    (r % 3 + 1) t; step p is ``_STEPS[_BY_RISE[p]]``.  A start cell off the
    lattice or outside its row's band maps to row 3t, which stays inf.
    """
    lo, hi = _band(t)
    order = np.array(_BY_RISE)
    r = np.arange(t)[:, None, None] - _DI[order][None, :, None]
    c = np.arange(t)[None, None, :] - _DJ[order][None, :, None]
    rr = np.maximum(r, 0)
    inside = (r >= 0) & (c >= lo[rr]) & (c < hi[rr])
    return _read_only(np.where(inside, r % 3 * t + c, 3 * t))


def _node_tables(Q: np.ndarray, grid: Grid) -> np.ndarray:
    """The curves' side of every step's quadrature nodes, for the DP.

    Step k's segment into column j has nodes m = 0..di, where the template
    takes its value at DP row i - di + m and each curve the value
    sqrt(s) (q2 o pos).  Layer l of the (len(_NODES), T, n) stack holds the
    node and step ``_NODES[l]``, so that a column range is a slice.  The
    stack depends on the curves only, not on the template.
    """
    t, n = len(grid), Q.shape[0]
    h = grid.spacing
    cols = np.arange(t, dtype=float)
    stack, interp = np.empty((len(_NODES), t, n)), {}  # interp: the curves at each pos
    for layer, (m, k) in enumerate(_NODES):
        di, dj = _STEPS[k]
        s = dj / di
        if (dj, s * m) not in interp:
            pos = np.clip((cols - dj + s * m) * h, 0.0, 1.0)
            interp[dj, s * m] = _interp_rows(pos, grid.points, Q)
        stack[layer] = (math.sqrt(s) * interp[dj, s * m]).T
    return stack


def _align_rows(q1: np.ndarray, Q: np.ndarray, grid: Grid, stack: np.ndarray, penalty: float):
    """``align_batch`` toward the SRSF values ``q1``, on ``Q``'s node stack."""
    n, t = Q.shape
    h = grid.spacing
    node_m = np.array([m for m, _ in _NODES])
    node_di = _DI[[k for _, k in _NODES]]
    weight = np.where((node_m == 0) | (node_m == node_di), 0.5 * h, h)[:, None, None]
    # the template at every node of every DP row
    q1_nodes = q1[np.maximum(np.arange(t)[:, None] + node_m - node_di, 0)][:, :, None, None]
    layers = np.cumsum([0] + [len(_STEPS) - first for first in _FIRST]).tolist()
    step_penalty = np.array(
        [penalty * (dj / di - 1.0) ** 2 * (di * h) for di, dj in (_STEPS[k] for k in _BY_RISE)]
    )[:, None, None]
    # a tie goes to the step that comes first in _STEPS, as argmin picks it
    rank = (len(_STEPS) - np.array(_BY_RISE, dtype=np.int8))[:, None, None]

    # Row i of the DP covers the band's columns [a, b) only.  Each step's
    # cost sums its node terms in node order (every step has nodes 0 and 1),
    # then gains the distance of its start cell; the choice is the first step
    # attaining the minimum, found by rank because argmin over the leading
    # axis is several times slower.  Steps reach back three rows at most, so
    # three distance rows are kept, in a ring.
    lo, hi = (x.tolist() for x in _band(t))
    starts = _start_cells(t)
    choice = np.zeros((t, t, n), dtype=np.int8)
    ring = np.full((3 * t + 1, n), np.inf)
    ring[0] = 0.0
    for i in range(1, t):
        a, b = lo[i], hi[i]
        for m, (first, l0, l1) in enumerate(zip(_FIRST, layers, layers[1:])):
            diff = q1_nodes[i, l0:l1] - stack[l0:l1, a:b]
            term = weight[l0:l1] * diff
            term *= diff
            if m == 0:
                cost = term
            else:
                cost[first:] += term
        if penalty > 0.0:
            cost += step_penalty
        cost += ring.take(starts[i, :, a:b], axis=0)
        best = cost.min(axis=0)
        choice[i, a:b] = len(_STEPS) - ((cost == best) * rank).max(axis=0)
        ring[i % 3 * t + a : i % 3 * t + b] = best
    totals = ring[(t - 1) % 3 * t + t - 1]

    # backtrack every curve's node path from (t-1, t-1) in lockstep, noting
    # at each node's row the step that ends there and the node's column; a
    # curve back at (0, 0) takes a step of length 0 ever after (choice 7)
    di_of, dj_of = np.append(_DI, 0), np.append(_DJ, 0)
    choice[0] = len(_STEPS)
    curve = np.arange(n)
    i, j = np.full(n, t - 1), np.full(n, t - 1)
    step_end = np.full((n, t), len(_STEPS), dtype=np.int8)
    col_end = np.zeros((n, t), dtype=int)
    for _ in range(t - 1):  # a path has at most t - 1 steps
        if not i.any():
            break
        k = choice[i, j, curve]
        step_end[curve, i] = k
        col_end[curve, i] = j
        i -= di_of[k]
        j -= dj_of[k]

    # row r lies on the segment that ends at the first node row after r; the
    # last row lies on the last segment
    rows = np.arange(t)
    after = np.where(step_end[:, 1:] < len(_STEPS), rows[1:], t)
    after = np.minimum.accumulate(after[:, ::-1], axis=1)[:, ::-1]
    ib = np.column_stack([after, after[:, -1]])
    k = np.take_along_axis(step_end, ib, axis=1)
    ia = ib - _DI[k]
    ja = np.take_along_axis(col_end, ib, axis=1) - _DJ[k]
    s = _DJ[k] / _DI[k]
    gamma = (ja + s * (rows - ia)) * h
    warped = np.sqrt(s) * _interp_rows(gamma, grid.points, Q)
    gamma[:, 0], gamma[:, -1] = 0.0, 1.0

    pre, post = _row_norms(q1 - Q, grid), _row_norms(q1 - warped, grid)
    # Python's float power, as the identity path's cost was always compared
    # with it; it can differ from pre * pre in the last bit
    pre_sq = np.array([p**2 for p in pre.tolist()])
    # fall back to the identity whenever the penalized path cost does not
    # beat the identity path (whose cost is exactly pre^2 under the same
    # quadrature); this keeps repeated registration at a fixed point
    keep = ((post > pre) | (totals >= pre_sq - 1e-15))[:, None]
    return (
        np.where(keep, grid.points, gamma),
        np.where(keep, Q, warped),
        np.where(keep[:, 0], pre, post),
    )


def align_batch(template: SrsfCurve, Q, penalty: float = 0.0):
    """Optimal warping of every row of ``Q`` toward ``template``.

    ``Q`` is an (n, T) matrix of SRSF values on the template's grid.  One
    dynamic program over a monotone lattice of paths aligns all n curves,
    one DP row at a time, over the band of cells that some path from
    (0, 0) to (T-1, T-1) can cross.  A path's cost is the trapezoidal
    integral of (q1 - (q2 o g) sqrt(g'))^2 along its linear warp segments,
    plus ``penalty`` (s - 1)^2 per unit of template time on a segment of
    slope s.

    Returns ``(gammas, aligned, distances)`` of shapes (n, T), (n, T) and
    (n,): the warps, the warped SRSFs and the post-alignment trapezoidal L2
    norms of the residuals.  Each curve falls back to the identity warp
    whenever alignment would not improve on it, so row c is exactly what
    ``align_pair`` gives for ``Q[c]`` alone.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != len(template.grid):
        raise ValueError("Q must hold one row of grid values per curve")
    if not np.all(np.isfinite(Q)):
        raise ValueError("srsf values must be finite")
    return _align_rows(template.values, Q, template.grid, _node_tables(Q, template.grid), penalty)


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
    """sum_i w_i ||mu - rows_i||^2 in the trapezoidal L2 norm, summed in
    row order with Python's float power."""
    norms = _row_norms(mu - rows, grid).tolist()
    return float(sum(wi * ni**2 for wi, ni in zip(w, norms)))


def karcher_mean(
    fmat,
    grid: Grid,
    max_iter: int = 20,
    tol: float = 1e-6,
    weights: Optional[np.ndarray] = None,
    penalty: float = 0.0,
) -> KarcherMeanResult:
    """Karcher mean under the elastic metric of the n >= 1 unsmoothed,
    finite rows of the (n, T) matrix ``fmat`` on ``grid``.

    Alternates (a) averaging of aligned SRSFs and (b) re-alignment of every
    curve to the current mean, until the relative objective decrease drops
    below ``tol``.  The objective trace is guaranteed non-increasing.  The
    curves' side of the DP (``_node_tables``) is built once; each sweep then
    aligns all curves to the mean in one banded dynamic program, as
    ``align_batch`` does.  ``warps`` is one read-only (n, T) matrix.
    """
    # C order, so that the weighted sums do not depend on the caller's layout
    fmat = np.ascontiguousarray(fmat, dtype=float)
    if fmat.ndim != 2 or fmat.shape[1] != len(grid):
        raise ValueError("curves must be an (n, T) matrix, one value per grid point")
    n = len(fmat)
    if n == 0:
        raise ValueError("need at least one curve")
    if not np.all(np.isfinite(fmat)):
        raise ValueError("curve values must be finite")
    w = _normalized_weights(n, weights)

    qmat = _srsf_rows(fmat, grid)
    origins = fmat[:, 0].copy()  # contiguous: a strided w @ moves the last bit
    mean_vals = w @ qmat
    gmat = np.tile(grid.points, (n, 1))
    aligned = qmat
    stack = _node_tables(qmat, grid)

    trace = [_weighted_spread(mean_vals, aligned, w, grid)]
    converged = False
    for _ in range(max_iter):
        new_gmat, new_aligned, _ = _align_rows(mean_vals, qmat, grid, stack, penalty)
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
    gbar = w @ gmat
    if np.all(np.diff(gbar) > 0):
        gbar_inv = np.interp(grid.points, gbar, grid.points)
        gbar_inv[0], gbar_inv[-1] = 0.0, 1.0
        centered = _interp_rows(gbar_inv, grid.points, gmat)
        centered[:, 0], centered[:, -1] = 0.0, 1.0
        if np.all(np.diff(centered, axis=1) > 0):
            gmat = centered
            aligned = _interp_rows(gmat, grid.points, qmat) * np.sqrt(_warp_slopes(gmat, grid))
            mean_vals = w @ aligned

    mean_srsf = SrsfCurve(grid, mean_vals, origin=float(w @ origins))
    return KarcherMeanResult(
        mean=srsf_inverse(mean_srsf),
        warps=_read_only(gmat),
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
