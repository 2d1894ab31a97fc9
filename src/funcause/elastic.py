"""Elastic registration of curves via square-root slope functions.

Provides the SRSF transform and its inverse, the warping group action,
dynamic-programming alignment of a batch of curves to one template (a pair
is the batch of one), Karcher means under the elastic metric, and the two
Fisher-Rao distances (SRSF-embedding form for general curves, spherical
arccos form for density-like vectors).

The DP visits only the band of lattice cells that a path of slopes in
[1/3, 3] from corner to corner can cross, which gives the same result as
the full lattice.  A step's cost is the expanded square of its node
residuals, so each DP row costs one matrix product of the template's
coefficients with the curves' side of the DP (``_node_tables``), which
does not depend on the template.  ``align_batch`` and every Karcher
sweep align their curves in cache-sized blocks of at most ``_DP_BLOCK``
curves (``_blocks``), one DP program and one template per block.  A
Karcher mean takes its curves as one (n, T) matrix and returns their warps
as one, builds each block's side of the DP once, and runs the whole sweep
(DP, backtrack, warp read-off, norms, centring) on (n, T) matrices, with
no per-curve objects.  Every registration takes each of its Karcher means
from ``karcher_mean``, one curve set per call, stopped by the one rule of
``KARCHER_SWEEPS`` and ``KARCHER_TOL``, and each result says why it
stopped.
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
_DI = np.array([di for di, _ in _STEPS])
_DJ = np.array([dj for _, dj in _STEPS])
# The quadrature nodes m = 0..di of every step k, as (m, k) pairs.  Step k
# into column j reads each curve at column j - dj + s m, s = dj / di, so
# nodes share a position where (dj, s m) agrees; every step's last node sits
# at column j.  _POSITIONS lists the distinct positions, and node l reads
# position _NODE_POS[l], scaled by sqrt(s).
_NODES = [(m, k) for k, (di, _) in enumerate(_STEPS) for m in range(di + 1)]
_NODE_M = np.array([m for m, _ in _NODES])
_NODE_DI = _DI[[k for _, k in _NODES]]
_NODE_KEYS = [
    (0, 0.0) if m == _STEPS[k][0] else (_STEPS[k][1], _STEPS[k][1] / _STEPS[k][0] * m)
    for m, k in _NODES
]
_POSITIONS = list(dict.fromkeys(_NODE_KEYS))
_NODE_POS = np.array([_POSITIONS.index(key) for key in _NODE_KEYS])
_NODE_SCALE = np.array([math.sqrt(_STEPS[k][1] / _STEPS[k][0]) for _, k in _NODES])
# _NODE_AT[m, k] is the index in _NODES of node m of step k, -1 where the
# step has none
_NODE_AT = np.full((4, len(_STEPS)), -1)
for _l, (_m, _k) in enumerate(_NODES):
    _NODE_AT[_m, _k] = _l
# layers of the DP stack: the curves at each position, one sum per step,
# and ones
_STACK = len(_POSITIONS) + len(_STEPS) + 1


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


# The Karcher stop rule of every registration: a mean stops once a sweep
# lowers its objective by at most KARCHER_TOL relative or raises it, or
# after KARCHER_SWEEPS sweeps.  Chosen over seeds 0-9 at n = 100 and 250,
# T=100 (BENCH_karcher_stop.json): later sweeps buy no accuracy in any
# registration estimator, and at 3 sweeps `frechet-fr` loses 10%.
KARCHER_SWEEPS = 4
KARCHER_TOL = 1e-3


@dataclass
class KarcherMeanResult:
    """``stop`` says why the sweeps ended: ``"tol"`` (a sweep lowered the
    objective by at most ``KARCHER_TOL`` relative), ``"rise"`` (a sweep
    raised it; the earlier, better iterate is kept) or ``"budget"`` (the
    sweeps ran out).  The mean converged only at the tolerance."""

    mean: Curve
    warps: np.ndarray  # read-only (n, T): row i warps curve i to the mean
    objective_trace: list
    mean_srsf: SrsfCurve
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop == "tol"


def _srsf_rows(fmat, grid: Grid) -> np.ndarray:
    """SRSF values of every row of ``fmat``: sign(f') sqrt(|f'|) of the
    unsmoothed second-order finite-difference derivative
    (``fdata._derivative_rows``)."""
    df = _derivative_rows(fmat, grid)
    return np.sign(df) * np.sqrt(np.abs(df))


def srsf_transform(f: Curve) -> SrsfCurve:
    """q(t) = sign(f'(t)) sqrt(|f'(t)|) of the unsmoothed finite-difference
    derivative, with origin f(0)."""
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
    # in place, so that a long x holds no more than three (n, m) arrays
    out = np.subtract(f_hi, f_lo, out=f_hi)
    out /= xp[inner + 1] - x_lo
    out *= x - x_lo
    out += f_lo
    np.copyto(out, fmat[:, :1], where=j < 0)
    np.copyto(out, fmat[:, -1:], where=j >= len(xp) - 1)
    return out


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
    """Where DP cell (i, j) finds the distance of step k's start cell.

    Entry [i, k, j] indexes the rows of a (3t + 1, n) ring that holds the
    distances of DP rows i - 1 to i - 3, DP row r at rows (r % 3) t to
    (r % 3 + 1) t.  A start cell off the lattice or outside its row's band
    maps to row 3t, which stays inf.
    """
    lo, hi = _band(t)
    r = np.arange(t)[:, None, None] - _DI[None, :, None]
    c = np.arange(t)[None, None, :] - _DJ[None, :, None]
    rr = np.maximum(r, 0)
    inside = (r >= 0) & (c >= lo[rr]) & (c < hi[rr])
    return _read_only(np.where(inside, r % 3 * t + c, 3 * t))


def _node_weights(h: float) -> np.ndarray:
    """The trapezoid weight of every node: half at a step's ends."""
    return np.where((_NODE_M == 0) | (_NODE_M == _NODE_DI), 0.5 * h, h)


def _node_tables(Q: np.ndarray, grid: Grid, penalty: float) -> np.ndarray:
    """The curves' side of the DP: a (_STACK, T, n) stack.

    Layer u < len(_POSITIONS) holds every curve at position u of each
    column: (q2 o pos) at pos = (j - dj + s m) h.  Node l of a step takes
    sqrt(s) times its position's layer.  Then come the steps' sums of
    w_m v_m^2 over their nodes v_m, in node order, with the step's slope
    penalty (none unless ``penalty`` is positive) added, and last a layer
    of ones.  The stack depends on the curves and the penalty only, so a
    Karcher mean builds it once.
    """
    t, n = len(grid), Q.shape[0]
    h = grid.spacing
    cols = np.arange(t, dtype=float)
    pos = np.concatenate([np.clip((cols - dj + sm) * h, 0.0, 1.0) for dj, sm in _POSITIONS])
    stack = np.empty((_STACK, t, n))
    values = _interp_rows(pos, grid.points, Q).reshape(n, len(_POSITIONS), t)
    stack[: len(_POSITIONS)] = values.transpose(1, 2, 0)
    weight = _node_weights(h)
    for k, (di, dj) in enumerate(_STEPS):
        total = stack[len(_POSITIONS) + k]
        for m, l in enumerate(_NODE_AT[: di + 1, k]):
            v = _NODE_SCALE[l] * stack[_NODE_POS[l]]
            term = weight[l] * v
            term *= v
            if m == 0:
                total[:] = term
            else:
                total += term
        if penalty > 0.0:
            total += penalty * (dj / di - 1.0) ** 2 * (di * h)
    stack[-1] = 1.0
    return stack


def _align_rows(q1: np.ndarray, Q: np.ndarray, grid: Grid, stack: np.ndarray):
    """``align_batch`` toward the SRSF values ``q1``, on the node stack that
    ``_node_tables`` built of ``Q``, step penalties included.

    Every step's cost into a cell is the expanded square
    sum_m w_m q1_m^2 - 2 sum_m w_m q1_m v_m + sum_m w_m v_m^2, so a DP row's
    costs are one product of its (7, _STACK) template coefficients with the
    row's band of the stack.  The DP's minimum, the distance at the last
    cell, is the chosen path's cost, and it alone decides the identity
    fallback.
    """
    n, t = Q.shape
    h = grid.spacing
    # node l of DP row i meets the template at row i - di + m
    q1n = q1[np.maximum(np.arange(t)[:, None] + _NODE_M - _NODE_DI, 0)]
    wq = _node_weights(h) * q1n
    # row i's coefficients: -2 w sqrt(s) q1 on each node's position, the
    # identity on the step sums and sum_m w q1^2, in node order, on the ones
    coef = np.zeros((t, len(_STEPS), _STACK))
    for k, di in enumerate(_DI):
        nodes = _NODE_AT[: di + 1, k]
        coef[:, k, _NODE_POS[nodes]] = -2.0 * _NODE_SCALE[nodes] * wq[:, nodes]
        for m, l in enumerate(nodes):
            sq = wq[:, l] * q1n[:, l]
            coef[:, k, -1] = sq if m == 0 else coef[:, k, -1] + sq
        coef[:, k, len(_POSITIONS) + k] = 1.0
    flat = stack.reshape(_STACK, t * n)
    # a tie goes to the step that comes first in _STEPS, as argmin picks it
    rank = (len(_STEPS) - np.arange(len(_STEPS), dtype=np.int8))[:, None, None]

    # Row i of the DP covers the band's columns [a, b) only.  Each step's
    # cost gains the distance of its start cell; the choice is the first step
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
        cost = (coef[i] @ flat[:, a * n : b * n]).reshape(len(_STEPS), b - a, n)
        cost += ring.take(starts[i, :, a:b], axis=0)
        best = cost.min(axis=0)
        choice[i, a:b] = len(_STEPS) - ((cost == best) * rank).max(axis=0)
        ring[i % 3 * t + a : i % 3 * t + b] = best

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
    # fall back to the identity whenever the DP's minimum, the penalized
    # cost of the chosen path, does not beat the identity path (whose cost
    # is pre^2 under the same quadrature), so a curve that no warp improves
    # keeps the identity.  Repeated registration is still no fixed point:
    # re-aligning warped curves to the same template moves most of them again
    keep = ((post > pre) | (ring[(t - 1) % 3 * t + t - 1] >= pre * pre - 1e-15))[:, None]
    return (
        np.where(keep, grid.points, gamma),
        np.where(keep, Q, warped),
        np.where(keep[:, 0], pre, post),
    )


def align_batch(template: SrsfCurve, Q, penalty: float = 0.0):
    """Optimal warping of every row of ``Q`` toward ``template``.

    ``Q`` is an (n, T) matrix of SRSF values on the template's grid.  A
    dynamic program over a monotone lattice of paths aligns the curves, one
    DP row at a time, over the band of cells that some path from (0, 0) to
    (T-1, T-1) can cross.  A path's cost is the trapezoidal integral of
    (q1 - (q2 o g) sqrt(g'))^2 along its linear warp segments, plus
    ``penalty`` (s - 1)^2 per unit of template time on a segment of slope s;
    a penalty that is not positive adds none, and one that is not finite
    raises ``ValueError``.

    Returns ``(gammas, aligned, distances)`` of shapes (n, T), (n, T) and
    (n,): the warps, the warped SRSFs and the post-alignment trapezoidal L2
    norms of the residuals.  Each curve falls back to the identity warp
    whenever the DP's minimum, its path's cost, does not beat the
    identity's, so row c is exactly what ``align_pair`` gives for ``Q[c]``
    alone.  The curves run in blocks of at most ``_DP_BLOCK``, one DP
    program each, as in a Karcher sweep.  The step costs are expanded
    squares summed by one BLAS product per DP row, so where several paths
    tie to rounding the choice among them can differ from a direct sum's.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != len(template.grid):
        raise ValueError("Q must hold one row of grid values per curve")
    if not np.all(np.isfinite(Q)):
        raise ValueError("srsf values must be finite")
    grid = template.grid
    return _align_blocks(template.values, _blocks(Q, grid, penalty), grid)


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
    ``WeightError`` unless there is one finite nonnegative weight per curve
    and their sum is positive."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,) or not np.all((w >= 0) & (w < np.inf)):
        raise WeightError("weights must be nonnegative and finite, one per curve")
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
    max_iter: int = KARCHER_SWEEPS,
    weights: Optional[np.ndarray] = None,
    penalty: float = 0.0,
) -> KarcherMeanResult:
    """Karcher mean under the elastic metric of the n >= 1 unsmoothed,
    finite rows of the (n, T) matrix ``fmat`` on ``grid``.

    Alternates (a) averaging of aligned SRSFs and (b) re-alignment of every
    curve to the current mean, for at most ``max_iter`` sweeps, until a
    sweep lowers the objective by at most ``KARCHER_TOL`` relative or
    raises it; ``stop`` says which.  A sweep that raises the objective is
    dropped, so the objective trace is non-increasing.  The curves are
    split into blocks of at most ``_DP_BLOCK`` (``_blocks``); each block's
    side of the DP (``_node_tables``) is built once, and each sweep aligns
    every block to the mean in one banded dynamic program, as
    ``align_batch`` does.  ``warps`` is one read-only (n, T) matrix.  Every
    registration runs its means through this function, one curve set per
    call.
    """
    # C order, so that the weighted sums do not depend on the caller's layout
    fmat = np.ascontiguousarray(fmat, dtype=float)
    if fmat.ndim != 2 or fmat.shape[1] != len(grid):
        raise ValueError("curves must be an (n, T) matrix, one value per grid point")
    if len(fmat) == 0:
        raise ValueError("need at least one curve")
    if not np.all(np.isfinite(fmat)):
        raise ValueError("curve values must be finite")
    w = _normalized_weights(len(fmat), weights)
    qmat = _srsf_rows(fmat, grid)
    origin = float(w @ fmat[:, 0].copy())  # contiguous: a strided w @ moves the last bit
    mean = w @ qmat
    trace = [_weighted_spread(mean, qmat, w, grid)]
    gmat = np.tile(grid.points, (len(qmat), 1))
    blocks = _blocks(qmat, grid, penalty)
    stop = "budget"
    for _ in range(max_iter):
        new_gmat, new_aligned, _ = _align_blocks(mean, blocks, grid)
        new_mean = w @ new_aligned
        obj = _weighted_spread(new_mean, new_aligned, w, grid)
        prev = trace[-1]
        if obj > prev:
            stop = "rise"
            break
        gmat, mean = new_gmat, new_mean
        trace.append(obj)
        if prev - obj <= KARCHER_TOL * max(prev, 1e-30):
            stop = "tol"
            break

    # centre the warps: compose them with the inverse of their average, so
    # the mean warp is the identity and the mean keeps the population phase
    gbar = w @ gmat
    if np.all(np.diff(gbar) > 0):
        gbar_inv = np.interp(grid.points, gbar, grid.points)
        gbar_inv[0], gbar_inv[-1] = 0.0, 1.0
        centered = _interp_rows(gbar_inv, grid.points, gmat)
        centered[:, 0], centered[:, -1] = 0.0, 1.0
        if np.all(np.diff(centered, axis=1) > 0):
            gmat = centered
            aligned = _interp_rows(gmat, grid.points, qmat) * np.sqrt(_warp_slopes(gmat, grid))
            mean = w @ aligned

    mean_srsf = SrsfCurve(grid, mean, origin=origin)
    return KarcherMeanResult(
        mean=srsf_inverse(mean_srsf),
        warps=_read_only(gmat),
        objective_trace=trace,
        mean_srsf=mean_srsf,
        stop=stop,
    )


# Curves per DP program.  A set of more curves is split into blocks of
# about equal size, each with its own contiguous node stack.  Measured with
# one BLAS thread at T=100 (2-vCPU Xeon VM, min of 7), one Karcher mean of
# 250 curves took 0.119 s in 3 blocks of 83-84 (96-112), 0.130 s in 4 of
# 62-63 (64-80), 0.136 s in 2 of 125 (128), 0.150 s in one (256) and 0.168 s
# in 8 of 31-32 (32); one of 100 curves took 0.051 s in one block (112)
# against 0.057 s in 2 of 50 (96).
_DP_BLOCK = 112


def _blocks(qmat: np.ndarray, grid: Grid, penalty: float) -> list:
    """The DP blocks of one curve set, each its curves and node stack: the
    set split into blocks of about equal size, at most ``_DP_BLOCK`` curves
    each.  A penalty that is not finite raises ``ValueError``."""
    if not math.isfinite(penalty):
        raise ValueError("penalty must be finite")
    n = len(qmat)
    count = -(-n // _DP_BLOCK)
    bounds = [n * b // count for b in range(count + 1)]
    return [
        (qmat[lo:hi], _node_tables(qmat[lo:hi], grid, penalty))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _align_blocks(q1: np.ndarray, blocks: list, grid: Grid):
    """``_align_rows`` of every block of ``_blocks`` toward the SRSF values
    ``q1``: the warps, aligned SRSFs and distances of all curves, in order."""
    pieces = [_align_rows(q1, Q, grid, stack) for Q, stack in blocks]
    return tuple(np.concatenate(p) for p in zip(*pieces))


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
