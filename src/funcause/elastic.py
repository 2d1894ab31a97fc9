"""Elastic registration of curves via square-root slope functions.

Provides the SRSF transform and its inverse, the warping group action,
dynamic-programming alignment of a batch of curves to one template (a pair
is the batch of one), Karcher means under the elastic metric, and the two
Fisher-Rao distances (SRSF-embedding form for general curves, spherical
arccos form for density-like vectors).

The DP visits only the band of lattice cells that a path of slopes in
[1/3, 3] from corner to corner can cross, which gives the same result as
the full lattice.  A Karcher mean takes its curves as one (n, T) matrix
and returns their warps as one, and the whole sweep (DP, backtrack, warp
read-off, norms, centring) works on (n, T) matrices, with no per-curve
objects.  Karcher means that run together on one grid (``_karcher_means``)
align their curves in cache-sized blocks of at most ``_DP_BLOCK`` curves,
one DP program per block.  Small sets share their sweeps: each sweep aligns
the curves of every one of them that is still registering in one block,
each curve toward its own set's mean.  A large set runs alone, split into
blocks.  A block's side of the DP is built once, and again only when a set
that shares it stops.  Every registration stops its Karcher means by the
one rule of ``KARCHER_SWEEPS`` and ``KARCHER_TOL``, and each result says
why it stopped.
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
    # a layer's curves sit at node positions (dj, s m); each distinct one is
    # a run of t columns of a single interpolation of every curve
    layers = [(_STEPS[k][1], _STEPS[k][1] / _STEPS[k][0], m) for m, k in _NODES]
    keys = list(dict.fromkeys((dj, s * m) for dj, s, m in layers))
    pos = np.concatenate([np.clip((cols - dj + sm) * h, 0.0, 1.0) for dj, sm in keys])
    values = _interp_rows(pos, grid.points, Q)
    stack = np.empty((len(_NODES), t, n))
    for layer, (dj, s, m) in enumerate(layers):
        r = keys.index((dj, s * m))
        stack[layer] = (math.sqrt(s) * values[:, r * t : (r + 1) * t]).T
    return stack


def _align_rows(q1: np.ndarray, Q: np.ndarray, grid: Grid, stack: np.ndarray, penalty):
    """``align_batch`` toward the SRSF values ``q1``, on ``Q``'s node stack.

    ``q1`` is one template of shape (T,) with a scalar ``penalty``, or one
    template per curve, (n, T), with an (n,) array of penalties.  Every
    step of the DP is taken for each curve on its own, so row c is the same
    either way.
    """
    n, t = Q.shape
    h = grid.spacing
    node_m = np.array([m for m, _ in _NODES])
    node_di = _DI[[k for _, k in _NODES]]
    weight = np.where((node_m == 0) | (node_m == node_di), 0.5 * h, h)[:, None, None]
    # the template's row at every node of every DP row, gathered row by row,
    # since templates per curve for all rows at once take as much as the stack
    node_rows = np.maximum(np.arange(t)[:, None] + node_m - node_di, 0)
    q1_cols = np.atleast_2d(q1).T
    layers = np.cumsum([0] + [len(_STEPS) - first for first in _FIRST]).tolist()
    # a penalty that is not positive is no penalty
    penalty = np.where(np.atleast_1d(penalty) > 0.0, penalty, 0.0)
    step_penalty = np.array(
        [penalty * (dj / di - 1.0) ** 2 * (di * h) for di, dj in (_STEPS[k] for k in _BY_RISE)]
    )[:, None, :]
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
        q1_nodes = q1_cols.take(node_rows[i], axis=0)[:, None, :]
        for m, (first, l0, l1) in enumerate(zip(_FIRST, layers, layers[1:])):
            diff = q1_nodes[l0:l1] - stack[l0:l1, a:b]
            term = weight[l0:l1] * diff
            term *= diff
            if m == 0:
                cost = term
            else:
                cost[first:] += term
        # a zero penalty leaves a curve's costs (all >= +0) as they are
        if penalty.any():
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
    # quadrature), so a curve that no warp improves keeps the identity.
    # Repeated registration is still no fixed point: re-aligning warped
    # curves to the same template moves most of them again
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
    ``align_pair`` gives for ``Q[c]`` alone.  All n curves run as one
    program; a Karcher sweep instead splits its curves into blocks of at
    most ``_DP_BLOCK``, which may mix sets with different templates.
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
    dropped, so the objective trace is non-increasing.  The
    curves' side of the DP (``_node_tables``) is built once; each sweep then
    aligns all curves to the mean in banded dynamic programs of at most
    ``_DP_BLOCK`` curves each, as ``align_batch`` does.  ``warps`` is one
    read-only (n, T) matrix.  This is the one-set case of
    ``_karcher_means``, through which the registrations run the means of
    several curve sets on one grid, small sets in shared sweeps, with the
    same result for each set.
    """
    return _karcher_means([(fmat, weights, penalty)], grid, max_iter)[0]


# Curves per DP program.  A set of more curves is split into blocks of
# about equal size, each with its own contiguous node stack.  Measured with
# one BLAS thread at T=100 (2-vCPU Xeon VM), a sweep took 0.27 ms per curve
# in programs of 96-128 curves, 0.28 ms at 64 and at 160-192, 0.30 ms at 256
# and 0.34 ms at 384.
_DP_BLOCK = 128


@dataclass(eq=False)
class _Chain:
    """The Karcher iterate of one curve set."""

    qmat: np.ndarray
    w: np.ndarray
    penalty: float
    origin: float  # the weighted mean of the curves' values at 0
    mean: np.ndarray
    gmat: np.ndarray
    trace: list
    stop: Optional[str] = None  # KarcherMeanResult.stop, once the sweeps end


def _checked_curves(fmat, grid: Grid) -> np.ndarray:
    # C order, so that the weighted sums do not depend on the caller's layout
    fmat = np.ascontiguousarray(fmat, dtype=float)
    if fmat.ndim != 2 or fmat.shape[1] != len(grid):
        raise ValueError("curves must be an (n, T) matrix, one value per grid point")
    if len(fmat) == 0:
        raise ValueError("need at least one curve")
    if not np.all(np.isfinite(fmat)):
        raise ValueError("curve values must be finite")
    return fmat


def _groups(chains: list) -> list:
    """The sets whose Karcher loops run together: consecutive sets of at
    most ``_DP_BLOCK // 2`` curves in all, which share one DP block with a
    template per curve; every other set runs alone.

    A template per curve slows each DP row's template side.  Measured per
    sweep: two sets of 20 curves took 6.0 ms in one block against 8.0 ms in
    two at T=50, and 20.9 against 26.6 ms at T=100; two sets of 64 took
    54.1 ms in one block against 42.2 ms in two at T=100.  A set that runs
    alone runs all its sweeps before the next set starts, as separate
    ``karcher_mean`` calls would.
    """
    groups = []
    for c in chains:
        if groups and sum(len(g.qmat) for g in groups[-1]) + len(c.qmat) <= _DP_BLOCK // 2:
            groups[-1].append(c)
        else:
            groups.append([c])
    return groups


def _blocks(group: list, grid: Grid) -> list:
    """The DP blocks of one sweep over the live sets of a group: per block
    its segments (chain, lo, hi), curves, node stack and penalty (one per
    curve when the block holds more than one set).  The sets of a group
    share one block; a set alone is split into blocks of about equal size,
    at most ``_DP_BLOCK`` curves each.
    """
    if len(group) > 1:
        Q = np.concatenate([c.qmat for c in group])
        penalty = np.concatenate([np.full(len(c.qmat), c.penalty) for c in group])
        return [([(c, 0, len(c.qmat)) for c in group], Q, _node_tables(Q, grid), penalty)]
    (c,) = group
    n = len(c.qmat)
    count = -(-n // _DP_BLOCK)
    bounds = [n * b // count for b in range(count + 1)]
    return [
        ([(c, lo, hi)], c.qmat[lo:hi], _node_tables(c.qmat[lo:hi], grid), c.penalty)
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _karcher_means(sets, grid: Grid, max_iter: int = KARCHER_SWEEPS) -> list:
    """``karcher_mean`` of every ``(fmat, weights, penalty)`` set on ``grid``.

    The sets of each of ``_groups`` run their Karcher loops together: each
    sweep aligns the curves of every set of the group that has not yet
    stopped in one pass over ``_blocks``, one banded DP per block, each
    curve toward its own set's mean with its set's penalty.  Every DP step
    is taken per curve, and each set keeps its own weights, objective trace
    and stop rule, so set s gives exactly what ``karcher_mean``
    gives for it alone.  Every set is checked before any work starts; a
    group's blocks are packed again, node stacks and all, only when one of
    its sets stops.
    """
    t = len(grid)
    checked = []
    for fmat, weights, penalty in sets:
        fmat = _checked_curves(fmat, grid)
        checked.append((fmat, _normalized_weights(len(fmat), weights), penalty))

    chains = []
    for fmat, w, penalty in checked:
        qmat = _srsf_rows(fmat, grid)
        origin = float(w @ fmat[:, 0].copy())  # contiguous: a strided w @ moves the last bit
        mean = w @ qmat
        trace = [_weighted_spread(mean, qmat, w, grid)]
        gmat = np.tile(grid.points, (len(qmat), 1))
        chains.append(_Chain(qmat, w, penalty, origin, mean, gmat, trace))

    for live in _groups(chains):
        blocks = None
        for _ in range(max_iter):
            if blocks is None:
                blocks = _blocks(live, grid)
            pieces = {c: ([], []) for c in live}
            for segs, Q, stack, penalty in blocks:
                if len(segs) == 1:
                    template = segs[0][0].mean
                else:
                    template = np.concatenate(
                        [np.broadcast_to(c.mean, (hi - lo, t)) for c, lo, hi in segs]
                    )
                gammas, aligned, _ = _align_rows(template, Q, grid, stack, penalty)
                r = 0
                for c, lo, hi in segs:
                    pieces[c][0].append(gammas[r : r + hi - lo])
                    pieces[c][1].append(aligned[r : r + hi - lo])
                    r += hi - lo
            for c in live:
                new_gmat, new_aligned = (
                    p[0] if len(p) == 1 else np.concatenate(p) for p in pieces[c]
                )
                new_mean = c.w @ new_aligned
                obj = _weighted_spread(new_mean, new_aligned, c.w, grid)
                prev = c.trace[-1]
                if obj > prev:
                    c.stop = "rise"
                    continue
                c.gmat, c.mean = new_gmat, new_mean
                c.trace.append(obj)
                if prev - obj <= KARCHER_TOL * max(prev, 1e-30):
                    c.stop = "tol"
            if any(c.stop for c in live):
                live, blocks = [c for c in live if not c.stop], None
                if not live:
                    break
        for c in live:
            c.stop = "budget"

    return [_result(c, grid) for c in chains]


def _result(c: _Chain, grid: Grid) -> KarcherMeanResult:
    """The chain's mean and its centred warps: composed with the inverse of
    their average, so the mean warp is the identity and the mean keeps the
    population phase."""
    gmat, mean_vals, w = c.gmat, c.mean, c.w
    gbar = w @ gmat
    if np.all(np.diff(gbar) > 0):
        gbar_inv = np.interp(grid.points, gbar, grid.points)
        gbar_inv[0], gbar_inv[-1] = 0.0, 1.0
        centered = _interp_rows(gbar_inv, grid.points, gmat)
        centered[:, 0], centered[:, -1] = 0.0, 1.0
        if np.all(np.diff(centered, axis=1) > 0):
            gmat = centered
            aligned = _interp_rows(gmat, grid.points, c.qmat) * np.sqrt(_warp_slopes(gmat, grid))
            mean_vals = w @ aligned

    mean_srsf = SrsfCurve(grid, mean_vals, origin=c.origin)
    return KarcherMeanResult(
        mean=srsf_inverse(mean_srsf),
        warps=_read_only(gmat),
        objective_trace=c.trace,
        mean_srsf=mean_srsf,
        stop=c.stop,
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
