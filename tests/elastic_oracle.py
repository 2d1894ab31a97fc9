"""A plain per-pair elastic DP over the full lattice: the reference oracle
that the alignment tests hold ``align_batch`` against.

No band, no batching, no node tables: every cell of the T x T lattice is
visited in row order and every step is costed on the spot, in direct form:
each node term w (q1 - v)^2, summed in node order.  The library sums the
same costs as expanded squares in one BLAS product per DP row, so its
totals round otherwise.  Where one path is best by more than rounding the
two choose the same path and agree bit for bit; where several paths tie
to rounding (as on a stretch where a curve is zero) they may choose
different ones, which ``path_cost`` shows to cost the same.  The library
decides the identity fallback on its DP's minimum, an expanded total, and
the oracle on its direct total; the two differ by rounding only, and no
tested input puts the identity's cost between them, so distances agree bit
for bit.
"""
import math

import numpy as np

from funcause import grid_norm
from funcause.elastic import _STEPS


def step_cost(q1, q2, grid, i, j, di, dj, penalty):
    """Cost of the step from (i - di, j - dj) to (i, j): the trapezoidal
    integral of (q1 - (q2 o g) sqrt(g'))^2 over its di + 1 nodes, summed in
    node order, plus the slope penalty."""
    h = grid.spacing
    s = dj / di
    cost = 0.0
    for m in range(di + 1):
        pos = min(max((j - dj + s * m) * h, 0.0), 1.0)
        diff = q1[i - di + m] - math.sqrt(s) * float(np.interp(pos, grid.points, q2))
        weight = 0.5 * h if m in (0, di) else h
        term = weight * diff * diff
        cost = term if m == 0 else cost + term
    if penalty > 0.0:
        cost += penalty * (dj / di - 1.0) ** 2 * (di * h)
    return cost


def path_cost(q1, q2, grid, gamma, penalty=0.0):
    """Direct cost of the lattice path that the warp ``gamma`` follows: its
    steps' costs summed in row order, as ``align_oracle`` sums a path's
    total.  Every lattice point on a path is one of its nodes, since no step
    passes through another, so the nodes are the rows where ``gamma`` sits
    on a grid column."""
    cols = np.asarray(gamma) * (len(grid) - 1)
    nodes = [(r, round(c)) for r, c in enumerate(cols) if abs(c - round(c)) < 1e-6]
    total = 0.0
    for (ia, ja), (ib, jb) in zip(nodes, nodes[1:]):
        assert (ib - ia, jb - ja) in _STEPS
        total += step_cost(q1, q2, grid, ib, jb, ib - ia, jb - ja, penalty)
    return total


def align_oracle(q1, q2, grid, penalty=0.0):
    """``(gamma, aligned, distance)`` for one pair of SRSF value arrays.

    The choice at a cell is the first step in ``_STEPS`` order with the
    least total; the warp is read off the backtracked node path, and the
    identity wins whenever alignment would not improve on it.
    """
    t = len(grid)
    h = grid.spacing
    total = [[math.inf] * t for _ in range(t)]
    choice = [[0] * t for _ in range(t)]
    total[0][0] = 0.0
    for i in range(1, t):
        for j in range(t):
            for k, (di, dj) in enumerate(_STEPS):
                if i < di or j < dj:
                    continue
                cand = total[i - di][j - dj] + step_cost(q1, q2, grid, i, j, di, dj, penalty)
                if cand < total[i][j]:
                    total[i][j], choice[i][j] = cand, k

    nodes = [(t - 1, t - 1)]
    while nodes[-1][0] > 0:
        i, j = nodes[-1]
        di, dj = _STEPS[choice[i][j]]
        nodes.append((i - di, j - dj))
    nodes.reverse()

    gamma, warped = np.empty(t), np.empty(t)
    for (ia, ja), (ib, jb) in zip(nodes, nodes[1:]):
        s = (jb - ja) / (ib - ia)
        # a segment covers the rows from its start up to its end, exclusive,
        # except that the last one also covers the last row
        for r in range(ia, ib + 1 if ib == t - 1 else ib):
            gamma[r] = (ja + s * (r - ia)) * h
            warped[r] = math.sqrt(s) * float(np.interp(gamma[r], grid.points, q2))
    gamma[0], gamma[-1] = 0.0, 1.0

    pre = grid_norm(q1 - q2, grid)
    post = grid_norm(q1 - warped, grid)
    if post > pre or total[t - 1][t - 1] >= pre**2 - 1e-15:
        return grid.points.copy(), np.array(q2, dtype=float), pre
    return gamma, warped, post
