"""A plain per-pair elastic DP over the full lattice: the reference oracle
that the alignment tests hold ``align_batch`` against.

No band, no batching, no node tables: every cell of the T x T lattice is
visited in row order and every step is costed on the spot, with the same
floating-point operations in the same order as the library, so the two
must agree bit for bit.
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
