"""Machine-speed reference for the benchmark's times.

On a shared host the same code runs up to 1.8x slower from one second to
the next, and whole minutes can be slow, so a raw time says as much about
the other tenants as about funcause.  A run therefore times a fixed
reference loop, which shares no code with funcause, around every job and
set-up, and reports their times scaled to a machine on which one reference
sweep takes ``REF_MS``: time * REF_MS / (mean sweep time around the step).
Program changes move the scaled time as they move the raw one;
machine-speed swings cancel, as far as they slow the step and the sweeps
alike.
"""
from __future__ import annotations

import time

import numpy as np

# About the sweep's median on a 2-vCPU Xeon VM at 2.0 GHz under typical
# load, so scaled times read close to raw ones there.
REF_MS = 3.0
SWEEPS = 12  # sweeps per probe, about 40 ms

_T = 48
_STEPS = ((1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1))
_COSTS = np.random.default_rng(20250305).random((len(_STEPS), _T, _T))


def _sweep():
    """One min-plus sweep over a T x T lattice with seven step shapes: a
    Python loop over rows of small numpy operations, the style of the
    program's hot loops."""
    dist = np.full((_T, _T), np.inf)
    dist[0, 0] = 0.0
    for i in range(1, _T):
        for k, (di, dj) in enumerate(_STEPS):
            if i < di:
                continue
            cand = dist[i - di, : _T - dj] + _COSTS[k, i, dj:]
            better = cand < dist[i, dj:]
            if np.any(better):
                np.copyto(dist[i, dj:], cand, where=better)
    return dist


def probe() -> float:
    """Mean seconds per reference sweep over ``SWEEPS`` sweeps."""
    t0 = time.perf_counter()
    for _ in range(SWEEPS):
        _sweep()
    return (time.perf_counter() - t0) / SWEEPS


def scale(seconds: float, sweep_s: float) -> float:
    """``seconds`` measured while a sweep took ``sweep_s``, scaled to REF_MS."""
    return seconds * REF_MS / (1e3 * sweep_s)
