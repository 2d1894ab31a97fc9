"""Entry-by-entry kernels and a PSD check: reference oracles that the
kernel tests hold ``cross_gram`` and the Gram matrices against."""
import math

import numpy as np

from funcause import fr_distance_srsf

# eigenvalues down to -PSD_REL_TOL * max(1, largest eigenvalue) count as zero
PSD_REL_TOL = 1e-8


def is_psd(gram) -> bool:
    """Whether a ``GramMatrix`` is positive semidefinite up to PSD_REL_TOL."""
    eigs = np.linalg.eigvalsh(gram.entries)
    return eigs[0] >= -PSD_REL_TOL * max(1.0, eigs[-1])


def se_kernel(a, b, lengthscale: float) -> float:
    """Squared exponential kernel exp(-||a - b||^2 / (2 l^2))."""
    if lengthscale <= 0:
        raise ValueError("lengthscale must be positive")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("inputs must have equal dimension")
    d2 = float(np.sum((a - b) ** 2))
    return math.exp(-d2 / (2.0 * lengthscale**2))


def binary_kernel(x, y) -> float:
    """Indicator kernel: 1 when the treatments match."""
    return 1.0 if x == y else 0.0


def fr_kernel(f, g, zeta: float) -> float:
    """Gaussian kernel on curves through the Fisher-Rao distance."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    return math.exp(-zeta * fr_distance_srsf(f, g) ** 2)
