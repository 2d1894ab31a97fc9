"""Asymptotic confidence intervals for functional treatment effects.

The scaled effect estimator converges to a Gaussian process with covariance
kernel K = lim n (S1 / n1 + S0 / n0).  When the true effect has nonzero
norm the norm estimate is asymptotically normal with a delta-method
variance; when the effect is exactly zero the limit is the norm of the
Gaussian process itself.  Its square is the weighted chi-square
sum_k lambda_k Z_k^2 over the eigenvalues lambda_k of the estimated kernel,
whose exact quantiles come from numerical inversion of the Laplace
transform of its CDF (Imhof, Biometrika 1961; Abate & Whitt, ORSA J.
Computing 1995), solved for by Chandrupatla's bracketing root finder
(Adv. Eng. Software 1997) between a chi-square lower end and Cantelli's
upper bound.  The intervals need no scipy: the normal quantile is the
standard library's ``statistics.NormalDist``, imported on first use.
Also provides a Welch two-sample t-test for comparing benchmark error
samples, which imports scipy on its first call.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArmEmptyError, NumericalError
from .fdata import Curve, Dataset

__all__ = [
    "Regime",
    "EffectCI",
    "TTestResult",
    "check_ci",
    "effect_ci",
    "pointwise_ci",
    "welch_t_test",
]

EIGENVALUE_FLOOR = 1e-12
# Abate-Whitt EULER inversion: A sets the discretization error of the
# Bromwich integral (about exp(-A) = 1e-8 for a CDF), and the partial sums
# s_n .. s_{n+m} of the alternating series are averaged with binomial
# weights (Euler summation).  n grows with the number of eigenvalues r:
# 15 terms fail at r >= 400.
_EULER_A = 18.4
_EULER_M = 11
_EULER_WEIGHTS = np.array([math.comb(_EULER_M, k) for k in range(_EULER_M + 1)]) / 2.0**_EULER_M
# The inverted CDF overshoots by up to about exp(-A) = 1e-8.  Each quantile
# bracket is widened by half this bound in probability, which keeps the
# root inside it despite that error, so an interval's tail probability
# (1 - level) / 2 must be at least this bound.
_MIN_TAIL = 1e-7
# quantile root finder: the tolerances and step cap of scipy.optimize.brentq
_XTOL = 2e-12
_RTOL = 4.0 * np.finfo(float).eps
_MAX_ITER = 100


class Regime(enum.Enum):
    NONZERO_NORM = "nonzero_norm"
    ZERO_NORM = "zero_norm"


@dataclass
class EffectCI:
    estimate: float
    lower: float
    upper: float
    level: float
    regime: Regime
    pointwise: Optional[np.ndarray] = None  # T x 2 lower/upper bands


@dataclass
class TTestResult:
    statistic: float
    p_value: float
    dof: float


def check_ci(ds: Dataset, level: float):
    """Raise unless ``effect_ci`` can serve ``ds`` at ``level``: binary
    treatments, at least 2 units in each arm, 0 < level < 1, and a tail
    (1 - level) / 2 of at least ``_MIN_TAIL``, which the weighted chi-square
    quantiles need.  Returns the (treated, control) unit indices."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    if (1.0 - level) / 2.0 < _MIN_TAIL:
        raise ValueError(f"level must leave a tail (1 - level) / 2 of at least {_MIN_TAIL:g}")
    if not ds.is_binary():
        raise ValueError("covariance kernel needs binary treatments")
    i1, i0 = ds.arm_indices(1.0), ds.arm_indices(0.0)
    if i1.size < 2 or i0.size < 2:
        raise ArmEmptyError("each arm needs at least 2 samples for a covariance")
    return i1, i0


def _norm_quantile(p: float) -> float:
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


def _weighted_chi2_cdf(x: float, evals: np.ndarray) -> float:
    """P(sum_k evals[k] Z_k^2 <= x) for x > 0, by Abate-Whitt EULER
    inversion of its Laplace transform prod_k (1 + 2 evals[k] s)^(-1/2) / s."""
    n_terms = 15 + 2 * math.ceil(math.sqrt(evals.size))
    k = np.arange(n_terms + _EULER_M + 1)
    s = (_EULER_A + 2j * math.pi * k) / (2.0 * x)
    # each factor has positive real part, so the principal logs add up
    transform = np.exp(-0.5 * np.log(1.0 + 2.0 * np.outer(s, evals)).sum(axis=1)) / s
    terms = np.where(k % 2 == 0, 1.0, -1.0) * transform.real
    terms[0] /= 2.0
    partial = np.cumsum(terms)[n_terms:]
    return math.exp(_EULER_A / 2.0) / x * float(_EULER_WEIGHTS @ partial)


def _quantile_bracket(p: float, scaled: np.ndarray):
    """Ends (lo, hi) of a bracket around the p-quantile of
    sum_k scaled[k] Z_k^2, where max(scaled) = 1.

    The sum is at least Z_1^2, so the chi-square(1) quantile, the square of
    a normal quantile, lies below the root; it is attained at r = 1.
    Cantelli's inequality puts mu + sigma sqrt(p / (1 - p)) above it, with
    mu = sum_k scaled[k] and sigma^2 = 2 sum_k scaled[k]^2.  Both ends are
    taken at p moved outward by ``_MIN_TAIL / 2``, more than the inverted
    CDF's error, so that its values there still straddle p."""
    widen = _MIN_TAIL / 2.0
    lo = _norm_quantile(0.5 + (p - widen) / 2.0) ** 2
    hi_p = p + widen
    hi = float(scaled.sum()) + math.sqrt(2.0 * float(scaled @ scaled) * hi_p / (1.0 - hi_p))
    return lo, hi


def _find_root(f, a: float, b: float) -> float:
    """A root of ``f`` in [a, b] by Chandrupatla's method: inverse quadratic
    interpolation, or bisection where the interpolant is not trusted.  It
    stops when the bracket is narrower than ``_XTOL min(1, |x|) + _RTOL |x|``:
    brentq's default tolerance for roots above 1, and the same figure
    relative below, so that small quantiles keep their digits."""
    fa, fb = f(a), f(b)
    if fa * fb > 0.0:
        raise NumericalError("quantile bracket does not contain the root")
    c, fc, t = a, fa, 0.5
    for _ in range(_MAX_ITER):
        xt = a + t * (b - a)
        ft = f(xt)
        if (ft > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = xt, ft
        xm, fm = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        tol = _XTOL * min(1.0, abs(xm)) + _RTOL * abs(xm)
        if abs(b - a) < tol or fm == 0.0:
            return xm
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        if phi**2 < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        else:
            t = 0.5
        tl = 0.5 * tol / abs(b - a)
        t = min(1.0 - tl, max(tl, t))
    raise NumericalError(f"quantile root finder did not converge in {_MAX_ITER} steps")


def _weighted_chi2_quantile(p: float, evals: np.ndarray) -> float:
    """The p-quantile of sum_k evals[k] Z_k^2 for positive ``evals`` and
    ``_MIN_TAIL`` <= p <= 1 - ``_MIN_TAIL``.

    Works on evals / max(evals), so that the largest weight is 1.  The
    root of the inverted CDF minus p lies between the chi-square(1)
    quantile and Cantelli's bound (``_quantile_bracket``), and Chandrupatla's
    method finds it there (``_find_root``); it is then scaled back.
    """
    lam_max = float(evals.max())
    scaled = evals / lam_max
    lo, hi = _quantile_bracket(p, scaled)
    return lam_max * _find_root(lambda x: _weighted_chi2_cdf(x, scaled) - p, lo, hi)


def effect_ci(ds: Dataset, delta_hat: Curve, level: float = 0.95) -> EffectCI:
    """Confidence interval for the norm of the effect curve.

    Splits on the estimated norm: above the threshold 2 sqrt(tr K) / sqrt(n)
    the delta-method normal interval applies; below it the interval comes
    from the exact quantiles of the limiting norm, the square root of the
    weighted chi-square sum_k lambda_k Z_k^2 / n over the eigenvalues of K
    (floored at ``EIGENVALUE_FLOOR``).  ``delta_hat`` must lie on the
    dataset's outcome grid.  Deterministic: nothing is drawn at random.
    """
    i1, i0 = check_ci(ds, level)
    if delta_hat.grid != ds.outcome_grid:
        raise ValueError("delta_hat must lie on the dataset's outcome grid")
    n, y = len(ds), ds.outcome_matrix
    # K-hat = n (S1 / n1 + S0 / n0) from the per-arm sample covariances
    k_hat = n * (np.cov(y[i1], rowvar=False) / i1.size + np.cov(y[i0], rowvar=False) / i0.size)
    d = np.asarray(delta_hat.values, dtype=float)
    norm = float(np.linalg.norm(d))
    threshold = 2.0 * math.sqrt(max(np.trace(k_hat), 0.0)) / math.sqrt(n)

    if norm > threshold:
        sigma2 = float(d @ k_hat @ d) / max(norm**2, EIGENVALUE_FLOOR)
        sigma2 = max(sigma2, 0.0)
        z = _norm_quantile(0.5 + level / 2.0)
        half = z * math.sqrt(sigma2) / math.sqrt(n)
        lower, upper = norm - half, norm + half
        regime = Regime.NONZERO_NORM
    else:
        evals = np.linalg.eigvalsh(k_hat)
        evals = np.clip(evals, EIGENVALUE_FLOOR, None)
        alpha = 1.0 - level
        lower = math.sqrt(_weighted_chi2_quantile(alpha / 2.0, evals) / n)
        upper = math.sqrt(_weighted_chi2_quantile(1.0 - alpha / 2.0, evals) / n)
        regime = Regime.ZERO_NORM

    bands = pointwise_ci(delta_hat, np.diag(k_hat), level, n)
    return EffectCI(
        estimate=norm,
        lower=max(lower, 0.0),
        upper=upper,
        level=level,
        regime=regime,
        pointwise=bands,
    )


def pointwise_ci(delta_hat: Curve, k_diag: np.ndarray, level: float, n: int) -> np.ndarray:
    """Per-grid-point normal bands delta(t) +- z sqrt(K(t, t) / n)."""
    z = _norm_quantile(0.5 + level / 2.0)
    half = z * np.sqrt(np.clip(np.asarray(k_diag, dtype=float), 0.0, None) / n)
    d = np.asarray(delta_hat.values, dtype=float)
    return np.column_stack([d - half, d + half])


def welch_t_test(a, b) -> TTestResult:
    """Welch's unequal-variance two-sample t-test (two-sided)."""
    from scipy import special

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least 2 observations")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    sa, sb = va / a.size, vb / b.size
    se2 = sa + sb
    diff = a.mean() - b.mean()
    if se2 == 0.0:
        # identical constant samples: no evidence either way
        return TTestResult(statistic=0.0, p_value=1.0, dof=float(a.size + b.size - 2))
    t = diff / math.sqrt(se2)
    dof = se2**2 / (sa**2 / (a.size - 1) + sb**2 / (b.size - 1))
    p = 2.0 * special.stdtr(dof, -abs(t))
    return TTestResult(statistic=float(t), p_value=float(p), dof=float(dof))
