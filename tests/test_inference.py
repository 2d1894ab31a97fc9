"""Tests for effect confidence intervals and the Welch t-test."""
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from funcause import (
    ArmEmptyError,
    Curve,
    Dataset,
    EffectCI,
    Grid,
    NumericalError,
    Regime,
    effect_ci,
    pointwise_ci,
    welch_t_test,
)
from funcause import inference
from funcause.inference import (
    _MIN_TAIL,
    EIGENVALUE_FLOOR,
    _norm_quantile,
    _quantile_bracket,
    _weighted_chi2_cdf,
    _weighted_chi2_quantile,
    check_ci,
)


def gaussian_ds(n=80, t=6, delta=None, seed=0):
    rng = np.random.default_rng(seed)
    grid = Grid.uniform(t)
    d = np.zeros(t) if delta is None else np.asarray(delta, dtype=float)
    x = (rng.uniform(size=n) < 0.5).astype(float)
    x[:4] = [0, 0, 1, 1]
    y = x[:, None] * d + rng.standard_normal((n, t))
    return Dataset([f"s{i}" for i in range(n)], x, np.zeros((n, 0)), grid, y), x


def delta_hat(ds, x):
    y = ds.outcome_matrix
    return Curve(ds.outcome_grid, y[x == 1].mean(axis=0) - y[x == 0].mean(axis=0))


class TestEffectCi:
    def test_nonzero_regime_contains_estimate(self):
        ds, x = gaussian_ds(delta=np.full(6, 2.0), seed=1)
        ci = effect_ci(ds, delta_hat(ds, x))
        assert ci.regime is Regime.NONZERO_NORM
        assert ci.lower <= ci.estimate <= ci.upper

    def test_zero_regime_on_null(self):
        ds, x = gaussian_ds(seed=2)
        ci = effect_ci(ds, delta_hat(ds, x))
        assert ci.regime is Regime.ZERO_NORM
        assert 0.0 <= ci.lower <= ci.upper

    def test_zero_regime_reproducible(self):
        ds, x = gaussian_ds(seed=3)
        d = delta_hat(ds, x)
        c1 = effect_ci(ds, d)
        c2 = effect_ci(ds, d)
        assert (c1.lower, c1.upper) == (c2.lower, c2.upper)

    def test_zero_regime_monotone_in_level(self):
        ds, x = gaussian_ds(seed=4)
        d = delta_hat(ds, x)
        narrow = effect_ci(ds, d, level=0.8)
        wide = effect_ci(ds, d, level=0.99)
        assert wide.upper >= narrow.upper
        assert wide.lower <= narrow.lower

    def test_lower_clamped_nonnegative(self):
        ds, x = gaussian_ds(seed=5)
        ci = effect_ci(ds, delta_hat(ds, x))
        assert ci.lower >= 0.0

    def test_pointwise_bands_attached(self):
        ds, x = gaussian_ds(delta=np.full(6, 1.0), seed=6)
        ci = effect_ci(ds, delta_hat(ds, x))
        assert ci.pointwise is not None
        assert ci.pointwise.shape == (6, 2)
        assert np.all(ci.pointwise[:, 0] <= ci.pointwise[:, 1])

    def test_sigma_invariant_to_within_arm_permutation(self):
        ds, x = gaussian_ds(delta=np.full(6, 2.0), seed=7)
        d = delta_hat(ds, x)
        rng = np.random.default_rng(0)
        i1, i0 = np.flatnonzero(x == 1), np.flatnonzero(x == 0)
        order = np.concatenate([rng.permutation(i1), rng.permutation(i0)])
        ds_perm = ds.take(order)
        c1 = effect_ci(ds, d)
        c2 = effect_ci(ds_perm, d)
        assert c1.lower == pytest.approx(c2.lower, abs=1e-10)
        assert c1.upper == pytest.approx(c2.upper, abs=1e-10)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
    def test_bad_level_rejected(self, level):
        ds, x = gaussian_ds()
        with pytest.raises(ValueError, match=r"level must be in \(0, 1\)"):
            effect_ci(ds, delta_hat(ds, x), level=level)

    @pytest.mark.parametrize("delta", [0.0, 2.0], ids=["zero-norm", "nonzero-norm"])
    @pytest.mark.parametrize("level", [1.0 - 1.99e-7, 0.99999999, 0.9999999999999999])
    def test_level_with_too_small_a_tail_rejected(self, level, delta):
        ds, x = gaussian_ds(delta=np.full(6, delta))
        with pytest.raises(ValueError, match=r"tail \(1 - level\) / 2 of at least 1e-07"):
            effect_ci(ds, delta_hat(ds, x), level=level)

    def test_delta_off_the_outcome_grid_rejected(self):
        ds, x = gaussian_ds()
        for grid in (Grid.uniform(5), Grid.uniform(7)):
            with pytest.raises(ValueError, match="outcome grid"):
                effect_ci(ds, Curve(grid, np.zeros(len(grid))))

    def test_zero_regime_memory_bounded(self):
        # T=400: a table of draws of the limiting norm took over 600 MB here
        ds, x = gaussian_ds(n=400, t=400, seed=8)
        d = delta_hat(ds, x)
        tracemalloc.start()
        try:
            ci = effect_ci(ds, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ci.regime is Regime.ZERO_NORM
        assert peak < 20e6

    def test_tiny_arm_rejected(self):
        grid = Grid.uniform(4)
        y = np.array([np.zeros(4), np.ones(4), np.ones(4)])
        ds = Dataset(["a", "b", "c"], [1.0, 0.0, 0.0], np.zeros((3, 0)), grid, y)
        with pytest.raises(ArmEmptyError):
            effect_ci(ds, Curve(grid, np.zeros(4)))


def laplace_oracle_cdf(x, evals):
    """P(sum_k evals[k] Z_k^2 <= x) by 30-digit Talbot inversion of
    prod_k (1 + 2 evals[k] s)^(-1/2) / s."""
    with mpmath.workdps(30):
        lam = [mpmath.mpf(float(v)) for v in evals]

        def transform(s):
            out = 1 / s
            for v in lam:
                out /= mpmath.sqrt(1 + 2 * v * s)
            return out

        return float(mpmath.invertlaplace(transform, mpmath.mpf(float(x)), method="talbot"))


class TestWeightedChi2Quantile:
    PROBS = (0.005, 0.025, 0.5, 0.975, 0.995)

    @pytest.mark.parametrize("r", [1, 2, 3, 10, 100, 1000])
    def test_equal_weights_match_chi2(self, r):
        for p in self.PROBS:
            q = _weighted_chi2_quantile(p, np.full(r, 0.7))
            assert abs(stats.chi2.cdf(q / 0.7, r) - p) <= 1e-7

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("floored", [False, True])
    def test_matches_laplace_oracle(self, seed, floored):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 40))
        evals = rng.exponential(size=r) * 10.0 ** rng.uniform(-3.0, 2.0)
        if floored:
            evals[r // 2 :] = EIGENVALUE_FLOOR
        for p in (0.025, 0.975):
            q = _weighted_chi2_quantile(p, evals)
            assert abs(laplace_oracle_cdf(q, evals) - p) <= 1e-7

    def test_euler_weights_match_scipy_comb(self):
        from scipy import special

        m = inference._EULER_M
        expected = special.comb(m, np.arange(m + 1)) / 2.0**m
        assert np.array_equal(inference._EULER_WEIGHTS, expected)

    def test_oracle_matches_chi2(self):
        assert laplace_oracle_cdf(7.0, np.ones(3)) == pytest.approx(stats.chi2.cdf(7.0, 3), abs=1e-15)

    def test_scale_equivariant(self):
        evals = np.random.default_rng(5).exponential(size=12)
        for p in self.PROBS:
            q = _weighted_chi2_quantile(p, evals)
            for c in (1e-6, 3.7, 1e4):
                assert _weighted_chi2_quantile(p, c * evals) == pytest.approx(c * q, rel=1e-9)

    def test_monotone_in_p(self):
        evals = np.random.default_rng(6).exponential(size=20)
        qs = [_weighted_chi2_quantile(p, evals) for p in self.PROBS]
        assert np.all(np.diff(qs) > 0)

    @staticmethod
    def brentq_quantile(p, evals):
        """The quantile as first formulated: brentq between the chi-square
        quantiles with 1 and r degrees of freedom, widened by 1%."""
        lam_max = evals.max()
        scaled = evals / lam_max
        lo = 0.99 * special.chdtri(1, 1.0 - p)
        hi = 1.01 * special.chdtri(evals.size, 1.0 - p)
        return lam_max * optimize.brentq(lambda x: _weighted_chi2_cdf(x, scaled) - p, lo, hi)

    @pytest.mark.parametrize("kind", ["equal", "decaying", "floored"])
    @pytest.mark.parametrize("r", [1, 2, 10, 100, 400])
    def test_matches_brentq_formulation(self, r, kind):
        evals = {
            "equal": np.full(r, 0.7),
            "decaying": 3.0 * 0.8 ** np.arange(r),
            "floored": np.where(np.arange(r) < max(r // 2, 1), 0.5 ** np.arange(r), EIGENVALUE_FLOOR),
        }[kind]
        for p in self.PROBS:
            q = _weighted_chi2_quantile(p, evals)
            assert q == pytest.approx(self.brentq_quantile(p, evals), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("r", [1, 2, 10, 100])
    def test_equal_weights_at_the_smallest_accepted_tail(self, r):
        # at r = 1 the lower end of the bracket is the exact quantile, so
        # only its widening keeps the root inside
        level = 1.0 - 2.0 * _MIN_TAIL
        ds, _ = gaussian_ds()
        check_ci(ds, level)
        tail = (1.0 - level) / 2.0
        for p in (tail, 1.0 - tail):
            q = _weighted_chi2_quantile(p, np.full(r, 0.7))
            assert abs(stats.chi2.cdf(q / 0.7, r) - p) <= 2e-8

    @given(
        log_tail=st.floats(np.log10(_MIN_TAIL), np.log10(0.5)),
        r=st.integers(1, 60),
        decay=st.floats(0.05, 1.0),
        floored=st.integers(0, 59),
    )
    @settings(max_examples=200, deadline=None)
    def test_bracket_straddles_p_at_every_accepted_level(self, log_tail, r, decay, floored):
        level = 1.0 - 2.0 * 10.0**log_tail
        try:
            check_ci(gaussian_ds(n=8)[0], level)
        except ValueError:
            return
        evals = decay ** np.arange(r)
        evals[max(r - floored, 1) :] = EIGENVALUE_FLOOR
        alpha = 1.0 - level
        for p in (alpha / 2.0, 1.0 - alpha / 2.0):
            lo, hi = _quantile_bracket(p, evals)
            assert 0.0 < lo < hi
            assert _weighted_chi2_cdf(lo, evals) <= p <= _weighted_chi2_cdf(hi, evals)

    def test_root_finder_says_when_it_fails(self, monkeypatch):
        with pytest.raises(NumericalError, match="bracket does not contain the root"):
            inference._find_root(lambda x: x + 1.0, 0.0, 1.0)
        assert inference._find_root(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(2**0.5, rel=1e-12)
        monkeypatch.setattr(inference, "_MAX_ITER", 2)
        with pytest.raises(NumericalError, match="did not converge in 2 steps"):
            inference._find_root(lambda x: x * x - 2.0, 0.0, 2.0)


def test_norm_quantile_matches_ndtri():
    p = np.concatenate([np.logspace(-10, np.log10(0.4999), 500), np.linspace(1e-10, 1.0 - 1e-10, 1001)])
    p = np.concatenate([p, 1.0 - p])
    p = p[p != 0.5]
    ours = np.array([_norm_quantile(v) for v in p])
    np.testing.assert_allclose(ours, special.ndtri(p), rtol=1e-15, atol=0.0)


class TestPointwiseCi:
    def test_width_scales_with_level(self):
        grid = Grid.uniform(5)
        d = Curve(grid, np.ones(5))
        k_diag = np.full(5, 2.0)
        narrow = pointwise_ci(d, k_diag, 0.8, 100)
        wide = pointwise_ci(d, k_diag, 0.99, 100)
        assert np.all(wide[:, 1] - wide[:, 0] > narrow[:, 1] - narrow[:, 0])

    def test_symmetric_around_estimate(self):
        grid = Grid.uniform(5)
        d = Curve(grid, np.arange(5.0))
        bands = pointwise_ci(d, np.ones(5), 0.95, 50)
        mid = bands.mean(axis=1)
        np.testing.assert_allclose(mid, d.values, atol=1e-12)


class TestWelch:
    def test_known_example(self):
        # classic unequal-variance example, validated against scipy
        a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6]
        b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1]
        res = welch_t_test(a, b)
        from scipy import stats

        ref = stats.ttest_ind(a, b, equal_var=False)
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-10)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_identical_samples_give_p_one(self):
        res = welch_t_test([1.0, 1.0, 1.0], [1.0, 1.0])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_obvious_difference_small_p(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, 50)
        b = rng.normal(5.0, 1.0, 50)
        assert welch_t_test(a, b).p_value < 1e-10

    def test_too_small_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [2.0, 3.0])
