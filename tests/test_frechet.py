"""Tests for Fréchet means and metric-space group effects."""
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from funcause import (
    ArmEmptyError,
    Curve,
    Dataset,
    DomainError,
    Grid,
    Metric,
    Scenario,
    ScenarioConfig,
    WeightError,
    effect_from_means,
    elastic,
    fit_propensity,
    frechet,
    frechet_mean,
    fr_distance_sphere,
    fr_distance_srsf,
    generate,
    grid_norm,
    group_potential_outcomes,
)


def curve_family(grid, n, seed=0, center=0.5):
    rng = np.random.default_rng(seed)
    t = grid.points
    return [
        Curve(grid, np.exp(-((t - center - rng.uniform(-0.05, 0.05)) ** 2) / 0.01))
        for _ in range(n)
    ]


def binary_dataset(n=20, t=16, seed=0, gap=1.0):
    rng = np.random.default_rng(seed)
    x = (np.arange(n) % 2).astype(float)
    draws = rng.standard_normal((n, t + 2))  # per unit: outcome noise, covariates
    y = gap * x[:, None] + draws[:, :t] * 0.1
    return Dataset([f"s{i}" for i in range(n)], x, draws[:, t:], Grid.uniform(t), y)


class TestEuclideanMean:
    def test_matches_analytic_average(self):
        grid = Grid.uniform(24)
        curves = curve_family(grid, 7, seed=1)
        res = frechet_mean(curves, metric=Metric.EUCLIDEAN)
        expected = np.mean([c.values for c in curves], axis=0)
        np.testing.assert_allclose(res.mean.values, expected, atol=1e-12)

    def test_weighted_average(self):
        grid = Grid.uniform(12)
        curves = curve_family(grid, 3, seed=2)
        w = np.array([0.5, 0.25, 0.25])
        res = frechet_mean(curves, weights=w * 4, metric=Metric.EUCLIDEAN)
        expected = sum(wi * c.values for wi, c in zip(w, curves))
        np.testing.assert_allclose(res.mean.values, expected, atol=1e-12)

    def test_bad_weights_rejected(self):
        curves = curve_family(Grid.uniform(8), 3)
        for weights in ([1.0, 1.0], [-1.0, 1.0, 1.0], [np.nan, 1.0, 1.0], [1.0, np.inf, 1.0]):
            for metric in Metric:
                with pytest.raises(WeightError):
                    frechet_mean(curves, weights=np.array(weights), metric=metric)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_weights_whose_sum_overflows(self, metric):
        # the sum of [1e308, 1e308, 1] is inf; divided by their largest
        # they are [1, 1, 1e-308], which sum to 2 without overflow
        curves = curve_family(Grid.uniform(16), 3, seed=3)
        if metric is Metric.FISHER_RAO_SPHERE:
            curves = [Curve(c.grid, c.values / c.values.sum()) for c in curves]
        big = frechet_mean(curves, weights=[1e308, 1e308, 1.0], metric=metric).mean.values
        small = frechet_mean(curves, weights=[1.0, 1.0, 1e-308], metric=metric).mean.values
        assert np.all(np.isfinite(big)) and big.tobytes() == small.tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            frechet_mean([])

    @pytest.mark.parametrize("metric", list(Metric))
    def test_curves_on_different_grids_rejected(self, metric):
        curves = curve_family(Grid.uniform(16), 2) + curve_family(Grid.uniform(17), 1)
        with pytest.raises(ValueError, match="curves must share a grid"):
            frechet_mean(curves, metric=metric)


class TestMinimizerProperty:
    @pytest.mark.parametrize(
        "metric",
        [Metric.EUCLIDEAN, Metric.FISHER_RAO_SRSF, Metric.FISHER_RAO_SPHERE],
    )
    def test_objective_beats_input_candidates(self, metric):
        grid = Grid.uniform(40)
        if metric is Metric.FISHER_RAO_SPHERE:
            rng = np.random.default_rng(0)
            curves = []
            for _ in range(6):
                p = np.abs(rng.standard_normal(40)) + 0.1
                curves.append(Curve(grid, p / p.sum()))
        else:
            curves = curve_family(grid, 6, seed=3)
        res = frechet_mean(curves, metric=metric)
        w = np.full(len(curves), 1.0 / len(curves))

        def objective(center):
            if metric is Metric.EUCLIDEAN:
                dists = [grid_norm(center.values - c.values, grid) for c in curves]
            elif metric is Metric.FISHER_RAO_SPHERE:
                dists = [fr_distance_sphere(center, c) for c in curves]
            else:
                from funcause import fr_distance_srsf

                dists = [fr_distance_srsf(center, c) for c in curves]
            return float(np.sum(w * np.square(dists)))

        best_candidate = min(objective(c) for c in curves)
        assert res.objective <= best_candidate + 1e-8


class TestSphereMean:
    def test_stays_density_like(self):
        grid = Grid.uniform(30)
        rng = np.random.default_rng(5)
        curves = []
        for _ in range(10):
            p = np.abs(rng.standard_normal(30)) + 0.05
            curves.append(Curve(grid, p / p.sum()))
        res = frechet_mean(curves, metric=Metric.FISHER_RAO_SPHERE)
        assert np.all(res.mean.values >= 0)
        assert res.mean.values.sum() <= 1.0 + 1e-9

    def test_recovers_common_density(self):
        grid = Grid.uniform(25)
        base = np.exp(-((grid.points - 0.5) ** 2) / 0.02)
        base = base / base.sum()
        curves = [Curve(grid, base)] * 8
        res = frechet_mean(curves, metric=Metric.FISHER_RAO_SPHERE)
        # the mean of identical unit-mass curves is the curve itself
        assert np.max(np.abs(res.mean.values - base)) <= 1e-6

    @staticmethod
    def noisy_densities(n, seed):
        """Criterion 09's curves: log-normal noise around a Gaussian bump."""
        grid = Grid.uniform(30)
        base = np.exp(-((grid.points - 0.5) ** 2) / 0.02)
        base = base / base.sum()
        rng = np.random.default_rng(seed)
        curves = []
        for _ in range(n):
            p = np.exp(np.log(base) + 0.3 * rng.standard_normal(30))
            curves.append(Curve(grid, p / p.sum()))
        return curves

    @pytest.mark.parametrize("n", [20, 80, 320])
    def test_converges(self, n):
        res = frechet_mean(self.noisy_densities(n, seed=4), metric=Metric.FISHER_RAO_SPHERE)
        assert res.converged is True

    def test_weighted_log_maps_cancel_at_mean(self):
        curves = self.noisy_densities(15, seed=1)
        w = np.linspace(1.0, 4.0, 15)
        w = w / w.sum()
        tol = frechet._SPHERE_TOL  # _sphere_mean's stopping tolerance
        res = frechet_mean(curves, weights=w, metric=Metric.FISHER_RAO_SPHERE)
        assert res.converged
        mu = np.sqrt(res.mean.values)
        u = np.sqrt(np.array([c.values for c in curves]))
        cos = np.clip(u @ mu, -1.0, 1.0)
        theta = np.arccos(cos)
        logs = (theta / np.sin(theta))[:, None] * (u - cos[:, None] * mu)
        assert np.linalg.norm(w @ logs) <= tol
        dists = [fr_distance_sphere(res.mean, c) for c in curves]
        assert res.objective == pytest.approx(float(np.sum(w * np.square(dists))), rel=1e-12)

    def test_mass_below_one_is_normalised(self):
        curves = self.noisy_densities(6, seed=2)
        halved = [Curve(c.grid, 0.5 * c.values) for c in curves]
        full = frechet_mean(curves, metric=Metric.FISHER_RAO_SPHERE)
        half = frechet_mean(halved, metric=Metric.FISHER_RAO_SPHERE)
        np.testing.assert_allclose(half.mean.values, full.mean.values, atol=1e-15)
        assert half.mean.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_entry_rejected(self):
        curves = self.noisy_densities(4, seed=3)
        bad = curves[1].values.copy()
        bad[5] = -1e-3
        curves[1] = Curve(curves[1].grid, bad)
        with pytest.raises(DomainError):
            frechet_mean(curves, metric=Metric.FISHER_RAO_SPHERE)

    def test_zero_mass_rejected(self):
        curves = self.noisy_densities(4, seed=3)
        curves[2] = Curve(curves[2].grid, np.zeros(30))
        with pytest.raises(DomainError):
            frechet_mean(curves, metric=Metric.FISHER_RAO_SPHERE)


class TestDiscretizationStability:
    @staticmethod
    def mean_at(t):
        grid = Grid.uniform(t)
        tp = grid.points
        curves = [
            Curve(grid, np.exp(-((tp - 0.5 - s) ** 2) / 0.01))
            for s in (-0.04, 0.0, 0.04)
        ]
        return frechet_mean(curves, metric=Metric.FISHER_RAO_SRSF).mean

    def test_mean_gap_shrinks_as_grid_doubles(self):
        gaps = []
        for t in (64, 128):
            coarse = self.mean_at(t)
            fine = self.mean_at(2 * t)
            spline = CubicSpline(fine.grid.points, fine.values)
            gaps.append(float(np.max(np.abs(spline(coarse.grid.points) - coarse.values))))
        assert gaps[1] < gaps[0]


class TestGroupPotentialOutcomes:
    def test_uniform_equals_arm_means(self):
        ds = binary_dataset()
        f1, f0 = group_potential_outcomes(ds, Metric.EUCLIDEAN)
        y = ds.outcome_matrix
        x = ds.treatments
        np.testing.assert_allclose(f1.mean.values, y[x == 1].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(f0.mean.values, y[x == 0].mean(axis=0), atol=1e-12)

    def test_ip_weighting_runs(self):
        ds = binary_dataset(n=40, seed=2)
        pm = fit_propensity(ds)
        f1, f0 = group_potential_outcomes(ds, Metric.EUCLIDEAN, propensity=pm)
        eff = effect_from_means(f1.mean, f0.mean, Metric.EUCLIDEAN)
        assert eff.delta.values.shape == (16,)

    @pytest.mark.parametrize("metric", (Metric.EUCLIDEAN, Metric.FISHER_RAO_SRSF))
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scenario", (Scenario.BINARY_NONMONOTONIC, Scenario.BINARY_MONOTONIC))
    def test_ip_weighted_means_exact(self, scenario, seed, metric):
        # Hajek means with weights 1/pi and 1/(1 - pi) of the fitted model
        ds, _ = generate(ScenarioConfig(n=40, t=20, scenario=scenario, seed=seed))
        pm = fit_propensity(ds)
        pi = pm.predict(ds.covariate_matrix)
        y, grid = ds.outcome_matrix, ds.outcome_grid
        f1, f0 = group_potential_outcomes(ds, metric, propensity=pm)
        idx1, idx0 = ds.arm_indices(1.0), ds.arm_indices(0.0)
        for f, idx, w in ((f1, idx1, 1.0 / pi[idx1]), (f0, idx0, 1.0 / (1.0 - pi[idx0]))):
            if metric is Metric.EUCLIDEAN:
                expected = (w / w.sum()) @ y[idx]
            else:
                expected = elastic.karcher_mean(y[idx], grid, weights=w / w.sum()).mean.values
            assert np.array_equal(f.mean.values, expected)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_euclidean_arms_equal_the_curve_path(self, weighted):
        # the arm means taken from the outcome matrix equal, bit for bit,
        # the closed form over each arm's stacked Curve values
        ds = binary_dataset(n=40, seed=5)
        y, grid = ds.outcome_matrix, ds.outcome_grid
        pm = fit_propensity(ds) if weighted else None
        w1, w0 = pm.inverse_weights(ds) if weighted else (None, None)
        arms = group_potential_outcomes(ds, Metric.EUCLIDEAN, propensity=pm)
        for f, idx, w in zip(arms, (ds.arm_indices(1.0), ds.arm_indices(0.0)), (w1, w0)):
            ymat = np.array([Curve(grid, y[i]).values for i in idx])
            wn = elastic._normalized_weights(len(idx), None if w is None else w[idx])
            mean = wn @ ymat
            assert f.mean.values.tobytes() == mean.tobytes()
            assert f.objective == elastic._weighted_spread(mean, ymat, wn, grid)
            assert f.converged and f.metric is Metric.EUCLIDEAN

    def test_fisher_rao_arms_equal_their_frechet_means(self):
        # each arm's Karcher mean, taken from the outcome matrix, gives that
        # arm's frechet_mean bit for bit
        ds = binary_dataset(n=30, seed=4)
        y, grid = ds.outcome_matrix, ds.outcome_grid
        arms = group_potential_outcomes(ds, Metric.FISHER_RAO_SRSF)
        for f, idx in zip(arms, (ds.arm_indices(1.0), ds.arm_indices(0.0))):
            alone = frechet_mean([Curve(grid, y[i]) for i in idx], metric=Metric.FISHER_RAO_SRSF)
            assert np.array_equal(f.mean.values, alone.mean.values)
            assert (f.objective, f.converged) == (alone.objective, alone.converged)

    def test_continuous_treatments_rejected(self):
        ds = binary_dataset()
        x = ds.treatments.copy()
        x[0] = 0.4
        with pytest.raises(ValueError):
            group_potential_outcomes(replace(ds, treatments=x))


class TestDynamicEffect:
    def test_euclidean_norm_matches_quadrature(self):
        grid = Grid.uniform(200)
        m1 = Curve(grid, np.ones(200))
        m0 = Curve(grid, np.zeros(200))
        eff = effect_from_means(m1, m0, Metric.EUCLIDEAN)
        assert eff.scalar_norm == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(eff.delta.values, 1.0)

    def test_grid_mismatch_rejected(self):
        m1 = Curve(Grid.uniform(10), np.zeros(10))
        m0 = Curve(Grid.uniform(11), np.zeros(11))
        with pytest.raises(ValueError):
            effect_from_means(m1, m0, Metric.EUCLIDEAN)

    @staticmethod
    def densities(grid):
        m1, m0 = curve_family(grid, 2, seed=4)
        return [Curve(grid, (m.values + 0.1) / np.sum(m.values + 0.1)) for m in (m1, m0)]

    @pytest.mark.parametrize(
        "metric,distance",
        [
            (Metric.FISHER_RAO_SRSF, fr_distance_srsf),
            (Metric.FISHER_RAO_SPHERE, fr_distance_sphere),
        ],
    )
    def test_fisher_rao_norms(self, metric, distance):
        m1, m0 = self.densities(Grid.uniform(40))
        eff = effect_from_means(m1, m0, metric)
        assert eff.metric is metric
        assert eff.scalar_norm == distance(m1, m0) > 0
        assert np.array_equal(eff.delta.values, m1.values - m0.values)

    def test_unknown_metric_rejected(self):
        m1, m0 = self.densities(Grid.uniform(40))
        with pytest.raises(ValueError, match="unknown metric"):
            effect_from_means(m1, m0, "euclidean")

    def test_known_gap_recovered(self):
        ds = binary_dataset(n=60, seed=7, gap=2.0)
        f1, f0 = group_potential_outcomes(ds)
        eff = effect_from_means(f1.mean, f0.mean, Metric.EUCLIDEAN)
        assert np.max(np.abs(eff.delta.values - 2.0)) <= 0.15
