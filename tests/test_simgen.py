"""Tests for the synthetic scenario generator."""
import numpy as np
import pytest

from funcause import (
    Curve,
    GroundTruth,
    Scenario,
    ScenarioConfig,
    effect_error,
    generate,
)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ScenarioConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 2},
            {"t": 4},
            {"width": 0.0},
            {"noise": -0.1},
            {"shift": 0.5},
            {"n_covariates": -1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)


class TestDeterminism:
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_same_seed_same_data(self, scenario):
        cfg = ScenarioConfig(n=20, t=16, scenario=scenario, seed=3)
        d1, t1 = generate(cfg, replicate=2)
        d2, t2 = generate(cfg, replicate=2)
        np.testing.assert_array_equal(d1.outcome_matrix, d2.outcome_matrix)
        np.testing.assert_array_equal(d1.treatments, d2.treatments)
        np.testing.assert_array_equal(t1.beta_x.values, t2.beta_x.values)

    def test_replicates_differ(self):
        cfg = ScenarioConfig(n=20, t=16, seed=3)
        d1, _ = generate(cfg, replicate=0)
        d2, _ = generate(cfg, replicate=1)
        assert not np.array_equal(d1.outcome_matrix, d2.outcome_matrix)


class TestScenarioShapes:
    def test_binary_scenarios_have_binary_treatments(self):
        for scenario in (Scenario.BINARY_NONMONOTONIC, Scenario.BINARY_MONOTONIC):
            ds, _ = generate(ScenarioConfig(n=30, t=16, scenario=scenario))
            assert ds.is_binary()
            assert ds.covariate_grid is None

    def test_continuous_scenario_has_covariate_curves(self):
        ds, _ = generate(
            ScenarioConfig(n=30, t=16, scenario=Scenario.CONTINUOUS_FUNCTIONAL)
        )
        assert not ds.is_binary()
        assert np.all(ds.treatments >= 0)
        assert ds.covariate_grid is not None
        assert ds.covariate_curve_matrix.shape == (30, 16)

    def test_monotonic_truth_is_nondecreasing(self):
        _, truth = generate(
            ScenarioConfig(n=10, t=40, scenario=Scenario.BINARY_MONOTONIC)
        )
        assert np.all(np.diff(truth.beta_x.values) >= -1e-12)

    def test_true_phi_date_matches_quadrature_norm(self):
        from funcause import grid_norm

        _, truth = generate(ScenarioConfig(n=10, t=64))
        assert truth.true_phi_date == pytest.approx(
            grid_norm(truth.beta_x.values, truth.beta_x.grid), abs=1e-12
        )


class TestGeneratorMoments:
    def test_treated_fraction_balanced_without_confounding(self):
        for seed in range(5):
            ds, _ = generate(ScenarioConfig(n=200, t=16, confounding=0.0, seed=seed))
            frac = ds.treatments.mean()
            assert 0.4 <= frac <= 0.6

    def test_shift_increases_peak_variance(self):
        # with noise and confounding off, within-arm variation comes only
        # from the random shift
        base = dict(n=120, t=64, noise=0.0, confounding=0.0, seed=9)
        ds0, truth = generate(ScenarioConfig(shift=0.0, **base))
        ds1, _ = generate(ScenarioConfig(shift=0.05, **base))
        grid = ds0.outcome_grid
        peaks = [np.argmin(np.abs(grid.points - c)) for c in (0.25, 0.5, 0.75)]
        treated0 = ds0.outcome_matrix[ds0.treatments == 1.0]
        treated1 = ds1.outcome_matrix[ds1.treatments == 1.0]
        v0 = treated0[:, peaks].var(axis=0).mean()
        v1 = treated1[:, peaks].var(axis=0).mean()
        assert v1 > v0


class TestTruthShape:
    def test_three_local_maxima_at_centers(self):
        # odd T puts t = 0.5 on the grid, avoiding a two-point plateau at
        # the center bump
        cfg = ScenarioConfig(n=10, t=129, width=0.05)
        _, truth = generate(cfg)
        b = truth.beta_x.values
        interior = np.flatnonzero((b[1:-1] > b[:-2]) & (b[1:-1] > b[2:])) + 1
        assert interior.size == 3
        locs = truth.beta_x.grid.points[interior]
        np.testing.assert_allclose(locs, (0.25, 0.5, 0.75), atol=2.0 / 129)


class TestEffectError:
    def test_zero_for_exact_truth(self):
        _, truth = generate(ScenarioConfig(n=10, t=32))
        mae, per_t = effect_error(truth.beta_x, truth)
        assert mae == 0.0
        assert np.all(per_t.values == 0.0)

    def test_accepts_effect_objects(self):
        ds, truth = generate(ScenarioConfig(n=30, t=32))
        from funcause import Metric, effect_from_means, group_potential_outcomes

        f1, f0 = group_potential_outcomes(ds)
        eff = effect_from_means(f1.mean, f0.mean, Metric.EUCLIDEAN)
        mae, per_t = effect_error(eff, truth)
        assert mae >= 0.0
        assert per_t.grid == truth.beta_x.grid

    def test_grid_mismatch_rejected(self):
        _, truth = generate(ScenarioConfig(n=10, t=32))
        from funcause import Grid

        wrong = Curve(Grid.uniform(16), np.zeros(16))
        with pytest.raises(ValueError):
            effect_error(wrong, truth)
