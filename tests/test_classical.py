"""Tests for propensity, IPW, and doubly robust estimators."""
from dataclasses import replace

import numpy as np
import pytest

from funcause import (
    Dataset,
    Grid,
    OutcomeModel,
    dr_effect,
    fit_outcome_models,
    fit_propensity,
    ipw_effect,
)


def make_ds(n, t, seed=0, confounded=False, noise=0.1, gap=1.0):
    rng = np.random.default_rng(seed)
    grid = Grid.uniform(t)
    v = rng.standard_normal((n, 2))
    if confounded:
        p = 1.0 / (1.0 + np.exp(-v[:, 0]))
        x = (rng.uniform(size=n) < p).astype(float)
    else:
        x = (rng.uniform(size=n) < 0.5).astype(float)
    if np.all(x == x[0]):
        x[0] = 1.0 - x[0]
    y = gap * x[:, None] + v[:, :1] + noise * rng.standard_normal((n, t))
    return Dataset([f"s{i}" for i in range(n)], x, v, grid, y)


class TestPropensity:
    def test_no_covariates_gives_treated_fraction(self):
        rng = np.random.default_rng(0)
        grid = Grid.uniform(8)
        x = (rng.uniform(size=100) < 0.3).astype(float)
        x[:2] = [0, 1]
        ds = Dataset([f"s{i}" for i in range(100)], x, np.zeros((100, 0)), grid, np.zeros((100, 8)))
        pm = fit_propensity(ds)
        pi = pm.predict(ds.covariate_matrix)
        assert np.allclose(pi, x.mean(), atol=1e-6)

    def test_predictions_clipped(self):
        ds = make_ds(60, 6, confounded=True, seed=1)
        pm = fit_propensity(ds)
        big = np.array([[50.0, 0.0], [-50.0, 0.0]])
        pi = pm.predict(big)
        assert np.all(pi >= 0.01) and np.all(pi <= 0.99)

    def test_inverse_weights_per_arm(self):
        ds = make_ds(60, 6, confounded=True, seed=1)
        pm = fit_propensity(ds)
        pi = pm.predict(ds.covariate_matrix)
        w1, w0 = pm.inverse_weights(ds)
        treated = ds.treatments == 1.0
        assert np.array_equal(w1[treated], 1.0 / pi[treated]) and np.all(w1[~treated] == 0.0)
        assert np.array_equal(w0[~treated], 1.0 / (1.0 - pi[~treated])) and np.all(w0[treated] == 0.0)

    def test_recovers_logit_slope(self):
        ds = make_ds(4000, 4, confounded=True, seed=2)
        pm = fit_propensity(ds)
        assert pm.coefficients[1] == pytest.approx(1.0, abs=0.15)

    def test_continuous_treatment_rejected(self):
        ds = make_ds(20, 6)
        x = ds.treatments.copy()
        x[0] = 0.3
        with pytest.raises(ValueError):
            fit_propensity(replace(ds, treatments=x))


class TestIpw:
    def test_constant_propensity_reduces_to_arm_mean_difference(self):
        ds = make_ds(80, 10, seed=3)
        x = ds.treatments
        n1 = x.sum()
        n = len(ds)
        # logistic model with zero slope and intercept logit(n1/n)
        p = n1 / n
        no_covariates = replace(ds, covariate_matrix=np.zeros((n, 0)))
        pm_const = fit_propensity(no_covariates)
        eff = ipw_effect(no_covariates, pm_const)
        y = ds.outcome_matrix
        expected = (
            (x / p)[:, None] * y - ((1 - x) / (1 - p))[:, None] * y
        ).mean(axis=0)
        diff_means = y[x == 1].mean(axis=0) - y[x == 0].mean(axis=0)
        np.testing.assert_allclose(eff.delta.values, expected, atol=1e-6)
        np.testing.assert_allclose(eff.delta.values, diff_means, atol=1e-10)

    def test_debiases_confounded_data(self):
        reps_naive, reps_ipw = [], []
        for seed in range(5):
            ds = make_ds(2000, 6, seed=seed, confounded=True, gap=1.0)
            x, y = ds.treatments, ds.outcome_matrix
            naive = y[x == 1].mean(axis=0) - y[x == 0].mean(axis=0)
            eff = ipw_effect(ds, fit_propensity(ds))
            reps_naive.append(np.abs(naive.mean() - 1.0))
            reps_ipw.append(np.abs(eff.delta.values.mean() - 1.0))
        assert np.mean(reps_ipw) < np.mean(reps_naive)


class TestOutcomeModels:
    def test_perfect_linear_fit(self):
        ds = make_ds(60, 8, seed=4, noise=0.0)
        om = fit_outcome_models(ds, ridge=0.0)
        v = ds.covariate_matrix
        m1 = om.predict(v, arm=1)
        m0 = om.predict(v, arm=0)
        x, y = ds.treatments, ds.outcome_matrix
        np.testing.assert_allclose(m1[x == 1], y[x == 1], atol=1e-8)
        np.testing.assert_allclose(m0[x == 0], y[x == 0], atol=1e-8)

    def test_zero_outcomes_give_zero_effect(self):
        ds = make_ds(30, 6, seed=5)
        zero = replace(ds, outcome_matrix=np.zeros((30, 6)))
        om = fit_outcome_models(zero)
        pm = fit_propensity(zero)
        eff = dr_effect(zero, pm, om)
        np.testing.assert_allclose(eff.delta.values, 0.0, atol=1e-10)


class TestDoublyRobust:
    def test_correct_outcome_models_beat_wrong_propensity(self):
        # noise-free linear outcomes: DR is exact for any propensity model
        ds = make_ds(80, 8, seed=6, noise=0.0, gap=1.5)
        om = fit_outcome_models(ds, ridge=0.0)
        wrong_pm = fit_propensity(ds)
        wrong_pm = type(wrong_pm)(coefficients=np.array([2.0, -3.0, 1.0]))
        eff = dr_effect(ds, wrong_pm, om)
        np.testing.assert_allclose(eff.delta.values, 1.5, atol=1e-8)

    def test_consistency_as_n_grows(self):
        maes = {}
        for n in (250, 1000):
            errs = []
            for seed in range(6):
                ds = make_ds(n, 6, seed=seed, confounded=True, gap=1.0)
                eff = dr_effect(ds, fit_propensity(ds), fit_outcome_models(ds))
                errs.append(np.mean(np.abs(eff.delta.values - 1.0)))
            maes[n] = np.mean(errs)
        assert maes[1000] < maes[250]

    def test_location_equivariance(self):
        ds = make_ds(50, 8, seed=7)
        shifted = replace(ds, outcome_matrix=ds.outcome_matrix + 11.0)
        pm = fit_propensity(ds)
        eff = dr_effect(ds, pm, fit_outcome_models(ds))
        eff_shift = dr_effect(shifted, pm, fit_outcome_models(shifted))
        np.testing.assert_allclose(
            eff.delta.values, eff_shift.delta.values, atol=1e-10
        )

    def test_deterministic(self):
        ds = make_ds(40, 8, seed=8)
        e1 = dr_effect(ds, fit_propensity(ds), fit_outcome_models(ds))
        e2 = dr_effect(ds, fit_propensity(ds), fit_outcome_models(ds))
        np.testing.assert_array_equal(e1.delta.values, e2.delta.values)
