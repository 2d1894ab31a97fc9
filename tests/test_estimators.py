"""Tests for kernel ridge regression estimators and the registration loop."""
import collections
import math

import numpy as np
import pytest

from funcause import (
    Curve,
    Dataset,
    Grid,
    GramMatrix,
    IterativeConfig,
    KernelFamily,
    KernelSpec,
    Scenario,
    ScenarioConfig,
    dose_response,
    generate,
    input_gram,
    iterative_srvf_estimate,
    kernel_dynamic_effect,
    kernel_setup,
    krr_fit,
    output_gram,
    potential_outcome,
    register_outcomes,
    select_hyperparameters,
)
from funcause import elastic, estimators, kernels
from funcause.estimators import holdout_error, predict_curve

from test_elastic import assert_valid_warps

BIN_KX = KernelSpec(KernelFamily.BINARY_INDICATOR)
SE_KV = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 1.0)


def ids(n):
    return [f"s{i}" for i in range(n)]


def alternating(n):
    return (np.arange(n) % 2).astype(float)


def make_ds(n=12, t=6, seed=0, gap=1.0, noise=0.1, d=2):
    rng = np.random.default_rng(seed)
    x = alternating(n)
    draws = rng.standard_normal((n, t + d))  # per unit: outcome noise, covariates
    y = gap * x[:, None] + noise * draws[:, :t]
    return Dataset(ids(n), x, draws[:, t:], Grid.uniform(t), y)


def dense_solve(ds, kx, kv, k_y, lam):
    """Oracle: solve the full nT x nT Kronecker system densely."""
    n, t = len(ds), len(ds.outcome_grid)
    kxv = input_gram(ds, kx, kv).entries
    ky = np.eye(t) if k_y is None else k_y.entries
    big = np.kron(kxv, ky) + lam * np.eye(n * t)
    vec = np.linalg.solve(big, ds.outcome_matrix.reshape(-1))
    return vec.reshape(n, t)


class TestKroneckerSolve:
    @pytest.mark.parametrize("with_ky", [False, True])
    def test_matches_dense_oracle(self, with_ky):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            t = int(rng.integers(3, max(4, 64 // n) + 1))
            ds = make_ds(n=n, t=t, seed=trial, noise=1.0)
            k_y = output_gram(ds.outcome_grid) if with_ky else None
            lam = 10.0 ** rng.uniform(-3, 0)
            model = krr_fit(ds, BIN_KX, SE_KV, k_y=k_y, lam=lam)
            dense_alpha = dense_solve(ds, BIN_KX, SE_KV, k_y, lam)
            scale = max(1.0, np.max(np.abs(dense_alpha)))
            assert np.max(np.abs(model.alpha - dense_alpha)) / scale <= 1e-8

    def test_interpolates_at_tiny_lambda(self):
        ds = make_ds(n=5, t=4, seed=1, noise=1.0)
        kv = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 2.0)
        model = krr_fit(ds, BIN_KX, kv, lam=1e-10)
        pred = np.array(
            [predict_curve(model, ds.treatments[i], i) for i in range(5)]
        )
        assert np.max(np.abs(pred - ds.outcome_matrix)) <= 1e-4


class TestPotentialOutcome:
    def test_matches_averaged_prediction(self):
        ds = make_ds(n=10, t=5, seed=2)
        model = krr_fit(ds, BIN_KX, SE_KV, lam=1e-2)
        avg = np.mean(
            [predict_curve(model, 1.0, i) for i in range(10)], axis=0
        )
        np.testing.assert_allclose(
            potential_outcome(model, 1.0).values, avg, atol=1e-12
        )

    def test_permutation_invariance(self):
        ds = make_ds(n=10, t=5, seed=3)
        rng = np.random.default_rng(0)
        perm = rng.permutation(10)
        ds_perm = ds.take(perm)
        m1 = krr_fit(ds, BIN_KX, SE_KV, lam=1e-2)
        m2 = krr_fit(ds_perm, BIN_KX, SE_KV, lam=1e-2)
        np.testing.assert_allclose(
            potential_outcome(m1, 1.0).values,
            potential_outcome(m2, 1.0).values,
            atol=1e-10,
        )

    def test_effect_approaches_arm_mean_difference(self):
        ds = make_ds(n=20, t=6, seed=4, gap=2.0)
        model = krr_fit(
            ds, BIN_KX, None, lam=1e-10
        )
        eff = kernel_dynamic_effect(model)
        y, x = ds.outcome_matrix, ds.treatments
        expected = y[x == 1].mean(axis=0) - y[x == 0].mean(axis=0)
        assert np.max(np.abs(eff.delta.values - expected)) <= 1e-4


class TestDoseResponse:
    def continuous_ds(self, n=40, t=5, seed=0):
        rng = np.random.default_rng(seed)
        # per unit: treatment, outcome noise, one covariate
        draws = np.array([[rng.uniform(0, 2), *rng.standard_normal(t + 1)] for _ in range(n)])
        x = draws[:, 0]
        y = x[:, None] * np.ones(t) + 0.01 * draws[:, 1 : t + 1]
        return Dataset(ids(n), x, draws[:, t + 1 :], Grid.uniform(t), y)

    def test_linear_dose_monotone(self):
        ds = self.continuous_ds()
        kx = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 0.5)
        model = krr_fit(ds, kx, SE_KV, lam=1e-3)
        dr = dose_response(model, [0.2, 1.0, 1.8])
        assert dr.effects[0] < dr.effects[1] < dr.effects[2]

    def test_duplicate_levels_duplicate_outputs(self):
        ds = self.continuous_ds()
        kx = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 0.5)
        model = krr_fit(ds, kx, SE_KV, lam=1e-3)
        dr = dose_response(model, [1.0, 1.0])
        assert dr.effects[0] == dr.effects[1]


class TestRegisterOutcomes:
    def shifted_ds(self, n=12, t=60, seed=0):
        rng = np.random.default_rng(seed)
        grid = Grid.uniform(t)
        s = rng.uniform(-0.05, 0.05, size=n)
        y = np.exp(-((grid.points - 0.5 - s[:, None]) ** 2) / 0.01)
        return Dataset(ids(n), alternating(n), np.zeros((n, 0)), grid, y)

    def test_reduces_cross_sectional_variance(self):
        ds = self.shifted_ds()
        registered, warps = register_outcomes(ds, smooth_window=0)
        before = ds.outcome_matrix.std(axis=0).mean()
        after = registered.outcome_matrix.std(axis=0).mean()
        assert after < before
        assert len(warps) == len(ds)

    def test_preserves_grids_and_metadata(self):
        ds = self.shifted_ds()
        registered, _ = register_outcomes(ds)
        assert registered.outcome_grid == ds.outcome_grid
        assert list(registered.ids) == list(ds.ids)
        np.testing.assert_array_equal(registered.treatments, ds.treatments)

    @pytest.mark.parametrize("per_arm", [False, True])
    @pytest.mark.parametrize("smooth_window", [None, 0])
    def test_outcome_warps_valid(self, per_arm, smooth_window):
        for ds in (self.shifted_ds(seed=3), generate(ScenarioConfig(n=20, t=30))[0]):
            _, warps = register_outcomes(ds, smooth_window=smooth_window, per_arm=per_arm)
            assert warps.shape == ds.outcome_matrix.shape
            assert_valid_warps(warps, ds.outcome_grid)

    def test_covariate_warps_valid(self):
        cfg = ScenarioConfig(n=20, t=30, scenario=Scenario.CONTINUOUS_FUNCTIONAL)
        ds = generate(cfg)[0]
        _, warps = estimators.register_covariate_curves(ds)
        assert warps.shape == ds.covariate_curve_matrix.shape
        assert_valid_warps(warps, ds.covariate_grid)


class TestNoPerCurveObjects:
    """Registration passes (n, T) matrices through: no ``WarpingFunction``
    at all, and per Karcher mean one ``SrsfCurve`` (its ``mean_srsf``) and
    no ``Curve`` per row."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = collections.Counter()
        for cls in (Curve, elastic.SrsfCurve, elastic.WarpingFunction):

            def counting(obj, post=cls.__post_init__, name=cls.__name__):
                counts[name] += 1
                post(obj)

            monkeypatch.setattr(cls, "__post_init__", counting)
        karcher = elastic.karcher_mean

        def counting_karcher(*args, **kwargs):
            counts["karcher_mean"] += 1
            return karcher(*args, **kwargs)

        monkeypatch.setattr(elastic, "karcher_mean", counting_karcher)
        return counts

    def test_register_outcomes_per_arm(self, counts):
        ds, _ = generate(ScenarioConfig(n=20, t=30))
        counts.clear()
        register_outcomes(ds, per_arm=True)
        assert counts["karcher_mean"] == 2
        assert counts["WarpingFunction"] == 0
        assert counts["SrsfCurve"] <= counts["karcher_mean"]
        assert counts["Curve"] <= counts["karcher_mean"]

    def test_iterative_estimate(self, counts):
        cfg = ScenarioConfig(n=20, t=30, scenario=Scenario.CONTINUOUS_FUNCTIONAL)
        ds = generate(cfg)[0]
        counts.clear()
        iterative_srvf_estimate(ds, IterativeConfig(r_max=2, karcher_max_iter=2))
        assert counts["karcher_mean"] == 2
        assert counts["WarpingFunction"] == 0
        assert counts["SrsfCurve"] <= counts["karcher_mean"]
        # the two means, two potential outcomes and their difference
        assert counts["Curve"] <= 5


class TestHyperparameterSelection:
    def test_holdout_error_finite(self):
        ds = make_ds(n=20, t=5, seed=5)
        err = holdout_error(ds, BIN_KX, SE_KV, lam=1e-2)
        assert np.isfinite(err)


class TestIterativeEstimate:
    def curve_covariate_ds(self, n=16, t=24, seed=0):
        rng = np.random.default_rng(seed)
        grid = Grid.uniform(t)
        # per unit: phase shift, outcome noise
        draws = np.array([[rng.uniform(-0.04, 0.04), *rng.standard_normal(t)] for _ in range(n)])
        x = alternating(n)
        vc = np.exp(-((grid.points - 0.5 - draws[:, :1]) ** 2) / 0.02)
        y = x[:, None] + vc + 0.05 * draws[:, 1:]
        return Dataset(ids(n), x, np.zeros((n, 0)), grid, y, grid, vc)

    def test_terminates_and_reports_trace(self):
        ds = self.curve_covariate_ds()
        res = iterative_srvf_estimate(ds, IterativeConfig(r_max=3))
        assert len(res.trace) <= 3
        assert all(np.isfinite(d) for d in res.trace)
        assert res.registered.outcome_grid == ds.outcome_grid

    def test_binary_effect_close_to_truth(self):
        ds = self.curve_covariate_ds(n=30, seed=1)
        res = iterative_srvf_estimate(ds, IterativeConfig(lam=1e-3))
        assert np.mean(np.abs(res.effect.delta.values - 1.0)) <= 0.2

    @staticmethod
    def record_karcher(monkeypatch):
        results = []
        karcher = elastic.karcher_mean

        def recording(*args, **kwargs):
            results.append(karcher(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(elastic, "karcher_mean", recording)
        return results

    def test_without_covariate_curves_single_pass(self, monkeypatch):
        ds = make_ds(n=14, t=8, seed=8)
        means = self.record_karcher(monkeypatch)
        res = iterative_srvf_estimate(ds)
        # the outcome mean is the only chain, and its flag is reported
        assert len(means) == 1
        assert res.converged == means[0].converged
        assert res.trace == []

    @pytest.mark.parametrize("data", ["binary", "curve-covariates"])
    def test_one_sweep_budget_reports_unconverged(self, monkeypatch, data):
        if data == "binary":
            ds, _ = generate(ScenarioConfig(n=40, t=30))
        else:
            ds = self.curve_covariate_ds()
        means = self.record_karcher(monkeypatch)
        res = iterative_srvf_estimate(ds, IterativeConfig(r_max=1, karcher_max_iter=1))
        assert len(means) == (1 if data == "binary" else 2)
        assert not any(m.converged for m in means)
        assert res.converged is False

    def test_deterministic(self):
        ds = self.curve_covariate_ds(seed=2)
        r1 = iterative_srvf_estimate(ds, IterativeConfig(r_max=2))
        r2 = iterative_srvf_estimate(ds, IterativeConfig(r_max=2))
        np.testing.assert_array_equal(
            r1.effect.delta.values, r2.effect.delta.values
        )

    @pytest.mark.parametrize(
        "counts", [{"r_max": 0}, {"karcher_max_iter": 0}, {"karcher_max_iter": -1}]
    )
    def test_config_rejects_counts_below_one(self, counts):
        with pytest.raises(ValueError):
            IterativeConfig(**counts)

    def test_registers_once_and_fits_once(self, monkeypatch):
        cfg = ScenarioConfig(
            n=20, t=50, scenario=Scenario.CONTINUOUS_FUNCTIONAL, shift=0.1, seed=0
        )
        ds = generate(cfg)[0]
        aligns, fits = [], []
        # every KRR fit, krr_fit's included, runs through estimators._fit
        align, fit = elastic._align_rows, estimators._fit

        def counting_align(template, Q, *args, **kwargs):
            aligns.append(Q.shape[0])
            return align(template, Q, *args, **kwargs)

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return fit(*args, **kwargs)

        monkeypatch.setattr(elastic, "_align_rows", counting_align)
        monkeypatch.setattr(estimators, "_fit", counting_fit)
        iterative_srvf_estimate(ds, IterativeConfig(r_max=3, karcher_max_iter=2))
        # curves aligned: two curve sets, each with at most
        # karcher_max_iter + r_max - 1 sweeps of 20 curves
        assert 0 < sum(aligns) <= 2 * 20 * (2 + 3 - 1)
        assert len(fits) == 1


class TestDispatch:
    NON_KERNEL = ("ipw", "dr", "frechet-euclid", "frechet-fr")

    def test_names_in_order(self):
        assert estimators.ESTIMATOR_NAMES == (
            "ipw", "dr", "frechet-euclid", "frechet-fr",
            "kernel", "operator-kernel", "srvf-operator-kernel", "iterative-srvf",
        )

    @pytest.mark.parametrize(
        "scenario", [Scenario.BINARY_NONMONOTONIC, Scenario.CONTINUOUS_FUNCTIONAL]
    )
    def test_iterative_srvf_runs_the_kernel_path_on_registered_curves(self, scenario):
        ds, _ = generate(ScenarioConfig(n=30, t=20, scenario=scenario))
        res = iterative_srvf_estimate(ds)
        plain = estimators.run_estimator(ds, "iterative-srvf")
        assert np.array_equal(plain.delta.values, res.effect.delta.values)
        for seed in (0, 1):
            searched = estimators.run_estimator(ds, "iterative-srvf", search=True, seed=seed)
            parity = estimators.run_estimator(res.registered, "kernel", search=True, seed=seed)
            assert np.array_equal(searched.delta.values, parity.delta.values)

    @pytest.mark.parametrize("name", NON_KERNEL)
    def test_non_kernel_estimators_reject_lam(self, name):
        ds, _ = generate(ScenarioConfig(n=30, t=12))
        with pytest.raises(ValueError, match=f"{name} takes no ridge penalty"):
            estimators.run_estimator(ds, name, lam=0.1)

    @pytest.mark.parametrize("name", NON_KERNEL)
    def test_non_kernel_estimators_ignore_search_and_seed(self, name):
        ds, _ = generate(ScenarioConfig(n=30, t=12))
        plain = estimators.run_estimator(ds, name)
        searched = estimators.run_estimator(ds, name, search=True, seed=3)
        assert np.array_equal(plain.delta.values, searched.delta.values)


class TestInputGramSymmetry:
    """Every input-Gram product that a fit or search eigendecomposes is
    exactly symmetric, so ``eigh`` reading one triangle loses nothing."""

    @pytest.mark.parametrize(
        "scenario, families",
        [
            (Scenario.BINARY_MONOTONIC, ("binary", "se")),
            (Scenario.CONTINUOUS_FUNCTIONAL, ("se", "fisher_rao")),
        ],
    )
    def test_full_and_train_blocks(self, monkeypatch, scenario, families):
        ds, _ = generate(ScenarioConfig(n=60, t=20, scenario=scenario))
        kx, kv = kernel_setup(ds)
        assert (kx.family.value, kv.family.value) == families
        grams = []
        ridge_path = estimators._ridge_path

        def recording(k_in, *args):
            grams.append(k_in)
            return ridge_path(k_in, *args)

        monkeypatch.setattr(estimators, "_ridge_path", recording)
        estimators.run_estimator(ds, "operator-kernel", search=True)
        # one train x train block per bandwidth scale, then the full fit
        assert [k.shape for k in grams] == [(48, 48)] * 3 + [(60, 60)]
        assert all(np.array_equal(k, k.T) for k in grams)


class TestHyperparameterSearch:
    def test_one_training_eigh_per_bandwidth_scale(self, monkeypatch):
        ds, _ = generate(ScenarioConfig(n=24, t=16))
        n_train = 24 - round(0.2 * 24)
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        select_hyperparameters(ds, k_y=output_gram(ds.outcome_grid))
        assert shapes.count((n_train, n_train)) == 3

    def test_one_output_eigh_per_run(self, monkeypatch):
        # 3 holdout fits and the final fit share the output Gram's eigh
        ds, _ = generate(ScenarioConfig(n=24, t=16))
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        estimators.run_estimator(ds, "operator-kernel", search=True)
        assert shapes.count((16, 16)) == 1

    def test_all_inf_falls_back_to_default_kernels(self):
        # two units leave a one-unit training set, so every holdout error is inf
        ds = make_ds(n=2, t=5, seed=8)
        assert holdout_error(ds, BIN_KX, SE_KV) == math.inf
        kx, kv, lam = select_hyperparameters(ds)
        assert (kx, kv) == kernel_setup(ds)
        assert lam == 1e-2


class TestCovariateFeatureBuilds:
    """SRSF features of the covariate curves are built once per fit, once
    per search, and once per estimator run, search and fit together."""

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        build = kernels._srsf_feature_matrix

        def counting_build(fmat, grid):
            builds.append(len(fmat))
            return build(fmat, grid)

        monkeypatch.setattr(kernels, "_srsf_feature_matrix", counting_build)
        return builds

    @staticmethod
    def curve_ds():
        cfg = ScenarioConfig(n=20, t=12, scenario=Scenario.CONTINUOUS_FUNCTIONAL)
        return generate(cfg)[0]

    def test_once_per_krr_fit(self, monkeypatch):
        ds = self.curve_ds()
        kx, kv = kernel_setup(ds)
        assert kv.family is KernelFamily.FISHER_RAO_GAUSSIAN
        builds = self.count_builds(monkeypatch)
        krr_fit(ds, kx, kv, lam=1e-2)
        assert builds == [20]

    def test_once_per_search(self, monkeypatch):
        ds = self.curve_ds()
        builds = self.count_builds(monkeypatch)
        select_hyperparameters(ds, seed=0)
        assert builds == [20]

    def test_once_per_iterative_estimate(self, monkeypatch):
        ds = self.curve_ds()
        builds = self.count_builds(monkeypatch)
        iterative_srvf_estimate(ds, IterativeConfig(r_max=1, karcher_max_iter=1))
        assert builds == [20]

    @pytest.mark.parametrize("search", [False, True])
    def test_once_per_kernel_run(self, monkeypatch, search):
        ds = self.curve_ds()
        builds = self.count_builds(monkeypatch)
        estimators.run_estimator(ds, "kernel", search=search)
        assert builds == [20]


class TestDistancesOncePerRun:
    """A searched run computes each input's n x n distances once; only the
    potential outcomes' new treatment levels add (1 x n) distances."""

    @pytest.mark.parametrize(
        "scenario, name, square",
        [
            # treatments and SRSF features; the output grid's distances
            (Scenario.CONTINUOUS_FUNCTIONAL, "kernel", [(20, 20), (20, 20)]),
            (Scenario.CONTINUOUS_FUNCTIONAL, "operator-kernel", [(12, 12), (20, 20), (20, 20)]),
            # the binary kernel reads no distances: the covariates' only
            (Scenario.BINARY_MONOTONIC, "kernel", [(20, 20)]),
        ],
    )
    def test_each_input_once(self, monkeypatch, scenario, name, square):
        ds, _ = generate(ScenarioConfig(n=20, t=12, scenario=scenario))
        shapes = []
        real = kernels._sq_dists

        def counting(a, b):
            shapes.append((len(a), len(b)))
            return real(a, b)

        monkeypatch.setattr(kernels, "_sq_dists", counting)
        estimators.run_estimator(ds, name, search=True)
        assert sorted(sh for sh in shapes if sh[0] > 1) == square
        assert all(sh == (1, 20) for sh in shapes if sh[0] == 1)

    def test_one_split_and_one_training_set_per_search(self, monkeypatch):
        ds, _ = generate(ScenarioConfig(n=24, t=16))
        splits, takes = [], []
        split, take = estimators._holdout_split, Dataset.take
        monkeypatch.setattr(
            estimators, "_holdout_split", lambda *a: splits.append(1) or split(*a)
        )
        monkeypatch.setattr(Dataset, "take", lambda self, idx: takes.append(1) or take(self, idx))
        select_hyperparameters(ds, k_y=output_gram(ds.outcome_grid))
        assert splits == [1]
        assert takes == [1]
