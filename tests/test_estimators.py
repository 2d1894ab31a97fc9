"""Tests for kernel ridge regression estimators and the registration loop."""
import collections
import inspect
import math
from dataclasses import replace

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
    NumericalError,
    Scenario,
    ScenarioConfig,
    dose_response,
    effect_ci,
    estimate,
    generate,
    input_gram,
    iterative_srvf_estimate,
    kernel_dynamic_effect,
    krr_fit,
    output_gram,
    potential_outcome,
    register_outcomes,
)
from funcause import classical, elastic, estimators, frechet, kernels
from funcause.estimators import holdout_error, predict_curve

from test_elastic import assert_valid_warps


def search(ds, k_y=None):
    """The library's hyperparameter search, as a searched run calls it."""
    (choice,) = estimators._search(ds, *estimators._default_kernels(ds), [k_y])
    return choice


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


# treatments and treatment kernel of each solve the dense oracle checks: two
# arms, three levels and a one-unit level (one ridge block per level), and a
# continuous treatment (one block of every unit)
TREATMENTS = {
    "two-arms": (alternating, BIN_KX),
    "three-levels": (lambda n: (np.arange(n) % 3).astype(float), BIN_KX),
    "one-unit-level": (lambda n: np.where(np.arange(n) == 1, 2.0, alternating(n)), BIN_KX),
    "continuous": (
        lambda n: np.linspace(-1.0, 1.0, n) ** 3,
        KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 0.5),
    ),
}


class TestKroneckerSolve:
    @pytest.mark.parametrize("with_ky", [False, True])
    def test_matches_dense_oracle(self, with_ky):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            t = int(rng.integers(3, max(4, 64 // n) + 1))
            base = make_ds(n=n, t=t, seed=trial, noise=1.0)
            k_y = output_gram(base.outcome_grid) if with_ky else None
            lam = 10.0 ** rng.uniform(-3, 0)
            for case, (treatments, kx) in TREATMENTS.items():
                ds = replace(base, treatments=treatments(n))
                model = krr_fit(ds, kx, SE_KV, k_y=k_y, lam=lam)
                dense_alpha = dense_solve(ds, kx, SE_KV, k_y, lam)
                scale = max(1.0, np.max(np.abs(dense_alpha)))
                assert np.max(np.abs(model.alpha - dense_alpha)) / scale <= 1e-8, case

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

    @pytest.mark.parametrize("window", [0, 5])
    def test_register_returns_its_karcher_mean(self, window):
        # the rows are the smooth parts warped by their own Karcher mean's
        # warps, plus the unwarped residuals
        ds = self.shifted_ds(seed=4)
        rows, grid = ds.outcome_matrix, ds.outcome_grid
        registered, mean = estimators._register(rows, grid, 0.05, window, max_iter=3)
        if window > 1:
            smooth = np.array([estimators._moving_average(row, window) for row in rows])
        else:
            smooth = rows
        alone = elastic.karcher_mean(smooth, grid, 3, penalty=0.05)
        assert np.array_equal(mean.warps, alone.warps)
        assert mean.objective_trace == alone.objective_trace
        assert not mean.warps.flags.writeable
        warped = elastic._interp_rows(alone.warps, grid.points, smooth)
        assert np.array_equal(registered, warped + (rows - smooth if window > 1 else 0.0))

    def test_each_arm_registered_alone(self):
        # per-arm registration equals registering each arm's rows by itself
        ds = self.shifted_ds(seed=5)
        registered, warps = register_outcomes(ds, smooth_window=5, per_arm=True)
        y, grid = ds.outcome_matrix, ds.outcome_grid
        for arm in (0.0, 1.0):
            idx = ds.arm_indices(arm)
            rows, mean = estimators._register(y[idx], grid, estimators.REGISTER_PENALTY, 5)
            assert np.array_equal(registered.outcome_matrix[idx], rows)
            assert np.array_equal(warps[idx], mean.warps)


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

    @pytest.mark.parametrize("with_ky", [False, True])
    def test_held_out_level_without_training_units(self, with_ky):
        base = make_ds(n=15, t=6, seed=3, noise=1.0)
        train, test = estimators._holdout_split(base)
        # a third treatment level held by one held-out unit only
        x = base.treatments.copy()
        x[test[0]] = 2.0
        ds = replace(base, treatments=x)
        k_y = output_gram(ds.outcome_grid) if with_ky else None
        lam = 0.05
        # the full-Gram formula: fit on the training units' whole Gram and
        # predict each held-out unit from its kernel row against them
        fit = ds.take(train)
        alpha = dense_solve(fit, BIN_KX, SE_KV, k_y, lam)
        rows = kernels.cross_gram(BIN_KX, x[test], x[train]) * kernels.cross_gram(
            SE_KV, ds.covariate_matrix[test], ds.covariate_matrix[train]
        )
        pred = rows @ alpha if k_y is None else rows @ alpha @ k_y.entries
        assert np.all(pred[0] == 0.0)
        expected = np.sum((pred - ds.outcome_matrix[test]) ** 2)
        err = holdout_error(ds, BIN_KX, SE_KV, k_y=k_y, lam=lam)
        assert err == pytest.approx(expected, rel=1e-10, abs=0)


class TestIterativeEstimate:
    def curve_covariate_ds(self, n=16, t=24, seed=0, tc=None):
        """Covariate curves on the outcome grid, or on ``Grid.uniform(tc)``."""
        rng = np.random.default_rng(seed)
        grid = Grid.uniform(t)
        vgrid = grid if tc is None else Grid.uniform(tc)
        # per unit: phase shift, outcome noise
        draws = np.array([[rng.uniform(-0.04, 0.04), *rng.standard_normal(t)] for _ in range(n)])
        x = alternating(n)
        vc = np.exp(-((vgrid.points - 0.5 - draws[:, :1]) ** 2) / 0.02)
        y = x[:, None] + np.exp(-((grid.points - 0.5 - draws[:, :1]) ** 2) / 0.02)
        y += 0.05 * draws[:, 1:]
        return Dataset(ids(n), x, np.zeros((n, 0)), grid, y, vgrid, vc)

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

    @pytest.mark.parametrize("tc", [None, 31])
    def test_covariate_curves_take_their_own_mean_warps(self, tc):
        ds = self.curve_covariate_ds(tc=tc)
        res = iterative_srvf_estimate(ds, IterativeConfig(r_max=2, karcher_max_iter=2))
        # the covariate curves get exactly their own Karcher mean's warps
        vc, vgrid = ds.covariate_curve_matrix, ds.covariate_grid
        alone = elastic.karcher_mean(vc, vgrid, 3)
        expected = elastic._interp_rows(alone.warps, vgrid.points, vc)
        assert np.array_equal(res.registered.covariate_curve_matrix, expected)

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


class TestSharedStopRule:
    """Every registration runs its Karcher means through the public
    ``elastic.karcher_mean``, under ``elastic``'s one stop rule and its one
    sweep budget."""

    @pytest.fixture
    def budgets(self, monkeypatch):
        seen = []
        karcher = elastic.karcher_mean
        signature = inspect.signature(karcher)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["max_iter"])
            return karcher(*args, **kwargs)

        monkeypatch.setattr(elastic, "karcher_mean", recording)
        return seen

    PATHS = {
        "frechet-fr": lambda ds: estimators.run_estimator(ds, "frechet-fr"),
        "srvf-operator-kernel": lambda ds: estimators.run_estimator(ds, "srvf-operator-kernel"),
        "register_outcomes": register_outcomes,
        "register_covariate_curves": estimators.register_covariate_curves,
        "iterative-srvf": lambda ds: estimators.run_estimator(ds, "iterative-srvf"),
        "iterative_srvf_estimate": iterative_srvf_estimate,
    }

    @pytest.mark.parametrize("path", PATHS)
    def test_every_registration_passes_the_shared_budget(self, budgets, path):
        binary = path in ("frechet-fr", "srvf-operator-kernel")
        scenario = Scenario.BINARY_NONMONOTONIC if binary else Scenario.CONTINUOUS_FUNCTIONAL
        ds, _ = generate(ScenarioConfig(n=20, t=20, scenario=scenario))
        self.PATHS[path](ds)
        assert budgets and all(b == elastic.KARCHER_SWEEPS for b in budgets)


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
        searched = estimators.run_estimator(ds, "iterative-srvf", search=True)
        parity = estimators.run_estimator(res.registered, "kernel", search=True)
        assert np.array_equal(searched.delta.values, parity.delta.values)

    @pytest.mark.parametrize("name", NON_KERNEL)
    def test_non_kernel_estimators_reject_lam(self, name):
        ds, _ = generate(ScenarioConfig(n=30, t=12))
        with pytest.raises(ValueError, match=f"{name} takes no ridge penalty"):
            estimators.run_estimator(ds, name, lam=0.1)

    @pytest.mark.parametrize("name", NON_KERNEL)
    def test_non_kernel_estimators_ignore_search(self, name):
        ds, _ = generate(ScenarioConfig(n=30, t=12))
        plain = estimators.run_estimator(ds, name)
        searched = estimators.run_estimator(ds, name, search=True)
        assert np.array_equal(plain.delta.values, searched.delta.values)


class TestEstimate:
    BINARY = (Scenario.BINARY_NONMONOTONIC, Scenario.BINARY_MONOTONIC)

    @pytest.mark.parametrize("search", [False, True])
    @pytest.mark.parametrize("scenario", BINARY)
    def test_equals_run_estimator_then_effect_ci(self, scenario, search):
        ds, _ = generate(ScenarioConfig(n=24, t=12, scenario=scenario))
        for name in estimators.ESTIMATOR_NAMES:
            est = estimate(ds, name, search=search, level=0.95)
            effect = estimators.run_estimator(ds, name, search=search)
            ci = effect_ci(ds, effect.delta, level=0.95)
            assert np.array_equal(est.effect.delta.values, effect.delta.values)
            assert est.effect.scalar_norm == effect.scalar_norm
            assert (est.ci.estimate, est.ci.lower, est.ci.upper, est.ci.level, est.ci.regime) == (
                ci.estimate, ci.lower, ci.upper, ci.level, ci.regime
            )
            assert np.array_equal(est.ci.pointwise, ci.pointwise)

    def test_no_interval_without_a_level(self):
        ds, _ = generate(ScenarioConfig(n=24, t=12))
        est = estimate(ds, "kernel")
        assert est.ci is None
        plain = estimators.run_estimator(ds, "kernel")
        assert np.array_equal(est.effect.delta.values, plain.delta.values)


class TestLambdaRule:
    CALLS = {
        "krr_fit": lambda ds, lam: krr_fit(ds, BIN_KX, SE_KV, lam=lam),
        "holdout_error": lambda ds, lam: holdout_error(ds, BIN_KX, SE_KV, lam=lam),
        "IterativeConfig": lambda ds, lam: IterativeConfig(lam=lam),
        "run_estimator": lambda ds, lam: estimators.run_estimator(ds, "kernel", lam=lam),
    }

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("call", CALLS)
    def test_rejected_where_it_enters(self, call, lam):
        with pytest.raises(ValueError, match=r"^lambda must be positive and finite$"):
            self.CALLS[call](make_ds(), lam)


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
        kx, kv = estimators._default_kernels(ds)[1](1.0)
        assert (kx.family.value, kv.family.value) == families
        grams = []
        ridge_path = estimators._ridge_path

        def recording(k_in, *args):
            grams.append(k_in)
            return ridge_path(k_in, *args)

        monkeypatch.setattr(estimators, "_ridge_path", recording)
        eigh_sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: eigh_sizes.append(len(a)) or eigh(a)
        )
        estimators.run_estimator(ds, "operator-kernel", search=True)
        train, _ = estimators._holdout_split(ds)
        if ds.is_binary():
            # one train x train block per arm per bandwidth scale, then one
            # block per arm for the final fit; no eigh, the T x T output
            # Gram's included, is larger than the largest arm
            x = ds.treatments
            arms = [int(np.sum(x == arm)) for arm in (0.0, 1.0)]
            blocks = [int(np.sum(x[train] == arm)) for arm in (0.0, 1.0)] * 3 + arms
            assert max(eigh_sizes) <= max(arms)
        else:
            # one train x train block per bandwidth scale, then the full fit
            blocks = [len(train)] * 3 + [len(ds)]
        assert [k.shape for k in grams] == [(m, m) for m in blocks]
        assert all(np.array_equal(k, k.T) for k in grams)


class TestHyperparameterSearch:
    def test_one_training_eigh_per_bandwidth_scale(self, monkeypatch):
        # binary data: one eigh per training arm per scale, and the output
        # Gram's
        ds, _ = generate(ScenarioConfig(n=24, t=16))
        assert ds.is_binary()
        train, _ = estimators._holdout_split(ds)
        train_arms = [int(np.sum(ds.treatments[train] == arm)) for arm in (0.0, 1.0)]
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        search(ds, k_y=output_gram(ds.outcome_grid))
        assert sorted(shapes) == sorted([(m, m) for m in train_arms] * 3 + [(16, 16)])

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
        kx, kv, lam = search(ds)
        assert (kx, kv) == estimators._default_kernels(ds)[1](1.0)
        assert lam == 1e-2


def per_lambda_errors(ds, inputs, split, kx, kv, k_y, lams):
    """Holdout errors solved one lambda at a time: each group's alpha from
    ``_ridge_path`` and its held-out predictions from ``_outputs``, summed
    over every held-out unit."""
    xin, vin = inputs
    train, test = split
    y = ds.outcome_matrix
    ky_mat = None if k_y is None else k_y.entries
    preds = np.zeros((len(lams), len(test), y.shape[1]))
    for g in estimators._levels(kx, ds.treatments):
        member = np.zeros(len(ds), dtype=bool)
        member[g] = True
        tr, held = train[member[train]], member[test]
        te = test[held]
        k_in = xin.gram(kx, tr, tr) * vin.gram(kv, tr, tr)
        (solve,) = estimators._ridge_path(k_in, y[tr], [k_y])
        rows = xin.gram(kx, te, tr) * vin.gram(kv, te, tr)
        preds[:, held] = [estimators._outputs(rows, solve(lam), ky_mat) for lam in lams]
    return np.array([np.sum((p - y[test]) ** 2) for p in preds])


class TestGridScoring:
    """A holdout scores the whole lambda grid in each training block's
    eigenbasis, as solving and predicting one lambda at a time would."""

    @staticmethod
    def scored(ds, split, k_y):
        inputs, setup = estimators._default_kernels(ds)
        for scale in estimators._SCALE_GRID:
            kx, kv = setup(scale)
            lams = estimators._LAM_GRID
            (errs,) = estimators._holdout_errors(ds, inputs, split, kx, kv, [k_y], lams)
            yield errs, per_lambda_errors(ds, inputs, split, kx, kv, k_y, lams)

    @pytest.mark.parametrize("operator", [False, True])
    @pytest.mark.parametrize(
        "scenario", [Scenario.BINARY_NONMONOTONIC, Scenario.CONTINUOUS_FUNCTIONAL]
    )
    def test_matches_per_lambda_solves(self, scenario, operator):
        # binary data: two groups; continuous: one
        ds, _ = generate(ScenarioConfig(n=60, t=20, scenario=scenario))
        k_y = output_gram(ds.outcome_grid) if operator else None
        kx, _ = estimators._default_kernels(ds)[1](1.0)
        groups = estimators._levels(kx, ds.treatments)
        assert len(groups) == (2 if ds.is_binary() else 1)
        for grid, reference in self.scored(ds, estimators._holdout_split(ds), k_y):
            assert len(grid) == len(estimators._LAM_GRID)
            np.testing.assert_allclose(grid, reference, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("operator", [False, True])
    def test_level_without_training_units_predicts_zero(self, operator):
        # every treated unit is held out, with a few controls
        ds, _ = generate(ScenarioConfig(n=40, t=12))
        treated, controls = ds.arm_indices(1.0), ds.arm_indices(0.0)
        test = np.sort(np.concatenate([treated, controls[:5]]))
        split = (controls[5:], test)
        control_split = (controls[5:], controls[:5])
        k_y = output_gram(ds.outcome_grid) if operator else None
        y_treated = float(np.sum(ds.outcome_matrix[treated] ** 2))
        scored = zip(self.scored(ds, split, k_y), self.scored(ds, control_split, k_y))
        for (grid, reference), (controls_only, _) in scored:
            np.testing.assert_allclose(grid, reference, rtol=1e-9, atol=0.0)
            np.testing.assert_allclose(
                grid, np.add(controls_only, y_treated), rtol=1e-12, atol=0.0
            )

    CALLS = {
        "search": lambda ds, k_y: search(ds, k_y),
        "fit": lambda ds, k_y: krr_fit(ds, *estimators._default_kernels(ds)[1](1.0), k_y),
    }

    @pytest.mark.parametrize("operator", [False, True])
    @pytest.mark.parametrize("call", CALLS)
    def test_non_finite_decomposition_raises(self, monkeypatch, call, operator):
        ds, _ = generate(ScenarioConfig(n=24, t=16))
        k_y = output_gram(ds.outcome_grid) if operator else None

        def nan_eigh(a, *args, **kwargs):
            m = len(a)
            return np.full(m, np.nan), np.full((m, m), np.nan)

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        with pytest.raises(NumericalError):
            self.CALLS[call](ds, k_y)


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
        kx, kv = estimators._default_kernels(ds)[1](1.0)
        assert kv.family is KernelFamily.FISHER_RAO_GAUSSIAN
        builds = self.count_builds(monkeypatch)
        krr_fit(ds, kx, kv, lam=1e-2)
        assert builds == [20]

    def test_once_per_search(self, monkeypatch):
        ds = self.curve_ds()
        builds = self.count_builds(monkeypatch)
        search(ds)
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
        search(ds, k_y=output_gram(ds.outcome_grid))
        assert splits == [1]
        assert takes == [1]


def recorder(monkeypatch, module, name):
    """Patch ``module.name`` to record each call's arguments in the
    returned list before calling through."""
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


class TestRunEstimators:
    """Names run together give each name's own ``run_estimator`` effect,
    and a kernel group does its input-side work once."""

    KERNEL_NAMES = ("kernel", "operator-kernel", "srvf-operator-kernel", "iterative-srvf")

    @staticmethod
    def assert_separate(ds, names, lam, search):
        joint = estimators.run_estimators(ds, names, lam, search)
        assert len(joint) == len(names)
        for name, effect in zip(names, joint):
            alone = estimators.run_estimator(ds, name, lam, search)
            assert np.array_equal(effect.delta.values, alone.delta.values), name
            assert effect.scalar_norm == alone.scalar_norm

    # reversed, operator-kernel comes before kernel
    @pytest.mark.parametrize("order", [tuple, lambda names: tuple(reversed(names))])
    @pytest.mark.parametrize("lam, search", [(None, False), (None, True), (0.1, False), (0.1, True)])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_equals_separate_runs(self, scenario, lam, search, order):
        # the non-kernel names take no lam and need binary treatments
        ds, _ = generate(ScenarioConfig(n=24, t=16, scenario=scenario))
        names = estimators.ESTIMATOR_NAMES
        if lam is not None or not ds.is_binary():
            names = self.KERNEL_NAMES
        self.assert_separate(ds, order(names), lam, search)

    @pytest.mark.parametrize("lam", [None, 0.1])
    def test_names_choosing_different_kernels_equal_separate_runs(self, monkeypatch, lam):
        ds, _ = generate(ScenarioConfig(n=24, t=16, scenario=Scenario.BINARY_MONOTONIC))
        k_ys = [None, output_gram(ds.outcome_grid)]
        choices = estimators._search(ds, *estimators._default_kernels(ds), k_ys)
        assert choices[0][:2] != choices[1][:2]
        fits = recorder(monkeypatch, estimators, "_fit")
        self.assert_separate(ds, ["operator-kernel", "kernel"], lam, True)
        # one joint fit per chosen (kx, kv), then one per separate run
        assert len(fits) == 4

    def test_shared_work_is_done_once(self, monkeypatch):
        # both names choose the same kernels here, so the pair decomposes
        # what one operator-kernel run does: 3 x 2 training arms, 2 full
        # arms and the T x T output Gram
        ds, _ = generate(ScenarioConfig(n=24, t=16))
        k_ys = [None, output_gram(ds.outcome_grid)]
        choices = estimators._search(ds, *estimators._default_kernels(ds), k_ys)
        assert choices[0][:2] == choices[1][:2]
        train, _ = estimators._holdout_split(ds)
        counted = {
            "eigh": recorder(monkeypatch, np.linalg, "eigh"),
            "_sq_dists": recorder(monkeypatch, kernels, "_sq_dists"),
            "_holdout_split": recorder(monkeypatch, estimators, "_holdout_split"),
            "output_gram": recorder(monkeypatch, estimators, "output_gram"),
        }

        def shapes(what):
            return sorted(np.shape(args[0]) for args in counted[what])

        estimators.run_estimator(ds, "operator-kernel", search=True)
        alone = shapes("eigh")
        for calls in counted.values():
            calls.clear()
        estimators.run_estimators(ds, ["kernel", "operator-kernel"], search=True)
        assert shapes("eigh") == alone
        x = ds.treatments
        blocks = [int(np.sum(x[train] == arm)) for arm in (0.0, 1.0)] * 3
        blocks += [int(np.sum(x == arm)) for arm in (0.0, 1.0)] + [16]
        assert alone == sorted((m, m) for m in blocks)
        # the output grid's and the covariates' distances
        assert shapes("_sq_dists") == [(16, 1), ds.covariate_matrix.shape]
        assert len(counted["_holdout_split"]) == 1
        assert len(counted["output_gram"]) == 1

    def test_groups(self):
        names = ["ipw", "operator-kernel", "srvf-operator-kernel", "kernel", "iterative-srvf",
                 "frechet-fr"]
        assert estimators.estimator_groups(names) == [
            ["ipw"], ["operator-kernel", "kernel"], ["srvf-operator-kernel"],
            ["iterative-srvf"], ["frechet-fr"],
        ]

    @pytest.mark.parametrize(
        "names, lam, message",
        [
            (["srvf-operator-kernel", "kernel", "bogus"], None, "unknown estimator: bogus"),
            (["srvf-operator-kernel", "kernel", "kernel"], None, "repeated estimators"),
            (["srvf-operator-kernel", "kernel", "ipw"], 0.1, "ipw takes no ridge penalty"),
            (["srvf-operator-kernel", "kernel"], -1.0, "lambda must be positive and finite"),
        ],
    )
    def test_every_name_checked_before_any_work(self, monkeypatch, names, lam, message):
        ds, _ = generate(ScenarioConfig(n=24, t=16))

        def no_work(*args, **kwargs):
            raise AssertionError("work started before every argument was checked")

        for module, name in [
            (estimators, "_default_kernels"),
            (estimators, "register_outcomes"),
            (estimators, "_register_iterative"),
            (estimators, "output_gram"),
            (frechet, "group_potential_outcomes"),
            (classical, "fit_propensity"),
        ]:
            monkeypatch.setattr(module, name, no_work)
        with pytest.raises(ValueError, match=message):
            estimators.run_estimators(ds, names, lam)
