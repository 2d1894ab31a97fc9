"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance and runtime budget.
"""
import time

import numpy as np
import pytest

import funcause as fc
from funcause import (
    Curve,
    Grid,
    KernelFamily,
    KernelSpec,
    Metric,
    Regime,
    Scenario,
    ScenarioConfig,
    align_pair,
    effect_ci,
    fr_distance_sphere,
    frechet_mean,
    generate,
    grid_norm,
    input_gram,
    krr_fit,
    median_heuristic,
    output_gram,
    srsf_inverse,
    srsf_transform,
    warp_curve,
    welch_t_test,
)
from funcause.elastic import WarpingFunction
from funcause.fdata import Dataset
from funcause.cli import run_estimator


def _report(num: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def _random_smooth_curves(grid, n, seed):
    rng = np.random.default_rng(seed)
    t = grid.points
    out = []
    for _ in range(n):
        vals = np.zeros_like(t)
        for k in range(1, 5):
            vals += rng.normal() / k * np.sin(k * np.pi * t)
            vals += rng.normal() / k * np.cos(k * np.pi * t)
        out.append(Curve(grid, vals))
    return out


def test_criterion_01_fisher_rao_gram_psd():
    """Gram of the Fisher-Rao Gaussian curve kernel is PSD across seeds."""
    start = time.perf_counter()
    grid = Grid.uniform(40)
    ok = True
    worst = 0.0
    for seed in range(10):
        curves = _random_smooth_curves(grid, 50, seed)
        zeta = 1.0 / (2.0 * median_heuristic(curves, metric="fisher_rao") ** 2)
        rng = np.random.default_rng(seed)
        ds = Dataset(
            [f"s{i}" for i in range(50)],
            (np.arange(50) % 2).astype(float),
            np.zeros((50, 0)),
            grid,
            rng.standard_normal((50, 40)),
            grid,
            np.array([c.values for c in curves]),
        )
        gram = input_gram(ds, None, KernelSpec(KernelFamily.FISHER_RAO_GAUSSIAN, zeta))
        eigs = np.linalg.eigvalsh(gram.entries)
        ratio = eigs[0] / max(eigs[-1], 1e-300)
        worst = min(worst, ratio)
        ok = ok and eigs[0] >= -1e-8 * eigs[-1]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(1, ok, f"min eig ratio {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_srsf_round_trip():
    """Round-trip sup error bounds plus second-order convergence ratio."""
    corpus = [
        lambda t: np.sin(2 * np.pi * t),
        lambda t: 0.8 * np.sin(3 * np.pi * t),
        lambda t: t**3 - 1.5 * t**2 + 0.25 * t,
    ]
    ok = True
    ratios = []
    for f in corpus:
        errs = {}
        for t_len in (128, 256):
            grid = Grid.uniform(t_len)
            c = Curve(grid, f(grid.points))
            back = srsf_inverse(srsf_transform(c))
            errs[t_len] = float(np.max(np.abs(back.values - c.values)))
        ok = ok and errs[256] <= 1e-3 and errs[128] <= 4e-3
        ratio = errs[128] / errs[256]
        ratios.append(ratio)
        ok = ok and 3.0 <= ratio <= 5.0
    _report(2, ok, "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_03_alignment_contraction_and_warp_recovery():
    grid = Grid.uniform(128)
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        a = Curve(grid, np.cumsum(rng.standard_normal(128)) * 0.1)
        b = Curve(grid, np.cumsum(rng.standard_normal(128)) * 0.1)
        qa, qb = srsf_transform(a), srsf_transform(b)
        pre = grid_norm(qa.values - qb.values, grid)
        _, _, post = align_pair(qa, qb)
        ok = ok and post <= pre + 1e-12

    t = grid.points
    gam = 0.7 * t + 0.3 * t**2
    gam[0], gam[-1] = 0.0, 1.0
    f = Curve(
        grid,
        np.exp(-((t - 0.3) ** 2) / 0.005) + 0.8 * np.exp(-((t - 0.7) ** 2) / 0.004),
    )
    warped = warp_curve(f, WarpingFunction(grid, gam))
    gamma, _, _ = align_pair(srsf_transform(warped), srsf_transform(f))
    cells = float(np.max(np.abs(gamma.values - gam)) * 127)
    ok = ok and cells <= 2.0
    _report(3, ok, f"warp recovery {cells:.2f} cells")


def test_criterion_04_kronecker_matches_dense():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 9))
        t_len = int(rng.integers(3, max(4, 64 // n) + 1))
        grid = Grid.uniform(t_len)
        draws = rng.standard_normal((n, 2 + t_len))  # per unit: covariates, outcome
        x = (np.arange(n) % 2).astype(float)
        ds = Dataset([f"s{i}" for i in range(n)], x, draws[:, :2], grid, draws[:, 2:])
        kx = KernelSpec(KernelFamily.BINARY_INDICATOR)
        kv = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 1.0)
        k_y = output_gram(grid) if trial % 2 else None
        lam = 10.0 ** rng.uniform(-3, 0)
        model = krr_fit(ds, kx, kv, k_y=k_y, lam=lam)
        kxv = input_gram(ds, kx, kv).entries
        ky = np.eye(t_len) if k_y is None else k_y.entries
        big = np.kron(kxv, ky) + lam * np.eye(n * t_len)
        dense = np.linalg.solve(big, ds.outcome_matrix.reshape(-1)).reshape(n, t_len)
        rel = np.max(np.abs(model.alpha - dense)) / max(1.0, np.max(np.abs(dense)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(4, ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_sanity_ladder():
    """Randomized, noise-free, shift-free data: every simple estimator
    recovers the true effect curve."""
    cfg = ScenarioConfig(
        n=200,
        t=60,
        scenario=Scenario.BINARY_NONMONOTONIC,
        noise=0.0,
        shift=0.0,
        confounding=0.0,
        n_covariates=0,
    )
    ds, truth = generate(cfg, replicate=0)
    ok = True
    maes = {}
    for name, lam in (
        ("ipw", None),
        ("dr", None),
        ("frechet-euclid", None),
        ("kernel", 1e-10),
    ):
        mae, _ = fc.effect_error(run_estimator(ds, name, lam=lam), truth)
        maes[name] = mae
        ok = ok and mae <= 1e-3
    _report(5, ok, "max mae %.2e" % max(maes.values()))


def test_criterion_06_monotonic_table_trend():
    start = time.perf_counter()
    cfg = ScenarioConfig(n=250, t=100, scenario=Scenario.BINARY_MONOTONIC)
    wins_mae, wins_std = 0, 0
    for rep in range(5):
        ds, truth = generate(cfg, replicate=rep)
        res = {}
        for name in ("ipw", "kernel", "operator-kernel", "srvf-operator-kernel"):
            mae, per_t = fc.effect_error(
                run_estimator(ds, name, search=(name != "ipw")), truth
            )
            res[name] = (mae, float(np.std(per_t.values)))
        if res["operator-kernel"][0] < min(res["ipw"][0], res["kernel"][0]):
            wins_mae += 1
        if res["srvf-operator-kernel"][1] <= res["operator-kernel"][1]:
            wins_std += 1
    elapsed = time.perf_counter() - start
    ok = wins_mae >= 4 and wins_std >= 3 and elapsed < 180.0
    _report(6, ok, f"mae wins {wins_mae}/5, std wins {wins_std}/5, {elapsed:.0f}s")


def test_criterion_07_continuous_flattening_trend():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        n=250, t=50, scenario=Scenario.CONTINUOUS_FUNCTIONAL, shift=0.1
    )
    wins = 0
    for rep in range(5):
        ds, truth = generate(cfg, replicate=rep)
        _, kernel_pt = fc.effect_error(run_estimator(ds, "kernel", search=True), truth)
        _, iter_pt = fc.effect_error(run_estimator(ds, "iterative-srvf"), truth)
        if float(np.std(iter_pt.values)) <= float(np.std(kernel_pt.values)):
            wins += 1
    elapsed = time.perf_counter() - start
    ok = wins >= 3 and elapsed < 240.0
    _report(7, ok, f"std wins {wins}/5, {elapsed:.0f}s")


def _gaussian_ci_dataset(rng, delta):
    grid = Grid.uniform(10)
    x = (rng.uniform(size=200) < 0.5).astype(float)
    if x.sum() < 2 or x.sum() > 198:
        x[:4] = [0, 0, 1, 1]
    y = x[:, None] * delta[None, :] + rng.standard_normal((200, 10))
    return Dataset([f"s{i}" for i in range(200)], x, np.zeros((200, 0)), grid, y), x, y


def test_criterion_08_ci_coverage_and_regime():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    grid = Grid.uniform(10)
    delta = np.linspace(0.5, 1.5, 10)
    true_norm = float(np.linalg.norm(delta))
    covered = 0
    for _ in range(500):
        ds, x, y = _gaussian_ci_dataset(rng, delta)
        d_hat = Curve(grid, y[x == 1].mean(axis=0) - y[x == 0].mean(axis=0))
        ci = effect_ci(ds, d_hat)
        if ci.lower <= true_norm <= ci.upper:
            covered += 1
    coverage = covered / 500.0

    fired = 0
    for _ in range(200):
        ds, x, y = _gaussian_ci_dataset(rng, np.zeros(10))
        d_hat = Curve(grid, y[x == 1].mean(axis=0) - y[x == 0].mean(axis=0))
        if effect_ci(ds, d_hat).regime is Regime.ZERO_NORM:
            fired += 1
    fire_rate = fired / 200.0
    elapsed = time.perf_counter() - start
    ok = 0.90 <= coverage <= 0.98 and fire_rate >= 0.95 and elapsed < 120.0
    _report(8, ok, f"coverage {coverage:.3f}, null fires {fire_rate:.2f}, {elapsed:.0f}s")


def test_criterion_09_sphere_mean_consistency():
    grid = Grid.uniform(30)
    base = np.exp(-((grid.points - 0.5) ** 2) / 0.02)
    base = base / base.sum()
    pop = Curve(grid, base)
    good = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        errs = []
        for n in (20, 80, 320):
            curves = []
            for _ in range(n):
                logit = np.log(base) + 0.3 * rng.standard_normal(30)
                p = np.exp(logit)
                curves.append(Curve(grid, p / p.sum()))
            mean = frechet_mean(curves, metric=Metric.FISHER_RAO_SPHERE).mean
            errs.append(fr_distance_sphere(mean, pop))
        if errs[0] > errs[1] > errs[2]:
            good += 1
    ok = good >= 8
    _report(9, ok, f"strict decrease in {good}/10 seed batches")


def test_criterion_10_welch_matches_arbitrary_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6]
    b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2]
    res = welch_t_test(a, b)

    mpmath.mp.dps = 60
    ma = [mpmath.mpf(repr(v)) for v in a]
    mb = [mpmath.mpf(repr(v)) for v in b]
    na, nb = len(ma), len(mb)
    mean_a = sum(ma) / na
    mean_b = sum(mb) / nb
    va = sum((v - mean_a) ** 2 for v in ma) / (na - 1)
    vb = sum((v - mean_b) ** 2 for v in mb) / (nb - 1)
    sa, sb = va / na, vb / nb
    t_ref = (mean_a - mean_b) / mpmath.sqrt(sa + sb)
    dof = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    x = dof / (dof + t_ref**2)
    p_ref = mpmath.betainc(dof / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)

    t_err = abs(res.statistic - float(t_ref))
    p_err = abs(res.p_value - float(p_ref))
    ok = t_err <= 1e-8 and p_err <= 1e-6
    _report(10, ok, f"t err {t_err:.2e}, p err {p_err:.2e}")
