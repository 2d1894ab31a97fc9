"""Tests for kernel functions, Gram builders, and the median heuristic."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcause import (
    Curve,
    Dataset,
    Grid,
    GramMatrix,
    KernelFamily,
    KernelSpec,
    cross_gram,
    fr_distance_srsf,
    input_gram,
    median_heuristic,
    output_gram,
)
from funcause import kernels
from funcause.kernels import _covariate_points, _Input, _sq_dists
from kernel_oracles import binary_kernel, fr_kernel, is_psd, se_kernel


def smooth_curves(grid, n, seed=0):
    rng = np.random.default_rng(seed)
    t = grid.points
    out = []
    for _ in range(n):
        vals = np.zeros_like(t)
        for k in range(1, 4):
            vals += rng.normal() / k * np.sin(k * np.pi * t)
            vals += rng.normal() / k * np.cos(k * np.pi * t)
        out.append(Curve(grid, vals))
    return out


def curve_dataset(n=8, t=20, seed=0):
    rng = np.random.default_rng(seed)
    grid = Grid.uniform(t)
    vcurves = np.array([c.values for c in smooth_curves(grid, n, seed=seed + 1)])
    draws = rng.standard_normal((n, 2 + t))  # per unit: covariates, outcome
    x = (np.arange(n) % 2).astype(float)
    return Dataset([f"s{i}" for i in range(n)], x, draws[:, :2], grid, draws[:, 2:], grid, vcurves)


def covariate_curves(ds):
    return [Curve(ds.covariate_grid, row) for row in ds.covariate_curve_matrix]


class TestScalarKernels:
    def test_se_kernel_identity(self):
        assert se_kernel(1.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_se_kernel_closed_form(self):
        assert se_kernel(0.0, 2.0, 1.0) == pytest.approx(np.exp(-2.0))

    def test_se_kernel_bad_lengthscale(self):
        with pytest.raises(ValueError):
            se_kernel(0.0, 1.0, 0.0)

    def test_binary_kernel(self):
        assert binary_kernel(1.0, 1.0) == 1.0
        assert binary_kernel(1.0, 0.0) == 0.0

    def test_fr_kernel_range_and_identity(self):
        grid = Grid.uniform(40)
        a, b = smooth_curves(grid, 2, seed=2)
        k = fr_kernel(a, b, zeta=1.0)
        assert 0.0 < k <= 1.0
        assert fr_kernel(a, a, zeta=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_fr_kernel_equals_one_iff_distance_zero(self):
        grid = Grid.uniform(40)
        a, b = smooth_curves(grid, 2, seed=3)
        assert fr_distance_srsf(a, b) > 0
        assert fr_kernel(a, b, zeta=1.0) < 1.0


class TestKernelSpec:
    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan, np.inf])
    def test_bad_bandwidth_rejected(self, family, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            KernelSpec(family, bandwidth)


class TestGramMatrix:
    def test_symmetrization(self):
        m = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        g = GramMatrix(m)
        assert np.array_equal(g.entries, g.entries.T)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            GramMatrix(np.array([[1.0, 0.9], [0.1, 1.0]]))

    def test_psd_check(self):
        assert is_psd(GramMatrix(np.eye(3)))
        assert not is_psd(GramMatrix(np.diag([1.0, -1.0, 1.0])))


class TestMedianHeuristic:
    def test_known_value(self):
        pts = np.array([0.0, 1.0, 3.0])
        # pairwise distances 1, 3, 2 -> median 2
        assert median_heuristic(pts) == pytest.approx(2.0)

    @given(
        scale=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_scale_covariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((10, 3))
        base = median_heuristic(pts)
        scaled = median_heuristic(scale * pts)
        assert scaled == pytest.approx(scale * base, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((12, 2))
        perm = rng.permutation(12)
        assert median_heuristic(pts) == pytest.approx(
            median_heuristic(pts[perm]), rel=1e-12
        )

    def test_degenerate_all_equal(self):
        assert median_heuristic(np.zeros((5, 2))) == 1.0

    def test_fisher_rao_metric(self):
        grid = Grid.uniform(30)
        curves = smooth_curves(grid, 6, seed=5)
        h = median_heuristic(curves, metric="fisher_rao")
        assert h > 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            median_heuristic(np.array([1.0]))


class TestInputGram:
    def test_binary_times_se_structure(self):
        ds = curve_dataset()
        kx = KernelSpec(KernelFamily.BINARY_INDICATOR)
        kv = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 1.0)
        g = input_gram(ds, kx, kv)
        x = ds.treatments
        mismatched = x[:, None] != x[None, :]
        assert np.all(g.entries[mismatched] == 0.0)
        assert is_psd(g)

    def test_constant_covariate_kernel(self):
        ds = curve_dataset()
        kx = KernelSpec(KernelFamily.BINARY_INDICATOR)
        no_covariates = replace(ds, covariate_matrix=np.zeros((len(ds), 0)))
        g_const = input_gram(no_covariates, kx, KernelSpec(KernelFamily.SQUARED_EXPONENTIAL))
        g_none = input_gram(ds, kx, None)
        np.testing.assert_array_equal(g_const.entries, g_none.entries)

    def test_fisher_rao_covariate_gram_psd(self):
        ds = curve_dataset(n=10)
        kx = KernelSpec(KernelFamily.BINARY_INDICATOR)
        kv = KernelSpec(KernelFamily.FISHER_RAO_GAUSSIAN, 0.5)
        g = input_gram(ds, kx, kv)
        assert is_psd(g)
        assert np.allclose(np.diag(g.entries), 1.0)

    def test_fisher_rao_needs_covariate_curves(self):
        ds = curve_dataset()
        stripped = replace(ds, covariate_grid=None, covariate_curve_matrix=None)
        with pytest.raises(ValueError):
            input_gram(
                stripped,
                KernelSpec(KernelFamily.BINARY_INDICATOR),
                KernelSpec(KernelFamily.FISHER_RAO_GAUSSIAN, 1.0),
            )

    def test_gram_matches_pairwise_kernel(self):
        ds = curve_dataset(n=6)
        kv = KernelSpec(KernelFamily.FISHER_RAO_GAUSSIAN, 0.7)
        g = input_gram(ds, None, kv)
        curves = covariate_curves(ds)
        for i in range(6):
            for j in range(6):
                assert g.entries[i, j] == pytest.approx(
                    fr_kernel(curves[i], curves[j], 0.7), abs=1e-10
                )


class TestCrossGram:
    """Entries of the one kernel evaluator against the scalar reference
    kernels, on test x train shapes."""

    def test_se_on_vectors(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((5, 3)), rng.standard_normal((7, 3))
        k = cross_gram(KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 1.3), a, b)
        assert k.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                assert abs(k[i, j] - se_kernel(a[i], b[j], 1.3)) <= 1e-12

    def test_se_on_scalar_treatments(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0, 2, 4), rng.uniform(0, 2, 6)
        k = cross_gram(KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 0.4), a, b)
        assert k.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                assert abs(k[i, j] - se_kernel(a[i], b[j], 0.4)) <= 1e-12

    def test_binary_indicator(self):
        a, b = [0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0, 1.0]
        k = cross_gram(KernelSpec(KernelFamily.BINARY_INDICATOR), a, b)
        expected = [[binary_kernel(x, y) for y in b] for x in a]
        np.testing.assert_array_equal(k, expected)

    def test_fisher_rao_on_srsf_features(self):
        ds = curve_dataset(n=9)
        spec = KernelSpec(KernelFamily.FISHER_RAO_GAUSSIAN, 0.7)
        test, train = ds.take(range(3)), ds.take(range(3, 9))
        k = cross_gram(spec, _covariate_points(test, spec), _covariate_points(train, spec))
        assert k.shape == (3, 6)
        for i, s in enumerate(covariate_curves(test)):
            for j, r in enumerate(covariate_curves(train)):
                ref = fr_kernel(s, r, 0.7)
                assert abs(k[i, j] - ref) <= 1e-12

    def test_absent_kernel_is_ones(self):
        rng = np.random.default_rng(2)
        k = cross_gram(None, rng.standard_normal((3, 2)), rng.standard_normal((5, 2)))
        np.testing.assert_array_equal(k, np.ones((3, 5)))

    def test_zero_width_rows_are_ones(self):
        spec = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 1.0)
        k = cross_gram(spec, np.zeros((3, 0)), np.zeros((4, 0)))
        np.testing.assert_array_equal(k, np.ones((3, 4)))


class TestOutputGram:
    @pytest.mark.parametrize("t", [16, 32, 100])
    def test_default_lengthscale_median_heuristic(self, t):
        grid = Grid.uniform(t)
        spec = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, median_heuristic(grid.points))
        expected = GramMatrix(cross_gram(spec, grid.points, grid.points))
        assert np.array_equal(output_gram(grid).entries, expected.entries)

    def test_psd_and_unit_diagonal(self):
        g = output_gram(Grid.uniform(32))
        assert is_psd(g)
        assert np.allclose(np.diag(g.entries), 1.0)


class TestFrGramPsdSweep:
    def test_random_smooth_curve_grams_are_psd(self):
        # Gaussian kernels through the SRSF embedding stay PSD across seeds
        for seed in range(10):
            grid = Grid.uniform(40)
            curves = smooth_curves(grid, 50, seed=seed)
            zeta = 1.0 / (2.0 * median_heuristic(curves, metric="fisher_rao") ** 2)
            feats_spec = KernelSpec(KernelFamily.FISHER_RAO_GAUSSIAN, zeta)
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
            g = input_gram(ds, None, feats_spec)
            assert is_psd(g)


# (rows of a, rows of b, columns): one column, one row on either side, the
# shapes of a binary n=400 fit and of a curve-covariate fit, and a
# test x train block
DIST_SHAPES = [
    (400, 400, 1),
    (1, 30, 4),
    (30, 1, 4),
    (400, 400, 3),
    (100, 100, 50),
    (80, 320, 3),
    (7, 7, 0),
]


class TestSqDists:
    """The numpy distance helper reproduces scipy's ``cdist``/``pdist`` bit
    for bit, which keeps every Gram and bandwidth as it was with scipy."""

    @pytest.mark.parametrize("na, nb, d", DIST_SHAPES)
    def test_matches_cdist(self, na, nb, d):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(na + nb + d)
        a, b = rng.standard_normal((na, d)), rng.standard_normal((nb, d))
        assert np.array_equal(_sq_dists(a, b), cdist(a, b, "sqeuclidean"))

    @pytest.mark.parametrize("n, d", [(400, 1), (2, 1), (400, 3), (100, 50)])
    def test_upper_triangle_matches_pdist(self, n, d):
        from scipy.spatial.distance import pdist

        a = np.random.default_rng(n + d).standard_normal((n, d))
        sq = _Input(a).sq_dists
        assert np.array_equal(np.sqrt(sq[np.triu_indices(n, 1)]), pdist(a))

    def test_column_counts_must_match(self):
        with pytest.raises(ValueError):
            _sq_dists(np.zeros((3, 2)), np.zeros((4, 3)))


class TestInput:
    @pytest.mark.parametrize(
        "spec",
        [
            None,
            KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 0.7),
            KernelSpec(KernelFamily.FISHER_RAO_GAUSSIAN, 1.3),
        ],
        ids=["none", "se", "fr"],
    )
    def test_blocks_equal_cross_gram_on_the_rows(self, spec):
        rows = np.random.default_rng(3).standard_normal((30, 4))
        train, test = np.arange(0, 30, 3), np.array([1, 2, 29])
        inp = _Input(rows)
        assert np.array_equal(inp.gram(spec), cross_gram(spec, rows, rows))
        assert np.array_equal(
            inp.gram(spec, test, train), cross_gram(spec, rows[test], rows[train])
        )

    def test_binary_blocks_and_scalar_rows(self):
        x = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        spec = KernelSpec(KernelFamily.BINARY_INDICATOR)
        oracle = [[binary_kernel(a, b) for b in x[2:]] for a in x[:2]]
        assert np.array_equal(_Input(x).gram(spec, [0, 1], [2, 3, 4]), oracle)

    def test_distances_computed_once_and_read_only(self, monkeypatch):
        calls = []
        real = kernels._sq_dists
        monkeypatch.setattr(kernels, "_sq_dists", lambda a, b: calls.append(1) or real(a, b))
        inp = _Input(np.random.default_rng(0).standard_normal((12, 2)))
        spec = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL)
        inp.median()
        inp.gram(spec)
        inp.gram(spec, [0, 1], [2, 3])
        assert calls == [1]
        assert not inp.sq_dists.flags.writeable
