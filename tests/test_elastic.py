"""Tests for SRSF transforms, alignment, Karcher means, and distances."""
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcause import (
    Curve,
    DomainError,
    Grid,
    SrsfCurve,
    WarpingFunction,
    WeightError,
    align_batch,
    align_pair,
    fr_distance_sphere,
    fr_distance_srsf,
    grid_norm,
    karcher_mean,
    srsf_inverse,
    srsf_transform,
    warp_curve,
    warp_srsf,
)
from funcause import elastic

from elastic_oracle import align_oracle

# ``karcher_mean`` of the 20 covariate curves of ``continuous_functional``
# (n=20, T=50, seed 0) with 3 sweeps and penalty 0 and 0.05, computed at
# commit 0a5c2aa, when each sweep still aligned the curves one pair at a
# time.  Batching the DP kept every arithmetic step, so all outputs must
# match bit for bit.
PINNED_KARCHER = json.loads(
    (pathlib.Path(__file__).parent / "data" / "pinned_karcher.json").read_text()
)
# ``align_batch`` of 8 ``continuous_functional`` outcome SRSFs (n=8, T=100,
# seed 0) against their plain mean, and of three random rows plus one equal
# to the template at T = 2, 3, 4 and 5, where the band of feasible DP cells
# is degenerate; penalty 0 and 0.05 each.  Written at commit 4b6809f, when
# every DP row still filled the whole lattice; all outputs must match bit
# for bit.
PINNED_BATCH = json.loads(
    (pathlib.Path(__file__).parent / "data" / "pinned_batch.json").read_text()
)


def smooth_curve(grid, seed):
    rng = np.random.default_rng(seed)
    t = grid.points
    vals = np.zeros_like(t)
    for k in range(1, 4):
        vals += rng.normal() / k * np.sin(k * np.pi * t) + rng.normal() / k * np.cos(
            k * np.pi * t
        )
    return Curve(grid, vals)


class TestSrsfTransform:
    @pytest.mark.parametrize(
        "f",
        [
            lambda t: np.sin(2 * np.pi * t),
            lambda t: t**3 - 1.5 * t**2 + 0.25 * t,
            lambda t: 0.8 * np.sin(3 * np.pi * t),
        ],
        ids=["sine", "cubic", "scaled-sine"],
    )
    def test_round_trip(self, f):
        grid = Grid.uniform(256)
        c = Curve(grid, f(grid.points))
        back = srsf_inverse(srsf_transform(c))
        assert np.max(np.abs(back.values - c.values)) <= 1e-3

    def test_zero_q_gives_constant(self):
        grid = Grid.uniform(32)
        q = SrsfCurve(grid, np.zeros(32), origin=1.7)
        c = srsf_inverse(q)
        assert np.allclose(c.values, 1.7)

    def test_monotone_curve_nonnegative_q(self):
        grid = Grid.uniform(64)
        c = Curve(grid, grid.points**2)
        q = srsf_transform(c)
        assert np.all(q.values >= -1e-12)

    def test_origin_recorded(self):
        grid = Grid.uniform(16)
        c = Curve(grid, grid.points + 4.0)
        assert srsf_transform(c).origin == pytest.approx(4.0)

    def test_srsf_values_checked(self):
        grid = Grid.uniform(4)
        with pytest.raises(ValueError, match="srsf values must be finite"):
            SrsfCurve(grid, [0.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="length"):
            SrsfCurve(grid, np.zeros(5))
        assert not SrsfCurve(grid, np.zeros(4)).values.flags.writeable


class TestWarpingFunction:
    def test_identity(self):
        grid = Grid.uniform(10)
        g = WarpingFunction.identity(grid)
        assert np.array_equal(g.values, grid.points)

    def test_endpoints_enforced(self):
        grid = Grid.uniform(5)
        with pytest.raises(ValueError):
            WarpingFunction(grid, np.linspace(0.1, 1.0, 5))

    def test_monotonicity_enforced(self):
        grid = Grid.uniform(5)
        with pytest.raises(ValueError):
            WarpingFunction(grid, np.array([0.0, 0.5, 0.4, 0.8, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN passes both the endpoint and the np.diff <= 0 checks
        with pytest.raises(ValueError, match="finite"):
            WarpingFunction(Grid.uniform(5), [0.0, 0.2, bad, 0.7, 1.0])

    def test_values_are_a_read_only_copy(self):
        grid = Grid.uniform(5)
        src = np.linspace(0.0, 1.0, 9)[::2]
        g = WarpingFunction(grid, src)
        assert g.values.flags.c_contiguous and not g.values.flags.writeable
        assert not np.shares_memory(g.values, src)


class TestWarpAction:
    def test_identity_warp_is_noop(self):
        grid = Grid.uniform(64)
        c = smooth_curve(grid, 0)
        g = WarpingFunction.identity(grid)
        assert np.allclose(warp_curve(c, g).values, c.values)
        q = srsf_transform(c)
        assert np.allclose(warp_srsf(q, g).values, q.values, atol=1e-10)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_near_isometry(self, seed):
        grid = Grid.uniform(128)
        c = smooth_curve(grid, seed)
        q = srsf_transform(c)
        t = grid.points
        gam = t + 0.1 * np.sin(np.pi * t) * t * (1 - t) * 4
        gam[0], gam[-1] = 0.0, 1.0
        g = WarpingFunction(grid, gam)
        n0 = grid_norm(q.values, grid)
        n1 = grid_norm(warp_srsf(q, g).values, grid)
        assert abs(n1 - n0) <= 5e-2


class TestAlignPair:
    def test_equal_inputs_give_identity(self):
        grid = Grid.uniform(64)
        q = srsf_transform(smooth_curve(grid, 5))
        gamma, aligned, dist = align_pair(q, q)
        assert np.allclose(gamma.values, grid.points, atol=1e-12)
        assert dist == pytest.approx(0.0, abs=1e-10)

    def test_contraction_on_random_pairs(self):
        grid = Grid.uniform(96)
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = Curve(grid, np.cumsum(rng.standard_normal(96)) * 0.1)
            b = Curve(grid, np.cumsum(rng.standard_normal(96)) * 0.1)
            qa, qb = srsf_transform(a), srsf_transform(b)
            pre = grid_norm(qa.values - qb.values, grid)
            _, _, post = align_pair(qa, qb)
            assert post <= pre + 1e-12

    def test_known_warp_recovery(self):
        t_pts = 128
        grid = Grid.uniform(t_pts)
        t = grid.points
        gam = 0.7 * t + 0.3 * t**2
        gam[0], gam[-1] = 0.0, 1.0
        f = Curve(
            grid,
            np.exp(-((t - 0.3) ** 2) / 0.005) + 0.8 * np.exp(-((t - 0.7) ** 2) / 0.004),
        )
        warped = warp_curve(f, WarpingFunction(grid, gam))
        gamma, _, _ = align_pair(srsf_transform(warped), srsf_transform(f))
        cells = np.max(np.abs(gamma.values - gam)) * (t_pts - 1)
        assert cells <= 2.0

    def test_grid_mismatch_rejected(self):
        q1 = srsf_transform(smooth_curve(Grid.uniform(32), 0))
        q2 = srsf_transform(smooth_curve(Grid.uniform(33), 0))
        with pytest.raises(ValueError):
            align_pair(q1, q2)

    def test_penalty_shrinks_warp(self):
        grid = Grid.uniform(96)
        a = smooth_curve(grid, 11)
        b = smooth_curve(grid, 12)
        qa, qb = srsf_transform(a), srsf_transform(b)
        g_free, _, _ = align_pair(qa, qb, penalty=0.0)
        g_pen, _, _ = align_pair(qa, qb, penalty=100.0)
        dev_free = np.max(np.abs(g_free.values - grid.points))
        dev_pen = np.max(np.abs(g_pen.values - grid.points))
        assert dev_pen <= dev_free + 1e-12


class TestAlignBatch:
    """Row c of ``align_batch(mu, Q)`` is ``align_pair(mu, Q[c])`` bit for
    bit: the curves of a batch share the DP rows but never mix."""

    def assert_rows_match_pairs(self, mu, qmat, penalty):
        gammas, aligned, distances = align_batch(mu, qmat, penalty)
        assert gammas.shape == aligned.shape == qmat.shape
        assert distances.shape == (len(qmat),)
        for c, row in enumerate(qmat):
            gamma, qa, dist = align_pair(mu, SrsfCurve(mu.grid, row), penalty=penalty)
            np.testing.assert_allclose(gammas[c], gamma.values, rtol=0, atol=0)
            np.testing.assert_allclose(aligned[c], qa.values, rtol=0, atol=0)
            assert distances[c] == dist

    @given(
        t=st.integers(2, 40),
        n=st.integers(1, 6),
        penalty=st.sampled_from([0.0, 0.05, 100.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_align_pair(self, t, n, penalty, seed):
        grid = Grid.uniform(t)
        qmat = np.random.default_rng(seed).standard_normal((n + 1, t))
        self.assert_rows_match_pairs(SrsfCurve(grid, qmat[0]), qmat[1:], penalty)

    @pytest.mark.parametrize("penalty", [0.0, 0.05])
    def test_identity_fallback_mixed_with_shifted_curves(self, penalty):
        grid = Grid.uniform(50)

        def bump(shift):
            vals = np.exp(-((grid.points - 0.5 - shift) ** 2) / 0.01)
            return srsf_transform(Curve(grid, vals)).values

        mu = SrsfCurve(grid, bump(0.0))
        qmat = np.array([bump(0.0), bump(0.08), bump(0.0), bump(-0.06)])
        gammas, aligned, distances = align_batch(mu, qmat, penalty)
        for c in (0, 2):
            np.testing.assert_array_equal(gammas[c], grid.points)
            np.testing.assert_array_equal(aligned[c], mu.values)
            assert distances[c] == 0.0
        for c in (1, 3):
            assert np.max(np.abs(gammas[c] - grid.points)) > 0.02
            assert distances[c] < grid_norm(mu.values - qmat[c], grid)
        self.assert_rows_match_pairs(mu, qmat, penalty)

    @given(
        t=st.integers(2, 30),
        template=st.sampled_from(["random", "zero"]),
        rows=st.lists(
            st.sampled_from(["random", "zero", "template", "plateau"]), min_size=1, max_size=4
        ),
        penalty=st.sampled_from([0.0, 0.05, 100.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_equals_full_lattice_oracle(self, t, template, rows, penalty, seed):
        # zero rows are the SRSFs of constant curves; with a zero template, or
        # on a plateau's zero stretch, many paths tie
        grid = Grid.uniform(t)
        rng = np.random.default_rng(seed)
        q1 = rng.standard_normal(t) if template == "random" else np.zeros(t)
        qmat = []
        for kind in rows:
            q = q1.copy() if kind == "template" else rng.standard_normal(t)
            if kind == "zero":
                q[:] = 0.0
            elif kind == "plateau":
                q[t // 3 : 2 * t // 3] = 0.0
            qmat.append(q)
        gammas, aligned, distances = align_batch(SrsfCurve(grid, q1), np.array(qmat), penalty)
        for c, q in enumerate(qmat):
            gamma, qa, dist = align_oracle(q1, q, grid, penalty)
            np.testing.assert_allclose(gammas[c], gamma, rtol=0, atol=0)
            np.testing.assert_allclose(aligned[c], qa, rtol=0, atol=0)
            assert distances[c] == dist

    @pytest.mark.parametrize("case", PINNED_BATCH["batches"], ids=lambda c: c["name"])
    def test_pinned(self, case):
        mu = SrsfCurve(Grid.uniform(len(case["template"])), case["template"])
        gammas, aligned, distances = align_batch(mu, case["Q"], case["penalty"])
        np.testing.assert_allclose(gammas, case["gammas"], rtol=0, atol=0)
        np.testing.assert_allclose(aligned, case["aligned"], rtol=0, atol=0)
        assert distances.tolist() == case["distances"]

    def test_rows_checked(self):
        grid = Grid.uniform(16)
        mu = srsf_transform(smooth_curve(grid, 0))
        with pytest.raises(ValueError):
            align_batch(mu, mu.values)
        with pytest.raises(ValueError):
            align_batch(mu, np.zeros((2, 15)))
        with pytest.raises(ValueError):
            align_batch(mu, np.array([mu.values, np.full(16, np.nan)]))


class TestInterpRows:
    @given(
        t=st.integers(2, 60),
        n=st.integers(1, 5),
        shared=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_np_interp_row_by_row(self, t, n, shared, seed):
        grid = Grid.uniform(t)
        rng = np.random.default_rng(seed)
        fmat = rng.standard_normal((n, t))
        x = rng.uniform(-0.2, 1.2, (1 if shared else n, 2 * t))
        x[:, ::4] = rng.choice(grid.points, x[:, ::4].shape)  # on the nodes
        out = elastic._interp_rows(x[0] if shared else x, grid.points, fmat)
        expected = [np.interp(x[0 if shared else c], grid.points, f) for c, f in enumerate(fmat)]
        np.testing.assert_array_equal(out, expected)


class TestBand:
    def test_band_holds_every_cell_on_a_path(self):
        """Brute-force reachability from (0, 0) and to (t-1, t-1) over the
        DP steps: every cell reachable both ways lies in ``_band(t)``."""
        for t in range(2, 81):
            fwd = np.zeros((t, t), dtype=bool)
            bwd = np.zeros((t, t), dtype=bool)
            fwd[0, 0] = bwd[t - 1, t - 1] = True
            for i in range(1, t):
                for di, dj in elastic._STEPS:
                    if i >= di and dj < t:
                        fwd[i, dj:] |= fwd[i - di, : t - dj]
                        bwd[t - 1 - i, : t - dj] |= bwd[t - 1 - i + di, dj:]
            lo, hi = elastic._band(t)
            cols = np.arange(t)
            band = (cols >= lo[:, None]) & (cols < hi[:, None])
            assert not np.any(fwd & bwd & ~band), t
        # at t = 80 the band, a parallelogram, holds about half the lattice
        assert band.sum() < 0.55 * t * t

    def test_index_tables_built_once_per_t_and_read_only(self):
        for table in (elastic._band, elastic._start_cells):
            first = table(23)
            assert table(23) is first
            for a in first if isinstance(first, tuple) else (first,):
                with pytest.raises(ValueError):
                    a[0] = 0


def assert_valid_warps(warps, grid):
    """Each row is a warp of ``grid``: read-only, fixes 0 and 1, strictly
    increasing."""
    assert warps.ndim == 2 and warps.shape[1] == len(grid)
    assert not warps.flags.writeable
    assert np.all(warps[:, 0] == 0.0) and np.all(warps[:, -1] == 1.0)
    assert np.all(np.diff(warps, axis=1) > 0)


class TestKarcherMean:
    def make_shifted_family(self, grid, n, seed=0):
        rng = np.random.default_rng(seed)
        s = rng.uniform(-0.05, 0.05, size=(n, 1))
        return np.exp(-((grid.points - 0.5 - s) ** 2) / 0.01)

    def test_objective_trace_monotone(self):
        grid = Grid.uniform(80)
        res = karcher_mean(self.make_shifted_family(grid, 8), grid)
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_alignment_tightens_family(self):
        grid = Grid.uniform(80)
        res = karcher_mean(self.make_shifted_family(grid, 8), grid)
        assert res.objective_trace[-1] <= res.objective_trace[0]
        assert res.warps.shape == (8, 80)

    def test_single_curve_is_fixed_point(self):
        grid = Grid.uniform(128)
        c = smooth_curve(grid, 3)
        res = karcher_mean(c.values[None, :], grid)
        # up to round-trip discretization error of the transform
        assert np.max(np.abs(res.mean.values - c.values)) <= 5e-3

    def test_mean_warp_is_identity(self):
        grid = Grid.uniform(80)
        res = karcher_mean(self.make_shifted_family(grid, 10, seed=4), grid)
        gbar = np.mean(res.warps, axis=0)
        assert np.max(np.abs(gbar - grid.points)) <= 1e-2

    @pytest.mark.parametrize("seed,penalty", [(0, 0.0), (4, 0.0), (7, 0.05)])
    def test_shifted_family_warps_valid(self, seed, penalty):
        grid = Grid.uniform(60)
        res = karcher_mean(self.make_shifted_family(grid, 9, seed=seed), grid, penalty=penalty)
        assert_valid_warps(res.warps, grid)

    @given(
        rows=st.integers(1, 5).flatmap(
            lambda n: st.integers(3, 16).flatmap(
                lambda t: st.lists(
                    st.lists(st.floats(-5.0, 5.0), min_size=t, max_size=t),
                    min_size=n,
                    max_size=n,
                )
            )
        ),
        penalty=st.sampled_from([0.0, 0.05]),
    )
    @settings(max_examples=40, deadline=None)
    def test_warps_valid_on_any_curves(self, rows, penalty):
        fmat = np.array(rows)
        grid = Grid.uniform(fmat.shape[1])
        res = karcher_mean(fmat, grid, max_iter=3, penalty=penalty)
        assert_valid_warps(res.warps, grid)

    def test_weights_validated(self):
        grid = Grid.uniform(32)
        curves = self.make_shifted_family(grid, 3)
        with pytest.raises(ValueError):
            karcher_mean(curves, grid, weights=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            karcher_mean(curves, grid, weights=np.zeros(3))

    def test_weight_count_checked_before_alignment(self, monkeypatch):
        def no_alignment(*args, **kwargs):
            raise AssertionError("alignment ran before the weights were checked")

        monkeypatch.setattr(elastic, "_node_tables", no_alignment)
        monkeypatch.setattr(elastic, "_align_rows", no_alignment)
        grid = Grid.uniform(32)
        curves = self.make_shifted_family(grid, 3)
        with pytest.raises(WeightError):
            karcher_mean(curves, grid, weights=np.array([1.0, 2.0]))
        assert issubclass(WeightError, ValueError)

    @staticmethod
    def forbid_work(monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("SRSF or DP work ran before the matrix was checked")

        for name in ("_srsf_rows", "_node_tables", "_align_rows"):
            monkeypatch.setattr(elastic, name, no_work)

    def test_empty_input_rejected(self, monkeypatch):
        self.forbid_work(monkeypatch)
        with pytest.raises(ValueError, match="need at least one curve"):
            karcher_mean(np.zeros((0, 32)), Grid.uniform(32))
        with pytest.raises(ValueError):
            karcher_mean([], Grid.uniform(32))

    @pytest.mark.parametrize(
        "fmat,match",
        [
            (np.zeros(32), "must be an"),
            (np.zeros((2, 32, 1)), "must be an"),
            (np.zeros((3, 33)), "one value per grid point"),
            (np.zeros((3, 31)), "one value per grid point"),
            (np.array([[0.0] * 31 + [np.nan]]), "finite"),
            (np.array([[0.0] * 31 + [np.inf]] * 2), "finite"),
        ],
        ids=["1-D", "3-D", "wide", "narrow", "nan", "inf"],
    )
    def test_malformed_matrix_rejected_before_work(self, monkeypatch, fmat, match):
        self.forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=match):
            karcher_mean(fmat, Grid.uniform(32))

    def test_weighted_spread_matches_per_row_norms(self):
        # the objective trace is pinned: the spread must stay the row-order
        # sum of w_i * grid_norm(...) ** 2, whose float power differs from
        # the norm times itself in the last bit for about one norm in a
        # thousand
        rng = np.random.default_rng(3)
        for t in (3, 17, 50, 100):
            grid = Grid.uniform(t)
            rows = rng.standard_normal((2000, t))
            w = rng.uniform(0.0, 1.0, 2000)
            mu = w @ rows / w.sum()
            expected = float(sum(wi * grid_norm(mu - row, grid) ** 2 for wi, row in zip(w, rows)))
            assert elastic._weighted_spread(mu, rows, w, grid) == expected
            for row in rows:
                one = elastic._weighted_spread(mu, row[None, :], np.ones(1), grid)
                assert one == grid_norm(mu - row, grid) ** 2

    @pytest.mark.parametrize("case", PINNED_KARCHER["means"], ids=lambda c: f"pen{c['penalty']}")
    def test_pinned(self, case):
        fmat = np.array(PINNED_KARCHER["curves"])
        grid = Grid.uniform(fmat.shape[1])
        res = karcher_mean(fmat, grid, max_iter=PINNED_KARCHER["max_iter"], penalty=case["penalty"])
        np.testing.assert_allclose(res.mean.values, case["mean"], rtol=0, atol=0)
        np.testing.assert_allclose(res.mean_srsf.values, case["mean_srsf"], rtol=0, atol=0)
        assert res.mean_srsf.origin == case["origin"]
        np.testing.assert_allclose(res.warps, case["warps"], rtol=0, atol=0)
        assert res.objective_trace == case["objective_trace"]
        assert res.converged == case["converged"]
        assert_valid_warps(res.warps, grid)

    def test_layout_does_not_change_the_mean(self):
        # a Fortran-ordered or strided matrix gives the C-ordered result
        fmat = np.array(PINNED_KARCHER["curves"])
        grid = Grid.uniform(fmat.shape[1])
        ref = karcher_mean(fmat, grid, max_iter=2)
        for other in (np.asfortranarray(fmat), np.repeat(fmat, 2, axis=0)[::2]):
            res = karcher_mean(other, grid, max_iter=2)
            assert np.array_equal(res.mean.values, ref.mean.values)
            assert np.array_equal(res.warps, ref.warps)
            assert res.objective_trace == ref.objective_trace


class TestFisherRaoDistances:
    def test_srsf_metric_properties(self):
        grid = Grid.uniform(64)
        a, b, c = (smooth_curve(grid, s) for s in (1, 2, 3))
        dab = fr_distance_srsf(a, b)
        dba = fr_distance_srsf(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert fr_distance_srsf(a, a) == pytest.approx(0.0, abs=1e-12)
        assert dab <= fr_distance_srsf(a, c) + fr_distance_srsf(c, b) + 1e-10

    def test_sphere_identical_densities(self):
        grid = Grid.uniform(20)
        p = np.full(20, 1.0 / 20)
        assert fr_distance_sphere(Curve(grid, p), Curve(grid, p)) == pytest.approx(
            0.0, abs=1e-7
        )

    def test_sphere_closed_form(self):
        # two-point mass split across disjoint support: sum sqrt(p r) = 0
        grid = Grid.uniform(4)
        p = Curve(grid, np.array([1.0, 0.0, 0.0, 0.0]))
        r = Curve(grid, np.array([0.0, 0.0, 0.0, 1.0]))
        assert fr_distance_sphere(p, r) == pytest.approx(np.pi)

    def test_sphere_rejects_negative(self):
        grid = Grid.uniform(4)
        p = Curve(grid, np.array([0.5, -0.1, 0.3, 0.3]))
        r = Curve(grid, np.full(4, 0.25))
        with pytest.raises(DomainError):
            fr_distance_sphere(p, r)
