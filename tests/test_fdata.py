"""Tests for grids, curves, datasets, and dataset I/O."""
import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcause import (
    Curve,
    Dataset,
    Grid,
    GridTooSmall,
    ObservationalSample,
    SchemaError,
    derivative,
    grid_norm,
    load_dataset,
    resample,
    save_dataset,
)


def make_dataset(n=3, t=12, d=2, with_vcurves=False, seed=0):
    rng = np.random.default_rng(seed)
    grid = Grid.uniform(t)
    samples = []
    for i in range(n):
        samples.append(
            ObservationalSample(
                id=f"s{i}",
                treatment=float(i % 2),
                covariates=rng.standard_normal(d),
                outcome=Curve(grid, rng.standard_normal(t)),
                covariate_curve=(
                    Curve(grid, rng.standard_normal(t)) if with_vcurves else None
                ),
            )
        )
    return Dataset(samples)


class TestGrid:
    def test_uniform_spans_unit_interval(self):
        grid = Grid.uniform(11)
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 1.0
        assert np.allclose(np.diff(grid.points), 0.1)

    def test_spacing(self):
        assert Grid.uniform(5).spacing == pytest.approx(0.25)

    def test_too_small(self):
        with pytest.raises(GridTooSmall):
            Grid.uniform(1)

    def test_equality(self):
        assert Grid.uniform(7) == Grid.uniform(7)
        assert Grid.uniform(7) != Grid.uniform(8)


class TestCurve:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Curve(Grid.uniform(4), np.zeros(5))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Curve(Grid.uniform(4), [0.0, np.nan, 0.0, 0.0])

    def test_values_read_only(self):
        c = Curve(Grid.uniform(4), np.zeros(4))
        with pytest.raises(ValueError):
            c.values[0] = 1.0


class TestDerivative:
    def test_linear_curve_exact(self):
        grid = Grid.uniform(64)
        c = Curve(grid, 3.0 * grid.points + 1.0)
        d = derivative(c)
        assert np.allclose(d.values, 3.0, atol=1e-10)

    def test_quadratic_exact_second_order(self):
        grid = Grid.uniform(64)
        c = Curve(grid, grid.points**2)
        d = derivative(c)
        assert np.allclose(d.values, 2.0 * grid.points, atol=1e-10)

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b, seed):
        grid = Grid.uniform(32)
        rng = np.random.default_rng(seed)
        y1, y2 = rng.standard_normal(32), rng.standard_normal(32)
        lhs = derivative(Curve(grid, a * y1 + b * y2)).values
        rhs = a * derivative(Curve(grid, y1)).values + b * derivative(Curve(grid, y2)).values
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestResample:
    def test_identity_grid_exact(self):
        grid = Grid.uniform(20)
        c = Curve(grid, np.sin(grid.points))
        r = resample(c, grid)
        assert np.array_equal(r.values, c.values)

    def test_sine_upsample_downsample(self):
        g64, g256 = Grid.uniform(64), Grid.uniform(256)
        c = Curve(g64, np.sin(2 * np.pi * g64.points))
        back = resample(resample(c, g256), g64)
        assert np.max(np.abs(back.values - c.values)) <= 1e-6

    def test_affine_exact_on_any_grid(self):
        src = Grid.uniform(17)
        dst = Grid.uniform(53)
        c = Curve(src, 2.5 * src.points - 0.75)
        r = resample(c, dst)
        assert np.allclose(r.values, 2.5 * dst.points - 0.75, atol=1e-12)


class TestGridNorm:
    def test_constant_curve(self):
        grid = Grid.uniform(50)
        assert grid_norm(np.full(50, 2.0), grid) == pytest.approx(2.0)

    def test_sine_quadrature(self):
        # int_0^1 sin(2 pi t)^2 dt = 1/2
        grid = Grid.uniform(512)
        v = np.sin(2 * np.pi * grid.points)
        assert grid_norm(v, grid) == pytest.approx(np.sqrt(0.5), abs=1e-4)


class TestDataset:
    def test_matrices_shapes(self):
        ds = make_dataset(n=4, t=10, d=3)
        assert ds.treatments.shape == (4,)
        assert ds.covariate_matrix.shape == (4, 3)
        assert ds.outcome_matrix.shape == (4, 10)

    def test_is_binary(self):
        assert make_dataset().is_binary()

    def test_arm_indices(self):
        ds = make_dataset(n=4)
        assert list(ds.arm_indices(1.0)) == [1, 3]
        assert list(ds.arm_indices(0.0)) == [0, 2]

    def test_mismatched_grids_rejected(self):
        g1, g2 = Grid.uniform(8), Grid.uniform(9)
        s1 = ObservationalSample("a", 0.0, np.zeros(1), Curve(g1, np.zeros(8)))
        s2 = ObservationalSample("b", 1.0, np.zeros(1), Curve(g2, np.zeros(9)))
        with pytest.raises(ValueError):
            Dataset([s1, s2])


class TestDatasetIO:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("with_vcurves", [False, True])
    def test_round_trip(self, tmp_path, fmt, with_vcurves):
        ds = make_dataset(n=5, t=9, d=2, with_vcurves=with_vcurves, seed=3)
        path = tmp_path / f"data.{fmt}"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert len(back) == len(ds)
        np.testing.assert_allclose(back.outcome_matrix, ds.outcome_matrix, atol=1e-12)
        np.testing.assert_allclose(back.covariate_matrix, ds.covariate_matrix, atol=1e-12)
        np.testing.assert_allclose(back.treatments, ds.treatments, atol=1e-12)
        if with_vcurves:
            np.testing.assert_allclose(
                back.covariate_curve_matrix, ds.covariate_curve_matrix, atol=1e-12
            )
        assert [s.id for s in back.samples] == [s.id for s in ds.samples]

    def test_short_row_rejected_with_row_index(self, tmp_path):
        ds = make_dataset(n=3, t=8, d=1)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        lines[2] = ",".join(cells[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.row is not None

    def test_non_numeric_cell_rejected(self, tmp_path):
        ds = make_dataset(n=3, t=8, d=1)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        text = path.read_text().replace("\n", "\n", 1)
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[1] = "spam"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_mixed_treatment_column_loads(self, tmp_path):
        ds = make_dataset(n=4, t=8, d=1)
        samples = list(ds.samples)
        samples[0] = ObservationalSample(
            samples[0].id, 0.37, samples[0].covariates, samples[0].outcome
        )
        mixed = Dataset(samples)
        path = tmp_path / "data.csv"
        save_dataset(mixed, path)
        back = load_dataset(path)
        assert not back.is_binary()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["outcome_grid", "covariate_grid", "samples", "id", "x"]),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)

REQUIRED_KEYS = [("outcome_grid",), ("covariate_grid",), ("samples",)] + [
    ("samples", i, key)
    for i in range(3)
    for key in ("id", "treatment", "covariates", "outcome", "covariate_curve")
]


class TestJsonSchemaErrors:
    def test_missing_covariate_grid(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text('{"outcome_grid":[0,0.5,1],"samples":[]}')
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_top_level_list(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("[1,2]")
        with pytest.raises(SchemaError):
            load_dataset(path)

    @given(value=JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_any_json_value_raises_only_schema_error(self, tmp_path_factory, value):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(value))
        try:
            load_dataset(path)
        except SchemaError:
            pass

    @given(key=st.sampled_from(REQUIRED_KEYS), with_vcurves=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_missing_key_raises_schema_error(self, tmp_path_factory, key, with_vcurves):
        path = tmp_path_factory.getbasetemp() / "missing_key.json"
        save_dataset(make_dataset(n=3, t=8, with_vcurves=with_vcurves), path)
        payload = json.loads(path.read_text())
        parent = payload
        for part in key[:-1]:
            parent = parent[part]
        del parent[key[-1]]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_dataset(path)


CSV_HEADER = "id,treatment,v_1,y_0001,y_0002,y_0003"

MALFORMED_CSV = {
    "one_row": CSV_HEADER + "\na,0,0.1,1,2,3\n",
    "header_only": CSV_HEADER + "\n",
    "single_arm": CSV_HEADER + "\na,0,0.1,1,2,3\nb,0,0.2,1,2,3\n",
    "single_vc_column": "id,treatment,v_1,y_0001,y_0002,vc_0001\na,0,0.1,1,2,5\nb,1,0.2,1,2,5\n",
    # longer than the csv module's field size limit
    "oversized_field": CSV_HEADER + "\n" + "a" * 200_000 + ",0,0.1,1,2,3\nb,1,0.2,1,2,3\n",
}


@st.composite
def csv_files(draw):
    """Rows under a well-formed header (or, sometimes, arbitrary header
    cells), with cells that are mostly numbers and sometimes any text."""
    d, t, tc = draw(st.integers(0, 2)), draw(st.integers(0, 4)), draw(st.integers(0, 2))
    header = ["id", "treatment"] + [f"v_{j + 1}" for j in range(d)]
    header += [f"y_{j + 1:04d}" for j in range(t)] + [f"vc_{j + 1:04d}" for j in range(tc)]
    if draw(st.booleans()) and draw(st.booleans()):
        header = draw(st.lists(st.text(max_size=6), max_size=6))
    cell = st.sampled_from(["0", "1", "0.5", "-2.5", "nan", ""]) | st.text(max_size=4)
    row = st.lists(cell, min_size=len(header), max_size=len(header)) | st.lists(cell, max_size=8)
    return [header] + draw(st.lists(row, max_size=4))


class TestCsvSchemaErrors:
    @pytest.mark.parametrize("text", MALFORMED_CSV.values(), ids=MALFORMED_CSV.keys())
    def test_malformed_file_raises_schema_error(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(SchemaError):
            load_dataset(path)

    @given(rows=csv_files())
    @settings(max_examples=150, deadline=None)
    def test_any_csv_raises_only_schema_error(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        try:
            load_dataset(path)
        except SchemaError:
            pass
