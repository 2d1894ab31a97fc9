"""Tests for grids, curves, datasets, and dataset I/O."""
import csv
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcause import (
    Curve,
    Dataset,
    Grid,
    GridTooSmall,
    SchemaError,
    SrsfCurve,
    grid_norm,
    load_dataset,
    save_dataset,
    srsf_inverse,
)
from funcause.fdata import (
    _csv_rows,
    _derivative_rows,
    _row_norms,
    _tokenized_rows,
    _trapezoid,
    _trapezoid_terms,
)


def make_dataset(n=3, t=12, d=2, with_vcurves=False, seed=0):
    rng = np.random.default_rng(seed)
    grid = Grid.uniform(t)
    # per unit: covariates, outcome, then the covariate curve if any
    draws = rng.standard_normal((n, d + t + (t if with_vcurves else 0)))
    return Dataset(
        [f"s{i}" for i in range(n)],
        (np.arange(n) % 2).astype(float),
        draws[:, :d],
        grid,
        draws[:, d : d + t],
        grid if with_vcurves else None,
        draws[:, d + t :] if with_vcurves else None,
    )


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
        d = _derivative_rows(3.0 * grid.points + 1.0, grid)
        assert np.allclose(d, 3.0, atol=1e-10)

    def test_quadratic_exact_second_order(self):
        grid = Grid.uniform(64)
        d = _derivative_rows(grid.points**2, grid)
        assert np.allclose(d, 2.0 * grid.points, atol=1e-10)

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
        lhs = _derivative_rows(a * y1 + b * y2, grid)
        rhs = a * _derivative_rows(y1, grid) + b * _derivative_rows(y2, grid)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestGridNorm:
    def test_constant_curve(self):
        grid = Grid.uniform(50)
        assert grid_norm(np.full(50, 2.0), grid) == pytest.approx(2.0)

    def test_sine_quadrature(self):
        # int_0^1 sin(2 pi t)^2 dt = 1/2
        grid = Grid.uniform(512)
        v = np.sin(2 * np.pi * grid.points)
        assert grid_norm(v, grid) == pytest.approx(np.sqrt(0.5), abs=1e-4)


class TestRowHelpers:
    """The row-wise derivative and norm give, row by row, exactly what they
    and ``grid_norm`` give for one curve's values."""

    @pytest.mark.parametrize("n,t", [(1, 3), (7, 8), (40, 100)])
    def test_rows_match_one_curve(self, n, t):
        grid = Grid.uniform(t)
        rows = np.random.default_rng(t).standard_normal((n, t)).cumsum(axis=1)
        d, norms = _derivative_rows(rows, grid), _row_norms(rows, grid)
        assert d.shape == (n, t) and norms.shape == (n,)
        for row, d_row, norm in zip(rows, d, norms):
            assert np.array_equal(d_row, _derivative_rows(row, grid))
            assert norm == grid_norm(row, grid)

    def test_derivative_needs_three_points(self):
        with pytest.raises(GridTooSmall):
            _derivative_rows(np.zeros((4, 2)), Grid.uniform(2))


# (rows, grid length): one curve, the shortest grid, and batches of curves
QUAD_SHAPES = [(None, 2), (None, 3), (None, 100), (1, 2), (5, 50), (400, 100)]


class TestTrapezoid:
    """The numpy quadrature reproduces scipy's trapezoid rules bit for bit,
    so norms, SRSF inverses and simgen truths are as they were with scipy."""

    @staticmethod
    def values(rows, t):
        shape = (t,) if rows is None else (rows, t)
        return np.random.default_rng(t).standard_normal(shape)

    @pytest.mark.parametrize("rows, t", QUAD_SHAPES)
    def test_matches_scipy_trapezoid(self, rows, t):
        from scipy.integrate import trapezoid

        y, x = self.values(rows, t), Grid.uniform(t).points
        assert np.array_equal(_trapezoid(y, x), trapezoid(y, x, axis=-1))
        if rows is None:
            assert grid_norm(y, Grid(x)) == math.sqrt(float(trapezoid(y**2, x)))

    @pytest.mark.parametrize("t", [2, 3, 100])
    def test_running_sum_matches_cumulative_trapezoid(self, t):
        from scipy.integrate import cumulative_trapezoid

        y, x = self.values(None, t), Grid.uniform(t).points
        ours = np.cumsum(np.concatenate(([0.0], _trapezoid_terms(y, x))))
        assert np.array_equal(ours, cumulative_trapezoid(y, x, initial=0.0))
        q = SrsfCurve(Grid(x), y, origin=0.25)
        integrand = y * np.abs(y)
        expected = cumulative_trapezoid(integrand, x, initial=0.0) + 0.25
        assert np.array_equal(srsf_inverse(q).values, expected)


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
        with pytest.raises(ValueError):
            Dataset(["a", "b"], [0.0, 1.0], np.zeros((2, 1)), Grid.uniform(8), np.zeros((2, 9)))

    @pytest.mark.parametrize(
        "change",
        [
            {"ids": ["a", "b"]},
            {"treatments": np.zeros((4, 1))},
            {"treatments": np.zeros(3)},
            {"covariate_matrix": np.zeros(4)},
            {"covariate_matrix": np.zeros((3, 2))},
            {"outcome_matrix": np.zeros((4, 11))},
            {"covariate_curve_matrix": np.zeros((4, 11))},
            {"covariate_grid": None},
            {"covariate_grid": Grid.uniform(11)},
        ],
        ids=[
            "ids-short", "treatments-2d", "treatments-short", "covariate_matrix-1d",
            "covariate_matrix-short", "outcome_matrix-long", "covariate_curve_matrix-long",
            "covariate_grid-none", "covariate_grid-mismatch",
        ],
    )
    def test_wrong_shape_rejected(self, change):
        ds = make_dataset(n=4, t=10, with_vcurves=True)
        with pytest.raises(ValueError):
            replace(ds, **change)

    @pytest.mark.parametrize(
        "name", ["treatments", "covariate_matrix", "outcome_matrix", "covariate_curve_matrix"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, name, bad):
        ds = make_dataset(n=4, t=10, with_vcurves=True)
        values = getattr(ds, name).copy()
        values[(1,) * values.ndim] = bad
        with pytest.raises(ValueError, match="finite"):
            replace(ds, **{name: values})

    @pytest.mark.parametrize("arm", [0.0, 1.0])
    def test_empty_arm_rejected(self, arm):
        ds = make_dataset(n=4)
        with pytest.raises(ValueError, match="both arms"):
            replace(ds, treatments=np.full(4, arm))

    def test_too_few_units_rejected(self):
        with pytest.raises(ValueError):
            make_dataset(n=1)

    def test_arrays_read_only_and_copied(self):
        y = np.zeros((2, 5))
        ds = Dataset(["a", "b"], [0.0, 1.0], np.zeros((2, 1)), Grid.uniform(5), y)
        y[0, 0] = 1.0
        assert ds.outcome_matrix[0, 0] == 0.0
        vc = make_dataset(with_vcurves=True)
        for name in ("treatments", "covariate_matrix", "outcome_matrix", "covariate_curve_matrix"):
            values = getattr(vc, name)
            with pytest.raises(ValueError):
                values[(0,) * values.ndim] = 1.0

    def test_take_keeps_order_and_ids(self):
        ds = make_dataset(n=6, t=9, with_vcurves=True)
        idx = [4, 1, 2]
        sub = ds.take(idx)
        assert list(sub.ids) == ["s4", "s1", "s2"]
        np.testing.assert_array_equal(sub.treatments, ds.treatments[idx])
        np.testing.assert_array_equal(sub.covariate_matrix, ds.covariate_matrix[idx])
        np.testing.assert_array_equal(sub.outcome_matrix, ds.outcome_matrix[idx])
        np.testing.assert_array_equal(sub.covariate_curve_matrix, ds.covariate_curve_matrix[idx])
        assert sub.outcome_grid == ds.outcome_grid and sub.covariate_grid == ds.covariate_grid

    def test_take_revalidates(self):
        ds = make_dataset(n=6)
        with pytest.raises(ValueError, match="both arms"):
            ds.take([0, 2, 4])
        with pytest.raises(ValueError):
            ds.take([3])


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
        assert list(back.ids) == list(ds.ids)

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

    def test_non_finite_cell_rejected_with_row_index(self, tmp_path):
        ds = make_dataset(n=4, t=8, d=1)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[5] = "nan"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.row == 2

    @pytest.mark.parametrize("with_vcurves", [False, True])
    def test_json_bytes_equal_json_dump(self, tmp_path, with_vcurves):
        # floats, -0.0 and every id load back exactly, so this is the payload
        path = tmp_path / "data.json"
        save_dataset(awkward_dataset(with_vcurves), path)
        text = path.read_text(encoding="utf-8")
        with open(tmp_path / "dump.json", "w", encoding="utf-8") as fh:
            json.dump(json.loads(text), fh)
        assert (tmp_path / "dump.json").read_text(encoding="utf-8") == text

    def test_mixed_treatment_column_loads(self, tmp_path):
        ds = make_dataset(n=4, t=8, d=1)
        x = ds.treatments.copy()
        x[0] = 0.37
        mixed = replace(ds, treatments=x)
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


# ids that the csv writer quotes, or that a looser reader would mangle
AWKWARD_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\r\nlf", " lead", "#hash", "", "ünï"]


def awkward_dataset(with_vcurves=False):
    ds = make_dataset(n=len(AWKWARD_IDS), t=6, d=2, with_vcurves=with_vcurves, seed=5)
    y = ds.outcome_matrix.copy()
    y[0, :5] = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300]
    return replace(ds, ids=AWKWARD_IDS, outcome_matrix=y)


def write_rows_one_by_one(ds, path):
    """The CSV writer as it was: one ``repr`` list per row."""
    vc = ds.covariate_curve_matrix
    blocks = [ds.treatments[:, None], ds.covariate_matrix, ds.outcome_matrix]
    header = ["id", "treatment"] + [f"v_{j + 1}" for j in range(ds.covariate_matrix.shape[1])]
    header += [f"y_{j + 1:04d}" for j in range(len(ds.outcome_grid))]
    if vc is not None:
        header += [f"vc_{j + 1:04d}" for j in range(vc.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for uid, row in zip(ds.ids, np.hstack(blocks if vc is None else blocks + [vc])):
            writer.writerow([uid] + [repr(x) for x in row.tolist()])


# any text that the csv module writes and reads back; ids are kept short
ID_TEXT = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "#", "a", "Z", "0", "é", "\u20ac"]), max_size=6
)
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    + [-1.7976931348623157e308, 0.1, 1 / 3]
)


@st.composite
def datasets_to_save(draw):
    n, t, d = draw(st.integers(2, 5)), draw(st.integers(2, 4)), draw(st.integers(0, 2))
    tc = draw(st.sampled_from([None, 2, 3]))
    values = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)

    def matrix(cols):
        return np.array(draw(st.lists(values, min_size=n * cols, max_size=n * cols))).reshape(n, cols)

    arms = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n - 2, max_size=n - 2))
    return Dataset(
        draw(st.lists(ID_TEXT, min_size=n, max_size=n)),
        np.array([0.0, 1.0] + arms),
        matrix(d),
        Grid.uniform(t),
        matrix(t),
        None if tc is None else Grid.uniform(tc),
        None if tc is None else matrix(tc),
    )


def csv_lines(tmp_path, n=4):
    """A saved dataset's CSV file and its lines; ``save_dataset`` ends
    every line with CRLF."""
    path = tmp_path / "data.csv"
    save_dataset(make_dataset(n=n, t=3, d=1), path)
    return path, path.read_bytes().decode("utf-8").split("\r\n")[:-1]


def write_lines(path, lines, end="\r\n"):
    path.write_text("".join(line + end for line in lines), newline="")


class TestCsvLoaderContract:
    """The CSV loader keeps the csv module's and ``float``'s answer for
    every file, whichever of its two parsers reads the body."""

    @pytest.mark.parametrize("end", ["\r\n", "\n"])
    @pytest.mark.parametrize("where, row", [("mid", 2), ("end", 4)])
    def test_blank_line_names_its_row(self, tmp_path, end, where, row):
        path, lines = csv_lines(tmp_path)
        lines.insert(3 if where == "mid" else len(lines), "")
        write_lines(path, lines, end)
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.row == row

    @pytest.mark.parametrize("where", ["id", "number", "multi-line id"])
    def test_cell_over_the_field_size_limit_rejected(self, tmp_path, where):
        limit = csv.field_size_limit()
        path, lines = csv_lines(tmp_path)
        cells = lines[1].split(",")
        if where == "id":
            cells[0] = "a" * (limit + 1)
        elif where == "number":
            cells[2] = "0" * limit + "1"
        else:
            cells[0] = '"' + "\n".join(["a" * (limit // 2)] * 3) + '"'
        write_lines(path, [lines[0], ",".join(cells)] + lines[2:])
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.row == 0

    @pytest.mark.parametrize("where", ["id", "number"])
    def test_cell_at_the_field_size_limit_loads(self, tmp_path, where):
        limit = csv.field_size_limit()
        path, lines = csv_lines(tmp_path)
        cells = lines[1].split(",")
        if where == "id":
            cells[0] = "a" * limit
        else:
            cells[2] = "0" * (limit - 1) + "1"
        write_lines(path, [lines[0], ",".join(cells)] + lines[2:])
        back = load_dataset(path)
        assert back.ids[0] == cells[0] and back.covariate_matrix[0, 0] == float(cells[2])

    @pytest.mark.parametrize("body", ["", "\r\n", "\n\n"])
    def test_header_only_raises_without_warning(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_text(CSV_HEADER + "\r\n" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError):
                load_dataset(path)

    @pytest.mark.parametrize("change", [-1, 1])
    def test_short_or_long_row_names_its_row(self, tmp_path, change):
        path, lines = csv_lines(tmp_path)
        cells = lines[3].split(",")
        lines[3] = ",".join(cells[:-1] if change < 0 else cells + ["1.0"])
        write_lines(path, lines)
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.row == 2

    def test_hash_led_id_is_data(self, tmp_path):
        path, lines = csv_lines(tmp_path)
        lines[1] = "#first" + lines[1][lines[1].index(",") :]
        write_lines(path, lines)
        back = load_dataset(path)
        assert back.ids[0] == "#first" and len(back) == 4

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\u0661", 1.0), ("\uff12.5", 2.5)])
    def test_numbers_that_float_accepts_load(self, tmp_path, cell, value):
        # numpy's parser rejects these; the csv reader still reads them
        path, lines = csv_lines(tmp_path)
        cells = lines[2].split(",")
        cells[2] = cell
        write_lines(path, [lines[0], lines[1], ",".join(cells)] + lines[3:])
        assert load_dataset(path).covariate_matrix[1, 0] == value

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_number_with_a_separator_char_names_its_row(self, tmp_path, sep):
        # numpy strips U+001C-U+001F around a number; float() does not
        path, lines = csv_lines(tmp_path)
        cells = lines[2].split(",")
        cells[3] += sep
        write_lines(path, [lines[0], lines[1], ",".join(cells)] + lines[3:])
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.row == 1

    @pytest.mark.parametrize("with_vcurves", [False, True])
    def test_tokenizer_reads_saved_files(self, tmp_path, with_vcurves):
        # the fast pass takes files that save_dataset writes, awkward ids
        # included, and gives the csv reader's answer
        path = tmp_path / "data.csv"
        save_dataset(awkward_dataset(with_vcurves), path)
        header, body = path.read_bytes().decode("utf-8").split("\r\n", 1)
        width = header.count(",") + 1
        fast, ref = _tokenized_rows(body, width), _csv_rows(body, width)
        assert fast is not None
        assert fast[0] == ref[0] == AWKWARD_IDS
        assert fast[1].tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("with_vcurves", [False, True])
    def test_writer_bytes_unchanged(self, tmp_path, with_vcurves):
        ds = awkward_dataset(with_vcurves)
        save_dataset(ds, tmp_path / "new.csv")
        write_rows_one_by_one(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @given(ds=datasets_to_save())
    @settings(max_examples=150, deadline=None)
    def test_writer_bytes_unchanged_on_any_dataset(self, tmp_path_factory, ds):
        base = tmp_path_factory.getbasetemp()
        save_dataset(ds, base / "new.csv")
        write_rows_one_by_one(ds, base / "old.csv")
        assert (base / "new.csv").read_bytes() == (base / "old.csv").read_bytes()


class TestCsvRoundTrip:
    @given(ds=datasets_to_save())
    @settings(max_examples=150, deadline=None)
    def test_bit_exact(self, tmp_path_factory, ds):
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert list(back.ids) == list(ds.ids)
        for name in ("treatments", "covariate_matrix", "outcome_matrix", "covariate_curve_matrix"):
            a, b = getattr(back, name), getattr(ds, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
