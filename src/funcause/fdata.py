"""Core functional data model.

Curves are real-valued functions sampled on a shared uniform grid over
[0, 1].  A dataset holds its n units as arrays, one row per unit:
treatments, baseline covariates, outcome curves and optional covariate
curves, each curve set on its own shared grid.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import GridTooSmall, SchemaError

__all__ = [
    "Grid",
    "Curve",
    "Dataset",
    "derivative",
    "resample",
    "grid_norm",
    "load_dataset",
    "save_dataset",
]


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")
    arr.flags.writeable = False
    return arr


def _curve_values(values, grid: Grid, what: str) -> np.ndarray:
    """Read-only C-order copy of one curve's ``values`` on ``grid``;
    ``ValueError`` unless it holds one finite value per grid point."""
    arr = _frozen_array(values)
    if arr.shape != (len(grid),):
        raise ValueError("values length must match grid length")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} values must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform sampling grid on [0, 1] with T >= 2 points."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen_array(self.points))
        p = self.points
        if p.ndim != 1 or p.size < 2:
            raise GridTooSmall("grid needs at least 2 points")
        if not (p[0] == 0.0 and p[-1] == 1.0):
            raise ValueError("grid must start at 0 and end at 1")
        d = np.diff(p)
        if np.any(d <= 0):
            raise ValueError("grid points must be strictly increasing")
        h = 1.0 / (p.size - 1)
        if np.max(np.abs(d - h)) > 1e-12 * max(1.0, h):
            raise ValueError("only uniform grids are supported")

    @classmethod
    def uniform(cls, t: int) -> "Grid":
        return cls(np.linspace(0.0, 1.0, t))

    @property
    def spacing(self) -> float:
        return 1.0 / (len(self) - 1)

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and np.array_equal(self.points, other.points)

    def __hash__(self) -> int:
        return hash((self.points.size,))


@dataclass(frozen=True, eq=False)
class Curve:
    """Function values sampled on a grid; all values finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _curve_values(self.values, self.grid, "curve"))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Curve)
            and self.grid == other.grid
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """n units as read-only arrays on shared grids: ``treatments`` (n,),
    baseline ``covariate_matrix`` (n, d), outcome curves ``outcome_matrix``
    (n, T) on ``outcome_grid`` and, optionally, covariate curves
    ``covariate_curve_matrix`` (n, Tc) on ``covariate_grid``.  ``ids`` are
    kept as given.  Validated on construction, so ``dataclasses.replace``
    and ``take`` re-check every rule."""

    ids: Sequence
    treatments: np.ndarray
    covariate_matrix: np.ndarray
    outcome_grid: Grid
    outcome_matrix: np.ndarray
    covariate_grid: Optional[Grid] = None
    covariate_curve_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        names = ["treatments", "covariate_matrix", "outcome_matrix"]
        if (self.covariate_grid is None) != (self.covariate_curve_matrix is None):
            raise ValueError("covariate curves need a covariate grid, and vice versa")
        if self.covariate_grid is not None:
            names.append("covariate_curve_matrix")
        for name in names:
            arr = _frozen_array(getattr(self, name))
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        x = self.treatments
        if x.ndim != 1 or x.size < 2:
            raise ValueError("a dataset needs a flat vector of at least 2 treatments")
        n = x.size
        if len(self.ids) != n or self.covariate_matrix.ndim != 2 or len(self.covariate_matrix) != n:
            raise ValueError("ids and covariate rows must match the treatments")
        for name, grid in (
            ("outcome_matrix", self.outcome_grid),
            ("covariate_curve_matrix", self.covariate_grid),
        ):
            if grid is not None and getattr(self, name).shape != (n, len(grid)):
                raise ValueError(f"{name} must have shape (n, grid length)")
        if self.is_binary() and not (np.any(x == 0.0) and np.any(x == 1.0)):
            raise ValueError("binary datasets need samples in both arms")

    def __len__(self) -> int:
        return self.treatments.size

    def is_binary(self) -> bool:
        x = self.treatments
        return bool(np.all((x == 0.0) | (x == 1.0)))

    def arm_indices(self, x: float) -> np.ndarray:
        return np.flatnonzero(self.treatments == x)

    def take(self, idx) -> "Dataset":
        """The units ``idx``, in that order, as a new (re-validated) dataset."""
        idx = np.asarray(idx, dtype=int)
        vc = self.covariate_curve_matrix
        return replace(
            self,
            ids=[self.ids[i] for i in idx],
            treatments=self.treatments[idx],
            covariate_matrix=self.covariate_matrix[idx],
            outcome_matrix=self.outcome_matrix[idx],
            covariate_curve_matrix=None if vc is None else vc[idx],
        )


def derivative(c: Curve) -> Curve:
    """Second-order finite-difference derivative on the same grid.

    Central differences at interior points, one-sided second-order at the
    boundaries.  No pre-smoothing: outcome registration splits off its own
    moving-average smooth part (``estimators.register_outcomes``).
    """
    return Curve(c.grid, _derivative_rows(c.values, c.grid))


def _derivative_rows(fmat, grid: Grid) -> np.ndarray:
    """``derivative`` of every row of ``fmat`` (or of one curve's values)."""
    if len(grid) < 3:
        raise GridTooSmall("derivative needs at least 3 grid points")
    return np.gradient(fmat, grid.spacing, axis=-1, edge_order=2)


def resample(c: Curve, g: Grid) -> Curve:
    """Cubic-spline interpolation of a curve onto another grid.

    Exact on the identity grid; fourth-order accurate for smooth curves,
    which keeps an upsample-downsample round trip well below grid-level
    noise.
    """
    if g == c.grid:
        return Curve(g, c.values)
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(c.grid.points, c.values)
    return Curve(g, spline(g.points))


def _trapezoid_terms(y, x: np.ndarray) -> np.ndarray:
    """Trapezoid areas between consecutive points of the last axis of ``y``
    over the points ``x``; their sum is ``scipy.integrate.trapezoid(y, x)``
    bit for bit, since scipy evaluates the same expression."""
    return np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0


def _trapezoid(y, x: np.ndarray):
    """Trapezoidal integral of ``y`` over ``x`` along the last axis."""
    return np.sum(_trapezoid_terms(y, x), axis=-1)


def _row_norms(rows, grid: Grid) -> np.ndarray:
    """``grid_norm`` of every row: trapezoidal L2 norms over [0, 1]."""
    return np.sqrt(_trapezoid(np.asarray(rows) ** 2, grid.points))


def grid_norm(values: np.ndarray, grid: Grid) -> float:
    """L2 norm via trapezoidal quadrature over [0, 1]."""
    return float(_row_norms(values, grid))


# ---------------------------------------------------------------------------
# serialization
#
# CSV schema (one row per sample):
#   id,treatment,v_1..v_d,y_0001..y_T[,vc_0001..vc_Tc]
# grids are implicit-uniform on [0, 1].  The JSON format mirrors the same
# fields with explicit grid arrays.
# ---------------------------------------------------------------------------

def _csv_header(d: int, t: int, tc: Optional[int]) -> list:
    cols = ["id", "treatment"]
    cols += [f"v_{j + 1}" for j in range(d)]
    cols += [f"y_{j + 1:04d}" for j in range(t)]
    if tc is not None:
        cols += [f"vc_{j + 1:04d}" for j in range(tc)]
    return cols


def _is_json(path) -> bool:
    """The file suffix picks the format: ``.json`` is JSON, anything else CSV."""
    return str(path).endswith(".json")


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset as JSON when ``path`` ends in ``.json``, else as CSV."""
    vc = ds.covariate_curve_matrix
    if _is_json(path):
        payload = {
            "outcome_grid": ds.outcome_grid.points.tolist(),
            "covariate_grid": None if vc is None else ds.covariate_grid.points.tolist(),
            "samples": [
                {
                    "id": ds.ids[i],
                    "treatment": float(ds.treatments[i]),
                    "covariates": ds.covariate_matrix[i].tolist(),
                    "outcome": ds.outcome_matrix[i].tolist(),
                    "covariate_curve": None if vc is None else vc[i].tolist(),
                }
                for i in range(len(ds))
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return
    blocks = [ds.treatments[:, None], ds.covariate_matrix, ds.outcome_matrix]
    header = _csv_header(
        ds.covariate_matrix.shape[1], len(ds.outcome_grid), None if vc is None else vc.shape[1]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for uid, row in zip(ds.ids, np.hstack(blocks if vc is None else blocks + [vc])):
            writer.writerow([uid] + [repr(x) for x in row.tolist()])


def _parse_csv_header(header: list):
    if header[:2] != ["id", "treatment"]:
        raise SchemaError("header must start with id,treatment")
    d = sum(1 for c in header if c.startswith("v_") and not c.startswith("vc_"))
    t = sum(1 for c in header if c.startswith("y_"))
    tc = sum(1 for c in header if c.startswith("vc_"))
    if t < 2:
        raise SchemaError("need at least 2 outcome columns")
    expected = _csv_header(d, t, tc if tc else None)
    if header != expected:
        raise SchemaError("columns out of order or misnamed")
    return d, t, (tc if tc else None)


# what a file that does not follow the schema raises while it is read
_PAYLOAD_ERRORS = (KeyError, TypeError, ValueError, OverflowError, GridTooSmall, csv.Error)


def _dataset_from_json(payload) -> Dataset:
    cgrid = None if payload["covariate_grid"] is None else Grid(payload["covariate_grid"])
    recs = payload["samples"]
    vcurves = [rec["covariate_curve"] for rec in recs]
    return Dataset(
        ids=[rec["id"] for rec in recs],
        treatments=[rec["treatment"] for rec in recs],
        covariate_matrix=[rec["covariates"] for rec in recs],
        outcome_grid=Grid(payload["outcome_grid"]),
        outcome_matrix=[rec["outcome"] for rec in recs],
        covariate_grid=cgrid,
        covariate_curve_matrix=None if all(c is None for c in vcurves) else vcurves,
    )


def _dataset_from_csv(fh) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file") from None
    d, t, tc = _parse_csv_header(header)
    ids, rows = [], []
    for i, row in enumerate(reader):
        if len(row) != len(header):
            raise SchemaError(f"expected {len(header)} columns, got {len(row)}", row=i)
        try:
            rows.append([float(x) for x in row[1:]])
        except ValueError as exc:
            raise SchemaError(str(exc), row=i) from exc
        ids.append(row[0])
    vals = np.array(rows).reshape(len(rows), len(header) - 1)
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if bad.size:
        raise SchemaError("non-finite value", row=int(bad[0]))
    k = 1 + d
    return Dataset(
        ids=ids,
        treatments=vals[:, 0],
        covariate_matrix=vals[:, 1:k],
        outcome_grid=Grid.uniform(t),
        outcome_matrix=vals[:, k : k + t],
        covariate_grid=None if tc is None else Grid.uniform(tc),
        covariate_curve_matrix=None if tc is None else vals[:, k + t :],
    )


def load_dataset(path) -> Dataset:
    """Read a dataset written by ``save_dataset``, as JSON when ``path``
    ends in ``.json`` and as CSV otherwise; a file that does not follow the
    schema raises ``SchemaError``."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            if _is_json(path):
                return _dataset_from_json(json.load(fh))
            return _dataset_from_csv(fh)
        except _PAYLOAD_ERRORS as exc:
            raise SchemaError(f"malformed dataset: {exc!r}") from exc
