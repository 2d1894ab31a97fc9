"""Core functional data model.

Curves are real-valued functions sampled on a shared uniform grid over
[0, 1].  A dataset bundles one observational sample per row: treatment,
baseline covariates, an optional covariate curve and an outcome curve.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import trapezoid
from scipy.interpolate import CubicSpline

from .errors import GridTooSmall, SchemaError

__all__ = [
    "Grid",
    "Curve",
    "ObservationalSample",
    "Dataset",
    "derivative",
    "resample",
    "grid_norm",
    "load_dataset",
    "save_dataset",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
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
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.shape != (len(self.grid),):
            raise ValueError("values length must match grid length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Curve)
            and self.grid == other.grid
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class ObservationalSample:
    """One unit: treatment, baseline covariates and curves."""

    id: str
    treatment: float
    covariates: np.ndarray
    outcome: Curve
    covariate_curve: Optional[Curve] = None

    def __post_init__(self):
        object.__setattr__(self, "covariates", _frozen_array(self.covariates))
        if self.covariates.ndim != 1:
            raise ValueError("covariates must be a flat vector")


class Dataset:
    """Collection of observational samples sharing common grids."""

    def __init__(self, samples: Sequence[ObservationalSample]):
        samples = list(samples)
        if len(samples) < 2:
            raise ValueError("a dataset needs at least 2 samples")
        grid = samples[0].outcome.grid
        cgrid = None if samples[0].covariate_curve is None else samples[0].covariate_curve.grid
        d = samples[0].covariates.size
        for i, s in enumerate(samples):
            if s.outcome.grid != grid:
                raise ValueError(f"sample {i}: outcome grid mismatch")
            if (s.covariate_curve is None) != (cgrid is None):
                raise ValueError(f"sample {i}: covariate curve presence mismatch")
            if cgrid is not None and s.covariate_curve.grid != cgrid:
                raise ValueError(f"sample {i}: covariate grid mismatch")
            if s.covariates.size != d:
                raise ValueError(f"sample {i}: covariate dimension mismatch")
        self.samples = samples
        self.outcome_grid = grid
        self.covariate_grid = cgrid
        if self.is_binary():
            x = self.treatments
            if not (np.any(x == 0.0) and np.any(x == 1.0)):
                raise ValueError("binary datasets need samples in both arms")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def treatments(self) -> np.ndarray:
        return np.array([s.treatment for s in self.samples])

    @property
    def covariate_matrix(self) -> np.ndarray:
        return np.array([s.covariates for s in self.samples])

    @property
    def outcome_matrix(self) -> np.ndarray:
        return np.array([s.outcome.values for s in self.samples])

    @property
    def covariate_curve_matrix(self) -> Optional[np.ndarray]:
        if self.covariate_grid is None:
            return None
        return np.array([s.covariate_curve.values for s in self.samples])

    def is_binary(self) -> bool:
        x = self.treatments
        return bool(np.all((x == 0.0) | (x == 1.0)))

    def outcome_curves(self) -> list:
        return [s.outcome for s in self.samples]

    def arm_indices(self, x: float) -> np.ndarray:
        return np.flatnonzero(self.treatments == x)

    def with_outcomes(self, values: np.ndarray) -> "Dataset":
        """Copy of the dataset with outcome curves replaced row-wise."""
        return Dataset(
            [
                ObservationalSample(
                    id=s.id,
                    treatment=s.treatment,
                    covariates=s.covariates,
                    outcome=Curve(self.outcome_grid, row),
                    covariate_curve=s.covariate_curve,
                )
                for s, row in zip(self.samples, values)
            ]
        )

    def with_covariate_curves(self, values: np.ndarray) -> "Dataset":
        return Dataset(
            [
                ObservationalSample(
                    id=s.id,
                    treatment=s.treatment,
                    covariates=s.covariates,
                    outcome=s.outcome,
                    covariate_curve=Curve(self.covariate_grid, row),
                )
                for s, row in zip(self.samples, values)
            ]
        )


def derivative(c: Curve) -> Curve:
    """Second-order finite-difference derivative on the same grid.

    Central differences at interior points, one-sided second-order at the
    boundaries.  No pre-smoothing: outcome registration splits off its own
    moving-average smooth part (``estimators.register_outcomes``).
    """
    if len(c.grid) < 3:
        raise GridTooSmall("derivative needs at least 3 grid points")
    dv = np.gradient(c.values, c.grid.spacing, edge_order=2)
    return Curve(c.grid, dv)


def resample(c: Curve, g: Grid) -> Curve:
    """Cubic-spline interpolation of a curve onto another grid.

    Exact on the identity grid; fourth-order accurate for smooth curves,
    which keeps an upsample-downsample round trip well below grid-level
    noise.
    """
    if g == c.grid:
        return Curve(g, c.values)
    spline = CubicSpline(c.grid.points, c.values)
    return Curve(g, spline(g.points))


def grid_norm(values: np.ndarray, grid: Grid) -> float:
    """L2 norm via trapezoidal quadrature over [0, 1]."""
    return math.sqrt(float(trapezoid(np.asarray(values) ** 2, grid.points)))


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
    if _is_json(path):
        payload = {
            "outcome_grid": ds.outcome_grid.points.tolist(),
            "covariate_grid": None
            if ds.covariate_grid is None
            else ds.covariate_grid.points.tolist(),
            "samples": [
                {
                    "id": s.id,
                    "treatment": s.treatment,
                    "covariates": s.covariates.tolist(),
                    "outcome": s.outcome.values.tolist(),
                    "covariate_curve": None
                    if s.covariate_curve is None
                    else s.covariate_curve.values.tolist(),
                }
                for s in ds.samples
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return
    d = ds.samples[0].covariates.size
    t = len(ds.outcome_grid)
    tc = None if ds.covariate_grid is None else len(ds.covariate_grid)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(d, t, tc))
        for s in ds.samples:
            row = [s.id, repr(float(s.treatment))]
            row += [repr(float(x)) for x in s.covariates]
            row += [repr(float(x)) for x in s.outcome.values]
            if tc is not None:
                row += [repr(float(x)) for x in s.covariate_curve.values]
            writer.writerow(row)


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
    grid = Grid(payload["outcome_grid"])
    cgrid = None if payload["covariate_grid"] is None else Grid(payload["covariate_grid"])
    samples = []
    for i, rec in enumerate(payload["samples"]):
        try:
            samples.append(
                ObservationalSample(
                    id=rec["id"],
                    treatment=float(rec["treatment"]),
                    covariates=np.asarray(rec["covariates"], dtype=float),
                    outcome=Curve(grid, rec["outcome"]),
                    covariate_curve=None
                    if rec["covariate_curve"] is None
                    else Curve(cgrid, rec["covariate_curve"]),
                )
            )
        except _PAYLOAD_ERRORS as exc:
            raise SchemaError(str(exc), row=i) from exc
    return Dataset(samples)


def _dataset_from_csv(fh) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file") from None
    d, t, tc = _parse_csv_header(header)
    grid = Grid.uniform(t)
    cgrid = None if tc is None else Grid.uniform(tc)
    samples = []
    for i, row in enumerate(reader):
        if len(row) != len(header):
            raise SchemaError(f"expected {len(header)} columns, got {len(row)}", row=i)
        try:
            vals = [float(x) for x in row[1:]]
        except ValueError as exc:
            raise SchemaError(str(exc), row=i) from exc
        if not all(math.isfinite(x) for x in vals):
            raise SchemaError("non-finite value", row=i)
        k = 1 + d
        samples.append(
            ObservationalSample(
                id=row[0],
                treatment=vals[0],
                covariates=np.asarray(vals[1:k], dtype=float),
                outcome=Curve(grid, vals[k : k + t]),
                covariate_curve=None
                if tc is None
                else Curve(cgrid, vals[k + t : k + t + tc]),
            )
        )
    return Dataset(samples)


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
