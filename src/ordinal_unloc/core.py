"""Sensor-field geometry and the matrix containers shared by all pipeline stages.

Sensors are ordered anchors-first: index i < m is the i-th anchor, index
m + j is the j-th target.  All indexing in code is 0-based.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class OrdinalUnlocError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(OrdinalUnlocError):
    """Invalid configuration (bad grids, counts, options)."""


class InputError(OrdinalUnlocError):
    """Invalid input data or file (parse failures, bad values)."""


class GroundTruthUnavailable(OrdinalUnlocError):
    """An operation needed target coordinates that are not present."""


class IllPosedWarning(UserWarning):
    """Fewer anchors than the geometric minimum for unique localization."""


_BLOCKS = ("Y", "X", "YX", "XY")


def _frozen(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SensorField:
    """Anchor/target layout in q-dimensional space.

    ``targets`` is None when ground truth is unknown (hardware mode); in
    that case ``declared_targets`` carries how many targets exist.
    """

    dimension: int
    anchors: np.ndarray
    targets: np.ndarray | None = None
    declared_targets: int | None = None
    anchor_ids: tuple[str, ...] = ()
    target_ids: tuple[str, ...] = ()

    def __post_init__(self):
        q = int(self.dimension)
        if q < 1:
            raise InputError(f"dimension must be positive, got {q}")
        anchors = np.atleast_2d(np.asarray(self.anchors, dtype=float))
        if anchors.size == 0:
            anchors = anchors.reshape(0, q)
        if anchors.shape[1] != q:
            raise InputError(
                f"anchor coordinates must have length {q}, got shape {anchors.shape}"
            )
        object.__setattr__(self, "anchors", _frozen(anchors))
        if self.targets is not None:
            targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
            if targets.size == 0:
                targets = targets.reshape(0, q)
            if targets.shape[1] != q:
                raise InputError(
                    f"target coordinates must have length {q}, got shape {targets.shape}"
                )
            object.__setattr__(self, "targets", _frozen(targets))
            object.__setattr__(self, "declared_targets", targets.shape[0])
        elif self.declared_targets is None:
            object.__setattr__(self, "declared_targets", 0)
        if not self.anchor_ids:
            object.__setattr__(
                self, "anchor_ids", tuple(f"a{i + 1}" for i in range(self.m))
            )
        if not self.target_ids:
            object.__setattr__(
                self, "target_ids", tuple(f"t{j + 1}" for j in range(self.n))
            )
        if len(self.anchor_ids) != self.m or len(self.target_ids) != self.n:
            raise InputError("sensor id counts do not match the layout")
        if self.m < q + 1:
            warnings.warn(
                f"only {self.m} anchors in {q}-D: localization may be ill-posed "
                f"(need at least {q + 1})",
                IllPosedWarning,
                stacklevel=2,
            )

    @property
    def m(self) -> int:
        return self.anchors.shape[0]

    @property
    def n(self) -> int:
        return int(self.declared_targets)

    @property
    def n_sensors(self) -> int:
        return self.m + self.n


def _block_slice(values, m, which, transpose_xy):
    if which == "Y":
        return values[:m, :m]
    if which == "X":
        return values[m:, m:]
    if which == "YX":
        return values[:m, m:]
    if which == "XY":
        if transpose_xy:
            return values[:m, m:].T
        return values[m:, :m]
    raise InputError(f"unknown block selector {which!r}; expected one of {_BLOCKS}")


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric N x N matrix of pairwise distances, anchors-first."""

    values: np.ndarray
    n_anchors: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError(f"distance matrix must be square, got shape {v.shape}")
        if not (0 <= self.n_anchors <= v.shape[0]):
            raise InputError("anchor count out of range for distance matrix")
        bad = np.argwhere(~np.isfinite(v))
        if bad.size:
            i, j = bad[0]
            raise InputError(f"distance {v[i, j]} between sensors ({i}, {j}) is not finite")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def block(self, which: str) -> np.ndarray:
        """One of the four blocks; XY is the transpose of the stored YX."""
        return _block_slice(self.values, self.n_anchors, which, transpose_xy=True)


@dataclass(frozen=True)
class ComparisonTensor:
    """N slices of N x N ordinal comparisons, entries in {-1, 0, +1}.

    ``values[k, i, j]`` compares the distances of sensors i and j to the
    reference sensor k (+1 means i is farther from k than j).
    """

    values: np.ndarray
    n_anchors: int

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 3 or len(set(v.shape)) != 1:
            raise InputError(f"comparison tensor must be N x N x N, got shape {v.shape}")
        # a read-only int8 array that owns its data (as the tensor builders
        # hand over) is kept without a copy; anything a caller could still
        # write to is copied
        if v.dtype != np.int8 or v.flags.writeable or v.base is not None:
            v = _frozen(v, dtype=np.int8)
        object.__setattr__(self, "values", v)

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def slice(self, k: int) -> np.ndarray:
        return self.values[k]


@dataclass(frozen=True)
class ProximityMatrix:
    """Rank-aggregation scores; column k is the zero-sum score vector for
    reference sensor k.  Unlike the distance matrix this is not symmetric,
    so the XY block is the actual lower-left submatrix."""

    values: np.ndarray
    n_anchors: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError(f"proximity matrix must be square, got shape {v.shape}")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def block(self, which: str) -> np.ndarray:
        return _block_slice(self.values, self.n_anchors, which, transpose_xy=False)


def point_distances(points) -> np.ndarray:
    """Euclidean distances between the rows of ``points``, zero diagonal."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def pairwise_distances(field: SensorField) -> DistanceMatrix:
    """Exact Euclidean distance matrix of a field with known coordinates."""
    if field.n > 0 and field.targets is None:
        raise GroundTruthUnavailable(
            "ground truth unavailable: field declares targets without coordinates"
        )
    if field.targets is not None and field.n > 0:
        pts = np.vstack([field.anchors, field.targets])
    else:
        pts = field.anchors
    return DistanceMatrix(point_distances(pts), field.m)


def block_view(matrix: DistanceMatrix | ProximityMatrix, which: str) -> np.ndarray:
    """Block selector shared by the partitioned matrix types."""
    return matrix.block(which)


def _parse_sensor_rows(rows, dimension_hint=None):
    """Parse (line_no, cells) roster rows; returns (ids, roles, coords or None)."""
    entries = []
    q = None
    for line_no, cells in rows:
        cells = [c.strip() for c in cells]
        if len(cells) < 2:
            raise InputError(f"line {line_no}: expected id,role,x,y[,z]")
        sensor_id, role = cells[0], cells[1].lower()
        if role not in ("anchor", "target"):
            raise InputError(f"line {line_no}: unknown role {cells[1]!r}")
        coord_cells = [c for c in cells[2:] if c != ""]
        if coord_cells:
            try:
                coords = [float(c) for c in coord_cells]
            except ValueError:
                raise InputError(f"line {line_no}: non-numeric coordinate") from None
            if q is None:
                q = len(coords)
            elif len(coords) != q:
                raise InputError(f"line {line_no}: inconsistent coordinate dimension")
        else:
            coords = None
        if role == "anchor" and coords is None:
            raise InputError(f"line {line_no}: anchor {sensor_id!r} has no coordinates")
        entries.append((line_no, sensor_id, role, coords))
    if q is None:
        q = dimension_hint if dimension_hint is not None else 2
    if not 2 <= q <= 3:
        # the library accepts general q; the file format carries x,y[,z]
        raise InputError(f"sensor files carry 2-D or 3-D coordinates, got {q}")
    return entries, q


def _roster_to_field(entries, q):
    seen = set()
    for line_no, sensor_id, _, _ in entries:
        if sensor_id in seen:
            raise InputError(f"line {line_no}: duplicate sensor id {sensor_id!r}")
        seen.add(sensor_id)
    anchors = [(i, c) for _, i, r, c in entries if r == "anchor"]
    targets = [(i, c) for _, i, r, c in entries if r == "target"]
    target_coords = [c for _, c in targets]
    if any(c is None for c in target_coords):
        if not all(c is None for c in target_coords):
            raise InputError("either all targets or none must carry coordinates")
        target_array = None
    else:
        target_array = np.array(target_coords, dtype=float).reshape(len(targets), q)
    return SensorField(
        dimension=q,
        anchors=np.array([c for _, c in anchors], dtype=float).reshape(len(anchors), q),
        targets=target_array,
        declared_targets=len(targets) if target_array is None else None,
        anchor_ids=tuple(i for i, _ in anchors),
        target_ids=tuple(i for i, _ in targets),
    )


def _iter_csv_rows(text, first_line=1):
    """Yields (line_no, cells) for non-comment, non-blank CSV lines."""
    for offset, line in enumerate(text.splitlines()):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = next(csv.reader(io.StringIO(line)))
        yield first_line + offset, cells


def read_sensor_field(path) -> SensorField:
    """Read a sensor-field CSV (header ``id,role,x,y[,z]``)."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_sensor_field(text)


def parse_sensor_field(text: str, first_line: int = 1) -> SensorField:
    rows = list(_iter_csv_rows(text, first_line))
    if not rows:
        raise InputError("empty sensor field file")
    header_line, header = rows[0]
    expected = ["id", "role", "x", "y"]
    got = [c.strip().lower() for c in header]
    if got[: len(expected)] != expected or got not in (expected, expected + ["z"]):
        raise InputError(f"line {header_line}: expected header id,role,x,y[,z]")
    entries, q = _parse_sensor_rows(rows[1:], dimension_hint=len(got) - 2)
    return _roster_to_field(entries, q)
