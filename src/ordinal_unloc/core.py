"""Sensor-field geometry, the matrix containers shared by all pipeline stages,
and the line and cell rules of the CSV file formats.

Sensors are ordered anchors-first: index i < m is the i-th anchor, index
m + j is the j-th target.  All indexing in code is 0-based.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class OrdinalUnlocError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(OrdinalUnlocError):
    """Invalid configuration (bad grids, counts, options)."""


class InputError(OrdinalUnlocError):
    """Invalid input data or file (parse failures, bad values)."""


class IllPosedWarning(UserWarning):
    """Fewer anchors than the geometric minimum for unique localization."""


def _frozen(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _coordinates(points, q, role):
    """The (count, q) float coordinates of one role's sensors, all finite."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        points = points.reshape(0, q)
    if points.shape[1] != q:
        raise InputError(f"{role} coordinates must have length {q}, got shape {points.shape}")
    bad = ~np.isfinite(points)
    if bad.any():
        i, c = np.argwhere(bad)[0]
        raise InputError(f"{role} {i} coordinate {c} is {points[i, c]}, not finite")
    return _frozen(points)


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
        object.__setattr__(self, "anchors", _coordinates(self.anchors, q, "anchor"))
        if self.targets is not None:
            targets = _coordinates(self.targets, q, "target")
            object.__setattr__(self, "targets", targets)
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
        check_finite_distances(v)
        object.__setattr__(self, "values", _frozen(v))

    @property
    def order(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ComparisonTensor:
    """N slices of N x N ordinal comparisons, held as each slice's row sums.

    The comparison of sensors i and j at reference sensor k is +1 when i
    is farther from k than j, -1 when it is closer and 0 for a tie or a
    missing link; ``row_sums[k, i]`` sums it over j.  Rank aggregation
    needs nothing else, so the N^3 comparisons are never stored.
    """

    row_sums: np.ndarray
    n_anchors: int

    def __post_init__(self):
        v = np.asarray(self.row_sums)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError(f"comparison row sums must be N x N, got shape {v.shape}")
        if not np.issubdtype(v.dtype, np.integer):
            raise InputError(f"comparison row sums must be integers, got {v.dtype}")
        object.__setattr__(self, "row_sums", _frozen(v, dtype=np.int64))

    @property
    def order(self) -> int:
        return self.row_sums.shape[0]


def check_finite_distances(values) -> None:
    """Raise InputError naming the first non-finite entry of a distance
    matrix, or of a stack of them (the sensors index the last two axes)."""
    bad = ~np.isfinite(values)
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        i, j = first[-2:]
        raise InputError(f"distance {values[first]} between sensors ({i}, {j}) is not finite")


def point_distances(points) -> np.ndarray:
    """Euclidean distances between the rows of ``points`` (N, q), zero
    diagonal; a (G, N, q) stack gives each layout's (G, N, N) matrix with
    the bytes of a call on it alone."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    diff = points[..., :, None, :] - points[..., None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    n = d.shape[-1]
    d[..., np.arange(n), np.arange(n)] = 0.0
    return d


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
            for cell, c in zip(coord_cells, coords):
                if not np.isfinite(c):
                    raise InputError(f"line {line_no}: coordinate {cell!r} is not finite")
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


def _content_lines(lines, first_line=1):
    """(line_no, line) for the non-blank lines that do not start with
    ``#``, numbered from ``first_line``: the lines of a roster, a
    ``--field`` file or a record log that hold cells."""
    for line_no, line in enumerate(lines, first_line):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line_no, line


def _cells(line):
    """A line's cells as the csv reader gives them.  Without a quote
    character they are the comma-separated pieces, so only quoted lines go
    through the reader."""
    return next(csv.reader([line])) if '"' in line else line.split(",")


def read_text(path) -> str:
    """A file's UTF-8 text without a leading byte-order mark; a byte that
    does not decode raises InputError naming the file and the byte's
    offset in it."""
    try:
        # decoded as plain UTF-8, the mark is one U+FEFF and the offsets
        # count its three bytes
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: byte {exc.start} is not valid UTF-8") from None


def read_sensor_field(path) -> SensorField:
    """Read a sensor-field CSV (header ``id,role,x,y[,z]``)."""
    return parse_sensor_field(read_text(path))


def parse_sensor_field(text: str) -> SensorField:
    """Parse a sensor roster: a sensor-field file, or the roster section of
    a measurement log, which starts the file."""
    rows = [(line_no, _cells(line)) for line_no, line in _content_lines(text.splitlines())]
    if not rows:
        raise InputError("empty sensor roster: expected header id,role,x,y[,z]")
    header_line, header = rows[0]
    expected = ["id", "role", "x", "y"]
    got = [c.strip().lower() for c in header]
    if got[: len(expected)] != expected or got not in (expected, expected + ["z"]):
        raise InputError(f"line {header_line}: expected header id,role,x,y[,z]")
    entries, q = _parse_sensor_rows(rows[1:], dimension_hint=len(got) - 2)
    return _roster_to_field(entries, q)
