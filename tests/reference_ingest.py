"""Record-at-a-time ingest kept as an oracle for the columnar one in
``ingest``.

``parse_measurement_text`` sends every roster and record line through the
csv module, quoted or not, and reads the records one line at a time into
``MeasurementRecord`` objects; ``select_strong_links`` sorts each directed
link's records by RSSI in Python; ``_pooled_links`` groups records per
unordered pair in a dict and ``measurement_signal_matrix`` reduces each
pool on its own; ``write_measurement_file`` joins the whole
file into one string before writing it.  The production code must match
these byte for byte on finite readings (it rejects non-finite ones, which
these accept, and ids that would not read back, which this writer
writes).
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ordinal_unloc.core import InputError, SensorField, _parse_sensor_rows, _roster_to_field
from ordinal_unloc.ingest import RECORD_HEADER, SEPARATOR, MeasurementRecord, RowError
from ordinal_unloc.ordinal import SignalMatrix


@dataclass(frozen=True)
class ReferenceSet:
    field: SensorField
    records: tuple[MeasurementRecord, ...]
    parse_errors: tuple[RowError, ...] = ()

    @property
    def sensor_ids(self) -> tuple[str, ...]:
        return self.field.anchor_ids + self.field.target_ids


def _iter_csv_rows(text, first_line=1):
    """Yields (line_no, cells) for non-comment, non-blank CSV lines, each
    read by the csv module: an oracle for ``core._cells``, which sends only
    quoted lines there."""
    for offset, line in enumerate(text.splitlines()):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = next(csv.reader(io.StringIO(line)))
        yield first_line + offset, cells


def parse_measurement_text(text: str) -> ReferenceSet:
    lines = text.splitlines()
    try:
        sep_at = next(i for i, line in enumerate(lines) if line.strip() == SEPARATOR)
    except StopIteration:
        raise InputError(f"missing {SEPARATOR!r} separator between roster and records") from None
    roster_rows = list(_iter_csv_rows("\n".join(lines[:sep_at]), first_line=1))
    if not roster_rows:
        raise InputError("empty sensor roster: expected header id,role,x,y[,z]")
    header = [c.strip().lower() for c in roster_rows[0][1]]
    # the rule of a sensor-field file: x,y and an optional z, nothing more
    if header not in (["id", "role", "x", "y"], ["id", "role", "x", "y", "z"]):
        raise InputError(f"line {roster_rows[0][0]}: expected header id,role,x,y[,z]")
    entries, q = _parse_sensor_rows(roster_rows[1:], dimension_hint=len(header) - 2)
    field = _roster_to_field(entries, q)
    known = set(field.anchor_ids) | set(field.target_ids)

    record_rows = list(_iter_csv_rows("\n".join(lines[sep_at + 1 :]), first_line=sep_at + 2))
    records: list[MeasurementRecord] = []
    errors: list[RowError] = []
    if record_rows:
        line_no, cells = record_rows[0]
        if tuple(c.strip().lower() for c in cells) != RECORD_HEADER:
            raise InputError(f"line {line_no}: expected header {','.join(RECORD_HEADER)}")
        for line_no, cells in record_rows[1:]:
            cells = [c.strip() for c in cells]
            if len(cells) != 4:
                errors.append(RowError(line_no, "expected 4 fields"))
                continue
            tx, rx = cells[0], cells[1]
            bad = next((s for s in (tx, rx) if s not in known), None)
            if bad is not None:
                errors.append(RowError(line_no, f"unknown sensor id {bad!r}"))
                continue
            if tx == rx:
                errors.append(RowError(line_no, "self link"))
                continue
            try:
                ts, rssi = float(cells[2]), float(cells[3])
            except ValueError:
                errors.append(RowError(line_no, "non-numeric field"))
                continue
            records.append(MeasurementRecord(tx, rx, ts, rssi, line_no))
    return ReferenceSet(field, tuple(records), tuple(errors))


def select_strong_links(ms: ReferenceSet, keep_fraction: float) -> ReferenceSet:
    if not 0 < keep_fraction <= 1:
        raise InputError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    by_link: dict[tuple[str, str], list[int]] = {}
    for idx, rec in enumerate(ms.records):
        by_link.setdefault((rec.tx, rec.rx), []).append(idx)
    kept: set[int] = set()
    for indices in by_link.values():
        n_keep = math.ceil(keep_fraction * len(indices))
        # stable sort on descending RSSI preserves timestamp order for ties
        ordered = sorted(indices, key=lambda i: -ms.records[i].rssi_dbm)
        kept.update(ordered[:n_keep])
    retained = tuple(rec for idx, rec in enumerate(ms.records) if idx in kept)
    return replace(ms, records=retained)


def _pooled_links(ms: ReferenceSet):
    """Records pooled per unordered pair, ordered by (timestamp, line)."""
    pools: dict[tuple[int, int], list[MeasurementRecord]] = {}
    index = {s: i for i, s in enumerate(ms.sensor_ids)}
    for rec in ms.records:
        i, j = index[rec.tx], index[rec.rx]
        key = (min(i, j), max(i, j))
        pools.setdefault(key, []).append(rec)
    for pool in pools.values():
        pool.sort(key=lambda r: (r.timestamp_ms, r.line))
    return pools


def min_link_sample_count(ms: ReferenceSet) -> int:
    pools = _pooled_links(ms)
    if not pools:
        return 0
    return min(len(pool) for pool in pools.values())


def measurement_signal_matrix(
    ms: ReferenceSet, aggregator: str = "median", sample_index: int | None = None
) -> SignalMatrix:
    if not ms.records:
        raise InputError("measurement set has no records")
    if aggregator not in ("median", "mean", "sample"):
        raise InputError(f"unknown aggregator {aggregator!r}")
    n = len(ms.sensor_ids)
    values = np.zeros((n, n))
    missing = np.ones((n, n), dtype=bool)
    pools = _pooled_links(ms)
    for (i, j), pool in pools.items():
        rssi = [rec.rssi_dbm for rec in pool]
        if aggregator == "median":
            value = float(np.median(rssi))
        elif aggregator == "mean":
            value = float(np.mean(rssi))
        else:
            if sample_index is None or sample_index < 1:
                raise InputError("sample mode needs a 1-based sample_index")
            if len(rssi) < sample_index:
                raise InputError(
                    f"link {ms.sensor_ids[i]}-{ms.sensor_ids[j]} has only "
                    f"{len(rssi)} retained records, needed {sample_index}"
                )
            value = rssi[sample_index - 1]
        values[i, j] = values[j, i] = value
        missing[i, j] = missing[j, i] = False
    return SignalMatrix(
        values, increasing_with_distance=False, n_anchors=ms.field.m, missing=missing
    )


def _id_cell(sensor_id: str) -> str:
    """``sensor_id`` as a CSV cell the parser reads back: quoted, inner
    quotes doubled, if it holds a comma or a quote or starts with ``#``."""
    if "," in sensor_id or '"' in sensor_id or sensor_id.startswith("#"):
        return '"' + sensor_id.replace('"', '""') + '"'
    return sensor_id


def write_measurement_file(path, field: SensorField, records) -> None:
    """Inverse of the parser, for synthetic datasets and round trips."""
    cell = functools.cache(_id_cell)
    lines = ["id,role,x,y" + (",z" if field.dimension == 3 else "")]
    for sensor_id, coords in zip(field.anchor_ids, field.anchors):
        lines.append(f"{cell(sensor_id)},anchor," + ",".join(repr(float(c)) for c in coords))
    for k, sensor_id in enumerate(field.target_ids):
        if field.targets is not None:
            coords = ",".join(repr(float(c)) for c in field.targets[k])
        else:
            coords = "," if field.dimension == 3 else ""
        lines.append(f"{cell(sensor_id)},target,{coords}")
    lines.append(SEPARATOR)
    lines.append(",".join(RECORD_HEADER))
    for rec in records:
        lines.append(
            f"{cell(rec.tx)},{cell(rec.rx)},{float(rec.timestamp_ms)!r},{float(rec.rssi_dbm)!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
