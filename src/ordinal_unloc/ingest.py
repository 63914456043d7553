"""Measurement-log parsing, link filtering and RSSI signal matrices.

File layout: a sensor roster (same CSV as the field format, targets may
omit coordinates), a line ``---``, then measurement rows with header
``tx_id,rx_id,timestamp_ms,rssi_dbm``.

Record lines are parsed in chunks of ``_CHUNK_LINES``.  Each chunk is first
offered to numpy's C reader (``np.loadtxt``) and kept when it is clean:
no quote, no NUL and no blank line in the chunk, and a reader that raises
nothing and returns one row per line, so every line has four cells, two
ids that are exactly roster ids, two numbers and no self link.  Any other
chunk goes through the line-by-line parser, the one place that decides a
``RowError``.  A clean chunk yields what that parser would, and chunks
are taken in file order, so records and errors keep it.  The file text is
dropped once it is split into lines, and each chunk's lines once the
chunk is parsed, so the text, the lines and the columns are never all
held at once.

``write_measurement_file`` is the parser's inverse.  It streams records
from any iterable in chunks of ``_CHUNK_LINES`` lines through a temporary
file that replaces the target only when complete, and it rejects ids the
parser would not read back unchanged.

The line-of-sight selection of the hardware workflow is approximated by a
top-fraction power filter per directed link; the Ricean K-factor route is
out of scope.
"""

from __future__ import annotations

import functools
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .core import (
    InputError,
    SensorField,
    _cells,
    _content_lines,
    _frozen,
    parse_sensor_field,
    read_text,
)
from .ordinal import SignalMatrix

SEPARATOR = "---"
RECORD_HEADER = ("tx_id", "rx_id", "timestamp_ms", "rssi_dbm")
DEFAULT_KEEP_FRACTION = 0.01
_CHUNK_LINES = 4096  # record lines per parsed or written chunk


@dataclass(frozen=True)
class MeasurementRecord:
    tx: str
    rx: str
    timestamp_ms: float
    rssi_dbm: float
    line: int


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


# MeasurementSet columns and their dtypes
_COLUMNS = (
    ("tx", np.intp),
    ("rx", np.intp),
    ("timestamp_ms", float),
    ("rssi_dbm", float),
    ("line", np.intp),
)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Roster plus RSSI records held as columns; malformed rows live in
    ``parse_errors``.

    Entry k of each column belongs to the k-th record in file order:
    ``tx`` and ``rx`` index ``sensor_ids`` (anchors first) and ``line`` is
    the record's line number.  ``records`` shows the same records as
    ``MeasurementRecord`` objects.
    """

    field: SensorField
    tx: np.ndarray
    rx: np.ndarray
    timestamp_ms: np.ndarray
    rssi_dbm: np.ndarray
    line: np.ndarray
    parse_errors: tuple[RowError, ...] = ()

    def __post_init__(self):
        # the caller may still hold the arrays it passed, so keep copies
        self._set_columns([_frozen(getattr(self, name), dtype) for name, dtype in _COLUMNS])

    @classmethod
    def _owning(cls, field, columns, parse_errors=()) -> MeasurementSet:
        """A set that keeps ``columns`` themselves, in ``_COLUMNS`` order,
        instead of copies.  Only for fresh arrays of the column dtypes that
        nothing else holds; they are read-only from here on."""
        ms = object.__new__(cls)
        object.__setattr__(ms, "field", field)
        object.__setattr__(ms, "parse_errors", parse_errors)
        for column in columns:
            column.flags.writeable = False
        ms._set_columns(columns)
        return ms

    def _set_columns(self, columns):
        for (name, _), column in zip(_COLUMNS, columns):
            object.__setattr__(self, name, column)
        if len({c.shape for c in columns}) != 1 or self.line.ndim != 1:
            raise InputError("measurement columns must be 1-D and of equal length")

    @property
    def sensor_ids(self) -> tuple[str, ...]:
        return self.field.anchor_ids + self.field.target_ids

    @property
    def records(self) -> Sequence[MeasurementRecord]:
        return _RecordView(self)

    def _take(self, rows: np.ndarray) -> MeasurementSet:
        columns = [getattr(self, name)[rows] for name, _ in _COLUMNS]
        return MeasurementSet._owning(self.field, columns, self.parse_errors)


class _RecordView(Sequence):
    """Read-only ``MeasurementRecord`` sequence over a set's columns; its
    length costs nothing and records are built only when read."""

    def __init__(self, ms: MeasurementSet):
        self._ms = ms

    def __len__(self) -> int:
        return self._ms.line.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        ms, k = self._ms, operator.index(k)
        ids = ms.sensor_ids
        return MeasurementRecord(
            ids[ms.tx[k]],
            ids[ms.rx[k]],
            float(ms.timestamp_ms[k]),
            float(ms.rssi_dbm[k]),
            int(ms.line[k]),
        )

    def __iter__(self):
        ms = self._ms
        ids = ms.sensor_ids
        columns = (ms.tx, ms.rx, ms.timestamp_ms, ms.rssi_dbm, ms.line)
        for tx, rx, ts, rssi, line in zip(*(c.tolist() for c in columns)):
            yield MeasurementRecord(ids[tx], ids[rx], ts, rssi, line)


def parse_measurements(path) -> MeasurementSet:
    """Parse a measurement file; raises InputError on structural problems
    and on non-finite readings, collects malformed record rows with line
    numbers instead of aborting."""
    # no local holds the text, so the parser frees it once it is split
    return parse_measurement_text(read_text(path))


def _checked_rows(lines, first_line, index, errors):
    """Record columns of ``lines`` parsed one line at a time; each malformed
    record line adds a ``RowError`` to ``errors``."""
    tx, rx, stamps, powers, line_nos = [], [], [], [], []
    for line_no, line in _content_lines(lines, first_line):
        cells = _cells(line)
        if len(cells) != 4:
            errors.append(RowError(line_no, "expected 4 fields"))
            continue
        tx_id, rx_id = cells[0].strip(), cells[1].strip()
        i, j = index.get(tx_id), index.get(rx_id)
        if i is None or j is None:
            bad = tx_id if i is None else rx_id
            errors.append(RowError(line_no, f"unknown sensor id {bad!r}"))
            continue
        if i == j:
            errors.append(RowError(line_no, "self link"))
            continue
        try:
            ts, rssi = float(cells[2].strip()), float(cells[3].strip())
        except ValueError:
            errors.append(RowError(line_no, "non-numeric field"))
            continue
        tx.append(i)
        rx.append(j)
        stamps.append(ts)
        powers.append(rssi)
        line_nos.append(line_no)
    return tx, rx, stamps, powers, line_nos


@dataclass(frozen=True)
class _BulkIds:
    """The roster ids a clean chunk may name, sorted, with their indices,
    and the record dtype ``np.loadtxt`` reads a chunk with."""

    ids: np.ndarray
    codes: np.ndarray
    dtype: np.dtype

    @classmethod
    def of(cls, index) -> _BulkIds:
        # #-led ids (possible when quoted in the roster) stay out, since
        # their unquoted lines are comments; so do ids holding a NUL, which
        # a U field would drop when trailing.  Padded cells miss the ids, as
        # roster ids are stripped.  A cell one character longer than every
        # id still misses them when the U field truncates it.
        eligible = {s: k for s, k in index.items() if not s.startswith("#") and "\0" not in s}
        cell = f"U{1 + max(map(len, eligible), default=0)}"
        ids = np.array(list(eligible), dtype=cell)
        order = np.argsort(ids)
        codes = np.fromiter(eligible.values(), np.intp, len(eligible))[order]
        dtype = np.dtype(
            [("tx", cell), ("rx", cell), ("timestamp_ms", float), ("rssi_dbm", float)]
        )
        return cls(ids[order], codes, dtype)

    def codes_of(self, cells: np.ndarray) -> np.ndarray | None:
        """Index of each cell's id, or None if a cell is not exactly an id."""
        if not self.ids.size:
            return None
        at = np.minimum(np.searchsorted(self.ids, cells), self.ids.size - 1)
        return self.codes[at] if (self.ids[at] == cells).all() else None


def _bulk_rows(lines, first_line, bulk: _BulkIds):
    """Record columns of ``lines`` if every line is a clean record, else
    None.  Clean means no quote, NUL or blank line, and ``np.loadtxt``
    reads one row per line: four cells, ids that are ``bulk`` ids as they
    stand and numbers, with no self link.  Then ``_checked_rows`` would
    accept every line with the same values: the reader's numbers are
    ``float``'s (it rejects the ``_`` and non-ASCII digits ``float`` takes)
    and it ignores the padding ``_checked_rows`` strips."""
    text = "".join(lines)
    # the reader splits no quoted cell, reads a trailing NUL as nothing and
    # skips blank lines, warning when a chunk holds nothing else
    if '"' in text or "\0" in text or not all(lines):
        return None
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=bulk.dtype)
    except ValueError:
        return None
    if rows.size != len(lines):
        return None
    tx, rx = bulk.codes_of(rows["tx"]), bulk.codes_of(rows["rx"])
    if tx is None or rx is None or (tx == rx).any():
        return None
    # copies, so the chunk's id cells are not kept alive by its columns
    stamps, powers = rows["timestamp_ms"].copy(), rows["rssi_dbm"].copy()
    return tx, rx, stamps, powers, np.arange(first_line, first_line + rows.size)


def _parse_records(lines, first_line, index):
    """Record columns and row errors of ``lines``, the lines after the
    record header, in file order, one chunk of ``_CHUNK_LINES`` lines at a
    time.  Empties ``lines`` as it goes, so when the caller hands over its
    only reference each chunk's lines are freed once parsed."""
    bulk = _BulkIds.of(index)
    parts = [[np.empty(0, dtype)] for _, dtype in _COLUMNS]
    errors: list[RowError] = []
    at = first_line
    while lines:
        chunk = lines[:_CHUNK_LINES]
        del lines[:_CHUNK_LINES]
        rows = _bulk_rows(chunk, at, bulk)
        if rows is None:
            rows = _checked_rows(chunk, at, index, errors)
        for part, values, (_, dtype) in zip(parts, rows, _COLUMNS):
            part.append(np.asarray(values, dtype))
        at += len(chunk)
    return [np.concatenate(part) for part in parts], errors


def parse_measurement_text(text: str) -> MeasurementSet:
    lines = text.splitlines()
    del text  # the last reference when parse_measurements passed it
    try:
        sep_at = next(i for i, line in enumerate(lines) if line.strip() == SEPARATOR)
    except StopIteration:
        raise InputError(f"missing {SEPARATOR!r} separator between roster and records") from None
    # anchors-first ordering regardless of file order
    field = parse_sensor_field("\n".join(lines[:sep_at]))
    index = {s: k for k, s in enumerate(field.anchor_ids + field.target_ids)}

    # records start after the header line; line numbers count from 1
    records_at = len(lines)
    header_row = next(_content_lines(islice(lines, sep_at + 1, None), sep_at + 2), None)
    if header_row is not None:
        records_at, line = header_row
        if tuple(c.strip().lower() for c in _cells(line)) != RECORD_HEADER:
            raise InputError(f"line {records_at}: expected header {','.join(RECORD_HEADER)}")
    # hand the record lines over: _parse_records frees them chunk by chunk
    del lines[:records_at]
    columns, errors = _parse_records(lines, records_at + 1, index)
    ms = MeasurementSet._owning(field, columns, tuple(errors))
    # a NaN compares false both ways and would corrupt the selection order
    finite = np.isfinite(ms.timestamp_ms) & np.isfinite(ms.rssi_dbm)
    if not finite.all():
        k = int(np.argmin(finite))
        name = "rssi_dbm" if np.isfinite(ms.timestamp_ms[k]) else "timestamp_ms"
        raise InputError(f"line {ms.line[k]}: {name} {getattr(ms, name)[k]} is not finite")
    return ms


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in a sorted array."""
    change = np.ones(keys.size, dtype=bool)
    change[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(change)
    return starts, np.diff(starts, append=keys.size)


_KEY_MAX = np.iinfo(np.intp).max  # the largest sort key _strongest_first builds


def _strongest_first(link: np.ndarray, n_links: int, rssi: np.ndarray) -> np.ndarray:
    """``np.lexsort((-rssi, link))`` for links in [0, n_links): by link,
    strongest first, equal RSSI (+0.0 and -0.0 too) in record order.  One
    stable integer sort of link and dense RSSI rank does it faster, when
    that key fits."""
    # the dense rank of -rssi, as np.unique's inverse but with fewer
    # temporaries, which raised the op's peak memory: NaNs sort last and
    # share one rank
    by_value = np.argsort(-rssi)
    ordered = rssi[by_value]
    new_value = np.zeros(rssi.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new_value[1:])
    new_value[1:] &= ~np.isnan(ordered[:-1])
    del ordered
    key = np.empty(rssi.size, dtype=np.intp)
    key[by_value] = np.cumsum(new_value)
    del by_value, new_value
    n_values = int(key.max(initial=-1)) + 1
    if n_links * n_values > _KEY_MAX:
        return np.lexsort((-rssi, link))
    key += link * n_values
    return np.argsort(key, kind="stable")


def select_strong_links(ms: MeasurementSet, keep_fraction: float = DEFAULT_KEEP_FRACTION) -> MeasurementSet:
    """Per directed link, keep the top ceil(fraction * count) records by
    RSSI (ties resolved by timestamp order); record order is preserved."""
    if not 0 < keep_fraction <= 1:
        raise InputError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    n = len(ms.sensor_ids)
    link = ms.tx * n + ms.rx
    order = _strongest_first(link, n * n, ms.rssi_dbm)
    starts, counts = _runs(link[order])
    n_keep = np.ceil(keep_fraction * counts)  # the float64 product math.ceil would round
    rank = np.arange(order.size) - np.repeat(starts, counts)
    return ms._take(np.sort(order[rank < np.repeat(n_keep, counts)]))


def _pooled_links(ms: MeasurementSet):
    """Records pooled per unordered pair (i < j), each pool ordered by
    (timestamp, line): the permutation ``order`` of the records and, per
    pool, its start in ``order``, its length and its pair."""
    lo, hi = np.minimum(ms.tx, ms.rx), np.maximum(ms.tx, ms.rx)
    pair = lo * len(ms.sensor_ids) + hi
    order = np.lexsort((ms.line, ms.timestamp_ms, pair))
    starts, counts = _runs(pair[order])
    heads = order[starts]
    return order, starts, counts, lo[heads], hi[heads]


def measurement_signals(ms: MeasurementSet, aggregator: str = "median") -> tuple[np.ndarray, np.ndarray]:
    """Stack of symmetric RSSI proxy matrices (dBm, decreasing with
    distance) and their presence mask, both (S, N, N), from one pooling
    of the records.

    ``aggregator`` is "median" or "mean" (S = 1), or "sample": S is the
    smallest pool's size and matrix k holds each pooled link's (k+1)-th
    record.  Links without records, and the diagonal, are absent.
    """
    if not ms.line.size:
        raise InputError("measurement set has no records")
    if aggregator not in ("median", "mean", "sample"):
        raise InputError(f"unknown aggregator {aggregator!r}")
    n = len(ms.sensor_ids)
    order, starts, counts, i, j = _pooled_links(ms)
    rssi = ms.rssi_dbm[order]
    if aggregator == "sample":
        pooled = rssi[starts + np.arange(counts.min())[:, None]]
    elif aggregator == "median":
        # np.median of each pool: the mean of its one or two middle values,
        # summed as numpy sums them, from 0.0, so a -0.0 sum reads 0.0
        pool = np.repeat(np.arange(starts.size), counts)
        ordered = rssi[np.lexsort((rssi, pool))]
        mid = starts + counts // 2
        pooled = ordered[mid] + 0.0
        even = counts % 2 == 0
        pooled[even] = (ordered[mid[even] - 1] + pooled[even]) / 2
        # np.median gives NaN for a pool holding one; NaN sorts last
        pooled[np.isnan(ordered[starts + counts - 1])] = np.nan
    else:
        # one mean per pool: a segmented sum could round differently
        pooled = [np.mean(rssi[s : s + c]) for s, c in zip(starts.tolist(), counts.tolist())]
    pooled = np.atleast_2d(pooled)
    values = np.zeros((len(pooled), n, n))
    present = np.zeros(values.shape, dtype=bool)
    values[:, i, j] = values[:, j, i] = pooled
    present[:, i, j] = present[:, j, i] = True
    return values, present


def measurement_signal_matrix(
    ms: MeasurementSet,
    aggregator: str = "median",
    sample_index: int | None = None,
) -> SignalMatrix:
    """One matrix of ``measurement_signals`` as a ``SignalMatrix``.

    Sample mode picks each pooled link's ``sample_index``-th record
    (1-based) and errors if any link has fewer.
    """
    values, present = measurement_signals(ms, aggregator)
    k = 0
    if aggregator == "sample":
        if sample_index is None or sample_index < 1:
            raise InputError("sample mode needs a 1-based sample_index")
        if sample_index > len(values):
            # name the short pool whose first record comes first in the file
            order, starts, counts, i, j = _pooled_links(ms)
            short = np.flatnonzero(counts < sample_index)
            p = short[np.argmin(np.minimum.reduceat(order, starts)[short])]
            raise InputError(
                f"link {ms.sensor_ids[i[p]]}-{ms.sensor_ids[j[p]]} has only "
                f"{counts[p]} retained records, needed {sample_index}"
            )
        k = sample_index - 1
    return SignalMatrix(
        values[k], increasing_with_distance=False, n_anchors=ms.field.m, missing=~present[k]
    )


def _id_cell(sensor_id: str) -> str:
    """``sensor_id`` as a CSV cell the parser reads back: quoted, inner
    quotes doubled, if it holds a comma or a quote or starts with ``#``.
    Raises InputError for an id that no cell reads back: one holding a
    character ``str.splitlines`` breaks on, or padded with whitespace,
    which the parser strips."""
    if len(sensor_id.splitlines()) > 1:
        raise InputError(f"sensor id {sensor_id!r} holds a line break")
    if sensor_id != sensor_id.strip():
        raise InputError(f"sensor id {sensor_id!r} has leading or trailing whitespace")
    if "," in sensor_id or '"' in sensor_id or sensor_id.startswith("#"):
        return '"' + sensor_id.replace('"', '""') + '"'
    return sensor_id


def write_measurement_file(path, field: SensorField, records) -> None:
    """Inverse of the parser, for synthetic datasets and round trips.

    ``records`` may be any iterable; it is consumed once and written
    ``_CHUNK_LINES`` lines at a time, so only one chunk of text is held.
    The file is written under a temporary name beside ``path`` and moved
    onto it when complete, so a record that fails to format leaves
    ``path`` as it was and no temporary file.  A roster id that would not
    read back raises InputError before anything is written; such an id in
    a record raises when the record is reached.
    """
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
    record_lines = (
        f"{cell(rec.tx)},{cell(rec.rx)},{float(rec.timestamp_ms)!r},{float(rec.rssi_dbm)!r}\n"
        for rec in records
    )
    path = Path(path)
    # open(..., "x") creates the file as Path.write_text would, its mode
    # set by the umask (tempfile.mkstemp would make it 0600)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    file = open(tmp, "x", encoding="utf-8")
    try:
        with file:
            file.write("\n".join(lines) + "\n")
            while chunk := list(islice(record_lines, _CHUNK_LINES)):
                file.write("".join(chunk))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
