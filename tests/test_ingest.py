import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import reference_ingest as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinal_unloc import ingest
from ordinal_unloc.core import InputError, SensorField
from ordinal_unloc.ingest import (
    MeasurementRecord,
    MeasurementSet,
    measurement_signal_matrix,
    measurement_signals,
    parse_measurement_text,
    parse_measurements,
    select_strong_links,
    write_measurement_file,
)

ROSTER = "\n".join(
    [
        "id,role,x,y",
        "a1,anchor,0.0,0.0",
        "a2,anchor,4.0,0.0",
        "a3,anchor,4.0,5.0",
        "t1,target,,",
    ]
)

RECORDS = "\n".join(
    [
        "tx_id,rx_id,timestamp_ms,rssi_dbm",
        "a1,a2,0,-40.0",
        "a2,a1,5,-42.0",
        "a1,a3,10,-55.0",
        "a1,t1,15,-50.0",
        "t1,a2,20,-61.0",
        "t1,a3,25,-47.0",
    ]
)


def _text(roster=ROSTER, records=RECORDS):
    return roster + "\n---\n" + records + "\n"


def test_parse_basic():
    ms = parse_measurement_text(_text())
    assert ms.field.m == 3 and ms.field.n == 1
    assert ms.sensor_ids == ("a1", "a2", "a3", "t1")
    assert len(ms.records) == 6
    assert ms.parse_errors == ()
    assert ms.records[0] == MeasurementRecord("a1", "a2", 0.0, -40.0, 8)


def test_anchors_reordered_first():
    roster = "\n".join(
        [
            "id,role,x,y",
            "t1,target,,",
            "a1,anchor,0.0,0.0",
            "a2,anchor,1.0,0.0",
            "a3,anchor,0.0,1.0",
        ]
    )
    ms = parse_measurement_text(roster + "\n---\ntx_id,rx_id,timestamp_ms,rssi_dbm\n")
    assert ms.sensor_ids == ("a1", "a2", "a3", "t1")


def test_missing_separator():
    with pytest.raises(InputError, match="---"):
        parse_measurement_text(ROSTER + "\n" + RECORDS)


def test_bad_record_header():
    with pytest.raises(InputError, match="header"):
        parse_measurement_text(ROSTER + "\n---\nfrom,to,t,p\na1,a2,0,-40\n")


def test_malformed_rows_collected_not_fatal():
    bad = RECORDS + "\n" + "\n".join(
        [
            "a1,zz,30,-40.0",  # unknown id
            "a1,a1,31,-40.0",  # self link
            "a1,a2,banana,-40.0",  # non-numeric
            "a1,a2,32",  # wrong field count
        ]
    )
    ms = parse_measurement_text(_text(records=bad))
    assert len(ms.records) == 6
    assert [e.line for e in ms.parse_errors] == [14, 15, 16, 17]
    messages = " ".join(e.message for e in ms.parse_errors)
    assert "unknown sensor id" in messages and "self link" in messages


def test_select_strong_links():
    # 5 records on the a1->a2 link; keep_fraction 0.4 keeps ceil(2) strongest
    records = "\n".join(
        [
            "tx_id,rx_id,timestamp_ms,rssi_dbm",
            "a1,a2,0,-60.0",
            "a1,a2,1,-40.0",
            "a1,a2,2,-50.0",
            "a1,a2,3,-45.0",
            "a1,a2,4,-70.0",
            "a2,a3,5,-80.0",
        ]
    )
    ms = parse_measurement_text(_text(records=records))
    kept = select_strong_links(ms, keep_fraction=0.4)
    a12 = [r for r in kept.records if (r.tx, r.rx) == ("a1", "a2")]
    assert sorted(r.rssi_dbm for r in a12) == [-45.0, -40.0]
    # a single record per link always survives
    assert any((r.tx, r.rx) == ("a2", "a3") for r in kept.records)
    # original record order is preserved
    assert [r.line for r in kept.records] == sorted(r.line for r in kept.records)


def test_select_strong_links_tie_prefers_earlier_timestamp():
    records = "\n".join(
        [
            "tx_id,rx_id,timestamp_ms,rssi_dbm",
            "a1,a2,0,-40.0",
            "a1,a2,1,-40.0",
        ]
    )
    ms = parse_measurement_text(_text(records=records))
    kept = select_strong_links(ms, keep_fraction=0.5)
    assert len(kept.records) == 1
    assert kept.records[0].timestamp_ms == 0.0


def test_select_strong_links_fraction_validation():
    ms = parse_measurement_text(_text())
    with pytest.raises(InputError):
        select_strong_links(ms, keep_fraction=0.0)
    with pytest.raises(InputError):
        select_strong_links(ms, keep_fraction=1.5)


def test_signal_matrix_median_pools_directions():
    # a1<->a2 has two directed records (-40, -42); median of the pool
    ms = parse_measurement_text(_text())
    sig = measurement_signal_matrix(ms, "median")
    assert sig.values[0, 1] == pytest.approx(-41.0)
    assert sig.values[1, 0] == pytest.approx(-41.0)
    assert not sig.increasing_with_distance
    assert sig.n_anchors == 3
    # a2<->a3 never measured
    assert sig.missing[1, 2] and sig.missing[2, 1]
    assert not sig.missing[0, 3]


def test_signal_matrix_mean():
    ms = parse_measurement_text(_text())
    sig = measurement_signal_matrix(ms, "mean")
    assert sig.values[0, 1] == pytest.approx(-41.0)
    assert sig.values[0, 2] == pytest.approx(-55.0)


def test_signal_matrix_sample_mode():
    ms = parse_measurement_text(_text())
    values, present = measurement_signals(ms, "sample")
    assert values.shape == present.shape == (1, 4, 4)
    first = measurement_signal_matrix(ms, "sample", sample_index=1)
    # first record of the pooled a1<->a2 link by timestamp
    assert first.values[0, 1] == pytest.approx(-40.0)
    with pytest.raises(InputError, match="retained records"):
        measurement_signal_matrix(ms, "sample", sample_index=2)
    with pytest.raises(InputError):
        measurement_signal_matrix(ms, "sample")


def test_signal_matrix_validation():
    ms = parse_measurement_text(_text())
    with pytest.raises(InputError):
        measurement_signal_matrix(ms, "mode")
    empty = parse_measurement_text(_text(records="tx_id,rx_id,timestamp_ms,rssi_dbm"))
    with pytest.raises(InputError, match="no records"):
        measurement_signal_matrix(empty)


def test_write_read_round_trip(tmp_path):
    ms = parse_measurement_text(_text())
    path = tmp_path / "run.csv"
    write_measurement_file(path, ms.field, ms.records)
    again = parse_measurements(path)
    assert again.sensor_ids == ms.sensor_ids
    assert [
        (r.tx, r.rx, r.timestamp_ms, r.rssi_dbm) for r in again.records
    ] == [(r.tx, r.rx, r.timestamp_ms, r.rssi_dbm) for r in ms.records]
    np.testing.assert_array_equal(again.field.anchors, ms.field.anchors)


def test_write_round_trip_with_target_coords(tmp_path):
    field = SensorField(2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], targets=[(0.25, 0.5)])
    path = tmp_path / "run.csv"
    write_measurement_file(path, field, [])
    again = parse_measurements(path)
    np.testing.assert_allclose(again.field.targets, [[0.25, 0.5]])
    assert len(again.records) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["timestamp_ms", "rssi_dbm"])
def test_non_finite_reading_rejected_naming_its_line(column, value):
    # a NaN among a link's reads used to reorder the strong-link selection
    rows = ["a1,a2,0,-60", "a1,a2,1,-40", "a1,zz,2,-50", "a1,a2,3,-50"]
    cells = rows[1].split(",")
    cells[2 if column == "timestamp_ms" else 3] = value
    rows[1] = ",".join(cells)
    text = _text(records="\n".join(["tx_id,rx_id,timestamp_ms,rssi_dbm", *rows]))
    with pytest.raises(InputError, match=f"^line 9: {column} {value} is not finite$"):
        parse_measurement_text(text)


def test_first_non_finite_record_in_file_order_is_named():
    rows = ["a1,a2,0,-60", "a1,a2,inf,-40", "a1,a2,2,nan"]
    text = _text(records="\n".join(["tx_id,rx_id,timestamp_ms,rssi_dbm", *rows]))
    with pytest.raises(InputError, match="^line 9: timestamp_ms inf is not finite$"):
        parse_measurement_text(text)


def test_records_view_matches_columns():
    ms = parse_measurement_text(_text())
    records = ms.records
    assert len(records) == ms.line.size == 6
    assert records[-1] == MeasurementRecord("t1", "a3", 25.0, -47.0, 13)
    assert records[1:3] == (records[1], records[2])
    assert list(records) == [records[k] for k in range(6)]
    assert [r.line for r in records] == ms.line.tolist()
    with pytest.raises(IndexError):
        records[6]
    with pytest.raises(ValueError):
        ms.rssi_dbm[0] = 0.0


_IDS = ["a1", "a2", "a3", "t1", "t2"]
_ROSTER = "id,role,x,y\nt1,target,,\na1,anchor,0,0\na2,anchor,4,0\nt2,target,,\na3,anchor,4,5"
# quoted ids that hold a comma or a doubled quote, or start with '#'
_QUOTED_IDS = ["a,4", 't"3', "#a5"]
_QUOTED_ROSTER = _ROSTER + '\n"a,4",anchor,1,2\n"t""3",target,,\n"#a5",anchor,3,3'
# a NUL id ahead of a1, which a U field would read as a1
_ROSTERS = [_ROSTER] * 3 + [
    _ROSTER.replace("\na1,", "\na1\x00,anchor,1,1\na1,"),
    _QUOTED_ROSTER,
]
_NUMBERS = ["0", "1", "2.5", "1e-3", "1_0", "-0.0", "-40", "-40.0", "-4e1", "-4_0", "-41.5"]
_BAD_NUMBERS = ["", "x", "1__0", "1,5", "-"]


def _cell(text):
    pad = st.sampled_from([""] * 6 + [" ", "\t", "\u00a0"])
    quoted = st.sampled_from([False] * 5 + [True])
    return st.tuples(pad, text, pad, quoted).map(
        lambda t: t[0] + ('"' + t[1].replace('"', '""') + '"' if t[3] else t[1]) + t[2]
    )


def _row(*cells):
    return st.tuples(*cells).map(",".join)


_SENSOR = _cell(st.sampled_from(_IDS))
_NUMBER = _cell(st.sampled_from(_NUMBERS))
_GOOD = _row(_SENSOR, _SENSOR, _NUMBER, _NUMBER)
# NULs, and cells that extend an id past the reader's field width
_ODD_SENSORS = ["zz", "a1,a2", "A1", "", "a1\x00", "\x00a1", "\x00", "a1x", "a1a1a1a1"]
_ANY_SENSOR = _cell(st.sampled_from(_IDS + _ODD_SENSORS + _QUOTED_IDS))
_ANY_NUMBER = _cell(st.sampled_from(_NUMBERS + _BAD_NUMBERS + ["1\x00", "\x00"]))
_BAD = st.one_of(
    _row(_ANY_SENSOR, _ANY_SENSOR, _ANY_NUMBER, _ANY_NUMBER),
    st.lists(_ANY_NUMBER, min_size=1, max_size=6).map(",".join),
)
# "\n" * 8 joins into a run of blank lines longer than a chunk
_OTHER = st.sampled_from(["", "   ", "\t", "# note", "  # a1,a2,0,-40", "#,,,", "\n" * 8])
_LINE = st.one_of(*[_GOOD] * 6, _BAD, _OTHER)
_HEADER = st.sampled_from(
    ["tx_id,rx_id,timestamp_ms,rssi_dbm"] * 5
    + [
        " TX_ID , rx_id,timestamp_ms,RSSI_dbm ",
        '"tx_id",rx_id,timestamp_ms,rssi_dbm',
        "tx_id,rx_id,timestamp_ms",
    ]
)


def _outcome(fn, *args, **kwargs):
    try:
        sig = fn(*args, **kwargs)
    except InputError as exc:
        return str(exc)
    return sig.values.tobytes(), sig.missing.tobytes()


def _parsed(text):
    """Columns and row errors of ``parse_measurement_text``, or its
    InputError message.  Fails on any warning, such as the one
    ``np.loadtxt`` gives for a chunk of blank lines."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = parse_measurement_text(text)
    except InputError as exc:
        return str(exc)
    return ms.sensor_ids, list(ms.records), ms.parse_errors


@settings(max_examples=300, deadline=None)
@given(
    roster=st.sampled_from(_ROSTERS),
    lead=st.lists(st.sampled_from(["", "# comment", "  "]), max_size=2),
    header=_HEADER,
    body=st.integers(0, 60).flatmap(lambda n: st.lists(_LINE, min_size=n, max_size=n)),
    tail=st.sampled_from(["", "\n", "\n\n  \n"]),
)
def test_columnar_ingest_matches_record_oracle(roster, lead, header, body, tail):
    text = roster + "\n---\n" + "\n".join([*lead, header, *body]) + tail
    try:
        expected = ref.parse_measurement_text(text)
    except InputError as exc:
        expected_parse = str(exc)
    else:
        expected_parse = expected.sensor_ids, list(expected.records), expected.parse_errors
    # chunks of 1, 2 and 7 lines mix bulk and line-by-line chunks in one body
    for chunk in (1, 2, 7):
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
            assert _parsed(text) == expected_parse
    assert _parsed(text) == expected_parse
    if isinstance(expected_parse, str):
        return
    ms = parse_measurement_text(text)
    for keep in (0.2, 0.5, 1.0):
        kept, kept_ref = select_strong_links(ms, keep), ref.select_strong_links(expected, keep)
        assert list(kept.records) == list(kept_ref.records)
        assert kept.parse_errors == kept_ref.parse_errors
        samples = ref.min_link_sample_count(kept_ref)
        if samples:
            values, present = measurement_signals(kept, "sample")
            assert len(values) == len(present) == samples
            for k in range(samples):
                sig = ref.measurement_signal_matrix(kept_ref, "sample", sample_index=k + 1)
                assert values[k].tobytes() == sig.values.tobytes()
                assert (~present[k]).tobytes() == sig.missing.tobytes()
        for aggregator in ("median", "mean"):
            assert _outcome(measurement_signal_matrix, kept, aggregator) == _outcome(
                ref.measurement_signal_matrix, kept_ref, aggregator
            )
        longest = max((len(p) for p in ref._pooled_links(kept_ref).values()), default=0)
        for k in [None, *range(longest + 2)]:
            assert _outcome(measurement_signal_matrix, kept, "sample", sample_index=k) == _outcome(
                ref.measurement_signal_matrix, kept_ref, "sample", sample_index=k
            )


def _long_log(tmp_path, n_records):
    """A ``write_measurement_file`` log of ``n_records`` clean records and
    its text."""
    rng = np.random.default_rng(8)
    field = SensorField(2, rng.uniform(0, 10, (4, 2)), declared_targets=2)
    ids = field.anchor_ids + field.target_ids
    pairs = [(i, j) for i in ids for j in ids if i != j]
    records = [
        MeasurementRecord(*pairs[k % len(pairs)], float(k), float(rng.normal(-60, 5)), k)
        for k in range(n_records)
    ]
    path = tmp_path / "log.csv"
    write_measurement_file(path, field, records)
    return path, path.read_text(encoding="utf-8")


def _same_as_oracle(ms, text):
    expected = ref.parse_measurement_text(text)
    assert list(ms.records) == list(expected.records)
    assert ms.parse_errors == expected.parse_errors


def test_log_longer_than_a_chunk_with_irregular_lines(tmp_path):
    # a comment and a malformed line in the second chunk send it line by
    # line; the chunks either side of it are parsed in bulk
    _, text = _long_log(tmp_path, 2 * ingest._CHUNK_LINES + 500)
    lines = text.splitlines()
    at = len(lines) // 2
    lines[at:at] = ["# operator note", "a1,a2,not-a-time,-50.0"]
    text = "\n".join(lines) + "\n"
    ms = parse_measurement_text(text)
    assert len(ms.records) == 2 * ingest._CHUNK_LINES + 500
    assert [e.line for e in ms.parse_errors] == [at + 2]
    _same_as_oracle(ms, text)


def test_written_logs_take_the_bulk_route(tmp_path, monkeypatch):
    """The line-by-line parser never sees a log ``write_measurement_file``
    wrote, so the benchmark's logs cannot slip onto the slow route."""
    path, text = _long_log(tmp_path, ingest._CHUNK_LINES + 123)

    def refuse(*args):
        raise AssertionError("a clean chunk was parsed line by line")

    monkeypatch.setattr(ingest, "_checked_rows", refuse)
    ms = parse_measurements(path)
    assert len(ms.records) == ingest._CHUNK_LINES + 123
    _same_as_oracle(ms, text)


def test_bulk_chunks_keep_comment_and_quote_rules():
    # quoted roster ids may start with '#' or hold quotes: an unquoted
    # record line naming '#b' is still a comment, and the quoted cell "a1"
    # names a1, not the id '"a1"'
    roster = ROSTER + '\n"#b",anchor,1.0,1.0\n"""a1""",anchor,2.0,1.0'
    records = "\n".join(
        [
            "tx_id,rx_id,timestamp_ms,rssi_dbm",
            "a1,a2,0,-40.0",
            "#b,a1,1,-41.0",
            '"#b",a1,2,-42.0',
            '"a1",a2,3,-43.0',
            '"""a1""",a2,4,-44.0',
        ]
    )
    text = _text(roster, records)
    for chunk in (1, ingest._CHUNK_LINES):
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
            ms = parse_measurement_text(text)
        assert [(r.tx, r.line) for r in ms.records] == [
            ("a1", 10), ("#b", 12), ("a1", 13), ('"a1"', 14)
        ]  # fmt: skip
        _same_as_oracle(ms, text)


def test_write_read_round_trip_of_ids_that_need_quoting(tmp_path):
    ids = ("a,1", "a 2", 'a"3', "#a4")
    anchors = [(0.0, 0.0), (4.0, 0.0), (4.0, 5.0)]
    field = SensorField(2, anchors, declared_targets=1, anchor_ids=ids[:3], target_ids=ids[3:])
    records = [
        MeasurementRecord(tx, rx, float(k), -40.0 - k, k)
        for k, (tx, rx) in enumerate((a, b) for a in ids for b in ids if a != b)
    ]
    path = tmp_path / "run.csv"
    write_measurement_file(path, field, records)
    again = parse_measurements(path)
    assert again.sensor_ids == ids
    assert again.parse_errors == ()
    assert [(r.tx, r.rx, r.timestamp_ms, r.rssi_dbm) for r in again.records] == [
        (r.tx, r.rx, r.timestamp_ms, r.rssi_dbm) for r in records
    ]


def test_plain_ids_are_written_unquoted(tmp_path):
    path, text = _long_log(tmp_path, 3)
    assert '"' not in text
    assert text.splitlines()[1] == "a1,anchor," + ",".join(
        repr(float(c)) for c in parse_measurements(path).field.anchors[0]
    )


def test_numpy_reader_behaves_as_the_bulk_route_assumes():
    """The checks of ``_bulk_rows`` rest on four behaviours of
    ``np.loadtxt``; a numpy that changes one fails here rather than
    changing parsed records."""
    dtype = ingest._BulkIds.of({"a1": 0, "a2": 1}).dtype  # ids as U3

    def read(lines):  # the call _bulk_rows makes
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=dtype).tolist()

    # blank lines are skipped, so they leave a read short of its lines
    assert read(["a1,a2,0,-1", "", "a2,a1,1,-2"]) == [("a1", "a2", 0, -1), ("a2", "a1", 1, -2)]
    # a wrong column count raises
    for line in ["a1,a2,0", "a1,a2,0,-1,2"]:
        with pytest.raises(ValueError):
            read(["a1,a2,0,-1", line])
    # U fields keep whitespace (a padded id is no id) and drop trailing NULs
    padded = read([" a1,a2\t,0,-1", "a1\x00,a2,0,-1"])
    assert padded == [(" a1", "a2\t", 0, -1), ("a1", "a2", 0, -1)]
    # over-long fields truncate to the width, one more than the longest id
    assert read(["a1a1a1a1,a2x,0,-1"]) == [("a1a", "a2x", 0, -1)]


def test_parsed_and_selected_sets_own_their_columns(monkeypatch):
    ms = parse_measurement_text(_text())
    columns = [np.array(getattr(ms, name)) for name, _ in ingest._COLUMNS]
    public = MeasurementSet(ms.field, *columns)
    owning = MeasurementSet._owning(ms.field, columns)
    for (name, _), column in zip(ingest._COLUMNS, columns):
        assert not np.shares_memory(getattr(public, name), column)
        assert np.shares_memory(getattr(owning, name), column)
        assert not column.flags.writeable
    # the parser and the selection build their columns and copy none
    monkeypatch.setattr(ingest, "_frozen", None)
    parsed = parse_measurement_text(_text())
    kept = select_strong_links(parsed, 0.5)
    for name, _ in ingest._COLUMNS:
        assert not getattr(parsed, name).flags.writeable
        assert not getattr(kept, name).flags.writeable
        assert not np.shares_memory(getattr(kept, name), getattr(parsed, name))


def _log_text(n_anchors, n_targets, rows):
    """A log of ``n_anchors`` anchors ``a<k>``, ``n_targets`` targets
    ``t<k>`` and ``rows`` (tx, rx, rssi cell) in that order."""
    roster = [f"a{k},anchor,{k},{k % 7}" for k in range(1, n_anchors + 1)]
    roster += [f"t{k},target,," for k in range(1, n_targets + 1)]
    records = [f"{tx},{rx},{k},{rssi}" for k, (tx, rx, rssi) in enumerate(rows)]
    header = "tx_id,rx_id,timestamp_ms,rssi_dbm"
    return _text("\n".join(["id,role,x,y", *roster]), "\n".join([header, *records]))


def _random_rows(rng, ids, n, rssi):
    pairs = rng.choice(len(ids), (n, 2))
    return [(ids[i], ids[j], r) for (i, j), r in zip(pairs, rssi) if i != j]


def _whole_dbm_log(rng):
    ids = [f"a{k}" for k in range(1, 6)] + ["t1", "t2", "t3"]
    return _log_text(5, 3, _random_rows(rng, ids, 600, rng.integers(-70, -60, 600)))


def _signed_zeros_log(rng):
    cells = rng.choice(["0.0", "-0.0", "0", "-0", "-1.0"], 200)
    return _log_text(3, 1, _random_rows(rng, ["a1", "a2", "a3", "t1"], 200, cells))


def _single_records_log(rng):
    ids = ["a1", "a2", "a3", "t1", "t2"]
    pairs = [(a, b) for a in ids for b in ids if a != b]
    rows = [(tx, rx, f"{-50 - k}") for k, (tx, rx) in enumerate(pairs)]
    return _log_text(3, 2, rows + [("a1", "a2", "-50"), ("a1", "a2", "-40.5")])


def _wide_roster_log(rng):
    # link ids pass 16 bits: 300 sensors give 90,000 directed links
    ids = [f"a{k}" for k in range(1, 201)] + [f"t{k}" for k in range(1, 101)]
    return _log_text(200, 100, _random_rows(rng, ids, 3000, rng.integers(-90, -40, 3000)))


_SELECTION_LOGS = {
    "whole dBm": _whole_dbm_log,
    "signed zeros": _signed_zeros_log,
    "single records": _single_records_log,
    "300 sensors": _wide_roster_log,
}


@pytest.mark.parametrize("key_max", [None, 0], ids=["integer sort", "lexsort fallback"])
@pytest.mark.parametrize("log", _SELECTION_LOGS)
def test_strong_links_match_the_oracle(log, key_max, monkeypatch):
    if key_max is not None:  # a bound every key exceeds
        monkeypatch.setattr(ingest, "_KEY_MAX", key_max)
    text = _SELECTION_LOGS[log](np.random.default_rng(3))
    ms, expected = parse_measurement_text(text), ref.parse_measurement_text(text)
    assert ms.parse_errors == expected.parse_errors == ()
    for keep in (0.15, 0.2, 0.5, 1.0):
        kept, kept_ref = select_strong_links(ms, keep), ref.select_strong_links(expected, keep)
        assert list(kept.records) == list(kept_ref.records)


_READINGS = [-40.0, -41.5, -90.0, 0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, -np.nan]


@settings(max_examples=200, deadline=None)
@given(
    # past 16 readings numpy's argsort no longer keeps equal values in order
    rows=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(_READINGS)), max_size=120),
    key_max=st.sampled_from([None, 0]),
)
def test_strongest_first_is_the_lexsort(rows, key_max):
    # readings a caller may hand the public constructor, NaN included
    link = np.array([k for k, _ in rows], dtype=np.intp)
    rssi = np.array([r for _, r in rows], dtype=float)
    bound = ingest._KEY_MAX if key_max is None else key_max
    with (
        mock.patch.object(ingest, "_KEY_MAX", bound),
        mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort,
    ):
        order = ingest._strongest_first(link, 3, rssi)
    assert lexsort.called == (key_max == 0 and rssi.size > 0)
    np.testing.assert_array_equal(order, np.lexsort((-rssi, link)))


def test_median_matches_the_oracle_on_signed_zeros_and_large_values():
    pools = {
        ("a1", "a2"): ["-0.0"],  # np.median reads 0.0
        ("a2", "t1"): ["-0.0"],
        ("t1", "a2"): ["-0.0"],  # pooled with a2-t1: an even pool of -0.0
        ("a1", "a3"): ["1.7e308"] * 3,  # odd: no sum of the middle value with itself
        ("a2", "a3"): ["-1.7e308", "1e308", "-1e308"],
        ("a1", "t1"): ["-40", "-41.5", "-39", "-45", "-38"],
        ("a3", "t1"): ["5e-324", "-5e-324", "0.0", "-0.0"],
    }
    rows = [(tx, rx, cell) for (tx, rx), cells in pools.items() for cell in cells]
    text = _log_text(3, 1, rows)
    ms, expected = parse_measurement_text(text), ref.parse_measurement_text(text)
    got = _outcome(measurement_signal_matrix, ms, "median")
    assert got == _outcome(ref.measurement_signal_matrix, expected, "median")
    assert not isinstance(got, str)
    # a NaN the parser would reject, off the middle of its pool, still
    # makes the median NaN, as np.median does
    odd = MeasurementSet(ms.field, [0, 0, 0], [1, 1, 1], [0, 1, 2], [-40, -41, np.nan], [0, 1, 2])
    with pytest.raises(InputError, match="not finite"):
        measurement_signal_matrix(odd, "median")


# -- the streaming writer --------------------------------------------------


def _quoted_ids_log():
    ids = ("a,1", "a 2", 'a"3', "#a4")
    anchors = [(0.0, 0.0), (4.0, 0.0), (4.0, 5.0)]
    field = SensorField(2, anchors, declared_targets=1, anchor_ids=ids[:3], target_ids=ids[3:])
    pairs = [(a, b) for a in ids for b in ids if a != b]
    return field, [MeasurementRecord(*p, float(k), -40.0 - k, k) for k, p in enumerate(pairs)]


def _field_log(field, n_records):
    ids = field.anchor_ids + field.target_ids
    pairs = [(a, b) for a in ids for b in ids if a != b]
    rng = np.random.default_rng(11)
    records = [
        MeasurementRecord(*pairs[k % len(pairs)], float(k), float(rng.normal(-60, 5)), k)
        for k in range(n_records)
    ]
    return field, records


_ANCHORS_3D = [(0.0, 0.0, 0.0), (4.0, 0.0, 0.5), (0.0, 5.0, 1.0), (4.0, 5.0, 2.5)]
_WRITER_LOGS = {
    "quoted ids": _quoted_ids_log,
    "3-D field": lambda: _field_log(SensorField(3, _ANCHORS_3D, [(1.0, 2.0, 0.5)]), 40),
    "3-D targets without coordinates": lambda: _field_log(
        SensorField(3, _ANCHORS_3D, declared_targets=2), 40
    ),
    "targets without coordinates": lambda: _field_log(
        SensorField(2, [(0.0, 0.0), (4.0, 0.0), (4.0, 5.0)], declared_targets=2), 40
    ),
    "zero records": lambda: _field_log(SensorField(2, [(0, 0), (1, 0), (0, 1)], [(0.2, 0.3)]), 0),
    "more than one chunk": lambda: _field_log(
        SensorField(2, [(0, 0), (1, 0), (0, 1)], declared_targets=2),
        2 * ingest._CHUNK_LINES + 17,
    ),
}


@pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
@pytest.mark.parametrize("log", _WRITER_LOGS)
def test_writer_bytes_match_the_join_based_oracle(tmp_path, log, as_generator):
    field, records = _WRITER_LOGS[log]()
    ref.write_measurement_file(tmp_path / "oracle.csv", field, records)
    given = (r for r in records) if as_generator else records
    write_measurement_file(tmp_path / "log.csv", field, given)
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_writer_failure_leaves_no_partial_or_temporary_file(tmp_path):
    # the bad record sits in the second chunk, after the first was written
    field, records = _WRITER_LOGS["more than one chunk"]()
    records[ingest._CHUNK_LINES + 5] = MeasurementRecord("a1", "a2", 1.0, "loud", 0)
    path = tmp_path / "log.csv"
    with pytest.raises(ValueError):
        write_measurement_file(path, field, iter(records))
    assert list(tmp_path.iterdir()) == []
    # a file already at the path is left as it was
    path.write_text("earlier log\n")
    with pytest.raises(ValueError):
        write_measurement_file(path, field, iter(records))
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "earlier log\n"


def test_writer_creates_the_file_as_write_text_would(tmp_path):
    field, records = _quoted_ids_log()
    write_measurement_file(tmp_path / "log.csv", field, records)
    (tmp_path / "plain.txt").write_text("")
    assert (tmp_path / "log.csv").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


_UNREADABLE_IDS = ["a\nb", "a\x0bb", "a\u2028b", "a\r", " a", "a ", "\ta"]


@pytest.mark.parametrize("role", ["anchor", "target"])
@pytest.mark.parametrize("bad", _UNREADABLE_IDS)
def test_writer_rejects_ids_that_do_not_read_back(tmp_path, bad, role):
    ids = ["a1", "a2", "a3", "t1"]
    ids[0 if role == "anchor" else 3] = bad
    anchors = [(0.0, 0.0), (4.0, 0.0), (4.0, 5.0)]
    field = SensorField(2, anchors, declared_targets=1, anchor_ids=tuple(ids[:3]), target_ids=(ids[3],))

    def untouched():
        raise AssertionError("records were read before the roster was checked")
        yield

    with pytest.raises(InputError, match=re.escape(repr(bad))):
        write_measurement_file(tmp_path / "log.csv", field, untouched())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", _UNREADABLE_IDS)
def test_writer_rejects_record_ids_that_do_not_read_back(tmp_path, bad):
    field, records = _WRITER_LOGS["more than one chunk"]()
    records[ingest._CHUNK_LINES + 5] = MeasurementRecord("a1", bad, 1.0, -50.0, 0)
    with pytest.raises(InputError, match=re.escape(repr(bad))):
        write_measurement_file(tmp_path / "log.csv", field, records)
    assert list(tmp_path.iterdir()) == []


_ID = st.text(st.characters(codec="utf-8"), max_size=4)


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(_ID, min_size=4, max_size=4, unique=True))
def test_ids_the_writer_accepts_read_back_unchanged(tmp_path_factory, ids):
    anchors = [(0.0, 0.0), (4.0, 0.0), (4.0, 5.0)]
    field = SensorField(2, anchors, declared_targets=1, anchor_ids=tuple(ids[:3]), target_ids=(ids[3],))
    pairs = [(a, b) for a in ids for b in ids if a != b]
    records = [MeasurementRecord(*p, float(k), -40.0 - k, k) for k, p in enumerate(pairs)]
    path = tmp_path_factory.mktemp("ids") / "log.csv"
    try:
        write_measurement_file(path, field, records)
    except InputError:
        assert any(len(s.splitlines()) > 1 or s != s.strip() for s in ids)
        return
    ms = parse_measurements(path)
    assert ms.sensor_ids == tuple(ids)
    assert ms.parse_errors == ()
    assert [(r.tx, r.rx) for r in ms.records] == pairs


# -- memory: tracemalloc peaks ---------------------------------------------


def _traced_peak(call):
    """``call()``'s result and the peak of the memory it allocated, as
    tracemalloc traces it."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _held(lines):
    """Bytes that holding ``lines`` as a list of strings takes."""
    return sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))


def test_writer_holds_about_one_chunk_of_text(tmp_path):
    field, records = _WRITER_LOGS["more than one chunk"]()
    n = 3 * ingest._CHUNK_LINES
    ids = field.anchor_ids + field.target_ids
    pairs = [(a, b) for a in ids for b in ids if a != b]

    def generated():
        for k in range(n):
            yield MeasurementRecord(*pairs[k % len(pairs)], float(k), -60.0 - k / 7, k)

    path = tmp_path / "log.csv"
    _, peak = _traced_peak(lambda: write_measurement_file(path, field, generated()))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 1 + field.m + field.n + 2 + n
    chunk = lines[-ingest._CHUNK_LINES :]
    one_chunk = _held(chunk) + sys.getsizeof("".join(chunk))
    # measured at 1.5 chunks; the join-based writer, which holds all three
    # chunks' lines and then their joined text, measured 3.7
    assert peak < 2.5 * one_chunk


def test_parser_never_holds_text_lines_and_columns_together(tmp_path):
    n = 50_000
    path, text = _long_log(tmp_path, n)
    lines = text.splitlines()
    columns = n * sum(np.dtype(dtype).itemsize for _, dtype in ingest._COLUMNS)
    bound = sys.getsizeof(text) + _held(lines) + columns
    del text, lines
    ms, peak = _traced_peak(lambda: parse_measurements(path))
    assert len(ms.records) == n
    # measured at 0.75 of the bound.  With the text, the lines and both
    # column copies alive at once it measured 1.27; with only the text freed
    # early, 1.04, as a chunk's split cells outweigh the text at this size
    assert peak < bound
