import csv
import io
import json
import math
import random
import re
import tempfile
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hazmob import ingest, synth
from hazmob.exposure import CurveTable, PopulationCurve
from hazmob.ingest import IngestError, parse_hazard, parse_stops, parse_tracts
from hazmob.hazardclass import classify_percentile
from hazmob.model import HAZARD_TYPES, MAX_DWELL_S, REGIONS, HazardLayer, MeiTable, TractTable, format6

from conftest import (MEI_INDEXES, Stop, assert_same_stops, assert_same_tracts, check, layer_of, masked_set, mei_rows,
                      mei_table, reference_parse_tracts, stop_records, tract_worlds, values_of)

STOPS_HEADER = "user_id,lon,lat,start_ts,dwell_s\n"


def stops_stream(*rows: str) -> io.StringIO:
    return io.StringIO(STOPS_HEADER + "".join(r + "\n" for r in rows))


def test_parse_single_good_row():
    stops, report = parse_stops(stops_stream("u1,-73.9,40.7,2019-04-01T08:00:00Z,3600"))
    assert len(stops) == 1
    assert report.rows_read == 1
    assert report.rows_accepted == 1
    assert report.rows_rejected == 0
    stop = stop_records(stops)[0]
    assert stop.user_id == "u1"
    assert stop.lon == -73.9
    assert stop.dwell_s == 3600
    assert stop.start_ts == 1554105600


def test_parse_rejects_negative_dwell():
    stops, report = parse_stops(stops_stream("u1,-73.9,40.7,2019-04-01T08:00:00Z,-5"))
    assert stop_records(stops) == []
    assert report.rows_rejected == 1
    line_no, reason = report.first_10_rejects[0]
    assert line_no == 2
    assert "dwell" in reason


def test_parse_rejects_garbage_and_continues():
    stops, report = parse_stops(
        stops_stream(
            "u1,-73.9,40.7,2019-04-01T08:00:00Z,60",
            "u2,not-a-number,40.7,2019-04-01T08:00:00Z,60",
            "u3,-73.9,40.7,not-a-time,60",
            "u4,-73.9,40.7,2019-04-01T08:00:00Z,60,extra",
            "u5,-73.9,95.5,2019-04-01T08:00:00Z,60",
            "u6,-73.9,40.7,2019-04-01T08:00:00Z,61",
        )
    )
    assert [s.user_id for s in stop_records(stops)] == ["u1", "u6"]
    assert report.rows_read == 6
    assert report.rows_accepted == 2
    assert report.rows_rejected == 4
    assert report.rows_read == report.rows_accepted + report.rows_rejected


def test_parse_stops_rejects_overlong_field_and_continues():
    """A field over csv.field_size_limit() costs its row, not the whole file."""
    long_user = "u" * 200_000
    for block in (1, 2, 4096, ingest._BLOCK_BYTES):
        with mock.patch.object(ingest, "_BLOCK_BYTES", block):
            stops, report = parse_stops(stops_stream(
                "u1,-73.9,40.7,2019-04-01T08:00:00Z,60",
                f"{long_user},-73.9,40.7,2019-04-01T08:00:00Z,60",
                "u3,-73.9,40.7,2019-04-01T09:00:00Z,61",
            ))
        assert [s.user_id for s in stop_records(stops)] == ["u1", "u3"]
        assert (report.rows_read, report.rows_accepted, report.rows_rejected) == (3, 2, 1)
        line_no, reason = report.first_10_rejects[0]
        assert line_no == 3
        assert reason.startswith("unreadable row: field larger than field limit")


def test_parse_stops_bad_header_is_fatal():
    with pytest.raises(IngestError):
        parse_stops(io.StringIO("user,lon,lat,ts,dwell\n"))
    with pytest.raises(IngestError):
        parse_stops(io.StringIO(""))


# Each CSV reader: its file's name in the header wording and its header.
CSV_READERS = [
    (parse_stops, "stops", ["user_id", "lon", "lat", "start_ts", "dwell_s"]),
    (lambda source: parse_hazard(source, "heat"), "hazard", ["geoid", "value"]),
    (ingest.read_mei, "mei.csv", ingest.MEI_HEADER),
]


@pytest.mark.parametrize("parse, what, header", CSV_READERS, ids=["stops", "hazard", "mei.csv"])
def test_csv_readers_word_a_missing_or_wrong_header_alike(parse, what, header):
    with pytest.raises(IngestError) as info:
        parse(io.StringIO(""))
    assert str(info.value) == f"{what} file is empty (missing header)"
    with pytest.raises(IngestError) as info:
        parse(io.StringIO("geoid,lon,value\n1,2,3\n"))
    assert str(info.value) == f"bad {what} header: expected {header}, got ['geoid', 'lon', 'value']"


@pytest.mark.parametrize("field, text, reason", [
    ("user_id", "", "user_id: must be non-empty"),
    ("lon", "180.0001", "lon: out of range [-180, 180]"),
    ("lon", "-180.0001", "lon: out of range [-180, 180]"),
    ("lat", "90.0001", "lat: out of range [-90, 90]"),
    ("lat", "-90.0001", "lat: out of range [-90, 90]"),
    ("dwell_s", "-1", "dwell_s: must be a non-negative integer"),
    ("dwell_s", str(MAX_DWELL_S + 1), "dwell_s: out of range"),
    ("lon", "180", None), ("lon", "-180", None), ("lat", "90", None), ("lat", "-90", None),
    ("dwell_s", "0", None), ("dwell_s", str(MAX_DWELL_S), None),
])
def test_validate_and_parse_stops_draw_a_stop_bound_alike(field, text, reason):
    cells = {"user_id": "u1", "lon": "-73.9", "lat": "40.7", "start_ts": "2019-04-01T08:00:00Z", "dwell_s": "60"}
    cells[field] = text
    rec = Stop(user_id=cells["user_id"], lon=float(cells["lon"]), lat=float(cells["lat"]),
               start_ts=1554105600, dwell_s=int(cells["dwell_s"]))
    assert check(rec) == ([] if reason is None else [reason])
    # A chunk of good rows around it, so the column checks decide.
    good = "u2,-73.9,40.7,2019-04-01T08:00:00Z,60"
    stops, report = parse_stops(stops_stream(good, ",".join(cells.values()), good))
    assert report.first_10_rejects == ([] if reason is None else [(3, reason)])
    if reason is None:
        assert stop_records(stops)[1] == rec


def test_parse_stops_accepts_byte_stream():
    data = (STOPS_HEADER + "u1,-73.9,40.7,2019-04-01T08:00:00Z,60\n").encode()
    stops, _ = parse_stops(io.BytesIO(data))
    assert len(stops) == 1


def test_iso_parse_formats():
    assert ingest.parse_iso_utc("2019-04-01T00:00:00Z") == 1554076800
    assert ingest.parse_iso_utc("2019-04-01T00:00:00+00:00") == 1554076800
    assert ingest.format_iso_utc(1554076800) == "2019-04-01T00:00:00Z"


MALFORMED_CANONICAL = [
    "2019-04-01T25:00:00Z",
    "2019-04-01T23:99:99Z",
    "2019-04-01T-1:00:00Z",
    "2019x04x01T08:00:00Z",
]


@pytest.mark.parametrize("text", MALFORMED_CANONICAL)
def test_iso_fast_path_rejects_malformed_canonical_length(text):
    with pytest.raises(ValueError):
        ingest.parse_iso_utc(text)


def test_parse_stops_rejects_malformed_timestamps():
    stops, report = parse_stops(stops_stream(*(f"u1,0.5,0.5,{t},60" for t in MALFORMED_CANONICAL)))
    assert stop_records(stops) == []
    assert report.rows_rejected == len(MALFORMED_CANONICAL)


def _reference_epoch(text: str):
    try:
        return int(datetime.fromisoformat(text[:-1] + "+00:00").timestamp())
    except ValueError:
        return None


_any_second = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59))


def _near_canonical():
    """A valid YYYY-MM-DDTHH:MM:SSZ timestamp with up to three of its fields
    replaced by same-width junk: out-of-range numbers, signed or padded
    numbers, non-ASCII digits and wrong separators."""
    two = st.one_of(
        st.integers(0, 99).map(lambda v: f"{v:02d}"),
        st.sampled_from(["-1", "+1", " 1", "1 ", "1_", "\u0661\u0662", "\uff11\uff12"]),
    )
    junk = {
        0: st.one_of(st.integers(0, 9999).map(lambda v: f"{v:04d}"),
                     st.sampled_from(["-201", "+201", " 201", "\u0662\u0660\u0661\u0669"])),
        **dict.fromkeys((1, 3, 5, 7, 9), st.sampled_from("-:xT/ ")),
        **dict.fromkeys((2, 4, 6, 8, 10), two),
    }

    def fields(moment: datetime) -> list[str]:
        date, clock = moment.isoformat().split("T")
        y, mo, d = date.split("-")
        h, mi, sec = clock.split(":")
        return [y, "-", mo, "-", d, "T", h, ":", mi, ":", sec]

    edits = st.lists(
        st.sampled_from(sorted(junk)).flatmap(lambda i: junk[i].map(lambda v: (i, v))), max_size=3
    )

    def build(moment, changes):
        parts = fields(moment.replace(microsecond=0))
        for i, value in changes:
            parts[i] = value
        return "".join(parts) + "Z"

    return st.builds(build, _any_second, edits)


@settings(max_examples=1000, deadline=None)
@given(_near_canonical())
def test_iso_fast_path_equals_fromisoformat_or_rejects(text):
    assert len(text) == 20
    try:
        got = ingest.parse_iso_utc(text)
    except ValueError:
        got = None
    assert got == _reference_epoch(text)


@settings(max_examples=500, deadline=None)
@given(_any_second)
def test_iso_fast_path_accepts_every_valid_instant(moment):
    moment = moment.replace(microsecond=0)
    text = moment.isoformat() + "Z"
    assert ingest.parse_iso_utc(text) == int(moment.replace(tzinfo=timezone.utc).timestamp())


# The vouched timestamp layouts, stated apart from ingest._canonical_epochs().
_LAYOUT = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]{1,6})?"
                     r"(Z|[+-]([01][0-9]|2[0-3]):[0-5][0-9])")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _layout_reference(text: str):
    """parse_iso_utc()'s epoch of a text in a vouched layout that it reads,
    where float64 divides the microseconds exactly as timestamp() does
    (whole seconds, or fewer than 2**53 microseconds); else None."""
    if not _LAYOUT.fullmatch(text):
        return None
    try:
        moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        return None
    delta = moment - _EPOCH
    micros = (delta.days * 86400 + delta.seconds) * 10**6 + delta.microseconds
    if moment.microsecond and abs(micros) >= 2**53:
        return None
    return ingest.parse_iso_utc(text)


def _gathered(texts: list[str], size: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The texts' UTF-8 bytes as fields of one buffer, gathered by
    ingest._bytes() as parse_stops() gathers them, and their byte lengths.
    A lone surrogate is encoded as _Feed encodes a text stream's."""
    raw = [text.encode("utf-8", "surrogatepass") for text in texts]
    width = np.array(list(map(len, raw)), dtype=np.int64)
    a = np.frombuffer(b",".join(raw) + bytes(ingest._FIELD_BYTES), dtype=np.uint8)
    return ingest._bytes(a, np.cumsum(width + 1) - (width + 1), width, size), width


def _layout_epochs(texts: list[str]) -> list:
    """_canonical_epochs() of the texts, with None where it refuses a text."""
    ok, epochs = ingest._canonical_epochs(*_gathered(texts, ingest._FIELD_BYTES))
    return [epoch if k else None for k, epoch in zip(ok.tolist(), epochs.tolist())]


def _one_char_replaced():
    """A valid canonical timestamp with one character replaced by any character."""
    return st.builds(
        lambda moment, pos, char: (lambda t: t[:pos] + char + t[pos + 1:])(
            moment.replace(microsecond=0).isoformat() + "Z"),
        _any_second, st.integers(0, 19), st.characters(),
    )


def _month_ends():
    """Canonical texts on days 28-31 of every month, real or not (Feb 29 in non-leap years)."""
    return st.builds(lambda y, m, d: f"{y:04d}-{m:02d}-{d:02d}T12:00:00Z",
                     st.integers(0, 9999), st.integers(1, 12), st.integers(28, 31))


_timestamp_texts = st.one_of(_near_canonical(), _one_char_replaced(), _month_ends(),
                             st.text(max_size=22))


@settings(max_examples=500, deadline=None)
@given(st.lists(_timestamp_texts, max_size=12))
@example(["2019-04-01T23:59:60Z", "2019-04-01T23:60:00Z", "2019-04-01T24:00:00Z",
          "2019-04-01T23:59:59Z", "0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z",
          "2019-02-29T00:00:00Z", "2000-02-29T00:00:00Z", "1900-02-29T00:00:00Z",
          "2019-13-01T00:00:00Z", "2019-00-01T00:00:00Z", "2019-04-00T00:00:00Z"])
def test_vector_timestamps_equal_fast_path_or_both_reject(texts):
    assert _layout_epochs(texts) == [_layout_reference(t) for t in texts]


def _layout_texts():
    """Timestamps in and around the vouched layouts: any second of years
    1-9999 or near the epoch, a fraction of 0-9 digits, and Z, an offset up
    to +-23:59 or a zone the layouts refuse."""
    moments = st.one_of(_any_second, st.datetimes(min_value=datetime(1680, 1, 1),
                                                  max_value=datetime(2260, 1, 1)))
    fractions = st.one_of(st.just(""), st.integers(1, 9).flatmap(
        lambda k: st.text("0123456789", min_size=k, max_size=k).map(lambda digits: "." + digits)))
    offsets = st.builds(lambda sign, h, m: f"{sign}{h:02d}:{m:02d}",
                        st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59))
    zones = st.one_of(st.just("Z"), offsets,
                      st.sampled_from(["+24:00", "-24:00", "+05", "-0530", "+05:60", "+5:30", "", "z", " Z"]))
    return st.builds(lambda moment, fraction, zone: moment.replace(microsecond=0).isoformat() + fraction + zone,
                     moments, fractions, zones)


@settings(max_examples=1000, deadline=None)
@given(_layout_texts())
@example("1969-12-31T23:59:59.5Z")  # 0: int() truncates toward zero
@example("9999-12-31T23:59:59.999999Z")  # timestamp() rounds up to 253402300800
@example("2019-04-02T09:00:00+24:00")
@example("2019-04-02T09:00:00+05")
@example("2019-04-02T09:00:00-0530")
@example("0001-01-01T00:00:00+23:59")
@example("9999-12-31T23:59:59-23:59")
def test_timestamp_layouts_vouch_exactly_for_their_texts(text):
    """Every text in a vouched layout gets parse_iso_utc()'s epoch; every
    other text is refused, and parse_stops() retries it with parse_iso_utc()."""
    assert _layout_epochs([text]) == [_layout_reference(text)]


def test_timestamp_layouts_truncate_toward_zero_and_leave_rounding_to_parse_iso_utc():
    assert _layout_epochs(["1969-12-31T23:59:59.5Z", "9999-12-31T23:59:59.999999Z"]) == [0, None]
    assert ingest.parse_iso_utc("9999-12-31T23:59:59.999999Z") == 253402300800


# The number layouts the byte split vouches for, stated apart from ingest._numbers().
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?")
_INTEGER = re.compile(r"-?[0-9]{1,18}")


_decimal_texts = st.builds(lambda sign, whole, fraction: sign + whole + ("" if fraction is None else "." + fraction),
                           st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=18),
                           st.one_of(st.none(), st.text("0123456789", min_size=1, max_size=18)))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_decimal_texts, st.text("0123456789.-+e _\u0663", max_size=10)), min_size=1, max_size=12))
@example(["-0", "-0.0", "007.25", "9007199254740993", "123456789012345.6", "0.1234567890123456789012345678901",
          "999999999999999999", "1000000000000000000", "1.", ".5", "-", "--1", "1-", "1.2.3", ""])
def test_numbers_read_their_layouts_as_float_and_int_do(texts):
    """A text in the decimal layout, at most _FIELD_BYTES long, gets float()'s
    value bit for bit (mantissas of up to 15 digits by division, longer ones
    by numpy's cast); one in the integer layout gets int()'s value."""
    decimal, integer, real, whole = ingest._numbers(*_gathered(texts))
    for k, text in enumerate(texts):
        assert decimal[k] == (len(text) <= ingest._FIELD_BYTES and bool(_DECIMAL.fullmatch(text))), text
        assert integer[k] == bool(_INTEGER.fullmatch(text)), text
        if decimal[k]:
            assert real[k].view(np.int64) == np.float64(float(text)).view(np.int64), text
        if integer[k]:
            assert whole[k] == int(text), text


def reference_rows(text: str, what: str, header: list[str]) -> list:
    """csv.reader's rows of text after its header, row by row, each with the
    file line it starts on; a row it cannot read is the reason it is
    rejected. A missing or wrong header is an IngestError, worded as the CSV
    readers word it."""
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader, None)
    except csv.Error as exc:
        first = f"unreadable row: {exc}"
    if first is None:
        raise IngestError(f"{what} file is empty (missing header)")
    if first != header:
        raise IngestError(f"bad {what} header: expected {header}, got {first}")
    rows = []
    while True:
        line_no = reader.line_num + 1
        try:
            row = next(reader, None)
        except csv.Error as exc:  # a field over csv.field_size_limit(), say
            rows.append((line_no, f"unreadable row: {exc}"))
            continue
        if row is None:
            return rows
        rows.append((line_no, row))


def reference_parse(text: str):
    """The row-by-row parse that parse_stops() replaced: its oracle.

    Returns the accepted rows and the report.
    """
    report = ingest.IngestReport()
    records = []
    for line_no, row in reference_rows(text, "stops", ingest.STOPS_HEADER):
        report.rows_read += 1
        if isinstance(row, str):
            report.reject(line_no, row)
            continue
        if len(row) != 5:
            report.reject(line_no, f"expected 5 fields, got {len(row)}")
            continue
        try:
            rec = Stop(user_id=row[0], lon=float(row[1]), lat=float(row[2]),
                       start_ts=ingest.parse_iso_utc(row[3]), dwell_s=int(row[4]))
        except ValueError as exc:
            report.reject(line_no, f"unparseable field: {exc}")
            continue
        violations = check(rec)
        if violations:
            report.reject(line_no, violations[0])
            continue
        records.append(rec)
        report.rows_accepted += 1
    return records, report


# Rows of a vendor-style feed: canonical and non-canonical timestamps,
# lenient numbers, and every kind of malformed row.
MESSY_ROWS = [
    "u1,-97.8,30.2,2019-04-02T09:00:00Z,600",
    "u2,-97.8,30.2,2019-04-02T09:00:00+00:00,600",
    "u3,-97.8,30.2,2019-04-02T09:00:00.123Z,600",
    "u1,-97.8,30.2,2019-04-02T09:00:00.123000+00:00,60",
    "u4,-97.8,30.2,2019-04-02T04:00:00-05:00,60",
    "u8,0,0,2019-04-02T09:00:00,1",
    "u8,0,0,2019-04-02 09:00:00Z,1",
    "u2,-97.8,30.2,2019-04-02T09:00:00Z",
    "u2,-97.8,30.2,2019-04-02T09:00:00Z,600,x",
    "",
    "u3,abc,30.2,2019-04-02T09:00:00Z,600",
    "u3,-97.8,nan,2019-04-02T09:00:00Z,600",
    "u3,-97.8,91.5,2019-04-02T09:00:00Z,600",
    "u6,180.0000001,0,2019-04-02T09:00:00Z,1",
    "u6,-180.5,0,2019-04-02T09:00:00Z,1",
    "u6,0,-90.5,2019-04-02T09:00:00Z,1",
    "u6,inf,0,2019-04-02T09:00:00Z,1",
    "u1,-97.8,30.2,2019-04-02T09:00:00Z,-60",
    "u1,-97.8,30.2,2019-04-02T09:00:00Z,60.5",
    "u7,0,0,2019-04-02T09:00:00Z,2147483647",
    "u7,0,0,2019-04-02T09:00:00Z,2147483648",
    "u7,0,0,2019-04-02T09:00:00Z,100000000000000000000",
    "u7,0,0,2019-04-02T09:00:00Z,-100000000000000000000",
    "u1,-97.8,30.2,2019-04-31T09:00:00Z,600",
    "u1,-97.8,30.2,2019-02-29T09:00:00Z,600",
    "u8,0,0,2019-04-02T24:00:00Z,1",
    "u9,0,0,\uff12\uff10\uff11\uff19-04-02T09:00:00Z,1",
    "u1,-97.8,30.2,yesterday,600",
    ",-97.8,30.2,2019-04-02T09:00:00Z,600",
    "u5, 1.5 ,-0.0,2019-04-02T09:00:00Z,1_000",
    "u5,1e1,\u0663,2019-04-02T09:00:00Z,\u0663\u0664",
    "u6,-180,90,0001-01-01T00:00:00Z,0",
    "u9,0,0,9999-12-31T23:59:59Z,1",
    '"u9,x",0,0,2016-02-29T09:00:00Z,1',
    '"u10\nsecond line",-97.8,30.2,2019-04-02T09:00:00Z,600',
    'u3,"abc\n",30.2,2019-04-02T09:00:00Z,600',
    # Edges of the byte split: CRLF and lone CR, a NUL in a user id, UTF-8
    # user ids, quoted fields, and numbers and timestamps at its layouts' edges.
    "u1,-97.8,30.2,2019-04-02T09:00:00Z,600\r",
    "u1,-97.8,30.2,2019-04-02T09:00:00Z,6x\r",
    "u2,-97.8,30.2\r2019-04-02T09:00:00Z,600",
    "u1\0,-97.8,30.2,2019-04-02T09:00:00Z,600",
    "\u00fc1,-97.8,30.2,2019-04-02T09:00:00Z,600",
    "\u7528\u6237,-97.8,30.2,2019-04-02T09:00:00.5+05:30,600",
    '"u1","-97.8","30.2","2019-04-02T09:00:00Z","600"',
    '"u""q",-97.8,30.2,2019-04-02T09:00:00Z,600',
    "u4,+97.5,-0,2019-04-02T09:00:00Z,0600",
    "u4,1.,.5,2019-04-02T09:00:00Z,-0",
    "u4,-,0,2019-04-02T09:00:00Z,1",
    "u4,0.123456789012345678901234567890,-0.1234567890123456789012345678901234,2019-04-02T09:00:00Z,1",
    "u4,-97.12345678901234567,-00000000.00000000,2019-04-02T09:00:00Z,1",
    "u4,0,0,2019-04-02T09:00:00Z,999999999999999999",
    "u4,0,0,2019-04-02T09:00:00Z,1000000000000000000",
    "u7,0,0,2019-04-02T09:00:00.1234567Z,1",
    "u7,0,0,2019-04-02T09:00:00.000+23:59,1",
    "u7,0,0,2019-04-02T09:00:00-23:59,1",
    "u7,0,0,2019-04-02T09:00:00+24:00,1",
    "u7,0,0,2019-04-02T09:00:00+05,1",
    "u7,0,0,2019-04-02T09:00:00-0530,1",
    "u7,0,0,1969-12-31T23:59:59.5Z,1",
    "u7,0,0,9999-12-31T23:59:59.999999Z,1",
    "u7,0,0,0001-01-01T00:00:00+01:00,1",
]


# The block sizes the parse is checked at: one line a block, a few lines a
# block, and the default.
BLOCK_SIZES = (1, 64, ingest._BLOCK_BYTES)


def each_source(text: str):
    """The text as each kind of source the CSV readers read: a path, a byte
    stream and a text stream."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(text.encode())
        yield path
    yield io.BytesIO(text.encode())
    yield io.StringIO(text)


def parse_stops_at(block: int, source):
    with mock.patch.object(ingest, "_BLOCK_BYTES", block):
        return parse_stops(source)


def with_every_reject(parse, *args):
    """parse(*args), and every (line, reason) its IngestReport records, not only the first 10."""
    rejects, record = [], ingest.IngestReport.reject

    def reject(report, line_no, reason):
        rejects.append((line_no, reason))
        record(report, line_no, reason)

    with mock.patch.object(ingest.IngestReport, "reject", reject):
        return parse(*args), rejects


def _assert_parse_equals_reference(text: str, blocks=BLOCK_SIZES) -> None:
    (records, expected), expected_rejects = with_every_reject(reference_parse, text)
    for block in blocks:
        for source in each_source(text):
            (stops, report), rejects = with_every_reject(parse_stops_at, block, source)
            assert rejects == expected_rejects
            assert stop_records(stops) == records
            for column in ("lon", "lat"):  # bit for bit, signed zeros included
                values = np.array([getattr(r, column) for r in records], dtype=np.float64)
                assert getattr(stops, column).view(np.int64).tolist() == values.view(np.int64).tolist()
            assert stops.user_ids.tolist() == list(dict.fromkeys(r.user_id for r in records))
            assert (report.rows_read, report.rows_accepted, report.rows_rejected, report.first_10_rejects) == (
                expected.rows_read, expected.rows_accepted, expected.rows_rejected, expected.first_10_rejects)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(MESSY_ROWS), max_size=60), st.sampled_from(BLOCK_SIZES))
def test_parse_stops_equals_row_by_row_parse(rows, block):
    _assert_parse_equals_reference(STOPS_HEADER + "".join(r + "\n" for r in rows), blocks=[block])


def test_parse_stops_messy_file_equals_row_by_row_parse():
    rng = random.Random(7)
    rows = []
    for k in range(3000):
        if rng.random() < 0.3:
            rows.append(rng.choice(MESSY_ROWS))
        else:
            stamp = datetime(2019, 4, 1, tzinfo=timezone.utc).timestamp() + rng.randrange(30 * 86400)
            text = ingest.format_iso_utc(int(stamp))
            if rng.random() < 0.25:
                text = text[:-1] + rng.choice(["+00:00", ".250Z", ".5+00:00"])
            rows.append(f"d{rng.randrange(400)},{rng.uniform(-98, -97):.6f},{rng.uniform(30, 31):.6f},"
                        f"{text},{rng.randrange(20000)}")
    _assert_parse_equals_reference(STOPS_HEADER + "".join(r + "\n" for r in rows))


ROW = "u1,-97.8,30.2,2019-04-02T09:00:00Z,600"


@pytest.mark.parametrize("text", [
    STOPS_HEADER,
    STOPS_HEADER.rstrip("\n"),
    STOPS_HEADER + ROW,
    STOPS_HEADER + "\n\n" + ROW + "\n\n\n" + ROW.replace("u1", "u2"),
    (STOPS_HEADER + ROW + "\n" + ROW.replace("u1", "u2") + "\n").replace("\n", "\r\n"),
    STOPS_HEADER + ROW + "\r",
    STOPS_HEADER + ROW + "\r" + ROW + "\n" + ROW,
    STOPS_HEADER + ROW + "\n" + "u" * 200_000 + ROW[2:] + "\n" + ROW.replace("u1", "u3") + "\n",
    '"user_id","lon","lat","start_ts","dwell_s"\r\n' + "".join(
        '"' + '","'.join(row.split(",")) + '"\r\n' for row in (ROW, ROW.replace("600", "-1"), ROW)),
    STOPS_HEADER + ROW + "\n" + '"u9\n' + ROW + "\n" + ROW + '",0,0,2019-04-02T09:00:00Z,1\n' + ROW + "\n",
    STOPS_HEADER + ROW + '\n"u9,0,0,2019-04-02T09:00:00Z,1\n' + ROW + "\n",
], ids=["header only", "header only without LF", "last row without LF", "blank lines", "CRLF",
        "last row ending in CR", "lone CR", "field over the limit", "quoted, CRLF", "quoted line breaks",
        "quote open at the end"])
def test_parse_stops_edge_files_equal_row_by_row_parse(text):
    _assert_parse_equals_reference(text)


HEADER_FAULT = "bad stops header: expected ['user_id', 'lon', 'lat', 'start_ts', 'dwell_s'], got {}"
BYTES_ROW = ROW.encode() + b"\n"


@pytest.mark.parametrize("data, message", [
    (b"", "stops file is empty (missing header)"),
    (b"\xef\xbb\xbf" + STOPS_HEADER.encode() + BYTES_ROW,
     HEADER_FAULT.format(["\ufeffuser_id", "lon", "lat", "start_ts", "dwell_s"])),
    (b'"user_id\n",lon,lat,start_ts,dwell_s\n' + BYTES_ROW,
     HEADER_FAULT.format(["user_id\n", "lon", "lat", "start_ts", "dwell_s"])),
    (STOPS_HEADER.encode() + BYTES_ROW * 40 + "ü1,0,0,2019-04-02T09:00:00Z,1\n".encode() + b"\xff" + BYTES_ROW,
     "{}not UTF-8 text (byte 0xff: invalid start byte)"),
    (STOPS_HEADER.encode() + BYTES_ROW + b"\xc3", "{}not UTF-8 text (byte 0xc3: unexpected end of data)"),
    (STOPS_HEADER.encode() + b'"u\xe9\n' + BYTES_ROW + b'",0,0,2019-04-02T09:00:00Z,1\n',
     "{}not UTF-8 text (byte 0xe9: invalid continuation byte)"),
], ids=["empty", "BOM", "quoted header", "not UTF-8", "not UTF-8 at the end", "not UTF-8 in a quoted field"])
def test_parse_stops_fatal_edge_files(tmp_path, data, message):
    """Bytes that are not UTF-8 keep their wording, which names the source,
    at every block size; a missing or wrong header is worded alike from
    every source."""
    path = tmp_path / "stops.csv"
    path.write_bytes(data)
    for block in BLOCK_SIZES:
        sources = [(path, f"{path}: "), (io.BytesIO(data), "input: ")]
        if "UTF-8" not in message:
            sources.append((io.StringIO(data.decode()), ""))
        for source, name in sources:
            with pytest.raises(IngestError) as info:
                parse_stops_at(block, source)
            assert str(info.value) == (message.format(name) if "UTF-8" in message else message)


def tract_feature(geoid: str, lon0=0.0, lat0=0.0, close=True):
    ring = [[lon0, lat0], [lon0 + 1, lat0], [lon0 + 1, lat0 + 1], [lon0, lat0 + 1]]
    if close:
        ring.append([lon0, lat0])
    return {
        "type": "Feature",
        "properties": {"GEOID": geoid, "POP": 1200, "PCT_MINORITY": 0.4, "PCT_POV200": 0.25},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def feature_collection(*features) -> io.StringIO:
    return io.StringIO(json.dumps({"type": "FeatureCollection", "features": list(features)}))


def test_parse_tracts_unit_square():
    tracts = parse_tracts(feature_collection(tract_feature("48001950100")))
    assert len(tracts) == 1
    assert tracts.geoids.tolist() == ["48001950100"]
    assert tracts.population.tolist() == [1200]


def test_parse_tracts_duplicate_geoid_fatal():
    with pytest.raises(IngestError, match="duplicate GEOID"):
        parse_tracts(feature_collection(tract_feature("48001950100"), tract_feature("48001950100")))


def test_parse_tracts_unclosed_ring_fatal_names_feature():
    with pytest.raises(IngestError, match="feature 1"):
        parse_tracts(
            feature_collection(tract_feature("48001950100"), tract_feature("48001950200", close=False))
        )


def test_parse_tracts_rejects_non_polygon():
    feature = tract_feature("48001950100")
    feature["geometry"] = {"type": "Point", "coordinates": [0.0, 0.0]}
    with pytest.raises(IngestError, match="Polygon"):
        parse_tracts(feature_collection(feature))


# (where to write in a good feature, value, what the error must say)
BAD_TRACT_VALUES = [
    ("vertex", math.nan, "part 0 ring 0 has a non-finite coordinate"),
    ("vertex", math.inf, "part 0 ring 0 has a non-finite coordinate"),
    ("vertex", "raw:1e400", "part 0 ring 0 has a non-finite coordinate"),
    ("vertex", "raw:1" + "0" * 400, "malformed part 0 ring 0: position 2"),
    ("vertex", "-97.1", "malformed part 0 ring 0: position 2"),
    ("vertex", True, "malformed part 0 ring 0: position 2"),
    ("vertex", None, "malformed part 0 ring 0: position 2"),
    ("position", [1.0], "malformed part 0 ring 0: position 2"),
    ("position", 1.0, "malformed part 0 ring 0: position 2"),
    ("position", {"lon": 1.0, "lat": 2.0}, "malformed part 0 ring 0: position 2"),
    ("POP", 3844.9, "population: must be a non-negative integer"),
    ("POP", True, "population: must be a non-negative integer"),
    ("POP", -1, "population: must be a non-negative integer"),
    ("PCT_MINORITY", "0.5", "pct_minority: must be a fraction in [0, 1]"),
    ("PCT_POV200", math.nan, "pct_below_poverty200: must be a fraction in [0, 1]"),
    ("GEOID", "4800195020\r", "geoid: must be 11 ASCII digits, got '4800195020\\r'"),
    ("GEOID", "4800195020", "geoid: must be 11 ASCII digits"),
]


def bad_tract_text(where: str, value) -> str:
    """Two unit-square features; the second has value written at where
    (a value "raw:text" as the JSON text)."""
    feature = tract_feature("48001950200", 2.0, 0.0)
    raw = value[4:] if isinstance(value, str) and value.startswith("raw:") else None
    if where == "vertex":
        feature["geometry"]["coordinates"][0][2][0] = 1234.5 if raw else value
    elif where == "position":
        feature["geometry"]["coordinates"][0][2] = value
    elif where == "GEOID":
        feature["properties"]["GEOID"] = value
    else:
        feature["properties"][where] = value
    doc = {"type": "FeatureCollection", "features": [tract_feature("48001950100"), feature]}
    return json.dumps(doc).replace("1234.5", raw) if raw else json.dumps(doc)


@pytest.mark.parametrize("where, value, message", BAD_TRACT_VALUES)
def test_parse_tracts_rejects_bad_values_naming_the_feature(where, value, message):
    with pytest.raises(IngestError) as info:
        parse_tracts(io.StringIO(bad_tract_text(where, value)))
    assert str(info.value).startswith("feature 1: ")
    assert message in str(info.value)
    if where == "position":  # the same among positions of other lengths
        text = bad_tract_text(where, value).replace("[0.0, 0.0]", "[0.0, 0.0, 5.0]", 1)
        with pytest.raises(IngestError, match=re.escape(message)):
            parse_tracts(io.StringIO(text))


@pytest.mark.parametrize("feature, message", [
    (1, "feature 1: not a JSON object"),
    (["Feature"], "feature 1: not a JSON object"),
    ({"type": "Feature", "properties": [1], "geometry": {}}, "feature 1: properties: not a JSON object"),
    ({"type": "Feature", "properties": {"GEOID": "48001950200"}, "geometry": "Polygon"},
     "feature 1: geometry: not a JSON object"),
])
def test_parse_tracts_names_a_feature_that_is_not_an_object(feature, message):
    doc = {"type": "FeatureCollection", "features": [tract_feature("48001950100"), feature]}
    with pytest.raises(IngestError) as info:
        parse_tracts(io.StringIO(json.dumps(doc)))
    assert str(info.value) == message


def test_parse_tracts_rejects_features_that_are_not_an_array():
    with pytest.raises(IngestError, match="features is not an array"):
        parse_tracts(io.StringIO(json.dumps({"type": "FeatureCollection", "features": {"a": 1}})))


@pytest.mark.parametrize("parse", [
    parse_stops, parse_tracts, lambda source: parse_hazard(source, "toxic"), ingest.read_mei,
])
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, parse):
    path = tmp_path / "input.csv"
    path.write_bytes(b"user_id,lon,lat\n\xff\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}: not UTF-8 text (byte 0xff")):
        parse(path)


def test_parse_tracts_rejects_geoid_with_carriage_return():
    # It would pass an 11-character check, and write_report writes it unquoted.
    feature = tract_feature("48001950100")
    feature["properties"]["GEOID"] = "4800195010\r"
    with pytest.raises(IngestError, match="feature 0: geoid: must be 11 ASCII digits"):
        parse_tracts(feature_collection(feature))


def test_parse_tracts_names_the_first_fault_in_file_order():
    unclosed = tract_feature("48001950200", 2.0, 0.0, close=False)
    bad_pop = tract_feature("48001950300", 4.0, 0.0)
    bad_pop["properties"]["POP"] = -5
    bad_geoid = tract_feature("480019504")
    text = feature_collection(tract_feature("48001950100"), unclosed, bad_pop, bad_geoid)
    with pytest.raises(IngestError, match="feature 1: part 0 ring 0 is not closed"):
        parse_tracts(text)
    text = feature_collection(tract_feature("48001950100"), bad_pop, unclosed, bad_geoid)
    with pytest.raises(IngestError, match="feature 1: population"):
        parse_tracts(text)
    # Within a feature the rings come first, in order; then its properties.
    two_parts = tract_feature("48001950200")
    ring = two_parts["geometry"]["coordinates"][0]
    two_parts["geometry"] = {"type": "MultiPolygon", "coordinates": [[ring[:-1]], [ring[:-1] + [[0, "x"]]]]}
    two_parts["properties"]["POP"] = None
    with pytest.raises(IngestError, match="feature 0: part 0 ring 0 is not closed"):
        parse_tracts(feature_collection(two_parts, bad_geoid))
    del two_parts["properties"]["PCT_POV200"]
    two_parts["geometry"]["coordinates"][0][0].append(ring[0])
    with pytest.raises(IngestError, match="feature 0: malformed part 1 ring 0: position 4"):
        parse_tracts(feature_collection(two_parts, bad_geoid))
    two_parts["geometry"]["coordinates"][1][0][-1] = ring[0]
    with pytest.raises(IngestError, match="feature 0: population"):
        parse_tracts(feature_collection(two_parts, bad_geoid))
    two_parts["properties"]["POP"] = 10
    with pytest.raises(IngestError, match="feature 0: bad demographic properties: 'PCT_POV200'"):
        parse_tracts(feature_collection(two_parts, bad_geoid))


def test_parse_tracts_accepts_3d_positions():
    flat = tract_feature("48001950100")
    high = tract_feature("48001950100")
    high["geometry"]["coordinates"][0] = [p + [150.5] for p in high["geometry"]["coordinates"][0]]
    mixed = tract_feature("48001950100")
    mixed["geometry"]["coordinates"][0][1] += [12, "members past lat are ignored"]
    expected = parse_tracts(feature_collection(flat))
    assert_same_tracts(parse_tracts(feature_collection(high)), expected)
    assert_same_tracts(parse_tracts(feature_collection(mixed)), expected)


def test_parse_tracts_missing_geoid():
    feature = tract_feature("48001950100")
    del feature["properties"]["GEOID"]
    with pytest.raises(IngestError, match="GEOID"):
        parse_tracts(feature_collection(feature))


# parse_tracts converts positions _BATCH_POSITIONS at a time; the result
# must not depend on where the batches end.
BATCH_SIZES = (1, 3, 64, ingest._BATCH_POSITIONS)
RAW = 1234.5  # written in a position, then replaced by raw JSON text; no generated coordinate equals it


def assert_tracts_match_reference(text: str) -> TractTable | str:
    """parse_tracts gives the oracle's table, or its error text, at every batch size."""
    expected = reference_parse_tracts(text)
    for batch in BATCH_SIZES:
        with mock.patch.object(ingest, "_BATCH_POSITIONS", batch):
            try:
                parsed = parse_tracts(io.StringIO(text))
            except IngestError as exc:
                assert str(exc) == expected, batch
                continue
        assert not isinstance(expected, str), (batch, expected)
        assert_same_tracts(parsed, expected)
    return expected


def _decoy(rng: random.Random, depth: int = 0):
    """A Polygon or MultiPolygon object where no feature loop reads a geometry,
    with coordinates that may be broken."""
    square = [[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 0.5]]
    coordinates = rng.choice([
        [square], [[square]], "x", None, [], [[]], [[["a", 1.0]]], [[[True, 1.0], [0, 0]]],
        [[[0.0, 0.0], [1.0, 0.0]]], [[[math.nan, 0.0]] * 4], [[square + [[RAW, 0.0]]]],
    ])
    decoy = {"type": rng.choice(["Polygon", "MultiPolygon"]), "coordinates": coordinates}
    if depth == 0 and rng.random() < 0.3:
        decoy["properties"] = {"inner": _decoy(rng, 1)}
    return decoy


def _position(rng: random.Random, x, y) -> list:
    """A position at (x, y): 2-D, 3-D, or with other members past lat, a decoy among them."""
    form = rng.randrange(6)
    if form == 1:
        return [x, y, rng.uniform(-50.0, 50.0)]
    if form == 2:
        return [x, y, _decoy(rng)]
    if form == 3:
        return [x, y, "members past lat are ignored", None]
    return [x, y]


def _ring(rng: random.Random, cx: int, cy: int, size: float) -> list:
    """A closed ring around (cx, cy): an integer square, or 3 to 7 float corners."""
    if rng.random() < 0.3:
        corners = [(cx, cy), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)]
    else:
        n = rng.randint(3, 7)
        corners = [(cx + round(size * math.cos(2 * math.pi * k / n), 6),
                    cy + round(size * math.sin(2 * math.pi * k / n), 6)) for k in range(n)]
    ring = [_position(rng, x, y) for x, y in corners]
    return ring + [_position(rng, *corners[0])]


def _feature(rng: random.Random, i: int) -> dict:
    """A valid tract feature, with decoy geometries here and there."""
    polygons = [[_ring(rng, 3 * i, 3 * k, 0.4)] + [_ring(rng, 3 * i, 3 * k, 0.2)] * (rng.random() < 0.3)
                for k in range(rng.choice([1, 1, 2, 3]))]
    if len(polygons) == 1 and rng.random() < 0.7:
        geometry = {"type": "Polygon", "coordinates": polygons[0]}
    else:
        geometry = {"type": "MultiPolygon", "coordinates": polygons}
    props = {"GEOID": f"48{i:09d}", "POP": rng.randrange(10**6),
             "PCT_MINORITY": rng.choice([rng.random(), 0, 1]), "PCT_POV200": rng.random()}
    if rng.random() < 0.3:
        props["shape"] = _decoy(rng)
    feature = {"type": rng.choice(["Feature", "Feature", "Polygon"]), "properties": props, "geometry": geometry}
    if rng.random() < 0.2:
        feature["bbox_geometry"] = _decoy(rng)
    return feature


def _rings_of(feature) -> list[list]:
    """The rings of a feature's geometry, or none where a fault has broken it."""
    geometry = feature.get("geometry") if isinstance(feature, dict) else None
    if not isinstance(geometry, dict) or not isinstance(geometry.get("coordinates"), list):
        return []
    coords = geometry["coordinates"]
    polygons = [coords] if geometry.get("type") == "Polygon" else coords
    return [ring for polygon in polygons if isinstance(polygon, list)
            for ring in polygon if isinstance(ring, list) and ring]


# Every fault kind: the BAD_TRACT_VALUES, written anywhere in a feature, and
# the structural faults.
STRUCTURAL_FAULTS = ["feature", "properties", "geometry", "no GEOID", "duplicate GEOID", "geometry type",
                     "coordinates", "part", "ring", "empty part", "empty geometry", "short ring",
                     "open ring", "empty ring", "short ring, malformed position", "open ring, malformed position",
                     "non-finite ring, malformed position"]
TRACT_FAULTS = [(where, value) for where, value, _ in BAD_TRACT_VALUES] + [(kind, None) for kind in STRUCTURAL_FAULTS]


def _plant(rng: random.Random, features: list, j: int, fault: tuple) -> None:
    """Write a fault into feature j; a duplicate GEOID goes into feature 1 when j is 0."""
    where, value = fault
    feature = features[j]
    props = feature.get("properties") if isinstance(feature, dict) else None
    rings = _rings_of(feature)
    geometry = feature.get("geometry") if isinstance(feature, dict) else None
    if where == "feature":
        features[j] = rng.choice([1, ["Feature"], "Feature", None, True])
    elif not isinstance(props, dict) or not isinstance(geometry, dict):
        return
    elif where in ("GEOID", "POP", "PCT_MINORITY", "PCT_POV200"):
        props[where] = value
    elif where == "properties":
        feature["properties"] = rng.choice([[1], "p", 7])
    elif where == "geometry":
        feature["geometry"] = rng.choice(["Polygon", [1], 3])
    elif where == "no GEOID":
        if rng.random() < 0.5:
            props.pop("GEOID", None)
        else:
            props["GEOID"] = rng.choice([None, "", 48001950100])
    elif where == "duplicate GEOID":
        if j == 0 and len(features) > 1:
            _plant(rng, features, 1, fault)
        elif j > 0:
            earlier = features[rng.randrange(j)]
            if isinstance(earlier, dict) and isinstance(earlier.get("properties"), dict):
                props["GEOID"] = earlier["properties"].get("GEOID")
    elif where == "geometry type":
        geometry["type"] = rng.choice(["Point", None, ["Polygon"], {"a": 1}, "polygon"])
    elif where == "coordinates":
        if rng.random() < 0.3:
            geometry.pop("coordinates", None)
        else:
            geometry["coordinates"] = rng.choice([None, "x", 5, {"a": 1}])
    elif where in ("part", "empty part", "empty geometry"):
        if geometry.get("type") == "Polygon":
            geometry.update(type="MultiPolygon", coordinates=[geometry.get("coordinates")])
        parts = geometry.get("coordinates")
        if where == "empty geometry":
            geometry["coordinates"] = [] if rng.random() < 0.5 else [[]]
        elif isinstance(parts, list):
            bad = [] if where == "empty part" else rng.choice(["x", 5, None, {"b": 2}])
            parts.insert(rng.randint(0, len(parts)), bad)
    elif not rings:
        return
    elif where == "vertex":
        positions = [p for p in rng.choice(rings) if isinstance(p, list) and len(p) >= 2]
        if positions:
            rng.choice(positions)[rng.randrange(2)] = RAW if isinstance(value, str) and value.startswith("raw:") else value
    elif where == "position":
        ring = rng.choice(rings)
        ring[rng.randrange(len(ring))] = value
    elif where == "short ring":
        del rng.choice(rings)[rng.randint(0, 3):]
    elif where.endswith(", malformed position"):
        # A malformed position is named before any other fault of its ring.
        ring = rng.choice(rings)
        if where.startswith("short"):
            del ring[rng.randint(1, 3):]
        elif where.startswith("open"):
            ring[-1] = [1e6, 1e6]
        else:
            ring[0] = [math.inf, 0.0]
        ring[rng.randrange(len(ring) > 1, len(ring))] = rng.choice(["-97.1", True, None, [1.0], 1.0])
    elif where == "open ring":
        ring = rng.choice(rings)
        if isinstance(ring[-1], list) and ring[-1] and isinstance(ring[-1][0], (int, float)):
            ring[-1] = [ring[-1][0] + 0.125] + ring[-1][1:]
    else:  # a ring that is not an array, or an empty ring
        coords = geometry["coordinates"]
        polygons = [coords] if geometry.get("type") == "Polygon" else coords
        part = rng.choice([polygon for polygon in polygons if isinstance(polygon, list)] or [[]])
        part.insert(rng.randint(0, len(part)), [] if where == "empty ring" else rng.choice(["x", 5, None, {"c": 3}]))


def _document(rng: random.Random, features: list, raw: str = "1e400") -> str:
    """The FeatureCollection text, perhaps with decoys beside the features;
    each RAW number is written as raw JSON text."""
    doc = {"type": "FeatureCollection"}
    if rng.random() < 0.3:
        doc["bbox_geometry"] = _decoy(rng)
    doc["features"] = features
    if rng.random() < 0.3:
        doc["after"] = _decoy(rng)
    return json.dumps(doc).replace(repr(RAW), raw)


@pytest.mark.parametrize("fault", TRACT_FAULTS, ids=lambda fault: f"{fault[0]}={fault[1]!r}"[:40])
def test_parse_tracts_names_every_fault_in_the_first_a_middle_and_the_last_batch(fault):
    """With 9 features of about 12 positions each, the first feature lies in
    the first batch, the fifth in a middle one and the last in the last one,
    at every batch size below the default (at the default all share one)."""
    where, value = fault
    raw = value[4:] if isinstance(value, str) and value.startswith("raw:") else "1e400"
    for seed, j in ((0, 0), (1, 4), (2, 8)):
        rng = random.Random(f"{where}-{value!r}-{seed}")
        features = [_feature(rng, i) for i in range(9)]
        _plant(rng, features, j, fault)
        expected = assert_tracts_match_reference(_document(rng, features, raw))
        named = 1 if where == "duplicate GEOID" and j == 0 else j
        assert isinstance(expected, str) and expected.startswith(f"feature {named}: ")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12),
       st.lists(st.tuples(st.sampled_from(TRACT_FAULTS), st.floats(0.0, 1.0, exclude_max=True)), max_size=3),
       st.sampled_from(["1e400", "1" + "0" * 400, "-0.0", "7"]))
def test_parse_tracts_equals_its_reference_at_every_batch_size(seed, n, faults, raw):
    rng = random.Random(seed)
    features = [_feature(rng, i) for i in range(n)]
    for fault, at in faults if n else ():
        _plant(rng, features, int(at * n), fault)
    assert_tracts_match_reference(_document(rng, features, raw))


def test_parse_stops_refuses_a_text_stream_that_is_not_utf8():
    with pytest.raises(IngestError, match=re.escape("input: not UTF-8 text (byte 0xed: invalid continuation byte)")):
        parse_stops(io.StringIO(STOPS_HEADER + "u\udc80,-97.8,30.2,2019-04-02T09:00:00Z,600\n"))


def test_parse_stops_memory_is_its_output_and_one_block(tmp_path):
    """The blocks' columns are concatenated one column at a time, so parsing
    50,000 rows peaks below the output columns plus one block's conversion,
    which holds its bytes and a few int64 columns per row: under ten times
    _BLOCK_BYTES. Holding every row's columns twice, or the rows as Python
    strings, costs more."""
    rng = random.Random(3)
    path = tmp_path / "stops.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(STOPS_HEADER)
        for _ in range(50_000):
            stamp = ingest.format_iso_utc(1554076800 + rng.randrange(30 * 86400))
            fh.write(f"{rng.randrange(500):032x},{rng.uniform(-98, -97):.6f},{rng.uniform(30, 31):.6f},"
                     f"{stamp},{rng.randrange(20000)}\n")
    tracemalloc.start()
    try:
        stops, report = parse_stops(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.rows_accepted == len(stops) == 50_000
    output = sum(column.nbytes for column in (stops.user, stops.lon, stops.lat, stops.start_ts, stops.dwell_s))
    assert peak < output + 10 * ingest._BLOCK_BYTES


def test_parse_tracts_memory_is_the_text_and_a_few_vertex_copies(tmp_path):
    """The decoded positions are converted a batch at a time, so parsing
    1,024 tracts of 201-vertex rings peaks below the file's bytes plus
    three float64 copies of the vertices (decoding the whole document first
    costs about 128 bytes a vertex)."""
    rng = random.Random(5)
    features = []
    for i in range(1024):
        cx, cy = -97.0 + 0.02 * (i % 32), 30.0 + 0.02 * (i // 32)
        ring = [[round(cx + 0.01 * math.cos(a) + rng.uniform(0, 1e-4), 6),
                 round(cy + 0.01 * math.sin(a) + rng.uniform(0, 1e-4), 6)]
                for a in np.linspace(0.0, 2 * math.pi, 200, endpoint=False).tolist()]
        feature = tract_feature(f"48001{i:06d}")
        feature["geometry"]["coordinates"] = [ring + [ring[0]]]
        features.append(feature)
    path = tmp_path / "tracts.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    del features
    vertex_bytes = 1024 * 201 * 16
    tracemalloc.start()
    try:
        tracts = parse_tracts(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tracts.x) == 1024 * 202
    assert peak < path.stat().st_size + 3 * vertex_bytes


def hazard_stream(*rows: str) -> io.StringIO:
    return io.StringIO("geoid,value\n" + "".join(r + "\n" for r in rows))


def test_rejects_are_numbered_by_file_line_after_a_quoted_line_break():
    _, report = parse_hazard(hazard_stream('"G\n1",0.5', "G2,abc"), "air_pollution")
    assert report.first_10_rejects == [(4, "unparseable value 'abc'")]
    text = (STOPS_HEADER + '"u\n1",1,2,2019-04-02T09:00:00Z,5\n'
            + "u2,abc,2,2019-04-02T09:00:00Z,5\nu3,1,2,2019-04-02T09:00:00Z,5\n")
    _, report = parse_stops(io.StringIO(text))
    assert [line for line, _ in report.first_10_rejects] == [4]


def test_parse_hazard_air_accepts_percentile():
    layer, report = parse_hazard(hazard_stream("G1,0.73"), "air_pollution")
    assert values_of(layer) == {"G1": 0.73}
    assert layer.geoids.dtype.kind == "U" and layer.values.dtype == np.float64
    assert report.rows_accepted == 1


def test_parse_hazard_toxic_rejects_out_of_range():
    layer, report = parse_hazard(hazard_stream("G1,1.2"), "toxic")
    assert values_of(layer) == {}
    assert report.rows_rejected == 1


def test_parse_hazard_heat_accepts_counts():
    layer, report = parse_hazard(hazard_stream("G1,41"), "heat")
    assert values_of(layer) == {"G1": 41}
    layer, report = parse_hazard(hazard_stream("G1,-3"), "heat")
    assert report.rows_rejected == 1


def test_parse_hazard_rejects_overlong_field_and_continues():
    """A field over csv.field_size_limit() costs its row, not the whole file."""
    for block in (1, 2, 4096, ingest._BLOCK_BYTES):
        with mock.patch.object(ingest, "_BLOCK_BYTES", block):
            layer, report = parse_hazard(
                hazard_stream("G1,0.5", "G" * 200_000 + ",0.6", "G3,0.7"), "air_pollution")
        assert values_of(layer) == {"G1": 0.5, "G3": 0.7}
        assert (report.rows_read, report.rows_accepted, report.rows_rejected) == (3, 2, 1)
        line_no, reason = report.first_10_rejects[0]
        assert line_no == 3
        assert reason.startswith("unreadable row: field larger than field limit")


def test_parse_hazard_duplicate_geoid_fatal():
    with pytest.raises(IngestError, match="duplicate"):
        parse_hazard(hazard_stream("G1,0.5", "G1,0.6"), "air_pollution")


def test_parse_hazard_rejects_heat_counts_a_float64_would_round():
    layer, report = parse_hazard(
        hazard_stream("G1,9007199254740992", "G2,9007199254740993", "G3,7", f"G4,{10**30}"), "heat")
    assert values_of(layer) == {"G1": 2**53, "G3": 7}
    assert layer.values.tolist() == [2.0**53, 7.0]
    assert (report.rows_read, report.rows_accepted, report.rows_rejected) == (4, 2, 2)
    assert report.first_10_rejects == [(3, "heat-day count out of range"),
                                       (5, "heat-day count out of range")]


def test_parse_hazard_rejects_geoid_ending_in_nul():
    """The str column would drop the NUL and read the row as another geoid's."""
    layer, report = parse_hazard(hazard_stream("G1\0,0.5", "G1,0.6", "G\0 2,0.7"), "toxic")
    assert values_of(layer) == {"G1": 0.6, "G\0 2": 0.7}
    assert report.first_10_rejects == [(2, "geoid ends in a NUL character")]


# One valid input per parser that reads a caller's stream.
STREAM_PARSERS = [
    (parse_stops, STOPS_HEADER + "u1,-73.9,40.7,2019-04-01T08:00:00Z,60\n"),
    (lambda source: parse_hazard(source, "toxic"), "geoid,value\nG1,0.5\n"),
    (parse_tracts, json.dumps({"type": "FeatureCollection", "features": []})),
    (ingest.read_mei, ",".join(ingest.MEI_HEADER) + "\n"),
]


@pytest.mark.parametrize("parse, text", STREAM_PARSERS)
def test_parsing_leaves_the_callers_byte_stream_open(parse, text):
    import gc

    stream = io.BytesIO(text.encode())
    parse(stream)
    gc.collect()
    assert not stream.closed
    assert stream.tell() == len(text.encode())
    bad = io.BytesIO(text.encode() + b"\xff\n")
    with pytest.raises(IngestError, match=re.escape("input: not UTF-8 text (byte 0xff")):
        parse(bad)
    gc.collect()
    assert not bad.closed


# ---------------------------------------------------------------------------
# Round trips and report determinism
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def roundtrip_world():
    return synth.gen_world(synth.WorldConfig(seed=31, grid_n=10, users=180, stops_per_user=50))


def test_stops_round_trip_through_writer(roundtrip_world, tmp_path):
    stops = roundtrip_world.stops
    assert len(stops) >= 10000
    path = tmp_path / "stops.csv"
    ingest.write_stops(stops, path)
    parsed, report = parse_stops(path)
    assert report.rows_rejected == 0
    assert_same_stops(parsed, stops)


def test_tracts_round_trip_through_writer(roundtrip_world, tmp_path):
    tracts = roundtrip_world.tracts
    assert len(tracts) == 100
    path = tmp_path / "tracts.geojson"
    ingest.write_tracts(tracts, path)
    assert_same_tracts(parse_tracts(path), tracts)


@settings(max_examples=60, deadline=None)
@given(tract_worlds(), st.sampled_from(["2-D", "3-D", "some 3-D"]))
def test_tract_worlds_round_trip_through_writer(table, dims):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tracts.geojson"
        ingest.write_tracts(table, path)
        if dims != "2-D":
            doc = json.loads(path.read_text())
            for feature in doc["features"][::1 if dims == "3-D" else 2]:
                coords = feature["geometry"]["coordinates"]
                polygons = [coords] if feature["geometry"]["type"] == "Polygon" else coords
                for ring in (ring for polygon in polygons for ring in polygon):
                    for position in ring:
                        position.append(-12.25)
            path.write_text(json.dumps(doc))
        parsed = parse_tracts(path)
    assert_same_tracts(parsed, table)


def test_hazard_round_trip_through_writer(roundtrip_world, tmp_path):
    for hazard in HAZARD_TYPES:
        layer = roundtrip_world.layers[hazard]
        path = tmp_path / f"hazard_{hazard}.csv"
        ingest.write_hazard(layer, path)
        parsed, report = parse_hazard(path, hazard)
        assert report.rows_rejected == 0
        assert values_of(parsed) == values_of(layer)


def sample_table(rows: int = 3) -> MeiTable:
    return mei_table({f"48001{i:06d}": dict(
        mei={"air_pollution": 0.25 + i / 10, "toxic": None, "heat": 1.0 / 3},
        nonhome_share={"air_pollution": 0.125, "toxic": None, "heat": 0.1},
        nonhome_conditional={"air_pollution": 0.5, "toxic": None, "heat": None},
        region_class={"air_pollution": "latent", "toxic": "none", "heat": "direct"},
    ) for i in range(rows)})


def test_write_report_empty_mei_table(tmp_path):
    dest = tmp_path / "mei.csv"
    ingest.write_report(mei_table({}), dest)
    lines = dest.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("geoid,mei_air,mei_toxic,mei_heat,")
    meta = json.loads((tmp_path / "mei.csv.meta.json").read_text())
    assert meta["rows"] == 0


def test_write_report_is_byte_deterministic(tmp_path):
    table = sample_table()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ingest.write_report(table, a, config_hash="deadbeef")
    ingest.write_report(table, b, config_hash="deadbeef")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()


def test_mei_round_trip_to_six_decimals(tmp_path):
    import random

    rng = random.Random(9)
    rows = {}
    for i in range(1000):
        mei = {h: rng.random() for h in HAZARD_TYPES}
        rows[f"48{i:09d}"] = dict(
            mei=mei,
            nonhome_share={h: mei[h] * rng.random() for h in HAZARD_TYPES},
            nonhome_conditional={h: (rng.random() if rng.random() > 0.2 else None) for h in HAZARD_TYPES},
            region_class={h: rng.choice(["direct", "latent", "none"]) for h in HAZARD_TYPES},
        )
    dest = tmp_path / "mei.csv"
    ingest.write_report(mei_table(rows), dest)
    parsed = mei_rows(ingest.read_mei(dest))
    assert list(parsed) == sorted(rows)
    for geoid, row in rows.items():
        back = parsed[geoid]
        for h in HAZARD_TYPES:
            for name in MEI_INDEXES:
                mine, theirs = row[name][h], getattr(back, name)[h]
                if mine is None:
                    assert theirs is None
                else:
                    assert abs(mine - theirs) <= 5e-7
            assert row["region_class"][h] == back.region_class[h]


# Geoid characters, quote and comma included. NUL is left out because numpy
# str arrays drop trailing NULs; CR because csv.writer, with a LF line
# terminator, leaves it unquoted and csv.reader then splits the row there.
GEOID_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r"),
                     min_size=1, max_size=11)
INDEX = st.floats(0.0, 1.0) | st.just(math.nan)


@st.composite
def mei_tables(draw) -> MeiTable:
    """MeiTables with undefined cells and all three region classes."""
    geoids = np.sort(np.array(draw(st.lists(GEOID_TEXT, max_size=25, unique=True)), dtype=str))
    n = len(geoids)

    def column():
        return np.array(draw(st.lists(INDEX, min_size=3 * n, max_size=3 * n)), dtype=np.float64).reshape(n, 3)

    return MeiTable(
        geoids=geoids, mei=column(), nonhome_share=column(), nonhome_conditional=column(),
        region=np.array(draw(st.lists(st.integers(0, 2), min_size=3 * n, max_size=3 * n)),
                        dtype=np.int8).reshape(n, 3),
    )


def six_decimals(column: np.ndarray) -> list[str]:
    return [format6(None if v != v else v) for v in column.ravel().tolist()]


@settings(max_examples=200, deadline=None)
@given(mei_tables())
@example(MeiTable(
    geoids=np.array(["48001000001", "48001000002", "48001000003", 'a,"b"\nc'], dtype=str),
    mei=np.array([[0.1234565, math.nan, 1.0]] * 4), nonhome_share=np.zeros((4, 3)),
    nonhome_conditional=np.full((4, 3), math.nan),
    region=np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 0, 0]], dtype=np.int8)))
def test_mei_table_round_trips_through_writer_and_read_mei(table):
    """read_mei(write_report(table)) is the table at 6 decimals."""
    with tempfile.TemporaryDirectory() as tmp:
        dest = Path(tmp) / "mei.csv"
        ingest.write_report(table, dest)
        back = ingest.read_mei(dest)
        assert json.loads(Path(f"{dest}.meta.json").read_text())["rows"] == len(table)
    assert back.geoids.tolist() == table.geoids.tolist()
    for name in ("mei", "nonhome_share", "nonhome_conditional"):
        assert six_decimals(getattr(back, name)) == six_decimals(getattr(table, name)), name
    assert back.region.tolist() == table.region.tolist()


def _mei_csv(tmp_path, *rows: str):
    dest = tmp_path / "mei.csv"
    dest.write_text(",".join(ingest.MEI_HEADER) + "\n" + "".join(r + "\n" for r in rows))
    return dest


GOOD_MEI_ROW = "48001000001,0.5,0.25,0.1,0.1,0.1,0.0,,,,latent,none,direct"


@pytest.mark.parametrize("bad, reason", [
    (GOOD_MEI_ROW.replace(",0.5,", ",abc,", 1), "unparseable field"),
    (GOOD_MEI_ROW + ",extra", "expected 13 fields, got 14"),
    ("48001000002,0.5", "expected 13 fields, got 2"),
    (GOOD_MEI_ROW.replace(",0.5,", ",1.5,", 1), "outside [0, 1]"),
    (GOOD_MEI_ROW.replace("latent", "bogus"), "invalid class"),
    pytest.param(GOOD_MEI_ROW.replace(",0.1,0.1,0.1,", ",1.4,0.1,0.1,"), "line 3: mei[heat]: outside [0, 1]",
                 id="heat-index-above-1"),
    pytest.param(GOOD_MEI_ROW.replace(",direct", ",weird"), "line 3: region_class[heat]: invalid class",
                 id="heat-class-unknown"),
    pytest.param(GOOD_MEI_ROW.replace(",0.0,", ",nan,"), "line 3: nonhome_share[heat]: outside [0, 1]",
                 id="nan-text"),
    pytest.param(GOOD_MEI_ROW.replace(",0.25,", ",inf,"), "line 3: mei[toxic]: outside [0, 1]", id="inf"),
    pytest.param(GOOD_MEI_ROW.replace(",0.25,", ",1.5,").replace("latent", "bogus"),
                 "line 3: region_class[air_pollution]: invalid class", id="mixed-faults-air-class-first"),
    pytest.param(GOOD_MEI_ROW.replace(",0.25,", ",1.5,").replace(",0.0,", ",abc,"),
                 "line 3: unparseable field: could not convert string to float: 'abc'",
                 id="mixed-faults-parse-first"),
    pytest.param(GOOD_MEI_ROW.replace("48001000001", "48001000001\0"), "line 3: geoid ends in a NUL character",
                 id="geoid-nul"),
])
def test_read_mei_rejects_bad_row_naming_line(tmp_path, bad, reason):
    # A good first row under another geoid, so that line 3 is no duplicate.
    dest = _mei_csv(tmp_path, GOOD_MEI_ROW.replace("48001000001", "48001000000"), bad)
    with pytest.raises(IngestError, match=r"line 3: .*") as info:
        ingest.read_mei(dest)
    assert reason in str(info.value)


def test_read_mei_accepts_good_row(tmp_path):
    row = mei_rows(ingest.read_mei(_mei_csv(tmp_path, GOOD_MEI_ROW)))["48001000001"]
    assert row.mei["air_pollution"] == 0.5
    assert row.nonhome_conditional["heat"] is None
    assert row.region_class["heat"] == "direct"


def test_read_mei_duplicate_geoid_is_fatal(tmp_path):
    """A repeated geoid is fatal, worded as parse_hazard words it; read_mei sorts by geoid."""
    late = GOOD_MEI_ROW.replace("48001000001", "48001000009")
    assert ingest.read_mei(_mei_csv(tmp_path, late, GOOD_MEI_ROW)).geoids.tolist() == ["48001000001", "48001000009"]
    with pytest.raises(IngestError) as info:
        ingest.read_mei(_mei_csv(tmp_path, late, GOOD_MEI_ROW, late.replace(",0.5,", ",0.75,", 1)))
    assert str(info.value) == "line 4: duplicate geoid 48001000009"


def reference_parse_hazard(text: str):
    """parse_hazard() of a percentile layer, row by row: the accepted geoids
    and values in file order, and the report's counts and first rejects."""
    report = ingest.IngestReport()
    values = {}
    for line_no, row in reference_rows(text, "hazard", ["geoid", "value"]):
        report.rows_read += 1
        if isinstance(row, str):
            report.reject(line_no, row)
            continue
        if len(row) != 2:
            report.reject(line_no, f"expected 2 fields, got {len(row)}")
            continue
        geoid, raw = row
        if geoid in values:
            raise IngestError(f"line {line_no}: duplicate geoid {geoid}")
        if geoid.endswith("\0"):
            report.reject(line_no, "geoid ends in a NUL character")
            continue
        try:
            value = float(raw)
        except ValueError:
            report.reject(line_no, f"unparseable value {raw!r}")
            continue
        if not 0.0 <= value <= 1.0:
            report.reject(line_no, "percentile rank outside [0, 1]")
            continue
        values[geoid] = value
        report.rows_accepted += 1
    return (list(values), list(values.values()), report.rows_read, report.rows_accepted, report.rows_rejected,
            report.first_10_rejects)


def _reference_mei_fault(row, seen) -> str | None:
    """The first fault of a mei.csv row (or the reason it is unreadable), in
    field order, as read_mei() words it."""
    if isinstance(row, str):
        return row
    if len(row) != 13:
        return f"expected 13 fields, got {len(row)}"
    if row[0] in seen:
        return f"duplicate geoid {row[0]}"
    if row[0].endswith("\0"):
        return "geoid ends in a NUL character"
    try:
        cells = [float(cell) if cell else math.nan for cell in row[1:10]]
    except ValueError as exc:
        return f"unparseable field: {exc}"
    for k, hazard in enumerate(HAZARD_TYPES):
        for i, index in enumerate(MEI_INDEXES):
            if row[1 + 3 * i + k] and not 0.0 <= cells[3 * i + k] <= 1.0:
                return f"{index}[{hazard}]: outside [0, 1]"
        if row[10 + k] not in REGIONS:
            return f"region_class[{hazard}]: invalid class"
    return None


def reference_read_mei(text: str):
    """read_mei() row by row: the geoids in geoid order, their nine index
    cells as float64 bytes and their region codes."""
    rows = {}
    for line_no, row in reference_rows(text, "mei.csv", ingest.MEI_HEADER):
        fault = _reference_mei_fault(row, rows)
        if fault is not None:
            raise IngestError(f"line {line_no}: {fault}")
        rows[row[0]] = ([float(cell) if cell else math.nan for cell in row[1:10]], list(map(REGIONS.index, row[10:])))
    geoids = sorted(rows)
    return (geoids, np.array([rows[g][0] for g in geoids], dtype=np.float64).reshape(-1, 9).tobytes(),
            [rows[g][1] for g in geoids])


def _hazard_outcome(source):
    layer, report = parse_hazard(source, "air_pollution")
    return (layer.geoids.tolist(), layer.values.tolist(), report.rows_read, report.rows_accepted,
            report.rows_rejected, report.first_10_rejects)


def _mei_outcome(source):
    table = ingest.read_mei(source)
    cells = np.hstack([table.mei, table.nonhome_share, table.nonhome_conditional])
    return table.geoids.tolist(), cells.tobytes(), table.region.tolist()


def _outcome(parse, *args):
    """What parse(*args) returns, or the text of the IngestError it raises."""
    try:
        return parse(*args)
    except IngestError as exc:
        return str(exc)


def csv_edge_files(header: str, a: str, b: str, c: str) -> dict[str, str]:
    """Files of a header line and the rows a, b and c, one for each edge of
    the line-break rule, each under its name."""
    plain = "".join(line + "\n" for line in (header, a, b, c))

    def broken(row: str, line_break: str) -> str:  # the row, its first field quoted around a line break
        return '"' + row.replace(",", line_break + '",', 1)

    quoted_breaks = (header, broken(a, "\r\n\r"), broken(b, "\n"), broken(c, "\r"))

    return {
        "plain": plain,
        "empty": "",
        "header only": header + "\n",
        "header only without LF": header,
        "lone CR": f"{header}\n{a}\r{b}\n{c}\n",
        "last row ending in CR": plain[:-1] + "\r",
        "CRLF": plain.replace("\n", "\r\n"),
        "last row without LF": plain[:-1],
        "blank lines": f"{header}\n\n{a}\n\n\n{b}\n{c}",
        "quoted, CRLF": "".join('"' + line.replace(",", '","') + '"\r\n' for line in (header, a, b, c)),
        "quoted line breaks": "".join(line + "\n" for line in quoted_breaks),
        "field over the limit": f"{header}\n{a}\n{'G' * 200_000}{b[b.index(','):]}\n{c}\n",
        "quote open at the end": f'{header}\n{a}\n"{b}\n{c}\n',
        "BOM": "\ufeff" + plain,
    }


HAZARD_EDGE_FILES = csv_edge_files("geoid,value", "G1,0.5", "G2,abc", "G3,0.7")
MEI_ROWS = [GOOD_MEI_ROW.replace("48001000001", geoid) for geoid in ("48001000003", "48001000001", "48001000002")]
MEI_EDGE_FILES = csv_edge_files(",".join(ingest.MEI_HEADER), *MEI_ROWS)
# The same files with a fault in their second row, which read_mei() names by its line.
MEI_FAULT_FILES = csv_edge_files(",".join(ingest.MEI_HEADER), MEI_ROWS[0],
                                 MEI_ROWS[1].replace("latent", "bogus"), MEI_ROWS[2])


def _assert_outcome_equals_reference(outcome, text: str, expected) -> None:
    for block in BLOCK_SIZES:
        for source in each_source(text):
            with mock.patch.object(ingest, "_BLOCK_BYTES", block):
                assert _outcome(outcome, source) == expected, (block, source)


@pytest.mark.parametrize("name", HAZARD_EDGE_FILES)
def test_parse_hazard_edge_files_equal_row_by_row_parse(name):
    """The same bytes give the same layer and report from every source at every block size."""
    text = HAZARD_EDGE_FILES[name]
    _assert_outcome_equals_reference(_hazard_outcome, text, _outcome(reference_parse_hazard, text))


@pytest.mark.parametrize("files", [MEI_EDGE_FILES, MEI_FAULT_FILES], ids=["good", "fault"])
@pytest.mark.parametrize("name", MEI_EDGE_FILES)
def test_read_mei_edge_files_equal_row_by_row_parse(files, name):
    """The same bytes give the same table, or the same fault, from every source at every block size."""
    text = files[name]
    _assert_outcome_equals_reference(_mei_outcome, text, _outcome(reference_read_mei, text))


def test_write_report_curves_and_unknown(tmp_path):
    curves = [
        PopulationCurve(hazard_type="heat", points=[(0.05, 1200), (0.1, 300)]),
        PopulationCurve(hazard_type="air_pollution", points=[(0.05, 10), (0.1, 0)]),
    ]
    dest = tmp_path / "curves.csv"
    ingest.write_report(CurveTable(curves), dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "hazard,threshold,population"
    # canonical hazard order regardless of list order
    assert lines[1].startswith("air_pollution,")
    assert lines[3].startswith("heat,")
    assert json.loads((tmp_path / "curves.csv.meta.json").read_text())["rows"] == 4
    with pytest.raises(IngestError, match="write_report does not handle object"):
        ingest.write_report(object(), tmp_path / "nope.csv")
    with pytest.raises(IngestError, match="write_report does not handle list"):
        ingest.write_report(curves, tmp_path / "list.csv")
    assert not (tmp_path / "list.csv").exists()


def test_write_report_sidecar_counts_the_rows_written(tmp_path):
    """The sidecar counts the rows csv_rows() yields, not the lines they take."""
    class Generated:
        header = ("a", "b")

        def csv_rows(self):
            yield from (("1", "x"), ("2", "two\nlines"), ("3", ""))

    dest = tmp_path / "generated.csv"
    ingest.write_report(Generated(), dest)
    assert dest.read_text() == 'a,b\n1,x\n2,"two\nlines"\n3,\n'
    assert json.loads((tmp_path / "generated.csv.meta.json").read_text())["rows"] == 3


def test_write_report_unwritable_destination_fatal(tmp_path):
    with pytest.raises(IngestError):
        ingest.write_report(sample_table(), tmp_path / "missing_dir" / "mei.csv")


def write_mask(layer: HazardLayer, masked: frozenset, dest) -> tuple[int, int]:
    values = values_of(layer)
    rows = ([g, repr(values[g]), str(int(g in masked))] for g in sorted(values))
    return ingest._write_csv(dest, ["geoid", "value", "high_hazard"], rows)


def write_homes(assignments: dict[str, str], dest) -> tuple[int, int]:
    rows = ([u, assignments[u]] for u in sorted(assignments))
    return ingest._write_csv(dest, ["user_id", "geoid"], rows)


def test_write_mask_and_homes(tmp_path):
    layer = layer_of("toxic", {"G2": 0.8, "G1": 0.2})
    write_mask(layer, masked_set(classify_percentile(layer, ["G1", "G2"]), ["G1", "G2"]), tmp_path / "mask.csv")
    assert (tmp_path / "mask.csv").read_text() == "geoid,value,high_hazard\nG1,0.2,0\nG2,0.8,1\n"
    write_homes({"u2": "G1", "u1": "G2"}, tmp_path / "homes.csv")
    assert (tmp_path / "homes.csv").read_text() == "user_id,geoid\nu1,G2\nu2,G1\n"
