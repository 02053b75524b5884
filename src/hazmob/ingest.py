"""File ingestion and report output.

Every byte-level format lives here: the stops/hazard CSV schemas, the
tract GeoJSON schema, and the deterministic report CSVs with their JSON
metadata sidecars. Data-row problems are rejected row by row and counted;
structural problems (bad header, duplicate keys, broken geometry) abort
with IngestError.

The three CSV inputs (stops, hazard layers, mei.csv) share one reader,
_csv_chunks(), which checks the header with one wording and yields rows
with the file line each starts on. Each input rule is stated once: stop
bounds in model.STOP_BOUNDS, the canonical timestamp layout in
_canonical_epochs(), hazard rows in parse_hazard(), mei.csv rows in
read_mei().

parse_stops() returns one model.Stops frame of numpy columns. It checks
and converts whole chunks of rows at once; only rows those checks do not
accept take the scalar row path, which words each reject exactly as a
row-by-row parse would.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, filterfalse, islice, repeat
from operator import itemgetter, mul
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .model import (
    HAZARD_TYPES,
    MEI_HEADER,
    REGIONS,
    STOP_BOUNDS,
    CensusTract,
    HazardLayer,
    MeiTable,
    StopRecord,
    Stops,
    TractTable,
    csr_offsets,
    is_geoid,
    validate,
)

STOPS_HEADER = ["user_id", "lon", "lat", "start_ts", "dwell_s"]
HAZARD_HEADER = ["geoid", "value"]


class IngestError(Exception):
    """Fatal structural problem in an input file or an unwritable output."""


@dataclass(slots=True)
class IngestReport:
    """Row accounting for one parsed file."""

    rows_read: int = 0
    rows_accepted: int = 0
    rows_rejected: int = 0
    first_10_rejects: list[tuple[int, str]] = field(default_factory=list)

    def reject(self, line_no: int, reason: str) -> None:
        self.rows_rejected += 1
        if len(self.first_10_rejects) < 10:
            self.first_10_rejects.append((line_no, reason))


@contextmanager
def _text(source: str | Path | IO) -> Iterator[IO]:
    """A text-mode handle on a path, text stream or byte stream, closed on
    exit if opened here; a caller's byte stream is left open. Bytes that
    are not UTF-8 are an IngestError that names the source."""
    owned = isinstance(source, (str, Path))
    if owned:
        try:
            handle = open(source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise IngestError(f"cannot read {source}: {exc}") from exc
    elif hasattr(source, "read"):
        handle = source
        if isinstance(source.read(0), bytes):
            handle = io.TextIOWrapper(source, encoding="utf-8", newline="")
    else:
        raise IngestError(f"unreadable source: {type(source).__name__}")
    try:
        yield handle
    except UnicodeDecodeError as exc:
        name = source if owned else getattr(source, "name", "input")
        byte = exc.object[exc.start]
        raise IngestError(f"{name}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from exc
    finally:
        if owned:
            handle.close()
        elif handle is not source:
            # A collected wrapper would close the stream it wraps.
            handle.detach()


def parse_iso_utc(text: str) -> int:
    """Parse an ISO 8601 timestamp to integer epoch seconds; one without an
    offset is UTC.

    Raises ValueError on anything datetime.fromisoformat rejects.
    """
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_iso_utc(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# The CSV readers read this many rows at a time; it bounds the rows held
# as Python strings. Results do not depend on it.
_CHUNK_ROWS = 4096
_STOP_DTYPES = (np.int32, np.float64, np.float64, np.int64, np.int64, np.int64)
_UNREAD = -(2**63)  # below every epoch parse_iso_utc() returns


def parse_stops(source: str | Path | IO) -> tuple[Stops, IngestReport]:
    """Parse a stops CSV into a Stops frame, rejecting malformed rows and keeping row order.

    Rows are read _CHUNK_ROWS at a time. Coordinates and dwell go through
    float() and int() as in the scalar row path, canonical timestamps are
    decoded as a byte matrix, and every range check runs on whole columns.
    A row that fails only because its timestamp is not canonical is read
    with parse_iso_utc(). Any other row the column checks do not accept
    goes through the scalar row path, which decides and words its reject,
    so rejects and their reasons are those of a row-by-row parse.
    """
    report = IngestReport()
    users: dict[str, int] = {}
    with _csv_chunks(source, "stops", STOPS_HEADER) as chunks:
        parsed = [_parse_chunk(rows, lines, report, users) for rows, lines in chunks]
    if parsed:
        columns = [np.concatenate(column) for column in zip(*parsed)]
    else:
        columns = [np.empty(0, dtype) for dtype in _STOP_DTYPES]
    user, lon, lat, start_ts, dwell_s, lines = columns
    stops = Stops(user=user, user_ids=np.array(list(users), dtype=object), lon=lon, lat=lat,
                  start_ts=start_ts, dwell_s=dwell_s, line=lines)
    return stops, report


class _Unreadable(list):
    """Stands in for a row the CSV reader could not read, such as one with a
    field over csv.field_size_limit(); it has no fields and holds the reason
    and the line the reader had reached."""

    def __init__(self, reason: str, line: int):
        super().__init__()
        self.reason = reason
        self.line = line


def _read_rows(reader, n: int) -> list[list[str]]:
    """Up to n rows from a CSV reader; a row it cannot read becomes an _Unreadable."""
    rows: list[list[str]] = []
    while True:
        try:
            rows.extend(islice(reader, n - len(rows)))  # keeps the rows read before an error
            return rows
        except csv.Error as exc:
            rows.append(_Unreadable(f"unreadable row: {exc}", reader.line_num))


def _chunks(reader):
    """Yield the rows of a CSV reader _CHUNK_ROWS at a time, each chunk with
    the int64 file line each of its rows starts on.

    A chunk that read as many lines as rows has one row per line. Otherwise
    a quoted field holds a line break, and each row's line is counted from
    the line breaks in its fields.
    """
    while True:
        before = reader.line_num
        rows = _read_rows(reader, _CHUNK_ROWS)
        if not rows:
            return
        if reader.line_num - before == len(rows):
            yield rows, np.arange(before + 1, reader.line_num + 1, dtype=np.int64)
            continue
        lines = []
        end = before
        for row in rows:
            lines.append(end + 1)
            if isinstance(row, _Unreadable):
                end = max(end + 1, row.line)
            else:
                end += 1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
        yield rows, np.array(lines, dtype=np.int64)


@contextmanager
def _csv_chunks(source: str | Path | IO, what: str, header: list[str]) -> Iterator[Iterator]:
    """The data rows of a CSV source, as _chunks() yields them.

    The source is opened with _text(). Its first row must be header: a
    source without one, or with another, is an IngestError worded
    `<what> file is empty (missing header)` or `bad <what> header: ...`.
    """
    with _text(source) as handle:
        reader = csv.reader(handle)
        first = _read_rows(reader, 1)
        if not first:
            raise IngestError(f"{what} file is empty (missing header)")
        got = first[0].reason if isinstance(first[0], _Unreadable) else first[0]
        if got != header:
            raise IngestError(f"bad {what} header: expected {header}, got {got}")
        yield _chunks(reader)


def _parse_chunk(rows: list[list[str]], lines: np.ndarray, report: IngestReport,
                 users: dict[str, int]) -> tuple[np.ndarray, ...]:
    """Columns (user code, lon, lat, start_ts, dwell_s, line) of a chunk's accepted rows.

    lines holds each row's file line. Rejects are recorded in line order;
    users first seen here get the next codes.
    """
    n = len(rows)
    lon, lat = np.zeros(n), np.zeros(n)
    start_ts, dwell_s = np.zeros(n, np.int64), np.zeros(n, np.int64)
    accepted = np.zeros(n, dtype=bool)
    five = np.flatnonzero(np.fromiter(map(len, rows), np.int64, n) == 5)
    if len(five):
        good = rows if len(five) == n else list(map(rows.__getitem__, five.tolist()))
        m = len(good)
        ok = _within("user_id", np.fromiter(map(len, map(itemgetter(0), good)), np.int64, m))
        for column, k, name in ((lon, 1, "lon"), (lat, 2, "lat")):
            values = np.fromiter(_map_lenient(float, map(itemgetter(k), good), math.nan), np.float64, m)
            ok &= _within(name, values)
            column[five] = values
        low, high, *_ = STOP_BOUNDS["dwell_s"]
        values = _map_lenient(int, map(itemgetter(4), good), low - 1)
        try:
            values = np.array(values, dtype=np.int64)
        except OverflowError:  # beyond int64, so beyond the bounds
            values = np.array([v if low <= v <= high else low - 1 for v in values], dtype=np.int64)
        ok &= _within("dwell_s", values)
        dwell_s[five] = values
        canonical, start_ts[five] = _canonical_epochs(list(map(itemgetter(3), good)))
        accepted[five] = ok & canonical
        # A row whose only fault is a non-canonical timestamp is accepted
        # when parse_iso_utc() reads it.
        retry = five[ok & ~canonical]
        texts = map(itemgetter(3), map(rows.__getitem__, retry.tolist()))
        stamps = np.fromiter(_map_lenient(parse_iso_utc, texts, _UNREAD), np.int64, len(retry))
        start_ts[retry] = stamps
        accepted[retry[stamps != _UNREAD]] = True

    # Everything else takes the scalar row path, in line order.
    for i in np.flatnonzero(~accepted).tolist():
        rec = _scalar_stop(rows[i])
        if isinstance(rec, str):
            report.reject(int(lines[i]), rec)
            continue
        lon[i], lat[i], start_ts[i], dwell_s[i] = rec.lon, rec.lat, rec.start_ts, rec.dwell_s
        accepted[i] = True
    report.rows_read += n
    keep = np.flatnonzero(accepted)
    report.rows_accepted += len(keep)

    names = list(map(itemgetter(0), map(rows.__getitem__, keep.tolist())))
    fresh = list(filterfalse(users.__contains__, dict.fromkeys(names)))
    users.update(zip(fresh, range(len(users), len(users) + len(fresh))))
    user = np.fromiter(map(users.__getitem__, names), np.int32, len(names))
    return user, lon[keep], lat[keep], start_ts[keep], dwell_s[keep], lines[keep]


def _within(name: str, values: np.ndarray) -> np.ndarray:
    """Which values lie within the stop field's bounds (model.STOP_BOUNDS); NaN does not."""
    low, high, *_ = STOP_BOUNDS[name]
    return (low <= values) & (values <= high)


def _map_lenient(convert, texts, fill) -> list:
    """[convert(t) for t in texts], with `fill` where convert raises ValueError.

    The conversion runs as a C-level map, resumed after each failure.
    """
    out: list = []
    it = iter(texts)
    while True:
        try:
            out.extend(map(convert, it))
            return out
        except ValueError:
            out.append(fill)


def _scalar_stop(row: list[str]) -> StopRecord | str:
    """The row path: the row's record, or the reason it is rejected."""
    if isinstance(row, _Unreadable):
        return row.reason
    if len(row) != 5:
        return f"expected 5 fields, got {len(row)}"
    try:
        rec = StopRecord(
            user_id=row[0],
            lon=float(row[1]),
            lat=float(row[2]),
            start_ts=parse_iso_utc(row[3]),
            dwell_s=int(row[4]),
        )
    except (ValueError, IndexError) as exc:
        return f"unparseable field: {exc}"
    violations = validate(rec)
    return violations[0] if violations else rec


# Byte layout of a canonical YYYY-MM-DDTHH:MM:SSZ timestamp.
_TS_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_TS_SEPARATORS = np.array([4, 7, 10, 13, 16, 19])
_TS_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _canonical_epochs(texts) -> tuple[np.ndarray, np.ndarray]:
    """Which texts are valid canonical UTC timestamps, and their epoch seconds.

    This is the one statement of the canonical layout: ASCII
    YYYY-MM-DDTHH:MM:SSZ with a real date in years 1-9999, hour 00-23,
    minute and second 00-59. Each such string gets the value
    parse_iso_utc() gives it; other entries are False with epoch 0, and
    parse_stops() retries them with parse_iso_utc(). Dates become days with
    H. Hinnant's days_from_civil.
    """
    n = len(texts)
    ok = np.fromiter(map(len, texts), np.int64, n) == 20
    picked = np.flatnonzero(ok)
    epochs = np.zeros(n, dtype=np.int64)
    if not len(picked):
        return ok, epochs
    same = texts if len(picked) == n else list(map(texts.__getitem__, picked.tolist()))
    # Non-ASCII characters become "?", one byte each, and fail the checks.
    raw = np.frombuffer("".join(same).encode("ascii", "replace"), dtype=np.uint8).reshape(-1, 20)
    valid = (raw[:, _TS_SEPARATORS] == _TS_TEMPLATE[_TS_SEPARATORS]).all(axis=1)
    digits = raw[:, _TS_DIGITS] - np.uint8(48)  # non-digits wrap past 9
    valid &= (digits <= 9).all(axis=1)
    d = digits.astype(np.int64)
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month = d[:, 4] * 10 + d[:, 5]
    day = d[:, 6] * 10 + d[:, 7]
    hour, minute, second = d[:, 8] * 10 + d[:, 9], d[:, 10] * 10 + d[:, 11], d[:, 12] * 10 + d[:, 13]
    valid &= (year >= 1) & (1 <= month) & (month <= 12) & (hour <= 23) & (minute <= 59) & (second <= 59)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.clip(month, 1, 12) - 1] + (leap & (month == 2))
    valid &= (1 <= day) & (day <= month_days)
    # days_from_civil: years start in March, so February's leap day is last.
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * np.where(month > 2, month - 3, month + 9) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    ok[picked] = valid
    epochs[picked] = np.where(valid, days * 86400 + hour * 3600 + minute * 60 + second, 0)
    return ok, epochs


# A GeoJSON position's first two members must be JSON numbers (true and
# false are not); the rest, such as an altitude, are ignored.
_NUMBER_TYPES = frozenset({int, float})
# A tuple, not a set: the type member of a JSON object may be unhashable.
_GEOMETRY_TYPES = ("Polygon", "MultiPolygon")
_MISSING = object()  # stands in for a demographic property a feature lacks
# Each demographic property: its GeoJSON key, CensusTract field, value
# types, range and rule.
_DEMOGRAPHICS = (
    ("POP", "population", frozenset({int}), 0, math.inf, "must be a non-negative integer"),
    ("PCT_MINORITY", "pct_minority", _NUMBER_TYPES, 0.0, 1.0, "must be a fraction in [0, 1]"),
    ("PCT_POV200", "pct_below_poverty200", _NUMBER_TYPES, 0.0, 1.0, "must be a fraction in [0, 1]"),
)
_DEMOGRAPHIC_KEYS = tuple(key for key, *_ in _DEMOGRAPHICS)
_ALL_MISSING = (_MISSING,) * len(_DEMOGRAPHICS)
# The tract parser converts decoded positions this many at a time; it bounds
# the positions held as JSON lists. Results do not depend on it.
_BATCH_POSITIONS = 4096


def parse_tracts(source: str | Path | IO) -> TractTable:
    """Parse a GeoJSON FeatureCollection of census tracts into a TractTable.

    A broken feature is fatal, and the first one is named, with its part
    and ring where the fault lies in one: a GEOID that is missing, repeated
    or not 11 ASCII digits; a geometry that is not a Polygon or
    MultiPolygon, or has an empty part; a ring with fewer than 4
    positions, a position that is not an array of at least two numbers, a
    non-finite coordinate, or first and last positions that differ; a
    population that is not a non-negative integer, or a fraction outside
    [0, 1].

    The decoder hands every Polygon and MultiPolygon object to a _Packer as
    it finishes it, which converts the positions into float64 blocks,
    _BATCH_POSITIONS at a time, and drops the lists. So the decoded
    positions alive at once are one batch plus one geometry; beyond the
    file's text, the vertices cost a few float64 copies of 16 bytes each.
    The feature loop then reads geoids, demographics and geometry numbers,
    and the checks on rings and demographics run on whole columns.
    """
    # The decoded features hold no reference cycles, so the cycle collector
    # would only walk their dicts. It stays off until _tract_table() has
    # returned and they are freed.
    with _text(source) as handle:
        collecting = gc.isenabled()
        gc.disable()
        try:
            return _tract_table(handle)
        finally:
            if collecting:
                gc.enable()


def _tract_table(handle: IO) -> TractTable:
    packer = _Packer()
    try:
        doc = json.load(handle, object_hook=packer.hook)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid GeoJSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise IngestError("tracts file is not a GeoJSON FeatureCollection")
    # The features before the first structural fault, which ends the scan,
    # and the geometries read before it, the faulty feature's included.
    geoids: dict[str, None] = {}
    demographics: list[tuple] = []
    read: list[int] = []
    fault = None
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise IngestError("tracts file is not a GeoJSON FeatureCollection: features is not an array")
    for idx, feat in enumerate(features):
        if not isinstance(feat, dict):
            fault = "not a JSON object"
        elif not isinstance(props := feat.get("properties") or {}, dict):
            fault = "properties: not a JSON object"
        elif not isinstance(geometry := feat.get("geometry") or {}, dict):
            fault = "geometry: not a JSON object"
        elif not isinstance(geoid := props.get("GEOID"), str) or not geoid:
            fault = "missing GEOID property"
        elif not is_geoid(geoid):
            fault = f"geoid: must be 11 ASCII digits, got {geoid!r}"
        elif geoid in geoids:
            fault = f"duplicate GEOID {geoid}"
        elif (kind := geometry.get("type")) not in _GEOMETRY_TYPES:
            fault = f"geometry must be Polygon or MultiPolygon, got {kind}"
        else:
            # The packer put the geometry's number in place of its coordinates.
            read.append(geometry["coordinates"])
            fault = packer.faults.get(read[-1])
        if fault is not None:
            fault = f"feature {idx}: {fault}"
            break
        geoids[geoid] = None
        demographics.append(tuple(map(props.get, _DEMOGRAPHIC_KEYS, _ALL_MISSING)))

    # A fault in a ring comes before every fault of a later ring or feature,
    # and a feature's properties are checked after its rings.
    xy, sizes, malformed, rings_per_part, parts_per_tract = packer.take(read)
    parts_per_tract = parts_per_tract[:len(geoids)]  # a faulty feature's geometry is read, but it is no tract
    ring_fault = _ring_fault(xy, sizes, malformed)
    if ring_fault is not None:
        ring, problem = ring_fault
        # The ring's part and tract; both may be the faulty feature's, which
        # the counts do not include yet.
        part_first, tract_first = csr_offsets(rings_per_part), csr_offsets(parts_per_tract)
        p = int(np.searchsorted(part_first, ring, side="right")) - 1
        t = int(np.searchsorted(tract_first, p, side="right")) - 1
        place = f"part {p - tract_first[t]} ring {ring - part_first[p]}"
        fault = f"feature {t}: {problem.format(place)}"
        demographics = demographics[:t]
    fault = _demographic_fault(demographics) or fault
    if fault is not None:
        raise IngestError(fault)
    columns = list(zip(*demographics)) or [[]] * len(_DEMOGRAPHICS)
    return TractTable.from_vertices(list(geoids), *columns, xy, sizes, rings_per_part, parts_per_tract)


class _Packer:
    """json.load's object_hook for a tract file: it packs each Polygon or
    MultiPolygon object into float64 vertex blocks as the decoder finishes it.

    Wherever such an object lies, even where no feature loop reads it, its
    rings are checked for structure up to its first structural fault and
    queued, and its coordinates are replaced by its geometry number. Each
    batch of _BATCH_POSITIONS queued positions is converted and dropped.
    take() returns the columns of the geometries the feature loop read.
    """

    def __init__(self):
        self.first_ring: list[int] = []  # per geometry, in the order finished
        self.first_part: list[int] = []
        self.faults: dict[int, str] = {}  # geometry number -> its structural fault
        self.sizes: list[int] = []  # positions per ring
        self.rings_per_part: list[int] = []  # per part with no structural fault
        self.malformed: dict[int, int] = {}  # ring number -> its first malformed position
        self.blocks: list[np.ndarray] = []
        self.batch: list[list] = []  # rings decoded but not converted
        self.batch_positions = 0

    def hook(self, obj: dict) -> dict:
        kind = obj.get("type")
        if kind not in _GEOMETRY_TYPES:
            return obj
        coordinates = obj.get("coordinates")
        g = obj["coordinates"] = len(self.first_ring)
        self.first_ring.append(len(self.sizes))
        self.first_part.append(len(self.rings_per_part))
        fault = self._add_rings([coordinates] if kind == "Polygon" else coordinates)
        if fault is not None:
            self.faults[g] = fault
        if self.batch_positions >= _BATCH_POSITIONS:
            self._flush()
        return obj

    def _add_rings(self, parts) -> str | None:
        """Queue the rings of a geometry's parts, and count its rings per
        part, up to its first structural fault; return that fault, if any."""
        if type(parts) is not list:
            return "malformed coordinates"
        batch, sizes = self.batch, self.sizes
        for pi, part in enumerate(parts):
            if type(part) is not list:
                return f"malformed part {pi}"
            for ri, ring in enumerate(part):
                if type(ring) is not list:
                    return f"malformed part {pi} ring {ri}"
                batch.append(ring)
                sizes.append(len(ring))
                self.batch_positions += len(ring)
            self.rings_per_part.append(len(part))
        if not parts or not all(parts):
            return "empty geometry"
        return None

    def _flush(self) -> None:
        self._pack(self.batch, len(self.sizes) - len(self.batch))
        self.batch = []
        self.batch_positions = 0

    def _pack(self, rings: list, first: int) -> None:
        """Append the vertices of rings, numbered from first, as blocks. A
        ring with a malformed position gets NaN vertices and the position is
        recorded; the rings around it are converted all the same."""
        xy = _vertices(rings)
        if xy is not None:
            self.blocks.append(xy)
        elif len(rings) == 1:
            self.malformed[first] = next(k for k, position in enumerate(rings[0]) if not _is_position(position))
            self.blocks.append(np.full((len(rings[0]), 2), math.nan))
        else:
            half = len(rings) // 2
            self._pack(rings[:half], first)
            self._pack(rings[half:], first + half)

    def take(self, geometries: list[int]) -> tuple[np.ndarray, ...]:
        """The columns of the given geometries, in order: their vertices as
        the rows of an (n, 2) array, each ring's position count and first
        malformed position (-1 if none), the ring count of each part and the
        part count of each geometry."""
        self._flush()
        chosen = np.zeros(len(self.first_ring), dtype=bool)
        geometries = np.array(geometries, dtype=np.int64)
        chosen[geometries] = True
        ring_chosen = np.repeat(chosen, np.diff(self.first_ring + [len(self.sizes)]))
        part_counts = np.diff(self.first_part + [len(self.rings_per_part)])
        sizes = np.array(self.sizes, dtype=np.int64)
        malformed = np.full(len(sizes), -1, dtype=np.int64)
        malformed[list(self.malformed)] = list(self.malformed.values())
        xy = np.concatenate(self.blocks) if self.blocks else np.empty((0, 2))
        self.blocks = []
        if not ring_chosen.all():
            xy = xy[np.repeat(ring_chosen, sizes)]
        rings_per_part = np.array(self.rings_per_part, dtype=np.int64)[np.repeat(chosen, part_counts)]
        return xy, sizes[ring_chosen], malformed[ring_chosen], rings_per_part, part_counts[geometries]


def _vertices(rings: list) -> np.ndarray | None:
    """lon and lat of every position of the rings, as an (n, 2) float64
    array; None if a position is not an array of at least two numbers."""
    positions = list(chain.from_iterable(rings))
    try:
        dims = set(map(len, positions))
        if min(dims, default=2) < 2:
            return None
        # x * 1.0 raises for every JSON value but a number or a boolean, and a
        # boolean reads as 0.0 or 1.0: only those values are looked at.
        pairs = positions if dims == {2} else map(itemgetter(0, 1), positions)
        xy = np.fromiter(map(mul, chain.from_iterable(pairs), repeat(1.0)),
                         np.float64, 2 * len(positions)).reshape(-1, 2)
    except (TypeError, KeyError, OverflowError):
        return None
    i, k = np.nonzero((xy == 0) | (xy == 1))
    if any(type(positions[a][b]) is bool for a, b in zip(i.tolist(), k.tolist())):
        return None
    return xy


def _is_position(position) -> bool:
    """Whether a GeoJSON position starts with two numbers that floats hold."""
    if type(position) is list and len(position) >= 2 and _NUMBER_TYPES.issuperset(map(type, position[:2])):
        try:
            float(position[0]), float(position[1])
            return True
        except OverflowError:
            pass
    return False


def _ring_fault(xy: np.ndarray, sizes: np.ndarray, malformed: np.ndarray) -> tuple[int, str] | None:
    """The first ring with a malformed position, fewer than 4 positions, a
    non-finite coordinate or different first and last positions, and a
    template of its fault; of a ring's faults, the first listed is named."""
    ends = np.cumsum(sizes)
    short = sizes < 4
    non_finite = np.zeros(len(sizes), dtype=bool)
    non_finite[np.searchsorted(ends, np.flatnonzero(~np.isfinite(xy).all(axis=1)), side="right")] = True
    is_open = np.zeros(len(sizes), dtype=bool)
    ring = np.flatnonzero(~short)
    is_open[ring] = (xy[ends[ring] - sizes[ring]] != xy[ends[ring] - 1]).any(axis=1)
    faulty = np.flatnonzero((malformed >= 0) | short | non_finite | is_open)
    if not len(faulty):
        return None
    r = int(faulty[0])
    if malformed[r] >= 0:
        return r, f"malformed {{}}: position {malformed[r]} is not an array of at least two numbers"
    if short[r]:
        return r, "{} has fewer than 4 vertices"
    return r, "{} has a non-finite coordinate" if non_finite[r] else "{} is not closed"


def _demographic_fault(demographics: list[tuple]) -> str | None:
    """The fault of the first tract whose demographic properties break a rule, if any."""
    if not demographics:
        return None
    n = len(demographics)
    ok = []
    for values, (_, _, types, low, high, _) in zip(zip(*demographics), _DEMOGRAPHICS):
        typed = np.fromiter(map(types.__contains__, map(type, values)), bool, n)
        value = np.where(typed, np.fromiter(values, object, n), math.nan)
        with np.errstate(invalid="ignore"):  # NaN fails both comparisons
            ok.append(typed & (value >= low) & (value <= high))
    faulty = np.flatnonzero(~np.logical_and.reduce(ok))
    if not len(faulty):
        return None
    t = int(faulty[0])
    k = next(k for k, column in enumerate(ok) if not column[t])
    key, name, *_, rule = _DEMOGRAPHICS[k]
    problem = f"bad demographic properties: {key!r}" if demographics[t][k] is _MISSING else f"{name}: {rule}"
    return f"feature {t}: {problem}"


def parse_hazard(source: str | Path | IO, hazard_type: str) -> tuple[HazardLayer, IngestReport]:
    """Parse a hazard CSV into a layer of geoid and value columns, in file order."""
    if hazard_type not in HAZARD_TYPES:
        raise IngestError(f"unknown hazard type {hazard_type!r}")
    report = IngestReport()
    values: dict[str, float] = {}  # accepted rows, for the duplicate rule; returned as columns
    with _csv_chunks(source, "hazard", HAZARD_HEADER) as chunks:
        for rows, lines in chunks:
            for line_no, row in zip(lines.tolist(), rows):
                report.rows_read += 1
                if isinstance(row, _Unreadable):
                    report.reject(line_no, row.reason)
                    continue
                if len(row) != 2:
                    report.reject(line_no, f"expected 2 fields, got {len(row)}")
                    continue
                geoid, raw = row
                if geoid in values:
                    raise IngestError(f"line {line_no}: duplicate geoid {geoid}")
                # The str column drops trailing NULs, which would make it another geoid.
                if geoid.endswith("\0"):
                    report.reject(line_no, "geoid ends in a NUL character")
                    continue
                try:
                    value = int(raw) if hazard_type == "heat" else float(raw)
                except ValueError:
                    report.reject(line_no, f"unparseable value {raw!r}")
                    continue
                if hazard_type == "heat":
                    if value < 0:
                        report.reject(line_no, "heat-day count must be >= 0")
                        continue
                    # Above 2**53 the float64 column would round the count.
                    if value > 2**53:
                        report.reject(line_no, "heat-day count out of range")
                        continue
                elif not 0.0 <= value <= 1.0:
                    report.reject(line_no, "percentile rank outside [0, 1]")
                    continue
                values[geoid] = value
                report.rows_accepted += 1
    layer = HazardLayer(hazard_type=hazard_type, geoids=np.array(list(values), dtype=str),
                        values=np.fromiter(values.values(), np.float64, len(values)))
    return layer, report


# ---------------------------------------------------------------------------
# Writers. All CSV output is UTF-8, LF-terminated, with a deterministic
# row and column order; report floats are rendered with 6 decimal places.
# ---------------------------------------------------------------------------


def _write_csv(dest: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> int:
    """Write a header and rows of cells as CSV; returns the byte count."""
    try:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return fh.tell()
    except OSError as exc:
        raise IngestError(f"cannot write {dest}: {exc}") from exc


def _write_sidecar(dest: str | Path, config_hash: str, n_rows: int) -> None:
    meta = {"config_hash": config_hash, "rows": n_rows}
    try:
        with open(f"{dest}.meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IngestError(f"cannot write {dest}.meta.json: {exc}") from exc


def write_stops(stops: Stops, dest: str | Path) -> int:
    rows = ([s.user_id, repr(s.lon), repr(s.lat), format_iso_utc(s.start_ts), str(s.dwell_s)]
            for s in stops.records())
    return _write_csv(dest, STOPS_HEADER, rows)


def write_tracts(tracts: Iterable[CensusTract], dest: str | Path) -> int:
    features = []
    for t in tracts:
        coords = [[[list(pt) for pt in ring] for ring in part] for part in t.geometry]
        if len(coords) == 1:
            geom = {"type": "Polygon", "coordinates": coords[0]}
        else:
            geom = {"type": "MultiPolygon", "coordinates": coords}
        features.append(
            {
                "type": "Feature",
                "properties": {
                    "GEOID": t.geoid,
                    "POP": t.population,
                    "PCT_MINORITY": t.pct_minority,
                    "PCT_POV200": t.pct_below_poverty200,
                },
                "geometry": geom,
            }
        )
    doc = {"type": "FeatureCollection", "features": features}
    try:
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
            return fh.tell()
    except OSError as exc:
        raise IngestError(f"cannot write {dest}: {exc}") from exc


def write_hazard(layer: HazardLayer, dest: str | Path) -> int:
    order = np.argsort(layer.geoids, kind="stable")
    text = (lambda v: str(int(v))) if layer.hazard_type == "heat" else repr
    rows = zip(layer.geoids[order].tolist(), map(text, layer.values[order].tolist()))
    return _write_csv(dest, HAZARD_HEADER, rows)


def write_report(table, dest: str | Path, config_hash: str = "") -> int:
    """Write a report as a deterministic CSV plus metadata sidecar; returns the CSV byte count.

    A report exposes its column names (header), its data rows as cells
    (csv_rows()) and its row count (n_rows).
    """
    if not all(hasattr(table, name) for name in ("header", "csv_rows", "n_rows")):
        raise IngestError(f"write_report does not handle {type(table).__name__}")
    n = _write_csv(dest, table.header, table.csv_rows())
    _write_sidecar(dest, config_hash, table.n_rows)
    return n


def read_mei(source: str | Path | IO) -> MeiTable:
    """Parse a mei.csv report into a MeiTable (6-decimal precision).

    The table is sorted by geoid whatever the file's row order; every
    cluster label reads -1 (mei.csv has no labels). An empty index cell is
    undefined. Any malformed row or repeated geoid is fatal and named by its
    file line; of several faults in a row, the first in field order is named,
    with the indices and class of one hazard checked before the next.
    """
    geoids: list[str] = []
    values: list[float] = []
    codes: list[int] = []
    seen: set[str] = set()
    with _csv_chunks(source, "mei.csv", MEI_HEADER) as chunks:
        for chunk, lines in chunks:
            for line_no, row in zip(lines.tolist(), chunk):
                if isinstance(row, _Unreadable):
                    raise IngestError(f"line {line_no}: {row.reason}")
                if len(row) != len(MEI_HEADER):
                    raise IngestError(f"line {line_no}: expected {len(MEI_HEADER)} fields, got {len(row)}")
                if row[0] in seen:
                    raise IngestError(f"line {line_no}: duplicate geoid {row[0]}")
                # The str column drops trailing NULs, which would make it another geoid.
                if row[0].endswith("\0"):
                    raise IngestError(f"line {line_no}: geoid ends in a NUL character")
                try:
                    floats = [float(text) if text else math.nan for text in row[1:10]]
                except ValueError as exc:
                    raise IngestError(f"line {line_no}: unparseable field: {exc}") from exc
                for k, h in enumerate(HAZARD_TYPES):
                    for i, name in enumerate(("mei", "nonhome_share", "nonhome_conditional")):
                        if row[1 + 3 * i + k] and not 0.0 <= floats[3 * i + k] <= 1.0:
                            raise IngestError(f"line {line_no}: {name}[{h}]: outside [0, 1]")
                    if row[10 + k] not in REGIONS:
                        raise IngestError(f"line {line_no}: region_class[{h}]: invalid class")
                seen.add(row[0])
                geoids.append(row[0])
                values += floats
                codes += map(REGIONS.index, row[10:])
    names = np.array(geoids, dtype=str)
    order = np.argsort(names, kind="stable")
    cells = np.array(values, dtype=np.float64).reshape(-1, 9)[order]
    return MeiTable(
        geoids=names[order],
        mei=cells[:, 0:3], nonhome_share=cells[:, 3:6], nonhome_conditional=cells[:, 6:9],
        region=np.array(codes, dtype=np.int8).reshape(-1, 3)[order],
        label=np.full(len(geoids), -1, dtype=np.int32),
    )
