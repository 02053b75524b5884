"""File ingestion and report output.

Every byte-level format lives here: the stops/hazard CSV schemas, the
tract GeoJSON schema, and the deterministic report CSVs with their JSON
metadata sidecars. Data-row problems are rejected row by row and counted;
structural problems (bad header, duplicate keys, broken geometry) abort
with IngestError.

The three CSV inputs (stops, hazard layers, mei.csv) share one reader,
_Feed: whatever the source, it reads bytes in blocks of whole lines and
checks the header with one wording (_check_header()); csv.reader reads
the rows of a block (_Feed.csv_rows()). So every CSV input follows one
line-break rule: an LF or CRLF ends a line, a lone CR outside quotes makes
its row unreadable, and line numbers count LFs. Each input rule is stated
once: stop bounds in model.STOP_BOUNDS, the vouched timestamp layouts in
_canonical_epochs(), hazard rows in parse_hazard(), mei.csv rows in
read_mei().

parse_stops() returns one model.Stops frame of numpy columns. It splits a
block at its LFs and commas itself where csv.reader would read the same
fields (_Feed.splits()); csv.reader's rows of any other block are joined
back into lines of bytes, so one converter, _convert(), checks and
converts every block with numpy. It vouches for user ids, numbers in the
layouts -?D+(.D+)? and -?D{1,18} within their bounds, and timestamps in
the layouts of _canonical_epochs(). A row that fails only on its
timestamp is read with parse_iso_utc(); any other row it does not vouch
for takes the scalar row path, _scalar_stop(), which reads the row with
float(), int() and parse_iso_utc() and checks it against the same
model.STOP_BOUNDS, so each reject is worded as a row-by-row parse words
it. A block's file lines number its rejects in the IngestReport; the
Stops frame holds no line numbers.
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
from itertools import chain, count, islice, repeat
from operator import itemgetter, mul
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import (
    HAZARD_TYPES,
    MEI_HEADER,
    REGIONS,
    STOP_BOUNDS,
    HazardLayer,
    MeiTable,
    Stops,
    TractTable,
    csr_offsets,
    is_geoid,
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
def _opened(source: str | Path | IO) -> Iterator[tuple[IO, bool]]:
    """A handle on a path, opened here in binary mode and closed on exit, or
    on a caller's text or byte stream, left open; and whether it reads
    bytes. Bytes that are not UTF-8 are an IngestError that names the
    source."""
    owned = isinstance(source, (str, Path))
    if owned:
        try:
            handle = open(source, "rb")
        except OSError as exc:
            raise IngestError(f"cannot read {source}: {exc}") from exc
    elif hasattr(source, "read"):
        handle = source
    else:
        raise IngestError(f"unreadable source: {type(source).__name__}")
    try:
        yield handle, owned or isinstance(source.read(0), bytes)
    except UnicodeDecodeError as exc:
        name = source if owned else getattr(source, "name", "input")
        byte = exc.object[exc.start]
        raise IngestError(f"{name}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from exc
    finally:
        if owned:
            handle.close()


@contextmanager
def _text(source: str | Path | IO) -> Iterator[IO]:
    """A text-mode handle on a path, text stream or byte stream, as _opened()
    gives them, for parse_tracts()."""
    with _opened(source) as (handle, binary):
        if not binary:
            yield handle
            return
        text = io.TextIOWrapper(handle, encoding="utf-8", newline="")
        try:
            yield text
        finally:
            text.detach()  # a collected wrapper would close the stream it wraps


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


# The CSV readers read this many bytes at a time and take the whole lines
# among them as one block; it bounds the bytes, the rows and the per-row
# temporaries held at once. Results do not depend on it.
_BLOCK_BYTES = 1 << 18
# The widest lon, lat, start_ts or dwell_s field the byte split converts; a
# wider one takes the row path. 2019-04-02T09:00:00.123456+00:00 fills it.
_FIELD_BYTES = 32
# parse_stops() merges the columns of this many blocks (about 16 MB of
# input) at a time. The blocks' small arrays, once merged and freed, leave
# their memory to the next blocks' arrays; without merging, a second copy of
# the output stayed resident after the last concatenation freed them.
_MERGE_BLOCKS = 64
_STOP_DTYPES = (np.int32, np.float64, np.float64, np.int64, np.int64)
_UNREAD = -(2**63)  # below every epoch parse_iso_utc() returns


def parse_stops(source: str | Path | IO) -> tuple[Stops, IngestReport]:
    """Parse a stops CSV into a Stops frame, rejecting malformed rows and keeping row order.

    The source is read as bytes (_Feed), in blocks of whole lines. A block
    holding no quote, no NUL, no CR but in a CRLF line end and no line
    longer than csv.field_size_limit() reads as csv.reader would read it,
    one row per line split at its commas (_Feed.splits()), and _convert()
    checks and converts it with numpy. csv.reader reads any other block
    (_Feed.csv_rows()), and its rows are joined back into lines for
    _convert(). A row that _convert() does not vouch for is read with
    parse_iso_utc() if only its timestamp fails, and otherwise takes the
    scalar row path, which decides and words its reject, so rejects and
    their reasons are those of a row-by-row parse.
    """
    report = IngestReport()
    users: dict[str, int] = {}
    merged, blocks = [], []
    with _opened(source) as (handle, binary):
        feed = _Feed(handle, binary)
        for data, first in feed.pieces("stops", STOPS_HEADER):
            if feed.splits(data):
                piece = data, np.arange(first, feed.line), None
            else:
                rows, lines = feed.csv_rows(data, first)
                piece = _rejoined(rows), lines, rows
            blocks.append(_convert(*piece, report, users))
            if len(blocks) == _MERGE_BLOCKS:
                merged.append(_merged(blocks))
                blocks = []
    user, lon, lat, start_ts, dwell_s = _merged(merged + blocks)
    stops = Stops(user=user, user_ids=np.array(list(users), dtype=object), lon=lon, lat=lat,
                  start_ts=start_ts, dwell_s=dwell_s)
    return stops, report


def _merged(parts: list[list[np.ndarray]]) -> list[np.ndarray]:
    """The columns of the parts (_STOP_DTYPES), each concatenated in order.
    They are merged one column at a time, so the parts and the result are
    never both held whole."""
    return [np.concatenate([np.empty(0, dtype)] + [part.pop(0) for part in parts]) for dtype in _STOP_DTYPES]


class _Feed:
    """A CSV source, as _opened() gives it, read as blocks of whole lines of bytes.

    A text stream's text is read as its UTF-8 bytes. line is the file line
    the next block starts on: an LF ends a line, and so does the end of the
    source.
    """

    def __init__(self, handle: IO, binary: bool):
        # A text stream's lone surrogates become bytes that are not UTF-8.
        self.read = handle.read if binary else lambda n: handle.read(n).encode("utf-8", "surrogatepass")
        self.rest = b""  # bytes read past the last block, from a line start
        self.line = 1

    def pieces(self, what: str, header: list[str]) -> Iterator[tuple[bytes, int]]:
        """The blocks after the header line (block()), each with the file
        line it starts on; line is then the file line after it. The header,
        the first line of the first block, is read by csv.reader and must be
        header (_check_header()); the rest of the block is the first block
        after it. A header row that reads on past its line holds a line
        break, so it is never header: the lines it reads on into are those
        after its own."""
        data, _ = self.block(_BLOCK_BYTES)
        end = data.find(b"\n") + 1 or len(data)
        self.rest, rest = data[end:] + self.rest, self.rest
        _check_header(self.csv_rows(data[:end], 1)[0][:1], what, header)
        self.rest = rest  # the header read no further than its own line
        if data[end:]:
            yield data[end:], 2
        while (block := self.block(_BLOCK_BYTES))[0]:
            yield block

    def block(self, size: int) -> tuple[bytes, int]:
        """The next whole lines, at least one and about size bytes of them
        (the last may lack its LF), and the file line they start on; b"" at
        the end of the source. Bytes that are not UTF-8 raise
        UnicodeDecodeError."""
        chunks, n, newline = [self.rest], len(self.rest), False
        while not newline or n < size:
            chunk = self.read(size)
            if not chunk:
                break
            chunks.append(chunk)
            n += len(chunk)
            newline = newline or b"\n" in chunk
        data = b"".join(chunks)
        cut = data.rfind(b"\n") + 1 if chunk else len(data)
        data, self.rest = data[:cut], data[cut:]
        if not data.isascii():
            data.decode("utf-8")
        first = self.line
        self.line += data.count(b"\n") + (not data.endswith(b"\n") and bool(data))
        return data, first

    @staticmethod
    def splits(data: bytes) -> bool:
        """Whether csv.reader reads each line of data as the line split at its
        commas: data holds no quote, no NUL (which csv.reader refuses before
        Python 3.11), no CR but before a LF, and no line longer than
        csv.field_size_limit()."""
        if b'"' in data or b"\0" in data or b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
            return False
        limit, start = csv.field_size_limit(), 0
        while len(data) - start > limit:  # the lines from start up to the last LF in reach are short
            start = data.rfind(b"\n", start, start + limit + 1) + 1
            if not start:
                return False
        return True

    def csv_rows(self, data: bytes, first: int) -> tuple[list[list[str]], np.ndarray]:
        """csv.reader's rows of the lines in data, which start on file line
        first, with the int64 file line each row starts on; a row it cannot
        read becomes an _Unreadable. A row still open at the end of data
        reads on into the next blocks, and the rows end with the first that
        ends where the lines read so far do."""
        lines = io.StringIO(data.decode("utf-8")).readlines()  # split at LFs only
        taken = [len(lines)]  # lines handed to the reader

        def more():
            while following := self.block(_BLOCK_BYTES)[0]:
                block = io.StringIO(following.decode("utf-8")).readlines()
                taken[0] += len(block)
                yield block

        reader = csv.reader(chain(lines, chain.from_iterable(more())))
        rows: list[list[str]] = []
        while reader.line_num < taken[0]:  # each row takes at least one line
            rows += _read_rows(reader, taken[0] - reader.line_num)
        if reader.line_num == len(rows):
            return rows, np.arange(first, first + len(rows))
        # A quoted field holds a line break: count the lines each row takes.
        starts, end = [], first - 1
        for row in rows:
            starts.append(end + 1)
            if isinstance(row, _Unreadable):
                end = max(end + 1, first - 1 + row.line)
            else:
                end += 1 + sum(field.count("\n") for field in row)
        return rows, np.array(starts, dtype=np.int64)


def _rejoined(rows: list[list[str]]) -> bytes:
    """The rows as lines of comma-joined fields, for _convert(). A row of 5
    fields whose line splits back into them gives that line; any other row
    an empty line, which _convert() leaves to the row path."""
    lines = list(map(",".join, rows))
    n = len(lines)
    plain = np.fromiter(map(len, rows), np.int64, n) == 5
    plain &= np.fromiter(map(str.count, lines, repeat(",")), np.int64, n) == 4
    text = "\n".join(lines)
    if "\r" in text or text.count("\n") > n - 1:  # a field holds a line break
        plain &= ~np.fromiter((("\n" in line or "\r" in line) for line in lines), bool, n)
    for i in np.flatnonzero(~plain).tolist():
        lines[i] = ""
    return ("\n".join(lines) + "\n").encode()


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


def _check_header(first: list, what: str, header: list[str]) -> None:
    """The first row of a CSV source (in a list, empty if it has none) must
    be header: otherwise an IngestError worded `<what> file is empty
    (missing header)` or `bad <what> header: ...`."""
    if not first:
        raise IngestError(f"{what} file is empty (missing header)")
    got = first[0].reason if isinstance(first[0], _Unreadable) else first[0]
    if got != header:
        raise IngestError(f"bad {what} header: expected {header}, got {got}")


def _convert(data: bytes, line: np.ndarray, rows: list | None, report: IngestReport,
             users: dict[str, int]) -> list[np.ndarray]:
    """Columns (user code, lon, lat, start_ts, dwell_s) of the accepted rows of a block.

    Each line of data, LF- or CRLF-terminated, is a row, and line holds the
    file line that numbers its reject. rows holds the csv.reader rows the
    lines were joined from; if None, each line split at its commas is its
    row. A row is vouched for when it has 5 fields, a non-empty user_id,
    lon and lat in the byte layout -?D+(.D+)? and dwell_s in -?D{1,18},
    each within its bounds (model.STOP_BOUNDS), and a start_ts in a layout
    of _canonical_epochs();
    _numbers() reads the numbers as float() and int() do. A row that fails
    only on its start_ts is read with parse_iso_utc(); every other row the
    checks refuse takes the row path, in line order, and its rejects are
    recorded. Users first seen here get the next codes.
    """
    n = len(line)
    a = np.frombuffer(data + bytes(_FIELD_BYTES), dtype=np.uint8)  # padded for _bytes()
    ends = np.append(np.flatnonzero(a == ord("\n")), len(data))[:n]  # the last line may lack its LF
    starts = np.r_[0, ends[:-1] + 1]
    ends -= (ends > starts) & (a[ends - 1] == ord("\r"))
    commas = np.flatnonzero(a == ord(","))
    first = np.searchsorted(commas, starts)
    five = np.flatnonzero(np.searchsorted(commas, ends) - first == 4)
    cuts = commas[first[five, None] + np.arange(4)]
    lo = np.column_stack((starts[five], cuts + 1))  # where each field starts
    width = np.column_stack((cuts, ends[five])) - lo

    lon, lat = np.zeros(n), np.zeros(n)
    start_ts, dwell_s = np.zeros(n, np.int64), np.zeros(n, np.int64)
    accepted = np.zeros(n, dtype=bool)
    ok, canonical, lon[five], lat[five], start_ts[five], dwell_s[five] = _vouch(a, lo, width)
    del a, commas, first  # block-sized, and no longer needed
    accepted[five] = ok & canonical
    # A row whose only fault is its timestamp's layout is accepted when
    # parse_iso_utc() reads it.
    retry = np.flatnonzero(ok & ~canonical)
    texts = map(bytes.decode, map(data.__getitem__, map(slice, lo[retry, 3].tolist(),
                                                        (lo[retry, 3] + width[retry, 3]).tolist())))
    stamps = np.fromiter(_map_lenient(parse_iso_utc, texts, _UNREAD), np.int64, len(retry))
    start_ts[five[retry]] = stamps
    accepted[five[retry[stamps != _UNREAD]]] = True

    # Everything else takes the scalar row path, in line order.
    named = {}  # the user_id of each row the row path accepts
    for i in np.flatnonzero(~accepted).tolist():
        rec = _scalar_stop(rows[i] if rows is not None else _split(data[starts[i]:ends[i]]))
        if isinstance(rec, str):
            report.reject(int(line[i]), rec)
            continue
        named[i], lon[i], lat[i], start_ts[i], dwell_s[i] = rec
        accepted[i] = True
    report.rows_read += n
    keep = np.flatnonzero(accepted)
    report.rows_accepted += len(keep)

    name_end = starts.copy()
    name_end[five] = cuts[:, 0]
    names = map(slice, starts[keep].tolist(), name_end[keep].tolist())
    if data.isascii():  # its text has its byte offsets
        names = list(map(data.decode("ascii").__getitem__, names))
    else:
        names = [data[name].decode("utf-8") for name in names]
    for i, name in named.items():
        names[int(np.searchsorted(keep, i))] = name
    # A name first seen gets the next code, the count of codes before it.
    user = np.fromiter(map(users.setdefault, names, map(len, repeat(users))), np.int32, len(names))
    return [user, lon[keep], lat[keep], start_ts[keep], dwell_s[keep]]


def _vouch(a: np.ndarray, lo: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, ...]:
    """Of rows of 5 fields, with each field's start (in the padded block a)
    and width in the rows of lo and width: which pass the checks on every
    field but start_ts, which have a start_ts in a vouched layout, and their
    lon, lat, start_ts and dwell_s."""
    start, size = lo[:, [1, 2, 4]].T.ravel(), width[:, [1, 2, 4]].T.ravel()
    decimal, integer, real, whole = (v.reshape(3, -1) for v in _numbers(_bytes(a, start, size), size))
    lon, lat, dwell_s = real[0], real[1], whole[2]
    ok = (_within("user_id", width[:, 0]) & decimal[0] & _within("lon", lon) & decimal[1] & _within("lat", lat)
          & integer[2] & _within("dwell_s", dwell_s))
    canonical, start_ts = _canonical_epochs(_bytes(a, lo[:, 3], width[:, 3], _FIELD_BYTES), width[:, 3])
    return ok, canonical, lon, lat, start_ts, dwell_s


def _split(line: bytes) -> list[str]:
    """csv.reader's row of a line that holds no quote or CR: its text split at its commas."""
    text = line.decode("utf-8")
    return text.split(",") if text else []


def _bytes(a: np.ndarray, start: np.ndarray, width: np.ndarray, size: int = 0) -> np.ndarray:
    """Byte j of the field at each start in row j of a (size, n) array: size
    bytes (at most _FIELD_BYTES; by default the widest field's), NUL past
    each field's width."""
    size = size or int(min(width.max(initial=1), _FIELD_BYTES))
    field = sliding_window_view(a, size)[start].T.copy()
    field *= np.arange(size)[:, None] < width
    return field


def _numbers(field: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, ...]:
    """Which fields (_bytes()) are in the layout -?D+(.D+)?, which in
    -?D{1,18}, and their values: the float64 value float() reads, and the
    int64 value int() reads in those of the second layout.

    The digits are read into an int64 mantissa M; with k digits after the
    point, the value is M / 10**k, which float64 rounds as float() does
    where M and 10**k are exact, as they are for up to 15 digits. Longer
    decimals go through numpy's bytes cast, which rounds correctly too.
    """
    digit = field - np.uint8(ord("0"))
    is_digit = digit <= 9  # other bytes wrap past 9
    digit *= is_digit
    point = field == ord(".")
    # Horner's rule, where a byte that is no digit multiplies by 1 and adds
    # 0; scale counts the digits since the last point.
    step, past_point = np.where(is_digit, np.uint8(10), np.uint8(1)), ~point
    mantissa, scale = digit[0].astype(np.int64), is_digit[0].astype(np.int8)
    for k in range(1, len(field)):
        mantissa *= step[k]
        mantissa += digit[k]
        scale *= past_point[k]
        scale += is_digit[k]
    del digit, step, past_point
    digits, points = is_digit.sum(axis=0, dtype=np.int8), point.sum(axis=0, dtype=np.int8)
    scale *= points > 0
    sign = field[0] == ord("-")
    # Every byte of the field is a digit, a point or a leading minus sign
    # (the bytes past its width are NUL, none of these).
    ok = (digits + points + sign == width) & (digits >= 1)
    integer = ok & (points == 0) & (digits <= 18)
    ok &= (points == 0) | ((points == 1) & (scale >= 1) & (digits > scale))  # a digit on each side of the point
    real = mantissa / 10.0 ** scale
    real = np.where(sign, -real, real)
    long = np.flatnonzero(ok & (digits > 15))
    real[long] = field[:, long].T.copy().view(f"S{len(field)}").ravel().astype(np.float64)  # signed
    return ok, integer, real, np.where(sign, -mantissa, mantissa)


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


def _scalar_stop(row: list[str]) -> tuple | str:
    """The row path: the row's user_id, lon, lat, start_ts and dwell_s, or
    the reason it is rejected: the first field, in model.STOP_BOUNDS order,
    outside its bounds (NaN fails every comparison)."""
    if isinstance(row, _Unreadable):
        return row.reason
    if len(row) != 5:
        return f"expected 5 fields, got {len(row)}"
    try:
        stop = row[0], float(row[1]), float(row[2]), parse_iso_utc(row[3]), int(row[4])
    except ValueError as exc:
        return f"unparseable field: {exc}"
    value = dict(zip(STOPS_HEADER, stop), user_id=len(row[0]))
    for name, (low, high, below, above) in STOP_BOUNDS.items():
        if not low <= value[name]:
            return below
        if not value[name] <= high:
            return above
    return stop


# Byte positions of a YYYY-MM-DDTHH:MM:SS timestamp: its separators and its
# six numbers; and the days in each month of a common year.
_TS_SEPARATORS = np.array([4, 7, 10, 13, 16])
_TS_TEMPLATE = np.frombuffer(b"--T::", dtype=np.uint8)
_TS_NUMBERS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))
_TS_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _canonical_epochs(field: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which timestamps are in a vouched layout, and their epoch seconds.

    This is the one statement of the vouched layouts: ASCII
    YYYY-MM-DDTHH:MM:SS, then an optional fraction of 1-6 digits after a
    point, then Z or an offset +HH:MM or -HH:MM of at most 23:59; with a
    real date in years 1-9999, hour 00-23, minute and second 00-59. field
    holds the texts' bytes (_bytes(), _FIELD_BYTES of them) and width their
    lengths. Each such text gets the value parse_iso_utc() gives it:
    timestamp() divides whole microseconds by 10**6 and int() truncates
    toward zero, which float64 repeats where the microseconds are whole
    seconds or fewer than 2**53, and only there is a fraction vouched for.
    Other entries are False with epoch 0, and parse_stops() retries them
    with parse_iso_utc().
    """
    rows = np.arange(field.shape[1])
    zulu = field[np.clip(width - 1, 0, _FIELD_BYTES - 1), rows] == ord("Z")
    fraction = width - np.where(zulu, 21, 26)  # its digits; -1 without a fraction
    valid = (width <= _FIELD_BYTES) & (
        (fraction == -1) | ((fraction >= 1) & (fraction <= 6) & (field[19] == ord("."))))
    valid &= (field[_TS_SEPARATORS] == _TS_TEMPLATE[:, None]).all(axis=0)
    digit = field[:26] - np.uint8(ord("0"))  # non-digits wrap past 9
    valid &= (digit[_TS_DIGITS] <= 9).all(axis=0)
    year, month, day, hour, minute, second = (_number(digit[a:b]) for a, b in _TS_NUMBERS)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.clip(month, 1, 12) - 1] + (leap & (month == 2))
    valid &= ((year >= 1) & (1 <= month) & (month <= 12) & (1 <= day) & (day <= month_days)
              & (hour <= 23) & (minute <= 59) & (second <= 59))
    seconds = _days_from_civil(year, month, day) * 86400 + hour * 3600 + minute * 60 + second

    # The fraction's digits, with zeros past them, count microseconds.
    fractional = np.flatnonzero(fraction > 0)
    fraction_digit = np.where(np.arange(6)[:, None] < fraction[fractional], digit[20:26, fractional], 0)
    valid[fractional] &= (fraction_digit <= 9).all(axis=0)
    micros = seconds * 10**6
    micros[fractional] += _number(fraction_digit)
    # The offset, +HH:MM or -HH:MM, ends the text.
    offset = np.flatnonzero(~zulu)
    zone = field[np.clip(width[offset] - 6, 0, _FIELD_BYTES - 6) + np.arange(6)[:, None], offset]
    zone_digit = zone[[1, 2, 4, 5]] - np.uint8(ord("0"))
    hours, minutes = _number(zone_digit[:2]), _number(zone_digit[2:])
    east = zone[0] == ord("+")
    valid[offset] &= ((east | (zone[0] == ord("-"))) & (zone[3] == ord(":")) & (zone_digit <= 9).all(axis=0)
                      & (hours <= 23) & (minutes <= 59))
    shift = np.where(east, 1, -1) * (hours * 3600 + minutes * 60)
    seconds[offset] -= shift
    micros[offset] -= shift * 10**6
    whole = micros % 10**6 == 0
    valid &= whole | (np.abs(micros) < 2**53)
    epochs = np.where(whole, seconds, (micros / 1e6).astype(np.int64))
    return valid, np.where(valid, epochs, 0)


def _number(digits: np.ndarray) -> np.ndarray:
    """The int64 numbers whose decimal digits are the rows of digits, the
    first row the most significant."""
    value = digits[0].astype(np.int64)
    for row in digits[1:]:
        value *= 10
        value += row
    return value


def _days_from_civil(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Days from 1970-01-01 to each date, by H. Hinnant's days_from_civil:
    years start in March, so February's leap day is last."""
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * np.where(month > 2, month - 3, month + 9) + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


# A GeoJSON position's first two members must be JSON numbers (true and
# false are not); the rest, such as an altitude, are ignored.
_NUMBER_TYPES = frozenset({int, float})
# A tuple, not a set: the type member of a JSON object may be unhashable.
_GEOMETRY_TYPES = ("Polygon", "MultiPolygon")
_MISSING = object()  # stands in for a demographic property a feature lacks
# Each demographic property: its GeoJSON key, TractTable column, value
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
    with _opened(source) as (handle, binary):
        feed = _Feed(handle, binary)
        for data, first in feed.pieces("hazard", HAZARD_HEADER):
            rows, lines = feed.csv_rows(data, first)
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


def _write_csv(dest: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> tuple[int, int]:
    """Write a header and rows of cells as CSV; returns the byte and data-row counts."""
    written = count()  # zip draws each row before its count, so next(written) is the row count
    try:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(map(itemgetter(0), zip(rows, written)))
            return fh.tell(), next(written)
    except OSError as exc:
        raise IngestError(f"cannot write {dest}: {exc}") from exc


def write_stops(stops: Stops, dest: str | Path) -> int:
    rows = zip(stops.user_ids[stops.user].tolist(), map(repr, stops.lon.tolist()),
               map(repr, stops.lat.tolist()), map(format_iso_utc, stops.start_ts.tolist()),
               map(str, stops.dwell_s.tolist()))
    return _write_csv(dest, STOPS_HEADER, rows)[0]


def write_tracts(tracts: TractTable, dest: str | Path) -> int:
    xs, ys = tracts.x.tolist(), tracts.y.tolist()
    ends = tracts.ring_offsets.tolist()
    rings = [list(zip(xs[a:b - 1], ys[a:b - 1])) for a, b in zip(ends, ends[1:])]
    ends = tracts.part_offsets.tolist()
    parts = [rings[a:b] for a, b in zip(ends, ends[1:])]
    ends = tracts.tract_offsets.tolist()
    features = []
    for geoid, a, b, population, minority, poverty in zip(
        tracts.geoids.tolist(), ends, ends[1:], tracts.population.tolist(),
        tracts.pct_minority.tolist(), tracts.pct_below_poverty200.tolist(),
    ):
        if b - a == 1:
            geom = {"type": "Polygon", "coordinates": parts[a]}
        else:
            geom = {"type": "MultiPolygon", "coordinates": parts[a:b]}
        features.append(
            {
                "type": "Feature",
                "properties": {
                    "GEOID": geoid,
                    "POP": population,
                    "PCT_MINORITY": minority,
                    "PCT_POV200": poverty,
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
    return _write_csv(dest, HAZARD_HEADER, rows)[0]


def write_report(table, dest: str | Path, config_hash: str = "") -> int:
    """Write a report as a deterministic CSV plus metadata sidecar; returns the CSV byte count.

    A report exposes its column names (header) and its data rows as cells
    (csv_rows()); the sidecar counts the rows written.
    """
    if not all(hasattr(table, name) for name in ("header", "csv_rows")):
        raise IngestError(f"write_report does not handle {type(table).__name__}")
    n, rows = _write_csv(dest, table.header, table.csv_rows())
    try:
        with open(f"{dest}.meta.json", "w", encoding="utf-8") as fh:
            json.dump({"config_hash": config_hash, "rows": rows}, fh, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IngestError(f"cannot write {dest}.meta.json: {exc}") from exc
    return n


def read_mei(source: str | Path | IO) -> MeiTable:
    """Parse a mei.csv report into a MeiTable (6-decimal precision).

    The table is sorted by geoid whatever the file's row order. An empty
    index cell is undefined. Any malformed row or repeated geoid is fatal
    and named by its file line; of several faults in a row, the first in
    field order is named, with the indices and class of one hazard checked
    before the next.
    """
    geoids: list[str] = []
    values: list[float] = []
    codes: list[int] = []
    seen: set[str] = set()
    with _opened(source) as (handle, binary):
        feed = _Feed(handle, binary)
        for data, first in feed.pieces("mei.csv", MEI_HEADER):
            rows, lines = feed.csv_rows(data, first)
            for line_no, row in zip(lines.tolist(), rows):
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
    )
