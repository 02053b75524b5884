"""Point-to-tract assignment via a flat uniform grid index.

Containment uses even-odd ray casting (Haines, "Point in Polygon
Strategies", Graphics Gems IV, 1994) in planar lon/lat space with
boundary points counting as inside; where tracts overlap, the smallest
geoid wins. The grid only narrows the candidate list; results are
identical to an exhaustive scan over all tract polygons for any cell
size.

locate_stops() is the lookup. It runs the crossing test as numpy passes
over all distinct stop points at once, as a code into the index's sorted
geoids, and reads only the TractTable's vertex columns. It evaluates the
same float expressions in the same order as the scalar oracles in
tests/conftest.py (point_in_part(), one point and one polygon part at a
time, the grid lookup locate() and the exhaustive locate_brute_force()),
so it returns exactly what they return for every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Stops, TractTable, run_heads

DEFAULT_CELL_SIZE_DEG = 0.05

# locate_stops() takes distinct points this many at a time, in lon-lat
# order, and one numpy pass covers at most this many rows of a ragged
# expansion (points over their cell's candidate parts, then (point, part)
# pairs over the part's edges). They bound the transient arrays, and so a
# run's peak RSS; results do not depend on them.
_BLOCK_POINTS = 2048
_PASS_ROWS = 32768


class GeoIndexError(Exception):
    """Raised when an index cannot be built."""


@dataclass(frozen=True, slots=True, eq=False)
class TractIndex:
    """A uniform grid over the polygon parts of a TractTable.

    geoids holds the tract geoids sorted; a tract's code is its position in
    it, and locate_stops() returns codes. Parts are numbered as in the
    table: part p has the bounding box min_x[p], min_y[p], max_x[p],
    max_y[p] and its tract's code is part_code[p]; its part_edges[p] edges
    run over the table's vertex rows from part_first[p] on, the edges that
    touch a ring's NaN row included. The grid is compressed sparse rows
    over the occupied cells: cells holds their keys floor(x / cell_size_deg)
    + i·floor(y / cell_size_deg), sorted, and cell c lists the parts whose
    box meets it as cell_parts[cell_offsets[c]:cell_offsets[c + 1]], ordered
    by tract code and then part.
    """

    cell_size_deg: float
    tracts: TractTable
    geoids: tuple[str, ...]
    part_code: np.ndarray
    min_x: np.ndarray
    min_y: np.ndarray
    max_x: np.ndarray
    max_y: np.ndarray
    part_first: np.ndarray
    part_edges: np.ndarray
    cells: np.ndarray
    cell_offsets: np.ndarray
    cell_parts: np.ndarray


def build_index(tracts: TractTable, cell_size_deg: float = DEFAULT_CELL_SIZE_DEG) -> TractIndex:
    """Build an immutable grid index over a TractTable's columns."""
    if not len(tracts):
        raise GeoIndexError("cannot build an index over an empty tract list")
    if not (math.isfinite(cell_size_deg) and cell_size_deg > 0):
        raise GeoIndexError("cell_size_deg must be finite and positive")
    # Bounding boxes of the parts; fmin and fmax skip the NaN ring breaks.
    part_first = tracts.ring_offsets[tracts.part_offsets[:-1]]
    min_x, max_x = np.fmin.reduceat(tracts.x, part_first), np.fmax.reduceat(tracts.x, part_first)
    min_y, max_y = np.fmin.reduceat(tracts.y, part_first), np.fmax.reduceat(tracts.y, part_first)
    by_geoid = np.argsort(tracts.geoids, kind="stable")
    code = np.empty(len(tracts), dtype=np.int32)
    code[by_geoid] = np.arange(len(tracts), dtype=np.int32)
    part_code = np.repeat(code, np.diff(tracts.tract_offsets))

    # One (cell, part) entry per cell that a part's box meets.
    with np.errstate(over="ignore"):  # an overflow is the check's infinity
        cx0, cx1 = np.floor(min_x / cell_size_deg), np.floor(max_x / cell_size_deg)
        cy0, cy1 = np.floor(min_y / cell_size_deg), np.floor(max_y / cell_size_deg)
    if not np.isfinite([cx0, cx1, cy0, cy1]).all():
        raise GeoIndexError("cell_size_deg is too small for the tracts' extent")
    ny = (cy1 - cy0 + 1).astype(np.int64)
    counts = (cx1 - cx0 + 1).astype(np.int64) * ny
    # The entry arrays are the index's transient memory: each is dropped as
    # soon as the next is built.
    part = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    step = np.arange(len(part)) - np.repeat(np.cumsum(counts) - counts, counts)
    dx, dy = np.divmod(step, ny[part])
    del step
    kx = cx0[part] + dx
    del dx
    ky = cy0[part] + dy
    del dy
    # Within a cell, parts in (tract code, part) order: overlaps resolve to the smallest geoid.
    rank = np.empty(len(part_code), dtype=np.int32)
    rank[np.argsort(part_code, kind="stable")] = np.arange(len(part_code), dtype=np.int32)
    order = np.lexsort((rank[part], ky, kx))
    cell_parts = part[order]
    del part
    kx = kx[order]
    ky = ky[order]
    del order
    keys = _complex_points(kx, ky)
    del kx, ky
    new_cell = run_heads(keys)
    cells = keys[new_cell]
    del keys
    return TractIndex(
        cell_size_deg=cell_size_deg, tracts=tracts,
        geoids=tuple(tracts.geoids[by_geoid].tolist()), part_code=part_code,
        min_x=min_x, min_y=min_y, max_x=max_x, max_y=max_y, part_first=part_first,
        part_edges=tracts.ring_offsets[tracts.part_offsets[1:]] - part_first - 2,
        cells=cells, cell_offsets=np.append(new_cell, len(cell_parts)), cell_parts=cell_parts,
    )


def locate_stops(index: TractIndex, stops: Stops) -> np.ndarray:
    """Return the tract of every stop, in stop order, as int32 codes.

    A code is a position in index.geoids, or -1 for a stop outside every
    tract. Distinct points
    are located _BLOCK_POINTS at a time: each point finds its cell in the
    grid and is paired with the cell's candidate parts, pairs outside a
    part's bounding box are dropped, and each remaining pair is expanded
    over the part's edges, keeping the edges whose closed y-span holds the
    point (the only ones the on-edge and crossing tests can count). A
    point's tract is the first candidate, in the grid's geoid order, with a
    part that has the point on an edge or an odd crossing count. Raises
    GeoIndexError for a point with no finite index cell (a NaN or infinite
    coordinate).
    """
    if not len(stops):
        return np.empty(0, dtype=np.int32)
    # Distinct points as lon + i·lat, sorted by lon then lat: np.unique
    # without its copy of the column and its inverse index. 0.0 and -0.0
    # share an entry, which is safe: the lookup only scales, floors,
    # subtracts and compares a coordinate, and none of those tells them
    # apart.
    points = _complex_points(stops.lon, stops.lat)
    points.sort()
    points = points[np.r_[True, points[1:] != points[:-1]]]
    x, y = points.real, points.imag
    kx = np.floor(x / index.cell_size_deg)
    ky = np.floor(y / index.cell_size_deg)
    if not (np.isfinite(kx).all() and np.isfinite(ky).all()):
        raise GeoIndexError("stop point has no finite index cell")
    located = np.empty(len(points), dtype=np.int32)
    for start in range(0, len(points), _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        located[block] = _locate_block(index, x[block], y[block], kx[block], ky[block])
    # Map stops back to their points a block at a time, with no n-long
    # inverse index.
    where = np.empty(len(stops), dtype=np.int32)
    for start in range(0, len(stops), _BLOCK_POINTS):
        end = start + _BLOCK_POINTS
        chunk = _complex_points(stops.lon[start:end], stops.lat[start:end])
        where[start:end] = located[np.searchsorted(points, chunk)]
    return where


def _complex_points(lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """lon + i·lat, built without arithmetic (1j * inf would give a NaN real part)."""
    points = np.empty(len(lon), dtype=np.complex128)
    points.real = lon
    points.imag = lat
    return points


def _ragged_passes(counts: np.ndarray):
    """Yield (item, offset) per row of a ragged expansion, _PASS_ROWS rows at a time.

    Item i owns counts[i] consecutive rows; offset is a row's position
    within its item. A pass may end inside an item.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for r0 in range(0, total, _PASS_ROWS):
        r1 = min(r0 + _PASS_ROWS, total)
        i0 = int(np.searchsorted(ends, r0, side="right"))
        i1 = int(np.searchsorted(ends, r1 - 1, side="right")) + 1
        rows = np.minimum(ends[i0:i1], r1) - np.maximum(starts[i0:i1], r0)
        item = np.repeat(np.arange(i0, i1, dtype=np.int32), rows)
        offset = np.arange(r1 - r0, dtype=np.int32)
        offset -= np.repeat((starts[i0:i1] - r0).astype(np.int32), rows)
        yield item, offset


def _locate_block(index: TractIndex, x, y, kx, ky) -> np.ndarray:
    """Tract codes (-1 where outside) of points with index cells kx, ky."""
    located = np.full(len(x), -1, dtype=np.int32)
    # Each point's run of candidate parts in the grid; none where its cell is empty.
    keys = _complex_points(kx, ky)
    cell = np.minimum(np.searchsorted(index.cells, keys), len(index.cells) - 1)
    point_first = index.cell_offsets[cell]
    point_cands = np.where(index.cells[cell] == keys, index.cell_offsets[cell + 1] - point_first, 0)
    if not point_cands.any():
        return located
    min_x, min_y, max_x, max_y = index.min_x, index.min_y, index.max_x, index.max_y

    # (point, part) pairs whose bounding box holds the point, point-major.
    pair_point, pair_part = [], []
    for item, offset in _ragged_passes(point_cands):
        part = index.cell_parts[point_first[item] + offset]
        coord = x[item]
        keep = min_x[part] <= coord
        keep &= coord <= max_x[part]
        coord = y[item]
        keep &= min_y[part] <= coord
        keep &= coord <= max_y[part]
        pair_point.append(item[keep])
        pair_part.append(part[keep])
    pair_point = np.concatenate(pair_point)
    pair_part = np.concatenate(pair_part)
    if not len(pair_part):
        return located

    # The parts' vertex rows, rings separated by a NaN row: an edge touching
    # it has a NaN y-span, which the y-span test drops.
    vx, vy = index.tracts.x, index.tracts.y

    # The oracle point_in_part()'s tests (tests/conftest.py) over (pair,
    # edge) rows: on an edge counts as inside; otherwise the parity of the
    # crossings decides.
    pair_x, pair_y = x[pair_point], y[pair_point]
    pair_v0 = index.part_first[pair_part]
    on_edge = np.zeros(len(pair_part), dtype=bool)
    crossings = np.zeros(len(pair_part), dtype=np.int32)
    for item, offset in _ragged_passes(index.part_edges[pair_part]):
        e = pair_v0[item]
        e += offset
        py = pair_y[item]
        y1, y2 = vy[e], vy[e + 1]
        span = np.minimum(y1, y2) <= py
        span &= py <= np.maximum(y1, y2)
        span = np.flatnonzero(span)
        item, e, py, y1, y2 = item[span], e[span], py[span], y1[span], y2[span]
        px, x1, x2 = pair_x[item], vx[e], vx[e + 1]
        on = (
            ((x2 - x1) * (py - y1) == (y2 - y1) * (px - x1))
            & (np.minimum(x1, x2) <= px)
            & (px <= np.maximum(x1, x2))
        )
        on_edge[item[on]] = True
        c = np.flatnonzero((y1 > py) != (y2 > py))
        c = c[px[c] < (x2[c] - x1[c]) * (py[c] - y1[c]) / (y2[c] - y1[c]) + x1[c]]
        np.add.at(crossings, item[c], 1)

    # The first containing pair of each point is its smallest geoid.
    hit = np.flatnonzero(on_edge | (crossings % 2 == 1))
    points = pair_point[hit]
    first = np.flatnonzero(np.diff(points, prepend=-1))
    located[points[first]] = index.part_code[pair_part[hit[first]]]
    return located

