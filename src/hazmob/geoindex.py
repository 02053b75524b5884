"""Point-to-tract assignment via a flat uniform grid index.

Containment uses even-odd ray casting (Haines, "Point in Polygon
Strategies", Graphics Gems IV, 1994) in planar lon/lat space with
boundary points counting as inside; where tracts overlap, the smallest
geoid wins. The grid only narrows the candidate list; results are
identical to an exhaustive scan over all tract polygons for any cell
size.

locate_stops() is the pipeline's lookup. It runs the crossing test as
numpy passes over all distinct stop points at once, evaluating the same
float expressions in the same order as point_in_part(), so it returns
exactly what locate() returns for every point, as a code into the
index's sorted geoids. The scalar locate(),
contains() and point_in_part(), and the exhaustive locate_brute_force(),
are its test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import CensusTract, Geometry, Stops

DEFAULT_CELL_SIZE_DEG = 0.05

# locate_stops() takes distinct points this many at a time, in index-cell
# order, and one numpy pass covers at most this many rows of a ragged
# expansion (points over their cell's candidate parts, then (point, part)
# pairs over the part's edges). They bound the transient arrays, and so a
# run's peak RSS; results do not depend on them.
_BLOCK_POINTS = 2048
_PASS_ROWS = 32768


class GeoIndexError(Exception):
    """Raised when an index cannot be built."""


@dataclass(frozen=True, slots=True)
class _PreparedPart:
    """One polygon part with its bounding box precomputed."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float
    rings: tuple[tuple[tuple[float, float], ...], ...]


@dataclass(frozen=True, slots=True)
class TractIndex:
    cell_size_deg: float
    grid: dict[tuple[int, int], tuple[str, ...]]
    geometries: dict[str, tuple[_PreparedPart, ...]]
    geoids: tuple[str, ...]  # sorted; locate_stops() returns positions in it


def _prepare(geometry: Geometry) -> tuple[_PreparedPart, ...]:
    parts = []
    for part in geometry:
        xs = [p[0] for ring in part for p in ring]
        ys = [p[1] for ring in part for p in ring]
        parts.append(_PreparedPart(min(xs), min(ys), max(xs), max(ys), part))
    return tuple(parts)


def build_index(tracts: list[CensusTract], cell_size_deg: float = DEFAULT_CELL_SIZE_DEG) -> TractIndex:
    """Build an immutable grid index over the given tracts."""
    if not tracts:
        raise GeoIndexError("cannot build an index over an empty tract list")
    if not (math.isfinite(cell_size_deg) and cell_size_deg > 0):
        raise GeoIndexError("cell_size_deg must be finite and positive")
    cells: dict[tuple[int, int], list[str]] = {}
    geometries: dict[str, tuple[_PreparedPart, ...]] = {}
    for tract in tracts:
        prepared = _prepare(tract.geometry)
        geometries[tract.geoid] = prepared
        for part in prepared:
            cx0 = math.floor(part.min_x / cell_size_deg)
            cx1 = math.floor(part.max_x / cell_size_deg)
            cy0 = math.floor(part.min_y / cell_size_deg)
            cy1 = math.floor(part.max_y / cell_size_deg)
            for cx in range(cx0, cx1 + 1):
                for cy in range(cy0, cy1 + 1):
                    bucket = cells.setdefault((cx, cy), [])
                    if tract.geoid not in bucket:
                        bucket.append(tract.geoid)
    # Candidates sorted by geoid so overlap ties resolve to the smallest geoid.
    grid = {cell: tuple(sorted(geoids)) for cell, geoids in cells.items()}
    return TractIndex(cell_size_deg=cell_size_deg, grid=grid, geometries=geometries,
                      geoids=tuple(sorted(geometries)))


def point_in_part(part: _PreparedPart, x: float, y: float) -> bool:
    """Even-odd containment for one polygon part; boundary counts inside."""
    if x < part.min_x or x > part.max_x or y < part.min_y or y > part.max_y:
        return False
    inside = False
    for ring in part.rings:
        x1, y1 = ring[0]
        for i in range(1, len(ring)):
            x2, y2 = ring[i]
            # Exactly on this edge: inside by the declared boundary rule.
            if (
                (x2 - x1) * (y - y1) == (y2 - y1) * (x - x1)
                and min(x1, x2) <= x <= max(x1, x2)
                and min(y1, y2) <= y <= max(y1, y2)
            ):
                return True
            if (y1 > y) != (y2 > y):
                if x < (x2 - x1) * (y - y1) / (y2 - y1) + x1:
                    inside = not inside
            x1, y1 = x2, y2
    return inside


def contains(geometry: tuple[_PreparedPart, ...], x: float, y: float) -> bool:
    return any(point_in_part(part, x, y) for part in geometry)


def locate(index: TractIndex, lon: float, lat: float) -> str | None:
    """Return the geoid of the tract containing (lon, lat), or None.

    Candidates are scanned in geoid order, so if tract geometries overlap
    the smallest geoid wins deterministically.
    """
    cell = (math.floor(lon / index.cell_size_deg), math.floor(lat / index.cell_size_deg))
    candidates = index.grid.get(cell)
    if not candidates:
        return None
    geometries = index.geometries
    for geoid in candidates:
        if contains(geometries[geoid], lon, lat):
            return geoid
    return None


def locate_stops(index: TractIndex, stops: Stops) -> np.ndarray:
    """Return the tract of every stop, in stop order, as int32 codes.

    A code is a position in index.geoids, or -1 for a stop outside every
    tract: index.geoids[code] == locate(index, lon, lat). Distinct points
    are sorted by index cell and located _BLOCK_POINTS at a time: each
    point is paired with its cell's candidate parts, pairs outside a part's
    bounding box are dropped, and each remaining pair is expanded over the
    part's edges, keeping the edges whose closed y-span holds the point
    (the only ones the on-edge and crossing tests can count). A point's
    tract is the first candidate, in the grid's geoid order, with a part
    that has the point on an edge or an odd crossing count. Raises
    GeoIndexError for a point with no finite index cell (a NaN or infinite
    coordinate).
    """
    if not len(stops):
        return np.empty(0, dtype=np.int32)
    # Distinct points as lon + i·lat, sorted by lon then lat: np.unique
    # without its copy of the column and its inverse index. 0.0 and -0.0
    # share an entry, which is safe: locate() only scales, floors, subtracts
    # and compares a coordinate, and none of those tells them apart.
    points = _complex_points(stops.lon, stops.lat)
    points.sort()
    points = points[np.r_[True, points[1:] != points[:-1]]]
    x, y = points.real, points.imag
    kx = np.floor(x / index.cell_size_deg)
    ky = np.floor(y / index.cell_size_deg)
    if not (np.isfinite(kx).all() and np.isfinite(ky).all()):
        raise GeoIndexError("stop point has no finite index cell")
    order = np.lexsort((ky, kx))
    codes = {geoid: code for code, geoid in enumerate(index.geoids)}
    located = np.empty(len(points), dtype=np.int32)
    for start in range(0, len(order), _BLOCK_POINTS):
        block = order[start:start + _BLOCK_POINTS]
        located[block] = _locate_block(index, codes, x[block], y[block], kx[block], ky[block])
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


_RING_BREAK = ((math.nan, math.nan),)


def _locate_block(index: TractIndex, codes: dict[str, int], x, y, kx, ky) -> np.ndarray:
    """Tract codes (-1 where outside) of points sorted by cell."""
    located = np.full(len(x), -1, dtype=np.int32)
    # Candidate parts of each run of points that share a cell, in the grid's
    # geoid order; parts are numbered in the order the block first meets them.
    # The float cell keys find the grid's int keys (3.0 == 3, equal hashes).
    run_start = np.flatnonzero(np.r_[True, (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1])])
    parts: list[_PreparedPart] = []
    part_code: list[int] = []
    part_ids: dict[str, range] = {}
    cand: list[int] = []
    run_cands = []
    for cell in zip(kx[run_start].tolist(), ky[run_start].tolist()):
        before = len(cand)
        for geoid in index.grid.get(cell, ()):
            ids = part_ids.get(geoid)
            if ids is None:
                geometry = index.geometries[geoid]
                ids = part_ids[geoid] = range(len(parts), len(parts) + len(geometry))
                parts += geometry
                part_code += [codes[geoid]] * len(geometry)
            cand += ids
        run_cands.append(len(cand) - before)
    if not parts:
        return located
    run_len = np.diff(np.r_[run_start, len(x)])
    point_cands = np.repeat(run_cands, run_len)
    point_first = np.repeat(np.cumsum(run_cands) - run_cands, run_len).astype(np.int32)
    cand = np.array(cand, dtype=np.int32)
    min_x, min_y, max_x, max_y = np.array(
        [(p.min_x, p.min_y, p.max_x, p.max_y) for p in parts], dtype=np.float64
    ).T

    # (point, part) pairs whose bounding box holds the point, point-major.
    pair_point, pair_part = [], []
    for item, offset in _ragged_passes(point_cands):
        part = point_first[item]
        part += offset
        part = cand[part]
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

    # Vertices of the parts the pairs use, rings separated by a NaN vertex:
    # an edge touching it has a NaN y-span, which the y-span test drops.
    part_v0 = np.zeros(len(parts), dtype=np.int32)
    part_edges = np.zeros(len(parts), dtype=np.int64)
    rings = []
    n_vertices = 0
    for j in np.flatnonzero(np.bincount(pair_part, minlength=len(parts))).tolist():
        part_v0[j] = n_vertices
        for k, ring in enumerate(parts[j].rings):
            if k:
                rings.append(_RING_BREAK)
            rings.append(ring)
            n_vertices += len(ring) + (k > 0)
        part_edges[j] = n_vertices - part_v0[j] - 1
    coords = np.fromiter(chain.from_iterable(chain.from_iterable(rings)), np.float64, 2 * n_vertices)
    vx, vy = coords[0::2], coords[1::2]

    # point_in_part()'s tests over (pair, edge) rows: on an edge counts as
    # inside; otherwise the parity of the crossings decides.
    pair_x, pair_y = x[pair_point], y[pair_point]
    pair_v0 = part_v0[pair_part]
    on_edge = np.zeros(len(pair_part), dtype=bool)
    crossings = np.zeros(len(pair_part), dtype=np.int32)
    for item, offset in _ragged_passes(part_edges[pair_part]):
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
    located[points[first]] = np.array(part_code, dtype=np.int32)[pair_part[hit[first]]]
    return located


def locate_brute_force(index: TractIndex, lon: float, lat: float) -> str | None:
    """Exhaustive all-polygon scan; the correctness oracle for locate()."""
    for geoid in sorted(index.geometries):
        if contains(index.geometries[geoid], lon, lat):
            return geoid
    return None
