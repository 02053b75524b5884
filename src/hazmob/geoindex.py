"""Point-to-tract assignment via a flat uniform grid index.

Containment uses even-odd ray casting in planar lon/lat space with
boundary points counting as inside. The grid only narrows the candidate
list; locate() results are identical to an exhaustive scan over all
tract polygons for any cell size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CensusTract, Geometry

DEFAULT_CELL_SIZE_DEG = 0.05


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
    if cell_size_deg <= 0:
        raise GeoIndexError("cell_size_deg must be positive")
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
    return TractIndex(cell_size_deg=cell_size_deg, grid=grid, geometries=geometries)


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


def locate_stops(index: TractIndex, stops) -> list[str | None]:
    """Return the tract of every stop, in stop order.

    locate() is a pure function of the point, so each distinct (lon, lat)
    is located once and its result reused for every stop made there.
    0.0 and -0.0 share a key, which is safe: locate() only scales, floors,
    subtracts and compares a coordinate, and none of those tells them apart.
    """
    seen: dict[tuple[float, float], str | None] = {}
    where = []
    for stop in stops:
        point = (stop.lon, stop.lat)
        if point not in seen:
            seen[point] = locate(index, stop.lon, stop.lat)
        where.append(seen[point])
    return where


def locate_brute_force(index: TractIndex, lon: float, lat: float) -> str | None:
    """Exhaustive all-polygon scan; the correctness oracle for locate()."""
    for geoid in sorted(index.geometries):
        if contains(index.geometries[geoid], lon, lat):
            return geoid
    return None
