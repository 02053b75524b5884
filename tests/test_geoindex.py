import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazmob import geoindex
from hazmob.geoindex import GeoIndexError, build_index, locate_stops
from hazmob.model import StopRecord

from conftest import (Tract, contains, frame_of, geoids_of, locate, locate_brute_force, stop_records, stops_at,
                      tract_rows, tract_table, tract_worlds, unit_square_tract, wobbled)


@pytest.fixture(scope="module")
def unit_square_index():
    return build_index(tract_table([unit_square_tract("48001950100", 0, 0)]), cell_size_deg=1.0)


@pytest.mark.filterwarnings("error")
def test_build_index_rejects_empty_and_bad_cell():
    with pytest.raises(GeoIndexError):
        build_index(tract_table([]))
    square = tract_table([unit_square_tract("48001950100", 0, 0)])
    with pytest.raises(GeoIndexError):
        build_index(square, cell_size_deg=0.0)
    # The unit square spans no finite cell range at 1e-320, and a finite
    # span that does not fit int64 at 1e-300 and 1e-20: each is rejected
    # before the int64 casts, with no numpy warning.
    for bad in (1e-320, 1e-300, 1e-20):
        with pytest.raises(GeoIndexError, match="cell_size_deg is too small for the tracts' extent"):
            build_index(square, cell_size_deg=bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(GeoIndexError):
            build_index(square, cell_size_deg=bad)


def test_single_tract_grid_populated(unit_square_index):
    index = unit_square_index
    assert len(index.cells) >= 1
    buckets = np.split(index.part_code[index.cell_parts], index.cell_offsets[1:-1])
    assert all("48001950100" in {index.geoids[c] for c in bucket.tolist()} for bucket in buckets)


def test_locate_interior_point(unit_square_index):
    assert locate(unit_square_index, 0.5, 0.5) == "48001950100"


def test_locate_exterior_point(unit_square_index):
    assert locate(unit_square_index, 2.0, 2.0) is None


def test_boundary_points_count_as_inside(unit_square_index):
    assert locate(unit_square_index, 1.0, 0.5) == "48001950100"
    assert locate(unit_square_index, 0.0, 0.5) == "48001950100"
    assert locate(unit_square_index, 0.5, 0.0) == "48001950100"
    assert locate(unit_square_index, 0.0, 0.0) == "48001950100"  # vertex
    assert locate(unit_square_index, 1.0, 1.0) == "48001950100"  # vertex


def grid_tracts(n: int) -> list[Tract]:
    return [
        unit_square_tract(f"48{row:03d}{col:06d}", col, row)
        for row in range(n)
        for col in range(n)
    ]


def test_grid_coverage_lower_bound():
    index = build_index(tract_table(grid_tracts(10)), cell_size_deg=0.05)
    total_entries = len(index.cell_parts)  # one (cell, part) entry per cell a part's box meets
    assert total_entries >= 100


def test_overlapping_tracts_resolve_to_smallest_geoid():
    a = unit_square_tract("48001950200", 0, 0)
    b = unit_square_tract("48001950100", 0.5, 0)  # overlaps a on [0.5, 1]
    index = build_index(tract_table([a, b]), cell_size_deg=0.25)
    assert locate(index, 0.75, 0.5) == "48001950100"
    assert locate(index, 0.25, 0.5) == "48001950200"


def test_multipolygon_membership_any_part():
    ring1 = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))
    ring2 = ((5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0), (5.0, 5.0))
    tract = Tract(
        geoid="48001950100", geometry=((ring1,), (ring2,)), population=10,
        pct_minority=0.1, pct_below_poverty200=0.1,
    )
    index = build_index(tract_table([tract]), cell_size_deg=0.5)
    assert locate(index, 0.5, 0.5) == "48001950100"
    assert locate(index, 5.5, 5.5) == "48001950100"
    assert locate(index, 3.0, 3.0) is None


def test_polygon_hole_excluded_boundary_included():
    outer = ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0))
    hole = ((1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0), (1.0, 1.0))
    tract = Tract(
        geoid="48001950100", geometry=(((outer, hole)),),
        population=10, pct_minority=0.1, pct_below_poverty200=0.1,
    )
    geom = tract_rows(build_index(tract_table([tract]), cell_size_deg=1.0).tracts)[0].geometry
    assert contains(geom, 0.5, 0.5)
    assert not contains(geom, 2.0, 2.0)  # inside the hole
    assert contains(geom, 1.0, 2.0)  # on the hole boundary
    assert contains(geom, 3.5, 2.0)


def test_locate_agrees_with_brute_force_oracle():
    tracts = tract_table(grid_tracts(10))
    index = build_index(tracts, cell_size_deg=0.05)
    rng = random.Random(4242)
    disagreements = 0
    for _ in range(10000):
        lon = rng.uniform(-1.0, 11.0)
        lat = rng.uniform(-1.0, 11.0)
        if locate(index, lon, lat) != locate_brute_force(index, lon, lat):
            disagreements += 1
    assert disagreements == 0


def test_locate_independent_of_cell_size():
    tracts = tract_table(grid_tracts(5))
    coarse = build_index(tracts, cell_size_deg=0.5)
    fine = build_index(tracts, cell_size_deg=0.05)
    rng = random.Random(7)
    for _ in range(10000):
        lon = rng.uniform(-0.5, 5.5)
        lat = rng.uniform(-0.5, 5.5)
        assert locate(coarse, lon, lat) == locate(fine, lon, lat)


def test_locate_deterministic_on_repeat(unit_square_index):
    point = (0.123456, 0.654321)
    results = {locate(unit_square_index, *point) for _ in range(50)}
    assert results == {"48001950100"}


# ---------------------------------------------------------------------------
# locate_stops: the block-vectorized lookup gives the same answers as the
# scalar locate() and the brute-force oracle
# ---------------------------------------------------------------------------

def _ring(*corners):
    return tuple(corners) + (corners[0],)


def _tract(geoid, *parts):
    return Tract(geoid=geoid, geometry=tuple(parts), population=10,
                 pct_minority=0.1, pct_below_poverty200=0.1)


def _wobbled_pair():
    """A 200-edge ring with wobbled sides, as in county-stops, and a neighbour
    sharing its wobbled east side (the same vertices in reverse order)."""
    rng = random.Random(200)
    corners = [(10.0, 1.0), (12.0, 1.0), (12.0, 3.0), (10.0, 3.0), (10.0, 1.0)]
    sides = [wobbled(corners[i], corners[i + 1], 50, 0.1, rng) for i in range(4)]
    ring = tuple(pt for side in sides for pt in side[:-1]) + (corners[0],)
    east = sides[1]
    neighbour = tuple(east[::-1]) + ((13.0, 1.0), (13.0, 3.0), east[-1])
    return _tract("48005000100", (ring,)), _tract("48005000200", (neighbour,))


# Unit squares around the origin share edges on x = 0 and y = 0 and a vertex
# at (0, 0); an L-shaped tract sits on top of them and a triangle to the
# right, whose slanted edge crosses grid cells. Tract ...0100 is a
# MultiPolygon: a square with a square hole plus a detached part. The island
# tract ...0200 fills the hole exactly, so the hole's boundary belongs to
# both and resolves to the smaller geoid. Tracts 48005... are the wobbled
# 201-vertex ring and its neighbour; the U-shaped 48007000100 has
# horizontal edges on both sides of its notch.
_OUTER = _ring((3.0, 0.0), (7.0, 0.0), (7.0, 4.0), (3.0, 4.0))
_HOLE = _ring((4.0, 1.0), (6.0, 1.0), (6.0, 3.0), (4.0, 3.0))
LOCATE_WORLD = [
    unit_square_tract(f"48002{col + 2:03d}{row + 1:03d}", col, row)
    for col in (-2, -1, 0, 1)
    for row in (-1, 0)
] + [
    _tract("48003000100", (_OUTER, _HOLE), (_ring((8.0, 0.0), (9.0, 0.0), (9.0, 1.0), (8.0, 1.0)),)),
    _tract("48003000200", (_HOLE,)),
    _tract("48004000100", (_ring((-2.0, 1.0), (0.0, 1.0), (0.0, 2.0), (-1.0, 2.0),
                                 (-1.0, 3.0), (-2.0, 3.0)),)),
    _tract("48004000200", (_ring((0.0, 1.0), (2.0, 1.0), (0.0, 3.0)),)),
    *_wobbled_pair(),
    _tract("48007000100", (_ring((14.0, 1.0), (17.0, 1.0), (17.0, 3.0), (16.0, 3.0),
                                 (16.0, 2.0), (15.0, 2.0), (15.0, 3.0), (14.0, 3.0)),)),
]
LOCATE_TABLE = tract_table(LOCATE_WORLD)
LOCATE_INDEX = build_index(LOCATE_TABLE, cell_size_deg=0.75)
# Index cells finer than, comparable to, and coarser than the whole world.
CELL_SIZES = (0.1, 0.75, 20.0)
LOCATE_INDEXES = [build_index(LOCATE_TABLE, cell_size_deg=c) for c in CELL_SIZES]
# Block and pass sizes so small that block boundaries fall between points of
# one cell and pass boundaries inside a part's edge list.
SMALL_SIZES = {"_BLOCK_POINTS": 3, "_PASS_ROWS": 17}
RINGS = [ring for t in LOCATE_WORLD for part in t.geometry for ring in part]
EDGES = [(ring[i], ring[i + 1]) for ring in RINGS for i in range(len(ring) - 1)]


def _on_edge(edge, t):
    (x1, y1), (x2, y2) = edge
    return (x1 + (x2 - x1) * t, y1 + (y2 - y1) * t)


def _nudge(point, dx, dy):
    """Move each coordinate of point by one ulp in the direction of dx, dy (0 stays)."""
    return tuple(v if d == 0 else math.nextafter(v, math.copysign(math.inf, d))
                 for v, d in zip(point, (dx, dy)))


# Quarter-degree values make points that share one coordinate common.
_coord = st.one_of(st.floats(-3.0, 18.0, allow_nan=False),
                   st.sampled_from([k / 4 for k in range(-12, 73)]))
_signed_zero = st.sampled_from([0.0, -0.0])
_boundary = st.one_of(
    st.sampled_from(sorted({pt for ring in RINGS for pt in ring})),
    st.builds(_on_edge, st.sampled_from(EDGES), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
)
_ulp = st.sampled_from([-1, 0, 1])
_points = st.one_of(
    st.tuples(_coord, _coord),
    _boundary,
    st.builds(_nudge, _boundary, _ulp, _ulp),
    st.tuples(_signed_zero, _coord),
    st.tuples(_coord, _signed_zero),
    st.tuples(_signed_zero, _signed_zero),
)
# Few distinct points, many stops: most stops repeat an earlier point.
_stop_lists = st.lists(_points, min_size=1, max_size=12).flatmap(
    lambda pts: st.lists(st.sampled_from(pts), max_size=60)
).map(lambda pts: [StopRecord(user_id="u", lon=x, lat=y, start_ts=0, dwell_s=1) for x, y in pts])


@settings(max_examples=300, deadline=None)
@given(_stop_lists)
def test_locate_stops_equals_scalar_locate_and_brute_force(stops):
    expected = [locate_brute_force(LOCATE_INDEX, s.lon, s.lat) for s in stops]
    frame = frame_of(stops)
    for index in LOCATE_INDEXES:
        assert [locate(index, s.lon, s.lat) for s in stops] == expected
        assert geoids_of(index, locate_stops(index, frame)) == expected
        with mock.patch.multiple(geoindex, **SMALL_SIZES):
            assert geoids_of(index, locate_stops(index, frame)) == expected


FIXTURE_CASES = [
    ((0.0, 0.0), "48002001000"),  # shared vertex, smallest geoid
    ((-0.0, -0.0), "48002001000"),
    ((3.5, 2.0), "48003000100"),  # ring around the hole
    ((3.25, 0.5), "48003000100"),  # below the hole, where joined rings would add a crossing
    ((8.5, 0.5), "48003000100"),  # detached part
    ((5.0, 2.0), "48003000200"),  # island inside the hole
    ((4.0, 2.0), "48003000100"),  # hole boundary: both, smaller wins
    ((-0.5, 2.5), None),  # notch of the L
    ((-0.5, 3.0), None),  # on the line of the L's top edge, past its end
    ((-1.5, 2.5), "48004000100"),
    ((0.5, 1.5), "48004000200"),  # inside the triangle
    ((1.0, 2.0), "48004000200"),  # on its slanted edge
    ((1.5, 2.0), None),
    ((11.0, 2.0), "48005000100"),  # inside the wobbled ring
    ((12.5, 2.0), "48005000200"),
    ((15.5, 3.0), None),  # on the line of both top edges of the U, between them
    ((15.5, 2.0), "48007000100"),  # notch bottom
]


def test_locate_stops_fixture_covers_edges_holes_and_islands():
    assert len(LOCATE_WORLD[-3].geometry[0][0]) == 201
    stops = stops_at(point for point, _ in FIXTURE_CASES)
    expected = [geoid for _, geoid in FIXTURE_CASES]
    for index in LOCATE_INDEXES:
        assert [locate(index, s.lon, s.lat) for s in stop_records(stops)] == expected
        assert geoids_of(index, locate_stops(index, stops)) == expected
        with mock.patch.multiple(geoindex, **SMALL_SIZES):
            assert geoids_of(index, locate_stops(index, stops)) == expected


def _scattered_stops(index, rng, n):
    """n stops spread over the index's tracts and half a degree around them, then n // 2 repeats."""
    x0, x1 = index.min_x.min() - 0.5, index.max_x.max() + 0.5
    y0, y1 = index.min_y.min() - 0.5, index.max_y.max() + 0.5
    pts = [(rng.uniform(x0, x1), rng.uniform(y0, y1)) for _ in range(n)]
    pts += [rng.choice(pts) for _ in range(n // 2)]
    return stops_at(pts)


def test_locate_stops_calls_neither_locate_nor_contains():
    stops = _scattered_stops(LOCATE_INDEX, random.Random(5), 3000)
    expected = [locate(LOCATE_INDEX, s.lon, s.lat) for s in stop_records(stops)]
    # The scalar oracles live in the tests only, so locate_stops has none to fall back to.
    for name in ("locate", "contains", "point_in_part", "locate_brute_force"):
        assert not hasattr(geoindex, name), name
    index = build_index(tract_table(LOCATE_WORLD), cell_size_deg=0.75)
    assert geoids_of(index, locate_stops(index, stops)) == expected


def _world_points(table, rng):
    """Every vertex and edge midpoint of the table's rings, random points over
    and around its tracts, and two points in cells far from every tract."""
    points = []
    for tract in tract_rows(table):
        for part in tract.geometry:
            for ring in part:
                points += ring
                points += [((x1 + x2) / 2, (y1 + y2) / 2) for (x1, y1), (x2, y2) in zip(ring, ring[1:])]
    x0, x1 = np.nanmin(table.x), np.nanmax(table.x)
    y0, y1 = np.nanmin(table.y), np.nanmax(table.y)
    points += [(rng.uniform(x0 - 1, x1 + 1), rng.uniform(y0 - 1, y1 + 1)) for _ in range(60)]
    return points + [(x0 - 30.0, y0), (x1 + 30.0, y1 + 30.0)]


@settings(max_examples=40, deadline=None)
@given(tract_worlds(), st.randoms(use_true_random=False))
def test_locate_stops_equals_brute_force_on_generated_worlds(table, rng):
    points = _world_points(table, rng)
    stops = stops_at(points)
    expected = [locate_brute_force(build_index(table), x, y) for x, y in points]
    for cell in CELL_SIZES:
        index = build_index(table, cell_size_deg=cell)
        assert geoids_of(index, locate_stops(index, stops)) == expected
        keys = np.floor(np.array(points) / cell) @ np.array([1, 1j])
        assert not np.isin(keys, index.cells).all()  # some points have no candidate part


def test_locate_stops_empty_builds_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("nothing to build for no stops")

    monkeypatch.setattr(geoindex, "_complex_points", forbidden)
    monkeypatch.setattr(geoindex, "_locate_block", forbidden)
    assert geoids_of(None, locate_stops(object(), stops_at([]))) == []


def test_locate_stops_rejects_points_without_a_finite_cell():
    for lon, lat in ((math.nan, 0.5), (0.5, math.inf)):
        with pytest.raises(GeoIndexError):
            locate_stops(LOCATE_INDEX, stops_at([(lon, lat)]))


def _wobbled_grid(n, rng):
    """n x n tracts of 201-vertex rings whose wobbled sides neighbours share."""
    horiz = {(i, j): wobbled((float(i), float(j)), (i + 1.0, float(j)), 50, 0.1, rng)
             for i in range(n) for j in range(n + 1)}
    vert = {(i, j): wobbled((float(i), float(j)), (float(i), j + 1.0), 50, 0.1, rng)
            for i in range(n + 1) for j in range(n)}
    tracts = []
    for i in range(n):
        for j in range(n):
            ring = (horiz[i, j][:-1] + vert[i + 1, j][:-1]
                    + horiz[i, j + 1][::-1][:-1] + vert[i, j][::-1])
            tracts.append(_tract(f"48006{i:03d}{j:03d}", (tuple(ring),)))
    return tracts


def test_locate_stops_memory_is_bounded():
    rng = random.Random(17)
    index = build_index(tract_table(_wobbled_grid(12, rng)), cell_size_deg=0.05)
    stops = stops_at((rng.uniform(-0.5, 12.5), rng.uniform(-0.5, 12.5)) for _ in range(100_000))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        where = locate_stops(index, stops)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # The result is 0.4 MB; the distinct-point arrays take 16-24 bytes per
    # point and each block and pass a bounded amount on top.
    assert peak < 10_000_000, peak
    sample = rng.sample(range(len(stops)), 300)
    assert ([geoids_of(index, where)[i] for i in sample]
            == [locate(index, stops.lon[i], stops.lat[i]) for i in sample])


def reference_grid(rows, cell):
    """The grid by enumeration: every (cell x, cell y, tract code, part) that
    a part's bounding box meets, parts numbered in table order, sorted."""
    codes = {geoid: code for code, geoid in enumerate(sorted(t.geoid for t in rows))}
    parts = [(codes[t.geoid], part) for t in rows for part in t.geometry]
    entries = []
    for p, (code, part) in enumerate(parts):
        xs = [x for ring in part for x, _ in ring]
        ys = [y for ring in part for _, y in ring]
        for kx in range(math.floor(min(xs) / cell), math.floor(max(xs) / cell) + 1):
            for ky in range(math.floor(min(ys) / cell), math.floor(max(ys) / cell) + 1):
                entries.append((kx, ky, code, p))
    entries.sort()
    cells = list(dict.fromkeys((kx, ky) for kx, ky, _, _ in entries))
    offsets = [0] + [i for i in range(1, len(entries)) if entries[i][:2] != entries[i - 1][:2]]
    return cells, offsets + [len(entries)], [p for _, _, _, p in entries]


@pytest.mark.parametrize("cell", CELL_SIZES)
@pytest.mark.parametrize("rows", [LOCATE_WORLD, LOCATE_WORLD[::-1]], ids=["geoid order", "reversed"])
def test_build_index_grid_equals_enumeration(rows, cell):
    index = build_index(tract_table(rows), cell_size_deg=cell)
    cells, offsets, parts = reference_grid(rows, cell)
    assert [(int(c.real), int(c.imag)) for c in index.cells.tolist()] == cells
    assert index.cell_offsets.tolist() == offsets
    assert index.cell_parts.tolist() == parts
    assert index.cells.dtype == np.complex128
    assert index.cell_offsets.dtype == np.int64
    assert index.cell_parts.dtype == np.int32


def test_build_index_memory_is_a_few_bytes_per_entry():
    """build_index() holds its (cell, part) entries in int32 and float64
    columns it frees as it goes, so on 1,024 unit squares at 0.05-degree
    cells (451,584 entries) it peaks below 64 bytes an entry (its int64
    temporaries took 113)."""
    table = tract_table(unit_square_tract(f"48{i:03d}{j:06d}", i, j)
                                 for i in range(32) for j in range(32))
    tracemalloc.start()
    try:
        index = build_index(table, cell_size_deg=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(index.cell_parts) == 451_584
    assert peak < 64 * len(index.cell_parts), peak
