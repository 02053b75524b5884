import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazmob import geoindex
from hazmob.geoindex import (
    GeoIndexError,
    build_index,
    contains,
    locate,
    locate_brute_force,
    locate_stops,
)
from hazmob.model import CensusTract, StopRecord

from conftest import unit_square_tract


@pytest.fixture(scope="module")
def unit_square_index():
    return build_index([unit_square_tract("48001950100", 0, 0)], cell_size_deg=1.0)


def test_build_index_rejects_empty_and_bad_cell():
    with pytest.raises(GeoIndexError):
        build_index([])
    with pytest.raises(GeoIndexError):
        build_index([unit_square_tract("48001950100", 0, 0)], cell_size_deg=0.0)


def test_single_tract_grid_populated(unit_square_index):
    assert len(unit_square_index.grid) >= 1
    assert all("48001950100" in bucket for bucket in unit_square_index.grid.values())


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


def grid_tracts(n: int) -> list[CensusTract]:
    return [
        unit_square_tract(f"48{row:03d}{col:06d}", col, row)
        for row in range(n)
        for col in range(n)
    ]


def test_grid_coverage_lower_bound():
    index = build_index(grid_tracts(10), cell_size_deg=0.05)
    total_entries = sum(len(bucket) for bucket in index.grid.values())
    assert total_entries >= 100


def test_overlapping_tracts_resolve_to_smallest_geoid():
    a = unit_square_tract("48001950200", 0, 0)
    b = unit_square_tract("48001950100", 0.5, 0)  # overlaps a on [0.5, 1]
    index = build_index([a, b], cell_size_deg=0.25)
    assert locate(index, 0.75, 0.5) == "48001950100"
    assert locate(index, 0.25, 0.5) == "48001950200"


def test_multipolygon_membership_any_part():
    ring1 = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))
    ring2 = ((5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0), (5.0, 5.0))
    tract = CensusTract(
        geoid="48001950100", geometry=((ring1,), (ring2,)), population=10,
        pct_minority=0.1, pct_below_poverty200=0.1,
    )
    index = build_index([tract], cell_size_deg=0.5)
    assert locate(index, 0.5, 0.5) == "48001950100"
    assert locate(index, 5.5, 5.5) == "48001950100"
    assert locate(index, 3.0, 3.0) is None


def test_polygon_hole_excluded_boundary_included():
    outer = ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0))
    hole = ((1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0), (1.0, 1.0))
    tract = CensusTract(
        geoid="48001950100", geometry=(((outer, hole)),),
        population=10, pct_minority=0.1, pct_below_poverty200=0.1,
    )
    geom = build_index([tract], cell_size_deg=1.0).geometries["48001950100"]
    assert contains(geom, 0.5, 0.5)
    assert not contains(geom, 2.0, 2.0)  # inside the hole
    assert contains(geom, 1.0, 2.0)  # on the hole boundary
    assert contains(geom, 3.5, 2.0)


def test_locate_agrees_with_brute_force_oracle():
    tracts = grid_tracts(10)
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
    tracts = grid_tracts(5)
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
# locate_stops: one locate() per distinct point, same answers as the scalar
# locate() and the brute-force oracle
# ---------------------------------------------------------------------------

def _ring(*corners):
    return tuple(corners) + (corners[0],)


def _tract(geoid, *parts):
    return CensusTract(geoid=geoid, geometry=tuple(parts), population=10,
                       pct_minority=0.1, pct_below_poverty200=0.1)


# Unit squares around the origin share edges on x = 0 and y = 0 and a vertex
# at (0, 0); an L-shaped tract sits on top of them and a triangle to the
# right, whose slanted edge crosses grid cells. Tract ...0100 is a
# MultiPolygon: a square with a square hole plus a detached part. The island
# tract ...0200 fills the hole exactly, so the hole's boundary belongs to
# both and resolves to the smaller geoid.
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
]
LOCATE_INDEX = build_index(LOCATE_WORLD, cell_size_deg=0.75)
RINGS = [ring for t in LOCATE_WORLD for part in t.geometry for ring in part]
EDGES = [(ring[i], ring[i + 1]) for ring in RINGS for i in range(len(ring) - 1)]


def _on_edge(edge, t):
    (x1, y1), (x2, y2) = edge
    return (x1 + (x2 - x1) * t, y1 + (y2 - y1) * t)


# Quarter-degree values make points that share one coordinate common.
_coord = st.one_of(st.floats(-3.0, 10.0, allow_nan=False),
                   st.sampled_from([k / 4 for k in range(-12, 41)]))
_signed_zero = st.sampled_from([0.0, -0.0])
_points = st.one_of(
    st.tuples(_coord, _coord),
    st.sampled_from(sorted({pt for ring in RINGS for pt in ring})),
    st.builds(_on_edge, st.sampled_from(EDGES), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
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
    index = LOCATE_INDEX
    where = locate_stops(index, stops)
    assert where == [locate(index, s.lon, s.lat) for s in stops]
    assert where == [locate_brute_force(index, s.lon, s.lat) for s in stops]


def test_locate_stops_fixture_covers_edges_holes_and_islands():
    index = LOCATE_INDEX
    assert locate(index, 0.0, 0.0) == "48002001000"  # shared vertex, smallest geoid
    assert locate(index, -0.0, -0.0) == "48002001000"
    assert locate(index, 3.5, 2.0) == "48003000100"  # ring around the hole
    assert locate(index, 8.5, 0.5) == "48003000100"  # detached part
    assert locate(index, 5.0, 2.0) == "48003000200"  # island inside the hole
    assert locate(index, 4.0, 2.0) == "48003000100"  # hole boundary: both, smaller wins
    assert locate(index, -0.5, 2.5) is None  # notch of the L
    assert locate(index, -1.5, 2.5) == "48004000100"
    assert locate(index, 0.5, 1.5) == "48004000200"  # inside the triangle
    assert locate(index, 1.0, 2.0) == "48004000200"  # on its slanted edge
    assert locate(index, 1.5, 2.0) is None


def test_locate_stops_calls_locate_once_per_distinct_point(monkeypatch):
    index = build_index(grid_tracts(3), cell_size_deg=0.5)
    points = [(0.5, 0.5), (1.5, 2.5), (9.0, 9.0), (0.0, 1.0), (-0.0, 1.0)]
    rng = random.Random(5)
    stops = [StopRecord(user_id="u", lon=x, lat=y, start_ts=0, dwell_s=1)
             for x, y in (rng.choice(points) for _ in range(200))]
    calls = []
    real = geoindex.locate
    monkeypatch.setattr(geoindex, "locate", lambda *a: calls.append(a) or real(*a))
    where = locate_stops(index, stops)
    assert len(calls) == len({(s.lon, s.lat) for s in stops}) == 4
    assert where == [real(index, s.lon, s.lat) for s in stops]
