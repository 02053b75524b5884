import math
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from hazmob import synth
from hazmob.geoindex import build_index
from hazmob.hazardclass import classify_heat_quartile, classify_percentile
from hazmob.model import CensusTract, StopRecord, Stops, TractTable


def unit_square_tract(geoid: str, col: float, row: float, population: int = 1000,
                      minority: float = 0.5, poverty: float = 0.3) -> CensusTract:
    ring = (
        (col, row), (col + 1.0, row), (col + 1.0, row + 1.0), (col, row + 1.0), (col, row),
    )
    return CensusTract(
        geoid=geoid,
        geometry=((ring,),),
        population=population,
        pct_minority=minority,
        pct_below_poverty200=poverty,
    )


def frame_of(records) -> Stops:
    """The Stops frame of a sequence of StopRecords, numbered as lines 2, 3, ..."""
    codes: dict[str, int] = {}
    user = [codes.setdefault(r.user_id, len(codes)) for r in records]
    return Stops(
        user=np.array(user, dtype=np.int32),
        user_ids=np.array(list(codes), dtype=object),
        lon=np.array([r.lon for r in records], dtype=np.float64),
        lat=np.array([r.lat for r in records], dtype=np.float64),
        start_ts=np.array([r.start_ts for r in records], dtype=np.int64),
        dwell_s=np.array([r.dwell_s for r in records], dtype=np.int64),
        line=np.arange(2, len(records) + 2, dtype=np.int64),
    )


def stops_at(points) -> Stops:
    """A frame of one-second stops by one user at the given (lon, lat) points."""
    return frame_of([StopRecord(user_id="u", lon=x, lat=y, start_ts=0, dwell_s=1)
                               for x, y in points])


def geoids_of(index, where) -> list:
    """The geoid (or None) of each tract code that locate_stops() returns."""
    return [index.geoids[code] if code >= 0 else None for code in where.tolist()]


def classify_world_masks(world):
    """Run the real classifiers over a synthetic world's value layers."""
    return {
        "air_pollution": classify_percentile(world.layers["air_pollution"]),
        "toxic": classify_percentile(world.layers["toxic"]),
        "heat": classify_heat_quartile(world.layers["heat"], world.tracts),
    }


@pytest.fixture(scope="session")
def small_world():
    """A compact natural-mode world shared by the cheaper pipeline tests."""
    config = synth.WorldConfig(
        seed=101, grid_n=6, hazard_autocorr=1, decay_alpha=2.5,
        users=72, stops_per_user=40,
    )
    return synth.gen_world(config)


@pytest.fixture(scope="session")
def small_world_index(small_world):
    return build_index(small_world.tracts, cell_size_deg=0.5)


def wobbled(a, b, segments, amp, rng):
    """segments + 1 vertices from a to b, interior ones moved perpendicular by <= amp."""
    (ax, ay), (bx, by) = a, b
    nx, ny = ay - by, bx - ax  # perpendicular to the edge
    scale = amp / math.hypot(nx, ny)
    pts = [a]
    for k in range(1, segments):
        t, d = k / segments, rng.uniform(-1.0, 1.0) * scale
        pts.append((ax + (bx - ax) * t + nx * d, ay + (by - ay) * t + ny * d))
    return pts + [b]


def _square(x, y, half):
    return ((x - half, y - half), (x + half, y - half), (x + half, y + half),
            (x - half, y + half), (x - half, y - half))


@st.composite
def tract_worlds(draw) -> TractTable:
    """A grid of tracts whose neighbours share wobbled sides, vertex for vertex.

    Some tracts have a hole (some holes are filled by an island tract),
    some a second, detached part; the grid sits at the origin or at Texas
    longitudes, with sides of a fraction of a degree to a few degrees.
    Geoids are distinct and in no particular order.
    """
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    segments = draw(st.integers(1, 6))
    side = draw(st.sampled_from([0.3, 1.0, 2.5]))
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (-97.75, 30.25), (-1.0, -0.5)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def at(i, j):
        return (x0 + i * side, y0 + j * side)

    horiz = {(i, j): wobbled(at(i, j), at(i + 1, j), segments, 0.1 * side, rng)
             for i in range(nx) for j in range(ny + 1)}
    vert = {(i, j): wobbled(at(i, j), at(i, j + 1), segments, 0.1 * side, rng)
            for i in range(nx + 1) for j in range(ny)}
    geometries = []
    for i in range(nx):
        for j in range(ny):
            ring = tuple(horiz[i, j][:-1] + vert[i + 1, j][:-1]
                         + horiz[i, j + 1][::-1][:-1] + vert[i, j][::-1])
            cx, cy = at(i + 0.5, j + 0.5)
            kind = draw(st.sampled_from(["plain", "hole", "island", "two parts"]))
            hole = _square(cx, cy, 0.2 * side)
            if kind == "plain":
                geometries.append(((ring,),))
            elif kind == "two parts":
                geometries.append(((ring,), (_square(*at(nx + 1 + i, j + 0.5), 0.3 * side),)))
            else:
                geometries.append(((ring, hole),))
                if kind == "island":
                    geometries.append(((hole,),))
    codes = draw(st.lists(st.integers(0, 10**11 - 1), min_size=len(geometries),
                          max_size=len(geometries), unique=True))
    return TractTable.from_rows(
        CensusTract(geoid=f"{code:011d}", geometry=geometry,
                    population=draw(st.one_of(st.integers(0, 10**6), st.integers(0, 2**70))),
                    pct_minority=draw(st.floats(0.0, 1.0)),
                    pct_below_poverty200=draw(st.floats(0.0, 1.0)))
        for code, geometry in zip(codes, geometries)
    )
