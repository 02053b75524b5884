import json
import math
import random
import weakref
from dataclasses import dataclass, field
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from hazmob import synth
from hazmob.geoindex import build_index
from hazmob.hazardclass import classify_heat_quartile, classify_percentile
from hazmob.homeloc import DAY_S, HomeMap
from hazmob.model import (
    HAZARD_TYPES,
    REGIONS,
    HazardLayer,
    MeiTable,
    Stops,
    TractTable,
    is_geoid,
)


# ---------------------------------------------------------------------------
# Rows: the tests' own view of the pipeline's columns.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Stop:
    """One stop as a row: who stopped where, when (UTC epoch seconds) and for how long."""

    user_id: str
    lon: float
    lat: float
    start_ts: int
    dwell_s: int


@dataclass(frozen=True, slots=True)
class Tract:
    """One tract as a row: geometry is a tuple of polygon parts, each a tuple
    of closed (lon, lat) rings, the exterior first and then the holes."""

    geoid: str
    geometry: tuple
    population: int
    pct_minority: float
    pct_below_poverty200: float


def tract_table(rows) -> TractTable:
    """The TractTable of Tract rows, in the given order."""
    rows = list(rows)
    parts = [part for t in rows for part in t.geometry]
    rings = [ring for part in parts for ring in part]
    ring_sizes = np.fromiter(map(len, rings), np.int64, len(rings))
    xy = np.fromiter(chain.from_iterable(chain.from_iterable(rings)), np.float64,
                     2 * int(ring_sizes.sum()))
    return TractTable.from_vertices(
        [t.geoid for t in rows], [t.population for t in rows],
        [t.pct_minority for t in rows], [t.pct_below_poverty200 for t in rows],
        xy.reshape(-1, 2), ring_sizes, list(map(len, parts)), [len(t.geometry) for t in rows],
    )


def tract_rows(table: TractTable) -> list[Tract]:
    """A TractTable's Tract rows, in order."""
    xs, ys = table.x.tolist(), table.y.tolist()
    ends = table.ring_offsets.tolist()
    rings = [tuple(zip(xs[a:b - 1], ys[a:b - 1])) for a, b in zip(ends, ends[1:])]
    ends = table.part_offsets.tolist()
    parts = [tuple(rings[a:b]) for a, b in zip(ends, ends[1:])]
    ends = table.tract_offsets.tolist()
    return list(map(
        Tract, table.geoids.tolist(), [tuple(parts[a:b]) for a, b in zip(ends, ends[1:])],
        table.population.tolist(), table.pct_minority.tolist(), table.pct_below_poverty200.tolist(),
    ))


def assert_same_tracts(a: TractTable, b: TractTable) -> None:
    """Two TractTables are equal column for column, dtypes included."""
    for name in ("geoids", "population", "pct_minority", "pct_below_poverty200",
                 "ring_offsets", "part_offsets", "tract_offsets"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
    for name in ("x", "y"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


def stop_records(stops: Stops) -> list[Stop]:
    """A Stops frame's rows: one Stop per stop, in order."""
    return list(map(
        Stop, stops.user_ids[stops.user].tolist(), stops.lon.tolist(), stops.lat.tolist(),
        stops.start_ts.tolist(), stops.dwell_s.tolist(),
    ))


def assert_same_stops(a: Stops, b: Stops) -> None:
    """Two Stops frames hold the same stops: each one's user id, coordinates,
    start and dwell, column for column."""
    assert a.user_ids[a.user].tolist() == b.user_ids[b.user].tolist()
    for name in ("lon", "lat", "start_ts", "dwell_s"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def labels_of(result) -> dict:
    """A ClusterResult's labels by geoid, in geoid order."""
    return dict(zip(result.geoids.tolist(), result.label.tolist()))


def assert_same_labels(a, b) -> None:
    """Two ClusterResults give the same geoids the same labels."""
    assert a.geoids.tolist() == b.geoids.tolist()
    assert a.label.tolist() == b.label.tolist()


def unit_square_tract(geoid: str, col: float, row: float, population: int = 1000,
                      minority: float = 0.5, poverty: float = 0.3) -> Tract:
    ring = (
        (col, row), (col + 1.0, row), (col + 1.0, row + 1.0), (col, row + 1.0), (col, row),
    )
    return Tract(
        geoid=geoid,
        geometry=((ring,),),
        population=population,
        pct_minority=minority,
        pct_below_poverty200=poverty,
    )


def frame_of(records) -> Stops:
    """The Stops frame of a sequence of Stops."""
    codes: dict[str, int] = {}
    user = [codes.setdefault(r.user_id, len(codes)) for r in records]
    return Stops(
        user=np.array(user, dtype=np.int32),
        user_ids=np.array(list(codes), dtype=object),
        lon=np.array([r.lon for r in records], dtype=np.float64),
        lat=np.array([r.lat for r in records], dtype=np.float64),
        start_ts=np.array([r.start_ts for r in records], dtype=np.int64),
        dwell_s=np.array([r.dwell_s for r in records], dtype=np.int64),
    )


def stops_at(points) -> Stops:
    """A frame of one-second stops by one user at the given (lon, lat) points."""
    return frame_of([Stop(user_id="u", lon=x, lat=y, start_ts=0, dwell_s=1) for x, y in points])


def geoids_of(index, where) -> list:
    """The geoid (or None) of each tract code that locate_stops() returns."""
    return [index.geoids[code] if code >= 0 else None for code in where.tolist()]


def classify_world_masks(world, geoids):
    """Run the real classifiers over a synthetic world's value layers: the
    (len(geoids), 3) masks, in HAZARD_TYPES order, that the pipeline builds."""
    return np.stack([
        classify_percentile(world.layers["air_pollution"], geoids),
        classify_percentile(world.layers["toxic"], geoids),
        classify_heat_quartile(world.layers["heat"], geoids),
    ], axis=1)


def layer_of(hazard_type: str, values: dict) -> HazardLayer:
    """The HazardLayer of a geoid -> value map, in the map's order."""
    return HazardLayer(hazard_type, np.array(list(values), dtype=str),
                       np.array(list(values.values()), dtype=np.float64))


def values_of(layer: HazardLayer) -> dict:
    """A layer's geoid -> value map, in file order."""
    return dict(zip(layer.geoids.tolist(), layer.values.tolist()))


def masked_set(mask, geoids) -> frozenset:
    """The geoids whose entry of a mask column is set."""
    return frozenset(g for g, m in zip(geoids, np.asarray(mask).tolist()) if m)


def masks_of(masked_by_hazard: dict, geoids) -> np.ndarray:
    """The (len(geoids), 3) masks setting, per hazard, the given geoids."""
    return np.array([[g in masked_by_hazard.get(h, ()) for h in HAZARD_TYPES] for g in geoids],
                    dtype=bool).reshape(len(geoids), 3)


def assignments_of(home_map: HomeMap, stops: Stops, geoids) -> dict:
    """User id -> home geoid for the users with a home, ordered by user id."""
    homes = home_map.home.tolist()
    return {u: geoids[homes[c]] for c, u in sorted(enumerate(stops.user_ids.tolist()), key=lambda p: p[1])
            if homes[c] >= 0}


def unassigned_of(home_map: HomeMap, stops: Stops) -> list:
    """The user ids without a home, sorted."""
    return sorted(u for u, h in zip(stops.user_ids.tolist(), home_map.home.tolist()) if h < 0)


def home_map_of(assignments: dict, stops: Stops, geoids) -> HomeMap:
    """The HomeMap giving each user of stops its home in assignments, if any."""
    code = {g: i for i, g in enumerate(geoids)}
    return HomeMap(np.array([code[assignments[u]] if u in assignments else -1
                             for u in stops.user_ids.tolist()], dtype=np.int32))


MEI_INDEXES = ("mei", "nonhome_share", "nonhome_conditional")


def _per_hazard(value) -> list:
    """A per-hazard value in HAZARD_TYPES order: a dict by hazard, or one value for all three."""
    return [value[h] for h in HAZARD_TYPES] if isinstance(value, dict) else [value] * 3


def mei_table(rows: dict) -> MeiTable:
    """The MeiTable, sorted by geoid, of {geoid: {field: value}}.

    The fields are mei, nonhome_share, nonhome_conditional (None where
    undefined) and region_class, each per hazard, as a dict by hazard or one
    value for all three. A missing field is undefined or "none".
    """
    geoids = sorted(rows)

    def column(name: str) -> np.ndarray:
        values = [[math.nan if v is None else v for v in _per_hazard(rows[g].get(name))] for g in geoids]
        return np.array(values, dtype=np.float64).reshape(len(geoids), 3)

    region = [[REGIONS.index(c) for c in _per_hazard(rows[g].get("region_class", "none"))] for g in geoids]
    return MeiTable(
        geoids=np.array(geoids, dtype=str), mei=column("mei"), nonhome_share=column("nonhome_share"),
        nonhome_conditional=column("nonhome_conditional"),
        region=np.array(region, dtype=np.int8).reshape(len(geoids), 3),
    )


def mei_rows(table: MeiTable) -> dict[str, SimpleNamespace]:
    """The oracle row view of a MeiTable, keyed and ordered by geoid: mei,
    nonhome_share and nonhome_conditional (dicts by hazard, None where
    undefined), region_class (a dict by hazard) and excluded."""
    def by_hazard(values) -> dict:
        return dict(zip(HAZARD_TYPES, (None if v != v else v for v in values)))

    return {
        geoid: SimpleNamespace(
            **{name: by_hazard(getattr(table, name)[i].tolist()) for name in MEI_INDEXES},
            region_class=dict(zip(HAZARD_TYPES, map(REGIONS.__getitem__, table.region[i].tolist()))),
            excluded=bool(table.excluded[i]))
        for i, geoid in enumerate(table.geoids.tolist())
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
    return tract_table(
        Tract(geoid=f"{code:011d}", geometry=geometry,
              population=draw(st.one_of(st.integers(0, 10**6), st.integers(0, 2**70))),
              pct_minority=draw(st.floats(0.0, 1.0)),
              pct_below_poverty200=draw(st.floats(0.0, 1.0)))
        for code, geometry in zip(codes, geometries)
    )


# ---------------------------------------------------------------------------
# The tract file oracle: parse_tracts' rules, one feature at a time.
# ---------------------------------------------------------------------------


def reference_parse_tracts(text: str) -> TractTable | str:
    """What parse_tracts gives for a GeoJSON text: the TractTable, or the
    text of its IngestError.

    The document is decoded whole with json.loads and the features are read
    one at a time, each checked in order: the feature, its properties and
    geometry objects, its GEOID and geometry type; then its rings in order,
    each position in order, up to its first structural fault; then its
    demographic properties. The first fault found is the one named: a
    structural fault ends the scan, a ring fault comes before the rings and
    features after it and before the feature's own properties, and within a
    ring a malformed position comes before a short, non-finite or open ring.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"invalid GeoJSON: {exc}"
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        return "tracts file is not a GeoJSON FeatureCollection"
    features = doc.get("features", [])
    if not isinstance(features, list):
        return "tracts file is not a GeoJSON FeatureCollection: features is not an array"
    tracts: list[Tract] = []
    for i, feature in enumerate(features):
        tract = _reference_tract(feature, {t.geoid for t in tracts})
        if isinstance(tract, str):
            return f"feature {i}: {tract}"
        tracts.append(tract)
    return tract_table(tracts)


_REFERENCE_DEMOGRAPHICS = (
    ("POP", "population", (int,), math.inf, "must be a non-negative integer"),
    ("PCT_MINORITY", "pct_minority", (int, float), 1.0, "must be a fraction in [0, 1]"),
    ("PCT_POV200", "pct_below_poverty200", (int, float), 1.0, "must be a fraction in [0, 1]"),
)


def _reference_tract(feature, geoids: set) -> Tract | str:
    """One feature's tract, or its first fault."""
    if not isinstance(feature, dict):
        return "not a JSON object"
    props = feature.get("properties") or {}
    if not isinstance(props, dict):
        return "properties: not a JSON object"
    geometry = feature.get("geometry") or {}
    if not isinstance(geometry, dict):
        return "geometry: not a JSON object"
    geoid = props.get("GEOID")
    if not isinstance(geoid, str) or not geoid:
        return "missing GEOID property"
    if not is_geoid(geoid):
        return f"geoid: must be 11 ASCII digits, got {geoid!r}"
    if geoid in geoids:
        return f"duplicate GEOID {geoid}"
    kind = geometry.get("type")
    if kind == "Polygon":
        parts = [geometry.get("coordinates")]
    elif kind == "MultiPolygon":
        parts = geometry.get("coordinates")
    else:
        return f"geometry must be Polygon or MultiPolygon, got {kind}"
    if type(parts) is not list:
        return "malformed coordinates"
    polygons = []
    for pi, part in enumerate(parts):
        if type(part) is not list:
            return f"malformed part {pi}"
        rings = []
        for ri, ring in enumerate(part):
            if type(ring) is not list:
                return f"malformed part {pi} ring {ri}"
            points = _reference_ring(ring, f"part {pi} ring {ri}")
            if isinstance(points, str):
                return points
            rings.append(points)
        polygons.append(tuple(rings))
    if not polygons or not all(polygons):
        return "empty geometry"
    values = []
    for key, name, types, high, rule in _REFERENCE_DEMOGRAPHICS:
        if key not in props:
            return f"bad demographic properties: {key!r}"
        value = props[key]
        if type(value) not in types or not 0 <= value <= high:
            return f"{name}: {rule}"
        values.append(value)
    return Tract(geoid, tuple(polygons), *values)


def _reference_ring(ring: list, place: str) -> tuple | str:
    """A ring's (lon, lat) points, or its first fault."""
    points = []
    for k, position in enumerate(ring):
        try:
            if type(position) is not list or len(position) < 2 or not {type(v) for v in position[:2]} <= {int, float}:
                raise TypeError
            points.append((float(position[0]), float(position[1])))
        except (TypeError, OverflowError):
            return f"malformed {place}: position {k} is not an array of at least two numbers"
    if len(points) < 4:
        return f"{place} has fewer than 4 vertices"
    if not all(math.isfinite(v) for point in points for v in point):
        return f"{place} has a non-finite coordinate"
    if points[0] != points[-1]:
        return f"{place} is not closed"
    return tuple(points)


# ---------------------------------------------------------------------------
# The invariants of rows and of values the pipeline does not build: one
# tract's dwell sums, Stops, Tracts, HazardLayers and MeiTables.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ExposureAccumulator:
    """Running dwell-time sums for one home tract: one row of an AccumulateResult.

    tdt_s is the total dwell of the tract's residents; hdt_s[h] the part
    of it spent at stops inside tracts masked for hazard h. The nonhome
    fields cover only stops outside the home tract. unresolved_dwell_s is
    dwell at stops that fall outside every known tract (counted in tdt_s,
    never in hdt_s).
    """

    geoid: str
    tdt_s: int = 0
    hdt_s: dict[str, int] = field(default_factory=lambda: dict.fromkeys(HAZARD_TYPES, 0))
    tdt_nonhome_s: int = 0
    hdt_nonhome_s: dict[str, int] = field(default_factory=lambda: dict.fromkeys(HAZARD_TYPES, 0))
    unresolved_dwell_s: int = 0


def _num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# Each stop field's inclusive bounds (on its length, for user_id) and its
# reasons below and above them, in the order they are checked.
STOP_RULES = (
    ("user_id", 1, math.inf, "user_id: must be non-empty", None),
    ("lon", -180.0, 180.0, "lon: out of range [-180, 180]", "lon: out of range [-180, 180]"),
    ("lat", -90.0, 90.0, "lat: out of range [-90, 90]", "lat: out of range [-90, 90]"),
    ("dwell_s", 0, 2**31 - 1, "dwell_s: must be a non-negative integer", "dwell_s: out of range"),
)


def _validate_stop(stop: Stop) -> list[str]:
    out = []
    for name, low, high, below, above in STOP_RULES:
        value = len(stop.user_id) if name == "user_id" else getattr(stop, name)
        if not low <= value:  # NaN fails every comparison
            out.append(below)
        elif not value <= high:
            out.append(above)
    return out


def _validate_ring(ring, where: str) -> list[str]:
    out = []
    if len(ring) < 4:
        out.append(f"{where}: ring has fewer than 4 vertices")
        return out
    if ring[0] != ring[-1]:
        out.append(f"{where}: ring is not closed (first vertex != last)")
    return out


def _validate_tract(tract: Tract) -> list[str]:
    out = []
    if not is_geoid(tract.geoid):
        out.append("geoid: must be 11 ASCII digits")
    if not tract.geometry:
        out.append("geometry: must have at least one polygon part")
    for pi, part in enumerate(tract.geometry):
        if not part:
            out.append(f"geometry[{pi}]: polygon has no rings")
            continue
        for ri, ring in enumerate(part):
            out.extend(_validate_ring(ring, f"geometry[{pi}].ring[{ri}]"))
    if type(tract.population) is not int or tract.population < 0:
        out.append("population: must be a non-negative integer")
    for name in ("pct_minority", "pct_below_poverty200"):
        v = getattr(tract, name)
        if not _num(v) or not 0.0 <= v <= 1.0:
            out.append(f"{name}: must be a fraction in [0, 1]")
    return out


def _validate_layer(layer: HazardLayer) -> list[str]:
    out = []
    if layer.hazard_type not in HAZARD_TYPES:
        out.append(f"hazard_type: unknown type {layer.hazard_type!r}")
        return out
    if len(layer.geoids) != len(layer.values):
        out.append("values: must hold one value per geoid")
    for g, v in zip(layer.geoids.tolist(), layer.values.tolist()):
        if layer.hazard_type == "heat":
            if not _num(v) or v < 0:
                out.append(f"values[{g}]: heat-day count must be >= 0")
        elif not _num(v) or not 0.0 <= v <= 1.0:
            out.append(f"values[{g}]: percentile rank must be in [0, 1]")
    return out


def _validate_accumulator(acc: ExposureAccumulator) -> list[str]:
    out = []
    for name in ("tdt_s", "tdt_nonhome_s", "unresolved_dwell_s"):
        v = getattr(acc, name)
        if not isinstance(v, int) or v < 0:
            out.append(f"{name}: must be a non-negative integer")
    for h in HAZARD_TYPES:
        if acc.hdt_s.get(h, 0) > acc.tdt_s:
            out.append(f"hdt_s[{h}]: exceeds tdt_s")
        if acc.hdt_nonhome_s.get(h, 0) > acc.tdt_nonhome_s:
            out.append(f"hdt_nonhome_s[{h}]: exceeds tdt_nonhome_s")
    if acc.tdt_nonhome_s > acc.tdt_s:
        out.append("tdt_nonhome_s: exceeds tdt_s")
    return out


def _validate_mei_table(table: MeiTable) -> list[str]:
    out = []
    for i, geoid in enumerate(table.geoids.tolist()):
        for k, h in enumerate(HAZARD_TYPES):
            for name in MEI_INDEXES:
                v = getattr(table, name)[i, k]
                if v == v and not 0.0 <= v <= 1.0:
                    out.append(f"rows[{geoid}].{name}[{h}]: outside [0, 1]")
            if not 0 <= table.region[i, k] < len(REGIONS):
                out.append(f"rows[{geoid}].region_class[{h}]: invalid class")
    return out


def check(value) -> list[str]:
    """The invariants of a Stop, Tract, HazardLayer, ExposureAccumulator or
    MeiTable: one violation per broken rule, none if all hold."""
    if isinstance(value, Stop):
        return _validate_stop(value)
    if isinstance(value, Tract):
        return _validate_tract(value)
    if isinstance(value, HazardLayer):
        return _validate_layer(value)
    if isinstance(value, ExposureAccumulator):
        return _validate_accumulator(value)
    if isinstance(value, MeiTable):
        return _validate_mei_table(value)
    raise TypeError(f"check() does not handle {type(value).__name__}")


# ---------------------------------------------------------------------------
# Scalar oracles: one point, one stop or one sample at a time, over rows.
# geoindex.locate_stops, homeloc's closed form and classify_heat_quartile
# work on columns and mirror these float expressions.
# ---------------------------------------------------------------------------


def point_in_part(part, x: float, y: float) -> bool:
    """Even-odd containment for one polygon part; boundary counts inside."""
    xs, ys = zip(*chain.from_iterable(part))
    if x < min(xs) or x > max(xs) or y < min(ys) or y > max(ys):
        return False
    inside = False
    for ring in part:
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


def contains(geometry, x: float, y: float) -> bool:
    return any(point_in_part(part, x, y) for part in geometry)


# Each indexed table's geometries by geoid, built from its rows on first use.
_GEOMETRIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _geometry(index, geoid: str):
    """A tract's geometry, read from the row view."""
    geometries = _GEOMETRIES.get(index.tracts)
    if geometries is None:
        geometries = _GEOMETRIES[index.tracts] = {t.geoid: t.geometry for t in tract_rows(index.tracts)}
    return geometries[geoid]


def locate(index, lon: float, lat: float) -> str | None:
    """Return the geoid of the tract containing (lon, lat), or None.

    Candidates are scanned in geoid order, so if tract geometries overlap
    the smallest geoid wins deterministically.
    """
    key = complex(math.floor(lon / index.cell_size_deg), math.floor(lat / index.cell_size_deg))
    c = int(np.searchsorted(index.cells, key))
    if c == len(index.cells) or index.cells[c] != key:
        return None
    parts = index.cell_parts[index.cell_offsets[c]:index.cell_offsets[c + 1]]
    for code in dict.fromkeys(index.part_code[parts].tolist()):
        geoid = index.geoids[code]
        if contains(_geometry(index, geoid), lon, lat):
            return geoid
    return None


def locate_brute_force(index, lon: float, lat: float) -> str | None:
    """Exhaustive all-polygon scan; the correctness oracle for locate()."""
    for geoid in index.geoids:
        if contains(_geometry(index, geoid), lon, lat):
            return geoid
    return None


def night_overlaps(start_ts: int, dwell_s: int, night_start: int, night_end: int) -> list[tuple[int, int]]:
    """Split a stop interval into (night_id, overlap_seconds) pieces.

    A night is identified by the UTC day number on which its window
    opens. Windows wrap midnight when night_end <= night_start.
    """
    if dwell_s <= 0:
        return []
    end_ts = start_ts + dwell_s
    wrap = night_end <= night_start
    span = (night_end + 24 if wrap else night_end) - night_start
    out = []
    first_day = start_ts // DAY_S - 1
    last_day = (end_ts - 1) // DAY_S
    for day in range(first_day, last_day + 1):
        w_start = day * DAY_S + night_start * 3600
        w_end = w_start + span * 3600
        lo = max(start_ts, w_start)
        hi = min(end_ts, w_end)
        if hi > lo:
            out.append((day, hi - lo))
    return out


def percentile_interpolated(sorted_values: list[float], q: float) -> float:
    """Quantile via linear interpolation at plotting position q*(n+1).

    This is the method whose 0.75 quantile of [10, 20, 30, 40] is 37.5.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty sample")
    h = q * (n + 1)
    if h <= 1:
        return sorted_values[0]
    if h >= n:
        return sorted_values[-1]
    k = int(h)  # 1-based rank of the lower order statistic
    frac = h - k
    lo = sorted_values[k - 1]
    hi = sorted_values[k]
    return lo + frac * (hi - lo)
