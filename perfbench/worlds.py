"""Seeded input worlds for the hazmob benchmark, with truth known by construction.

A world is a rectilinear grid of tracts whose shared edges carry a
perpendicular wobble (the boundary detail of real tract outlines). Every
stop is drawn from a "zone": a rectangle kept clear of every boundary by
more than the wobble amplitude, so the tract that holds it is known
without any point-in-polygon test. Night stays fall only in the device's
home tract and day stops never touch the night window, so each device's
home (or lack of one) is also known by construction.

This module does not import hazmob: the program only ever sees the files
written by `write_world`, and the truth arrays it saves are derived from
the construction, not from the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MONTH_START_TS = 1554076800  # 2019-04-01T00:00:00Z
MONTH_DAYS = 30
DAY_S = 86400
HOUR_S = 3600
MIN_NIGHTS = 3  # hazmob's default min_nights; the run passes no tuning flags
STATE_FIPS = "48"
COORD_DECIMALS = 6

STOPS_HEADER = "user_id,lon,lat,start_ts,dwell_s"


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's inputs."""

    name: str
    n_cols: int
    n_rows: int
    urban_size: tuple[float, float]  # tract side in degrees, urban columns/rows
    rural_size: tuple[float, float]  # tract side in degrees, rural columns/rows
    rural_share: float  # share of columns/rows drawn from rural_size
    edge_segments: int  # segments per tract edge; a ring has 4 * this + 1 vertices
    wobble: float  # boundary detail amplitude as a share of the smallest side
    county_groups: tuple[int, int] | None  # range of columns/rows per county; None = one county
    devices_per_tract: int
    nights: tuple[int, int]  # inclusive range of home nights for a resident
    night_hours: tuple[int, int]  # dwell range of a single night stay, starting 22:00-23:59
    work_share: float
    work_days: tuple[int, int]
    work_hours: tuple[int, int]  # dwell range of a work stop, starting 07:00-09:00
    other_stops: tuple[int, int]
    travel_sd: float  # spread of day-stop destinations, in grid cells
    unassigned_share: float  # devices with fewer than MIN_NIGHTS nights
    messy: "Messy | None" = None


@dataclass(frozen=True)
class Messy:
    """Counts of the planted cases of a vendor-style feed."""

    multipolygons: int = 24  # tracts made of two separate cells
    islands: int = 24  # tracts with a hole filled by an island tract
    empty_holes: int = 12  # tracts with a hole that no tract fills
    multi_night_devices: int = 300  # residents who also take one 2-4 night stay
    multi_night_only: int = 60  # devices whose only night data is one 3-night stay
    two_night_only: int = 60  # devices whose only night data is one 2-night stay
    outside_share: float = 0.03  # day stops outside every tract
    noncanonical_share: float = 0.25  # valid rows with a non-canonical timestamp
    malformed_per_kind: int = 120  # rows of each malformed kind


SPECS = {
    "county-stops": Spec(
        name="county-stops", n_cols=32, n_rows=32,
        urban_size=(0.010, 0.020), rural_size=(0.010, 0.020), rural_share=0.0,
        edge_segments=50, wobble=0.1, county_groups=None,
        devices_per_tract=5, nights=(3, 5), night_hours=(7, 10),
        work_share=0.3, work_days=(1, 2), work_hours=(4, 9),
        other_stops=(0, 1), travel_sd=3.0, unassigned_share=0.05,
    ),
    "state-tracts": Spec(
        name="state-tracts", n_cols=80, n_rows=80,
        urban_size=(0.008, 0.020), rural_size=(0.05, 0.25), rural_share=0.6,
        edge_segments=2, wobble=0.1, county_groups=(1, 14),
        devices_per_tract=1, nights=(3, 3), night_hours=(1, 10),
        work_share=1.0, work_days=(1, 1), work_hours=(2, 12),
        other_stops=(1, 1), travel_sd=6.0, unassigned_share=0.0,
    ),
    "messy-feed": Spec(
        name="messy-feed", n_cols=32, n_rows=32,
        urban_size=(0.040, 0.070), rural_size=(0.040, 0.070), rural_share=0.0,
        edge_segments=1, wobble=0.0, county_groups=(8, 16),
        devices_per_tract=10, nights=(3, 5), night_hours=(7, 10),
        work_share=0.3, work_days=(1, 2), work_hours=(4, 9),
        other_stops=(0, 1), travel_sd=3.0, unassigned_share=0.05,
        messy=Messy(),
    ),
}


@dataclass
class World:
    """Everything `write_world` puts on disk, plus the truth behind it."""

    spec: Spec
    geoids: np.ndarray  # (T,) str, tract order used by every truth array
    county: np.ndarray  # (T,) str, 5-char county FIPS
    population: np.ndarray  # (T,) int64
    minority: np.ndarray  # (T,) float64
    poverty: np.ndarray  # (T,) float64
    air: np.ndarray  # (T,) float64 percentile rank
    toxic: np.ndarray  # (T,) float64 percentile rank
    heat: np.ndarray  # (T,) int64 heat days
    geometry: list  # per tract: list of polygon parts, each a list of rings
    user_ids: list[str]  # (U,)
    home: np.ndarray  # (U,) int64 home tract or -1 when no home is expected
    stop_user: np.ndarray  # (S,) int64, accepted stops only
    stop_tract: np.ndarray  # (S,) int64, -1 = outside every tract
    stop_dwell: np.ndarray  # (S,) int64
    lines: list[str]  # stops.csv data lines, malformed ones included
    counts: dict = field(default_factory=dict)  # planted-case counts for the README


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def _sides(rng, n: int, spec: Spec) -> np.ndarray:
    """Sides of n columns (or rows): a fixed mix of sizes in a seeded order.

    The seed only arranges the sides, so the extent, the smallest side and
    the mix of tract sizes, which set the work of a point lookup, are the
    same for every seed. Rural sides come in runs of 8, so urban cores are
    contiguous.
    """
    n_runs = -(-n // 8)
    rural_runs = np.arange(n_runs) < round(spec.rural_share * n_runs)
    rural = np.repeat(rng.permutation(rural_runs), 8)[:n]

    def spaced(lo_hi, k):
        return lo_hi[0] + (np.arange(k) + 0.5) / max(k, 1) * (lo_hi[1] - lo_hi[0])

    sides = np.empty(n)
    sides[rural] = rng.permutation(spaced(spec.rural_size, int(rural.sum())))
    sides[~rural] = rng.permutation(spaced(spec.urban_size, int((~rural).sum())))
    return sides


def _edge(rng, a: np.ndarray, b: np.ndarray, k: int, amp: float, axis: int) -> np.ndarray:
    """k+1 vertices from a to b, displaced perpendicular to the edge by <= amp."""
    t = np.linspace(0.0, 1.0, k + 1)
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    if amp > 0 and k > 1:
        pts[:, 1 - axis] += amp * np.sin(np.pi * t) * rng.uniform(-1.0, 1.0, size=k + 1)
    return np.round(pts, COORD_DECIMALS)


def _grid(rng, spec: Spec):
    xs = np.round(-97.9 + np.concatenate([[0.0], np.cumsum(_sides(rng, spec.n_cols, spec))]),
                  COORD_DECIMALS)
    ys = np.round(29.6 + np.concatenate([[0.0], np.cumsum(_sides(rng, spec.n_rows, spec))]),
                  COORD_DECIMALS)
    amp = spec.wobble * min(np.diff(xs).min(), np.diff(ys).min())
    k = spec.edge_segments
    # horiz[i][j]: bottom edge of cell (i, j) from west to east; vert[i][j]:
    # west edge of cell (i, j) from south to north. Neighbours share them.
    horiz = [[_edge(rng, np.array([xs[i], ys[j]]), np.array([xs[i + 1], ys[j]]), k, amp, 0)
              for j in range(spec.n_rows + 1)] for i in range(spec.n_cols)]
    vert = [[_edge(rng, np.array([xs[i], ys[j]]), np.array([xs[i], ys[j + 1]]), k, amp, 1)
             for j in range(spec.n_rows)] for i in range(spec.n_cols + 1)]
    return xs, ys, amp, horiz, vert


def _cell_ring(horiz, vert, i: int, j: int) -> list[list[float]]:
    ring = np.concatenate([
        horiz[i][j][:-1],
        vert[i + 1][j][:-1],
        horiz[i][j + 1][::-1][:-1],
        vert[i][j][::-1],
    ])
    return ring.tolist()


def _rect_ring(x0: float, y0: float, x1: float, y1: float) -> list[list[float]]:
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def _counties(rng, spec: Spec) -> np.ndarray:
    """County number of each cell, shape (n_cols, n_rows)."""
    if spec.county_groups is None:
        return np.full((spec.n_cols, spec.n_rows), 201, dtype=np.int64)

    def groups(n):
        # A fixed multiset of county widths, cycling through the range and
        # summing to n, in a seeded order.
        lo, hi = spec.county_groups
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(lo + len(sizes) % (hi - lo + 1), n - sum(sizes)))
        return np.repeat(np.arange(len(sizes)), rng.permutation(sizes))

    gc, gr = groups(spec.n_cols), groups(spec.n_rows)
    n_gr = gr.max() + 1
    return 1 + 2 * (gc[:, None] * n_gr + gr[None, :])  # odd FIPS codes, as in Texas


def _field(rng, n_cols: int, n_rows: int, bumps: int = 40) -> np.ndarray:
    """Smooth field over the cells with mean 0 and sd 1: a sum of Gaussian bumps."""
    ci, cj = np.meshgrid(np.arange(n_cols), np.arange(n_rows), indexing="ij")
    out = np.zeros((n_cols, n_rows))
    for _ in range(bumps):
        cx, cy = rng.uniform(0, n_cols), rng.uniform(0, n_rows)
        sd = rng.uniform(0.03, 0.12) * max(n_cols, n_rows)
        out += rng.uniform(0.5, 1.5) * np.exp(-((ci - cx) ** 2 + (cj - cy) ** 2) / (2 * sd * sd))
    return (out - out.mean()) / out.std()


def _ranks(values: np.ndarray) -> np.ndarray:
    """Percentile ranks in [0, 1] at 4 decimals; rounding leaves exact ties."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(len(values)) / max(len(values) - 1, 1)
    return np.round(ranks, 4)


# ---------------------------------------------------------------------------
# World
# ---------------------------------------------------------------------------


class _Zones:
    """Rectangles that each lie inside exactly one tract (or outside all)."""

    def __init__(self):
        self.tract: list[int] = []
        self.rect: list[tuple[float, float, float, float]] = []
        self.hole: list[tuple[float, float, float, float] | None] = []

    def add(self, tract: int, rect, hole=None) -> int:
        self.tract.append(tract)
        self.rect.append(rect)
        self.hole.append(hole)
        return len(self.tract) - 1

    def sample(self, rng, zone: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rect = np.asarray(self.rect)[zone]
        x = rng.uniform(rect[:, 0], rect[:, 2])
        y = rng.uniform(rect[:, 1], rect[:, 3])
        holes = [(z, h) for z, h in enumerate(self.hole) if h is not None]
        for z, (hx0, hy0, hx1, hy1) in holes:
            while True:
                bad = (zone == z) & (x >= hx0) & (x <= hx1) & (y >= hy0) & (y <= hy1)
                if not bad.any():
                    break
                x[bad] = rng.uniform(rect[bad, 0], rect[bad, 2])
                y[bad] = rng.uniform(rect[bad, 1], rect[bad, 3])
        return np.round(x, COORD_DECIMALS), np.round(y, COORD_DECIMALS)


def build_world(spec: Spec, seed: int) -> World:
    rng = np.random.default_rng([seed, sum(map(ord, spec.name))])
    xs, ys, amp, horiz, vert = _grid(rng, spec)
    nc, nr = spec.n_cols, spec.n_rows
    # Stops keep clear of every boundary by more than the boundary detail.
    margin = max(1.5 * amp, 1e-4)
    county_of_cell = _counties(rng, spec)
    messy = spec.messy

    merged_into: dict[int, int] = {}  # second cell -> first cell of a MultiPolygon tract
    cells = rng.permutation(nc * nr)
    hole_cells: list[int] = []
    island_cells: list[int] = []
    if messy is not None:
        pos = 0
        for _ in range(messy.multipolygons):
            a, b = int(cells[pos]), int(cells[pos + 1])
            pos += 2
            ai, aj = divmod(a, nr)
            bi, bj = divmod(b, nr)
            if abs(ai - bi) <= 1 and abs(aj - bj) <= 1:
                continue  # adjacent cells would not make separate parts
            merged_into[b] = a
        # A quarter of the holes go into second parts of MultiPolygon tracts.
        n_holes = messy.islands + messy.empty_holes
        hole_cells = list(merged_into)[: n_holes // 4]
        hole_cells += [int(c) for c in cells[pos : pos + n_holes - len(hole_cells)]]
        island_cells = hole_cells[: messy.islands]

    # Tract list: one per unmerged cell, then one per island.
    cell_ids = [c for c in range(nc * nr) if c not in merged_into]
    tract_of_cell = {c: t for t, c in enumerate(cell_ids)}
    for b, a in merged_into.items():
        tract_of_cell[b] = tract_of_cell[a]
    n_tracts = len(cell_ids) + len(island_cells)

    zones = _Zones()
    zone_of_cell = np.empty(nc * nr, dtype=np.int64)
    extra_zone = np.full(nc * nr, -1, dtype=np.int64)  # island or empty-hole zone
    parts: list[list] = [[] for _ in range(n_tracts)]
    for c in range(nc * nr):
        i, j = divmod(c, nr)
        t = tract_of_cell[c]
        ring = _cell_ring(horiz, vert, i, j)
        core = (xs[i] + margin, ys[j] + margin, xs[i + 1] - margin, ys[j + 1] - margin)
        if c in hole_cells:
            half = 0.2 * min(xs[i + 1] - xs[i], ys[j + 1] - ys[j])
            cx, cy = (xs[i] + xs[i + 1]) / 2, (ys[j] + ys[j + 1]) / 2
            hx0, hy0, hx1, hy1 = (round(v, COORD_DECIMALS)
                                  for v in (cx - half, cy - half, cx + half, cy + half))
            hole_ring = _rect_ring(hx0, hy0, hx1, hy1)
            parts[t].append([ring, hole_ring])
            inner = (hx0 + margin, hy0 + margin, hx1 - margin, hy1 - margin)
            zone_of_cell[c] = zones.add(t, core, (hx0 - margin, hy0 - margin,
                                                  hx1 + margin, hy1 + margin))
            if c in island_cells:
                it = len(cell_ids) + island_cells.index(c)
                parts[it].append([hole_ring])
                extra_zone[c] = zones.add(it, inner)
            else:
                extra_zone[c] = zones.add(-1, inner)
        else:
            parts[t].append([ring])
            zone_of_cell[c] = zones.add(t, core)
    zone_tract = np.asarray(zones.tract, dtype=np.int64)

    # Geoids: county FIPS + 6-digit tract code, numbered within each county.
    tract_cell = np.array(cell_ids + island_cells)
    county_num = county_of_cell.reshape(-1)[tract_cell]
    county = np.array([f"{STATE_FIPS}{n:03d}" for n in county_num])
    serial: dict[str, int] = {}
    geoids = []
    for t in range(n_tracts):
        k = serial[county[t]] = serial.get(county[t], 0) + 1
        geoids.append(f"{county[t]}{k * 100 + (1 if t >= len(cell_ids) else 0):06d}")
    geoids = np.array(geoids)

    # Hazards and demographics follow smooth fields over the cells.
    # Equal parts spatial field and tract-level noise.
    f_air = _field(rng, nc, nr).reshape(-1)[tract_cell] + rng.normal(0, 1, n_tracts)
    f_tox = _field(rng, nc, nr).reshape(-1)[tract_cell] + rng.normal(0, 1, n_tracts)
    f_heat = _field(rng, nc, nr).reshape(-1)[tract_cell] + rng.normal(0, 1, n_tracts)
    air = _ranks(f_air)
    toxic = _ranks(f_tox)
    base = {c: int(rng.integers(18, 40)) for c in np.unique(county)}
    heat = np.array([base[c] for c in county]) + np.floor(
        3 * f_heat).astype(np.int64)
    heat = np.maximum(heat, 0)
    population = rng.integers(1200, 8000, size=n_tracts)
    minority = np.round(np.clip(0.15 + 0.5 * air + rng.normal(0, 0.15, n_tracts), 0, 1), 4)
    poverty = np.round(np.clip(0.10 + 0.35 * toxic + rng.normal(0, 0.12, n_tracts), 0, 1), 4)

    world = World(
        spec=spec, geoids=geoids, county=county, population=population,
        minority=minority, poverty=poverty, air=air, toxic=toxic, heat=heat,
        geometry=parts, user_ids=[], home=np.empty(0, np.int64),
        stop_user=np.empty(0, np.int64), stop_tract=np.empty(0, np.int64),
        stop_dwell=np.empty(0, np.int64), lines=[],
    )
    _add_stops(world, rng, zones, zone_tract, zone_of_cell, extra_zone, spec)
    world.counts.update(
        tracts=n_tracts,
        counties=len(np.unique(county)),
        counties_under_4_tracts=int(sum(1 for c in np.unique(county) if (county == c).sum() < 4)),
        vertices_per_cell_ring=4 * spec.edge_segments + 1,
        multipolygon_tracts=len(merged_into),
        holed_tracts=len(hole_cells),
        island_tracts=len(island_cells),
        empty_holes=len(hole_cells) - len(island_cells),
    )
    return world


def _dest_zones(rng, home_cell: np.ndarray, spec: Spec, zone_of_cell, extra_zone) -> np.ndarray:
    nc, nr = spec.n_cols, spec.n_rows
    hi, hj = np.divmod(home_cell, nr)
    di = np.rint(rng.normal(0, spec.travel_sd, size=len(home_cell))).astype(np.int64)
    dj = np.rint(rng.normal(0, spec.travel_sd, size=len(home_cell))).astype(np.int64)
    cell = np.clip(hi + di, 0, nc - 1) * nr + np.clip(hj + dj, 0, nr - 1)
    zone = zone_of_cell[cell]
    inner = extra_zone[cell]
    take = (inner >= 0) & (rng.random(len(cell)) < 0.3)
    zone[take] = inner[take]
    return zone


def _add_stops(world: World, rng, zones: _Zones, zone_tract, zone_of_cell, extra_zone, spec: Spec):
    messy = spec.messy
    n_cells = spec.n_cols * spec.n_rows
    # Devices live in cell zones and in island zones (islands get fewer).
    inner_cells = np.nonzero(extra_zone >= 0)[0]
    island_zones = extra_zone[inner_cells][zone_tract[extra_zone[inner_cells]] >= 0]
    home_zone = np.concatenate([
        np.repeat(zone_of_cell, spec.devices_per_tract),
        np.repeat(island_zones, max(1, spec.devices_per_tract // 3)),
    ])
    cell_of_zone = np.full(len(zone_tract), -1, dtype=np.int64)
    cell_of_zone[zone_of_cell] = np.arange(n_cells)
    cell_of_zone[extra_zone[inner_cells]] = inner_cells
    n_dev = len(home_zone)
    home_cell = cell_of_zone[home_zone]
    home_x, home_y = zones.sample(rng, home_zone)

    # Night plan per device: single home nights, plus in a messy feed one
    # long stay that covers 2-4 nights.
    nights = rng.integers(spec.nights[0], spec.nights[1] + 1, size=n_dev)
    multi = np.zeros(n_dev, dtype=np.int64)  # nights covered by the long stay
    perm = rng.permutation(n_dev)
    few = perm[: int(round(spec.unassigned_share * n_dev))]
    nights[few] = rng.integers(0, MIN_NIGHTS, size=len(few))
    pos = len(few)
    if messy is not None:
        for n_sel, n_nights, long_nights in ((messy.multi_night_devices, None, (2, 5)),
                                             (messy.multi_night_only, 0, (3, 4)),
                                             (messy.two_night_only, 0, (2, 3))):
            sel = perm[pos : pos + n_sel]
            pos += n_sel
            if n_nights is not None:
                nights[sel] = n_nights
            multi[sel] = rng.integers(*long_nights, size=n_sel)
    total_nights = nights + multi
    home_tract = zone_tract[home_zone]
    home = np.where(total_nights >= MIN_NIGHTS, home_tract, -1)

    # Single nights fall on distinct days and start 22:00-23:59, so each
    # lies in exactly one 22:00-06:00 window. A long stay starts
    # 21:00-23:00 on its first day and ends 04:00-06:00 after its last night;
    # single nights keep clear of the days around it.
    day_pick = np.argsort(rng.random((n_dev, MONTH_DAYS - 4)), axis=1)
    long_first = day_pick[:, 0]
    keep = np.ones(day_pick.shape, dtype=bool)
    has_long = multi > 0
    keep[has_long] = ~((day_pick[has_long] >= long_first[has_long, None] - 1)
                       & (day_pick[has_long] <= (long_first + multi)[has_long, None]))
    rank = np.cumsum(keep, axis=1)
    chosen = keep & (rank <= nights[:, None])
    ndev, col = np.nonzero(chosen)
    nday = day_pick[ndev, col]
    nstart = MONTH_START_TS + nday * DAY_S + rng.integers(22 * HOUR_S, DAY_S, size=len(ndev))
    ndwell = rng.integers(spec.night_hours[0] * HOUR_S, spec.night_hours[1] * HOUR_S, size=len(ndev))
    ldev = np.nonzero(has_long)[0]
    lstart = MONTH_START_TS + long_first[ldev] * DAY_S + rng.integers(21 * HOUR_S, 23 * HOUR_S, size=len(ldev))
    lend = (MONTH_START_TS + (long_first[ldev] + multi[ldev]) * DAY_S
            + rng.integers(4 * HOUR_S, 6 * HOUR_S, size=len(ldev)))
    night_dev = np.concatenate([ndev, ldev])
    nstart = np.concatenate([nstart, lstart])
    ndwell = np.concatenate([ndwell, lend - lstart])

    # Work: one fixed place per worker, 07:00-09:00 start, ending by 21:00.
    workers = np.nonzero(rng.random(n_dev) < spec.work_share)[0]
    work_zone = _dest_zones(rng, home_cell[workers], spec, zone_of_cell, extra_zone)
    wx, wy = zones.sample(rng, work_zone)
    n_work = rng.integers(spec.work_days[0], spec.work_days[1] + 1, size=len(workers))
    wdev = np.repeat(np.arange(len(workers)), n_work)
    wday = rng.integers(0, MONTH_DAYS, size=len(wdev))
    wstart = MONTH_START_TS + wday * DAY_S + rng.integers(7 * HOUR_S, 9 * HOUR_S, size=len(wdev))
    wdwell = rng.integers(spec.work_hours[0] * HOUR_S, spec.work_hours[1] * HOUR_S, size=len(wdev))
    # Other day stops: a fresh point each time, 07:00-19:00 start, ending by 21:00.
    n_other = rng.integers(spec.other_stops[0], spec.other_stops[1] + 1, size=n_dev)
    # Devices without a night keep at least one stop.
    n_other[(total_nights == 0) & (n_other == 0)] = 1
    odev = np.repeat(np.arange(n_dev), n_other)
    ozone = _dest_zones(rng, home_cell[odev], spec, zone_of_cell, extra_zone)
    ox, oy = zones.sample(rng, ozone)
    otract = zone_tract[ozone]
    if messy is not None:
        # Stops outside every tract: east of the grid, beyond its wobble.
        out = rng.random(len(odev)) < messy.outside_share
        x_max = max(r[2] for r in zones.rect) + 0.5
        ox[out] = np.round(rng.uniform(x_max, x_max + 0.5, size=out.sum()), COORD_DECIMALS)
        otract[out] = -1
    oday = rng.integers(0, MONTH_DAYS, size=len(odev))
    ostart = MONTH_START_TS + oday * DAY_S + rng.integers(7 * HOUR_S, 19 * HOUR_S, size=len(odev))
    room = MONTH_START_TS + oday * DAY_S + 21 * HOUR_S - ostart
    odwell = np.minimum(rng.integers(600, 3 * HOUR_S, size=len(odev)), room)

    user = np.concatenate([night_dev, workers[wdev], odev])
    x = np.concatenate([home_x[night_dev], wx[wdev], ox])
    y = np.concatenate([home_y[night_dev], wy[wdev], oy])
    start = np.concatenate([nstart, wstart, ostart])
    dwell = np.concatenate([ndwell, wdwell, odwell])
    tract = np.concatenate([home_tract[night_dev], zone_tract[work_zone][wdev], otract])

    # Feed order: by start time, as a daily vendor dump is.
    order = np.lexsort((user, start))
    user, x, y, start, dwell, tract = (a[order] for a in (user, x, y, start, dwell, tract))
    user_ids = _device_ids(rng, n_dev)
    ts_text = np.char.add(np.datetime_as_string(start.astype("datetime64[s]"), unit="s"), "Z")
    counts = world.counts
    if messy is not None:
        ts_text = _noncanonical(rng, start, ts_text, messy, counts)
    lines = [f"{user_ids[u]},{x[k]:.6f},{y[k]:.6f},{ts_text[k]},{dwell[k]}"
             for k, u in enumerate(user.tolist())]
    malformed = 0
    if messy is not None:
        lines, malformed = _plant_malformed(rng, lines, user_ids, messy, counts)

    world.user_ids = user_ids
    world.home = home
    world.stop_user, world.stop_tract, world.stop_dwell = user, tract, dwell
    world.lines = lines
    xy = np.stack([x, y], axis=1)
    _, first = np.unique(xy, axis=0, return_index=True)
    counts.update(
        devices=n_dev,
        devices_without_home=int((home < 0).sum()),
        devices_with_fewer_than_3_nights=int((total_nights < MIN_NIGHTS).sum()),
        devices_home_by_long_stay_only=int(((nights == 0) & (multi >= MIN_NIGHTS)).sum()),
        stops_valid=len(user),
        night_stays=len(night_dev),
        multi_night_stays=len(ldev),
        stops_outside_every_tract=int((tract < 0).sum()),
        malformed_rows=malformed,
        coordinate_repeat_share=round(1.0 - len(first) / len(user), 4),
    )


def _device_ids(rng, n: int) -> list[str]:
    raw = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    out = []
    for row in raw:
        h = row.tobytes().hex()
        out.append(f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}")
    return out


def _noncanonical(rng, start: np.ndarray, ts_text: np.ndarray, messy: Messy, counts: dict):
    """Rewrite a share of valid timestamps in other ISO forms of the same second."""
    ts_text = ts_text.astype(object)
    pick = np.nonzero(rng.random(len(start)) < messy.noncanonical_share)[0]
    form = rng.integers(0, 4, size=len(pick))
    frac = rng.integers(0, 1000, size=len(pick))
    for k, f, ms in zip(pick.tolist(), form.tolist(), frac.tolist()):
        base = ts_text[k][:-1]  # YYYY-MM-DDTHH:MM:SS
        if f == 0:
            ts_text[k] = base + "+00:00"
        elif f == 1:
            ts_text[k] = f"{base}.{ms:03d}Z"  # fractional seconds truncate to the second
        elif f == 2:
            ts_text[k] = f"{base}.{ms:03d}000+00:00"
        else:
            local = np.datetime64(int(start[k]) - 5 * HOUR_S, "s")
            ts_text[k] = f"{np.datetime_as_string(local, unit='s')}-05:00"
    counts["noncanonical_timestamps"] = len(pick)
    return ts_text


_MALFORMED = (
    ("too_few_fields", lambda u, r: f"{u},-97.8,30.2,2019-04-02T09:00:00Z"),
    ("too_many_fields", lambda u, r: f"{u},-97.8,30.2,2019-04-02T09:00:00Z,600,x"),
    ("non_numeric_lon", lambda u, r: f"{u},abc,30.2,2019-04-02T09:00:00Z,600"),
    ("nan_lat", lambda u, r: f"{u},-97.8,nan,2019-04-02T09:00:00Z,600"),
    ("lat_out_of_range", lambda u, r: f"{u},-97.8,91.5,2019-04-02T09:00:00Z,600"),
    ("negative_dwell", lambda u, r: f"{u},-97.8,30.2,2019-04-02T09:00:00Z,-{r}"),
    ("fractional_dwell", lambda u, r: f"{u},-97.8,30.2,2019-04-02T09:00:00Z,{r}.5"),
    ("impossible_date", lambda u, r: f"{u},-97.8,30.2,2019-04-31T09:00:00Z,600"),
    ("garbage_timestamp", lambda u, r: f"{u},-97.8,30.2,yesterday,600"),
    ("empty_user_id", lambda u, r: f",-97.8,30.2,2019-04-02T09:00:00Z,600"),
    ("blank_line", lambda u, r: ""),
)


def _plant_malformed(rng, lines: list[str], user_ids: list[str], messy: Messy, counts: dict):
    bad = []
    for name, make in _MALFORMED:
        for _ in range(messy.malformed_per_kind):
            bad.append(make(user_ids[int(rng.integers(len(user_ids)))], int(rng.integers(60, 9000))))
        counts[f"malformed_{name}"] = messy.malformed_per_kind
    where = np.sort(rng.integers(0, len(lines) + 1, size=len(bad)))
    out = []
    prev = 0
    for pos, row in zip(where.tolist(), bad):
        out.extend(lines[prev:pos])
        out.append(row)
        prev = pos
    out.extend(lines[prev:])
    return out, len(bad)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def write_world(world: World, dest: Path) -> None:
    """Write the five program inputs and a header-only stops file."""
    dest.mkdir(parents=True, exist_ok=True)
    with open(dest / "stops.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(STOPS_HEADER + "\n")
        fh.write("\n".join(world.lines))
        fh.write("\n")
    (dest / "stops_empty.csv").write_text(STOPS_HEADER + "\n", encoding="utf-8")
    features = []
    for t, parts in enumerate(world.geometry):
        if len(parts) == 1:
            geom = {"type": "Polygon", "coordinates": parts[0]}
        else:
            geom = {"type": "MultiPolygon", "coordinates": parts}
        features.append({
            "type": "Feature",
            "properties": {
                "GEOID": str(world.geoids[t]),
                "POP": int(world.population[t]),
                "PCT_MINORITY": float(world.minority[t]),
                "PCT_POV200": float(world.poverty[t]),
            },
            "geometry": geom,
        })
    with open(dest / "tracts.geojson", "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh, separators=(",", ":"))
        fh.write("\n")
    order = np.argsort(world.geoids)
    for name, values, fmt in (("hazard_air.csv", world.air, repr),
                              ("hazard_toxic.csv", world.toxic, repr),
                              ("hazard_heat.csv", world.heat, str)):
        rows = [f"{world.geoids[t]},{fmt(values[t].item())}" for t in order]
        (dest / name).write_text("geoid,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
