"""Dwell-time accumulation and the mobility-based exposure index.

For each tract, total dwell time (TDT) sums every stop made by the
tract's residents; hazard dwell time (HDT) sums the part spent at stops
inside high-hazard tracts. The exposure index is HDT / TDT per hazard.
All dwell sums are integers, so accumulation over any sharding of the
stop list merges to the exact single-pass result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .homeloc import HomeMap
from .model import (
    HAZARD_TYPES,
    REGION_DIRECT,
    REGION_LATENT,
    REGION_NONE,
    CensusTract,
    ExposureAccumulator,
    HazardLayer,
    MeiRow,
    MeiTable,
)


@dataclass(frozen=True, slots=True)
class PopulationCurve:
    """Population living in latent tracts whose index exceeds a threshold."""

    hazard_type: str
    points: list[tuple[float, int]]


@dataclass(slots=True)
class AccumulateResult:
    """Per-tract accumulators plus diagnostics about ignored stops."""

    by_tract: dict[str, ExposureAccumulator] = field(default_factory=dict)
    dropped_stops: int = 0
    dropped_dwell_s: int = 0
    dropped_users: set[str] = field(default_factory=set)

    @property
    def unresolved_dwell_s(self) -> int:
        return sum(a.unresolved_dwell_s for a in self.by_tract.values())

    def merge(self, other: "AccumulateResult") -> None:
        for geoid, acc in other.by_tract.items():
            mine = self.by_tract.get(geoid)
            if mine is None:
                self.by_tract[geoid] = acc
            else:
                mine.merge(acc)
        self.dropped_stops += other.dropped_stops
        self.dropped_dwell_s += other.dropped_dwell_s
        self.dropped_users |= other.dropped_users


def accumulate(
    stops,
    where: list[str | None],
    home_map: HomeMap,
    masks: dict[str, HazardLayer],
) -> AccumulateResult:
    """Accumulate dwell sums for every stop made by a user with a home.

    where[i] is the tract holding stops[i] (geoindex.locate_stops), or
    None when the stop lies outside every tract.

    A stop's dwell always counts toward the home tract's TDT. It counts
    toward HDT for hazard h when the stop lies in a tract masked for h.
    Stops outside every known tract count toward TDT and the unresolved
    diagnostic only. Stops by users without a home are dropped and
    reported in the diagnostics.
    """
    homes = home_map.assignments
    masked = {h: masks[h].masked_geoids() for h in HAZARD_TYPES if h in masks}
    result = AccumulateResult()
    by_tract = result.by_tract
    for stop, geoid in zip(stops, where, strict=True):
        home = homes.get(stop.user_id)
        if home is None:
            result.dropped_stops += 1
            result.dropped_dwell_s += stop.dwell_s
            result.dropped_users.add(stop.user_id)
            continue
        acc = by_tract.get(home)
        if acc is None:
            acc = by_tract[home] = ExposureAccumulator(geoid=home)
        dwell = stop.dwell_s
        acc.tdt_s += dwell
        if geoid is None:
            acc.unresolved_dwell_s += dwell
            continue
        nonhome = geoid != home
        if nonhome:
            acc.tdt_nonhome_s += dwell
        for h, mask_set in masked.items():
            if geoid in mask_set:
                acc.hdt_s[h] += dwell
                if nonhome:
                    acc.hdt_nonhome_s[h] += dwell
    return result


def accumulate_parallel(
    stops,
    where: list[str | None],
    home_map: HomeMap,
    masks: dict[str, HazardLayer],
    threads: int = 1,
) -> AccumulateResult:
    """Shard the stop list and its tracts across threads and merge the partial sums.

    Integer sums commute, so the merged result is identical to the
    single-pass result for any shard boundaries and any thread count.
    """
    if threads <= 1 or len(stops) < 2 * threads:
        return accumulate(stops, where, home_map, masks)
    from concurrent.futures import ThreadPoolExecutor

    size = (len(stops) + threads - 1) // threads
    bounds = range(0, len(stops), size)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        partials = list(pool.map(
            lambda i: accumulate(stops[i : i + size], where[i : i + size], home_map, masks),
            bounds,
        ))
    merged = partials[0]
    for part in partials[1:]:
        merged.merge(part)
    return merged


def compute_mei(result: AccumulateResult) -> MeiTable:
    """Turn accumulated dwell sums into per-tract exposure index rows."""
    rows: dict[str, MeiRow] = {}
    for geoid, acc in result.by_tract.items():
        tdt = acc.tdt_s
        nonhome = acc.tdt_nonhome_s
        mei: dict[str, float | None] = {}
        share: dict[str, float | None] = {}
        cond: dict[str, float | None] = {}
        for h in HAZARD_TYPES:
            if tdt > 0:
                mei[h] = acc.hdt_s[h] / tdt
                share[h] = acc.hdt_nonhome_s[h] / tdt
            else:
                mei[h] = None
                share[h] = None
            cond[h] = acc.hdt_nonhome_s[h] / nonhome if nonhome > 0 else None
        rows[geoid] = MeiRow(
            geoid=geoid,
            mei=mei,
            nonhome_share=share,
            nonhome_conditional=cond,
            region_class=dict.fromkeys(HAZARD_TYPES, REGION_NONE),
        )
    return MeiTable(rows=rows)


def classify_regions(table: MeiTable, masks: dict[str, HazardLayer]) -> MeiTable:
    """Set the direct/latent/none region class per hazard on every row."""
    masked = {h: masks[h].masked_geoids() for h in HAZARD_TYPES if h in masks}
    rows: dict[str, MeiRow] = {}
    for geoid, row in table.rows.items():
        region = {}
        for h in HAZARD_TYPES:
            if geoid in masked.get(h, ()):
                region[h] = REGION_DIRECT
            elif row.mei[h] is not None and row.mei[h] > 0:
                region[h] = REGION_LATENT
            else:
                region[h] = REGION_NONE
        rows[geoid] = replace(row, region_class=region)
    return MeiTable(rows=rows)


def population_curve(
    table: MeiTable,
    tracts: list[CensusTract],
    hazard_type: str,
    thresholds: list[float],
) -> PopulationCurve:
    """Population in latent tracts with index above each threshold."""
    pop = {t.geoid: t.population for t in tracts}
    points = []
    for threshold in thresholds:
        total = 0
        for geoid, row in table.rows.items():
            if row.region_class[hazard_type] != REGION_LATENT:
                continue
            mei = row.mei[hazard_type]
            if mei is not None and mei > threshold:
                total += pop.get(geoid, 0)
        points.append((threshold, total))
    return PopulationCurve(hazard_type=hazard_type, points=points)


def compound_latent(
    table: MeiTable,
    tracts: list[CensusTract],
    threshold: float,
) -> tuple[list[str], int]:
    """Tracts latent in all three hazards with index above threshold in each."""
    pop = {t.geoid: t.population for t in tracts}
    selected = []
    for geoid in sorted(table.rows):
        row = table.rows[geoid]
        if all(
            row.region_class[h] == REGION_LATENT
            and row.mei[h] is not None
            and row.mei[h] > threshold
            for h in HAZARD_TYPES
        ):
            selected.append(geoid)
    return selected, sum(pop.get(g, 0) for g in selected)
