"""Dwell-time accumulation and the mobility-based exposure index.

For each tract, total dwell time (TDT) sums every stop made by the
tract's residents; hazard dwell time (HDT) sums the part spent at stops
inside high-hazard tracts. The exposure index is HDT / TDT per hazard.
accumulate() sums a Stops frame's dwell per home tract as int64
reductions over (home, tract) codes, so every sum is exact (dwell is at
most model.MAX_DWELL_S per stop) and independent of stop order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

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
    Stops,
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


def accumulate(
    stops: Stops,
    where: np.ndarray,
    geoids: Sequence[str],
    home_map: HomeMap,
    masks: dict[str, HazardLayer],
) -> AccumulateResult:
    """Accumulate dwell sums for every stop made by a user with a home.

    where[i] is the tract of stop i (geoindex.locate_stops): a position in
    geoids, or -1 when the stop lies outside every tract.

    A stop's dwell always counts toward the home tract's TDT. It counts
    toward HDT for hazard h when the stop lies in a tract masked for h.
    Stops outside every known tract count toward TDT and the unresolved
    diagnostic only. Stops by users without a home are dropped and
    reported in the diagnostics.
    """
    homes = home_map.assignments
    home_geoids = sorted(set(homes.values()))
    home_code = {g: i for i, g in enumerate(home_geoids)}
    user_home = np.array([home_code.get(homes.get(u), -1) for u in stops.user_ids.tolist()],
                         dtype=np.int64)
    home = user_home[stops.user]
    dwell = stops.dwell_s
    result = AccumulateResult()
    dropped = np.flatnonzero(home < 0)
    result.dropped_stops = len(dropped)
    result.dropped_dwell_s = int(dwell[dropped].sum())
    dropped_users = np.bincount(stops.user[dropped], minlength=len(stops.user_ids))
    result.dropped_users = set(stops.user_ids[np.flatnonzero(dropped_users)].tolist())

    kept = np.flatnonzero(home >= 0)
    home, tract, dwell = home[kept], where[kept], dwell[kept]
    # Tract codes of the homes; -2 for a home outside geoids, which no stop has.
    tract_code = {g: i for i, g in enumerate(geoids)}
    home_tract = np.array([tract_code.get(g, -2) for g in home_geoids], dtype=np.int64)
    nonhome = (tract >= 0) & (tract != home_tract[home])

    def sums(rows) -> list[int]:
        """Exact int64 dwell sums per home over the selected stops."""
        out = np.zeros(len(home_geoids), dtype=np.int64)
        np.add.at(out, home[rows], dwell[rows])
        return out.tolist()

    tdt = sums(slice(None))
    tdt_nonhome = sums(nonhome)
    unresolved = sums(tract < 0)
    hdt, hdt_nonhome = {}, {}
    for h in HAZARD_TYPES:
        masked_set = masks[h].masked_geoids() if h in masks else frozenset()
        # One flag per tract code, plus a False for code -1 (no tract).
        masked = np.array([g in masked_set for g in geoids] + [False])[tract]
        hdt[h] = sums(masked)
        hdt_nonhome[h] = sums(masked & nonhome)
    counts = np.bincount(home, minlength=len(home_geoids))
    for i in np.flatnonzero(counts).tolist():
        result.by_tract[home_geoids[i]] = ExposureAccumulator(
            geoid=home_geoids[i],
            tdt_s=tdt[i],
            hdt_s={h: hdt[h][i] for h in HAZARD_TYPES},
            tdt_nonhome_s=tdt_nonhome[i],
            hdt_nonhome_s={h: hdt_nonhome[h][i] for h in HAZARD_TYPES},
            unresolved_dwell_s=unresolved[i],
        )
    return result


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
