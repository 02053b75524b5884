"""Dwell-time accumulation and the mobility-based exposure index.

For each tract, total dwell time (TDT) sums every stop made by the
tract's residents; hazard dwell time (HDT) sums the part spent at stops
inside high-hazard tracts. The exposure index is HDT / TDT per hazard.
accumulate() sums a Stops frame's dwell per home tract as int64
reductions over tract codes: each stop's home is the home column's entry
for its user and its hazards are the mask row of its tract, so every sum
is exact (dwell is at most model.MAX_DWELL_S per stop) and independent of
stop order.
compute_mei() turns those columns into a MeiTable with whole-column
divisions, and the region classes, population curves and compound count
are numpy passes over it. The table holds indices and region classes
only; cluster labels stay in cluster.ClusterResult.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .homeloc import HomeMap
from .model import (
    DIRECT_CODE,
    HAZARD_TYPES,
    LATENT_CODE,
    NONE_CODE,
    MeiTable,
    Stops,
    TractTable,
    format6,
    positions,
)


@dataclass(frozen=True, slots=True)
class PopulationCurve:
    """Population living in latent tracts whose index exceeds a threshold."""

    hazard_type: str
    points: list[tuple[float, int]]


@dataclass(frozen=True, slots=True)
class CurveTable:
    """Several population curves as one report, in hazard order."""

    curves: list[PopulationCurve]

    header = ("hazard", "threshold", "population")

    def csv_rows(self) -> Iterator[tuple]:
        ordered = sorted(self.curves, key=lambda c: HAZARD_TYPES.index(c.hazard_type))
        return ((c.hazard_type, format6(t), str(population)) for c in ordered for t, population in c.points)


@dataclass(frozen=True, eq=False)
class AccumulateResult:
    """Per-home-tract dwell sums as int64 columns, plus diagnostics about ignored stops.

    One entry per home tract with at least one kept stop, sorted by geoid
    (a str array). tdt_s is the total dwell of the tract's residents;
    hdt_s[:, k] the part of it spent at stops inside tracts masked for
    hazard HAZARD_TYPES[k]. The nonhome columns cover only stops outside
    the home tract; unresolved_s is dwell at stops outside every known
    tract (counted in tdt_s, never in hdt_s). The dropped counts cover the
    stops of users without a home.
    """

    geoids: np.ndarray
    tdt_s: np.ndarray
    hdt_s: np.ndarray
    tdt_nonhome_s: np.ndarray
    hdt_nonhome_s: np.ndarray
    unresolved_s: np.ndarray
    dropped_stops: int = 0
    dropped_dwell_s: int = 0
    dropped_users: int = 0


def _mask_rows(masks: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The mask row of each tract code; an unmasked row for code -1 (no tract)."""
    return np.vstack([masks, np.zeros((1, len(HAZARD_TYPES)), dtype=bool)])[codes]


def accumulate(
    stops: Stops,
    where: np.ndarray,
    geoids: Sequence[str],
    home_map: HomeMap,
    masks: np.ndarray,
) -> AccumulateResult:
    """Accumulate dwell sums for every stop made by a user with a home.

    where[i] is the tract of stop i (geoindex.locate_stops): a position in
    geoids (sorted), or -1 when the stop lies outside every tract.
    home_map.home holds such a position per user code, and masks[t, k]
    whether tract t is masked for hazard HAZARD_TYPES[k].

    A stop's dwell always counts toward the home tract's TDT. It counts
    toward HDT for hazard h when the stop lies in a tract masked for h.
    Stops outside every known tract count toward TDT and the unresolved
    diagnostic only. Stops by users without a home are dropped and
    reported in the diagnostics.
    """
    home = home_map.home[stops.user]
    dropped = np.flatnonzero(home < 0)
    kept = np.flatnonzero(home >= 0)
    home, tract, dwell = home[kept], where[kept], stops.dwell_s[kept]
    nonhome = (tract >= 0) & (tract != home)
    masked = _mask_rows(masks, tract)

    def sums(rows) -> np.ndarray:
        """Exact int64 dwell sums per home tract over the selected stops."""
        out = np.zeros(len(geoids), dtype=np.int64)
        np.add.at(out, home[rows], dwell[rows])
        return out

    hdt = [sums(masked[:, k]) for k in range(len(HAZARD_TYPES))]
    hdt_nonhome = [sums(masked[:, k] & nonhome) for k in range(len(HAZARD_TYPES))]
    # Homes with at least one kept stop.
    present = np.flatnonzero(np.bincount(home, minlength=len(geoids)))
    return AccumulateResult(
        geoids=np.array(geoids, dtype=str)[present],
        tdt_s=sums(slice(None))[present],
        hdt_s=np.stack(hdt, axis=1)[present],
        tdt_nonhome_s=sums(nonhome)[present],
        hdt_nonhome_s=np.stack(hdt_nonhome, axis=1)[present],
        unresolved_s=sums(tract < 0)[present],
        dropped_stops=len(dropped),
        dropped_dwell_s=int(stops.dwell_s[dropped].sum()),
        dropped_users=int(np.count_nonzero(np.bincount(stops.user[dropped], minlength=len(stops.user_ids)))),
    )


# Below this both operands of an int64 division convert to float64 exactly,
# so numpy's division rounds the exact quotient once, as Python's int / int does.
_EXACT = 2**53


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den rounded as Python's int / int rounds it; NaN where den is 0."""
    num, den = np.broadcast_arrays(num, den)
    out = np.full(num.shape, np.nan)
    defined = den > 0
    exact = defined & (num < _EXACT) & (den < _EXACT)
    out[exact] = num[exact] / den[exact]
    for at in zip(*np.nonzero(defined & ~exact)):
        out[at] = int(num[at]) / int(den[at])
    return out


def compute_mei(result: AccumulateResult) -> MeiTable:
    """Turn accumulated dwell sums into the per-tract exposure index table.

    Region classes start as none.
    """
    n = len(result.geoids)
    return MeiTable(
        geoids=result.geoids,
        mei=_ratio(result.hdt_s, result.tdt_s[:, None]),
        nonhome_share=_ratio(result.hdt_nonhome_s, result.tdt_s[:, None]),
        nonhome_conditional=_ratio(result.hdt_nonhome_s, result.tdt_nonhome_s[:, None]),
        region=np.full((n, 3), NONE_CODE, dtype=np.int8),
    )


def classify_regions(table: MeiTable, masks: np.ndarray, geoids: Sequence[str]) -> MeiTable:
    """Set the direct/latent/none region class per hazard on every tract.

    masks[t, k] tells whether tract geoids[t] is masked for hazard
    HAZARD_TYPES[k]; a table tract absent from geoids is unmasked.
    Direct: the tract is masked for the hazard. Latent: not masked, with a
    positive index. None: everything else.
    """
    region = np.where(table.mei > 0, LATENT_CODE, NONE_CODE).astype(np.int8)
    region[_mask_rows(masks, positions(table.geoids, geoids))] = DIRECT_CODE
    return replace(table, region=region)


def tract_columns(geoids: np.ndarray, tracts: TractTable, *names: str) -> tuple[np.ndarray, ...]:
    """The named TractTable columns (population, pct_minority,
    pct_below_poverty200), one entry per geoid.

    Every geoid must name a tract: the first that does not is a ValueError.
    """
    if not isinstance(tracts, TractTable):
        raise TypeError(f"tracts must be a TractTable, not {type(tracts).__name__}")
    at = positions(geoids, tracts.geoids)
    missing = np.flatnonzero(at < 0)
    if len(missing):
        raise ValueError(f"geoid {geoids[missing[0]]} has no tract in the tract file")
    return tuple(getattr(tracts, name)[at] for name in names)


def population_curve(
    table: MeiTable,
    tracts: TractTable,
    hazard_type: str,
    thresholds: list[float],
) -> PopulationCurve:
    """Population in latent tracts with index above each threshold."""
    k = HAZARD_TYPES.index(hazard_type)
    (population,) = tract_columns(table.geoids, tracts, "population")
    latent = table.region[:, k] == LATENT_CODE
    mei = table.mei[:, k]
    points = [(t, sum(population[latent & (mei > t)].tolist())) for t in thresholds]
    return PopulationCurve(hazard_type=hazard_type, points=points)


def compound_latent(
    table: MeiTable,
    tracts: TractTable,
    threshold: float,
) -> tuple[list[str], int]:
    """Tracts latent in all three hazards with index above threshold in each."""
    chosen = ((table.region == LATENT_CODE) & (table.mei > threshold)).all(axis=1)
    (population,) = tract_columns(table.geoids, tracts, "population")
    return table.geoids[chosen].tolist(), sum(population[chosen].tolist())
