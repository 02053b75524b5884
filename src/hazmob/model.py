"""Shared domain types for the exposure pipeline.

All values are plain dataclasses with no I/O and no algorithms. Dwell
times are integer seconds throughout so that accumulation is exact.
Instances are treated as immutable once constructed; mapping fields are
never mutated after the owning object is returned to a caller.

The pipeline holds its stops in one Stops frame of numpy columns, its
tracts in one TractTable, each hazard in one HazardLayer, its per-tract
indices and region classes in one MeiTable and its cluster labels in one
cluster.ClusterResult. These are columns only, with no row view; the
tests build their own rows, and the scalar oracles that read them, in
tests/conftest.py. A tract's code is its position in the tract index's
sorted geoids: the hazard masks are one bool row per tract code and each
user's home is a tract code, so no mapping keyed by geoid or user id runs
between the parse and the index table.

STOP_BOUNDS states each stop field's bounds and reject reasons once, for
ingest.parse_stops()'s column checks and its row path alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

HAZARD_TYPES = ("air_pollution", "toxic", "heat")

# Short column suffixes used in report CSVs, in canonical hazard order.
HAZARD_SHORT = {"air_pollution": "air", "toxic": "toxic", "heat": "heat"}

REGION_DIRECT = "direct"
REGION_LATENT = "latent"
REGION_NONE = "none"


# The longest accepted stop, about 68 years. It keeps every int64 dwell sum
# exact for fewer than 2**32 stops.
MAX_DWELL_S = 2**31 - 1

# Each stop field's inclusive bounds (on its length, for user_id) and its
# reject reasons below and above them, in the order they are checked.
STOP_BOUNDS = {
    "user_id": (1, math.inf, "user_id: must be non-empty", ""),
    "lon": (-180.0, 180.0, "lon: out of range [-180, 180]", "lon: out of range [-180, 180]"),
    "lat": (-90.0, 90.0, "lat: out of range [-90, 90]", "lat: out of range [-90, 90]"),
    "dwell_s": (0, MAX_DWELL_S, "dwell_s: must be a non-negative integer", "dwell_s: out of range"),
}


@dataclass(frozen=True, slots=True, eq=False)
class Stops:
    """Stop records as numpy columns, one entry per stop, in source order.

    user holds int32 codes into user_ids (an object array naming each user
    once, in order of first appearance); lon and lat are float64; start_ts
    (UTC epoch seconds) and dwell_s are int64.
    """

    user: np.ndarray
    user_ids: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    start_ts: np.ndarray
    dwell_s: np.ndarray

    def __len__(self) -> int:
        return len(self.user)


@dataclass(frozen=True, eq=False)
class TractTable:
    """Census tracts as numpy columns, one entry per tract, in source order.

    geoids is a str array; population is int64 while every value fits, an
    object array of Python ints otherwise; pct_minority and
    pct_below_poverty200 are float64. The geometry is one float64 x/y vertex
    column pair holding every ring in order, each followed by a NaN row, and
    three CSR offset arrays: ring r is rows ring_offsets[r] up to its NaN row
    ring_offsets[r + 1] - 1, part p is rings part_offsets[p] up to
    part_offsets[p + 1], and tract t is parts tract_offsets[t] up to
    tract_offsets[t + 1]. A part's first ring is its exterior, the rest are
    holes.

    ingest.parse_tracts and synth.gen_world return a table; the index, the
    population curves, the compound count, the stats tables and
    ingest.write_tracts read its columns.
    """

    geoids: np.ndarray
    population: np.ndarray
    pct_minority: np.ndarray
    pct_below_poverty200: np.ndarray
    x: np.ndarray
    y: np.ndarray
    ring_offsets: np.ndarray
    part_offsets: np.ndarray
    tract_offsets: np.ndarray

    @classmethod
    def from_vertices(cls, geoids: list[str], population: list[int], pct_minority: list,
                      pct_below_poverty200: list, xy: np.ndarray, ring_sizes: np.ndarray,
                      rings_per_part: list[int], parts_per_tract: list[int]) -> TractTable:
        """The table of checked columns: every ring's vertices as the rows of an
        (n, 2) float64 array xy, in order, with the vertex count of each ring,
        the ring count of each part and the part count of each tract."""
        try:
            pop = np.array(population, dtype=np.int64)
        except OverflowError:
            pop = np.array(population, dtype=object)
        breaks = np.cumsum(ring_sizes)
        return cls(
            geoids=np.array(geoids, dtype=str),
            population=pop,
            pct_minority=np.array(pct_minority, dtype=np.float64),
            pct_below_poverty200=np.array(pct_below_poverty200, dtype=np.float64),
            x=np.insert(xy[:, 0], breaks, math.nan),
            y=np.insert(xy[:, 1], breaks, math.nan),
            ring_offsets=csr_offsets(np.asarray(ring_sizes) + 1),
            part_offsets=csr_offsets(rings_per_part),
            tract_offsets=csr_offsets(parts_per_tract),
        )

    def __len__(self) -> int:
        return len(self.geoids)


def csr_offsets(counts) -> np.ndarray:
    """CSR offsets of consecutive runs of the given lengths: 0, then the running sums."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def run_heads(keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal keys."""
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]][: len(keys)])


def positions(names, geoids) -> np.ndarray:
    """The int64 position in geoids (distinct, in any order) of each of names; -1 where absent."""
    names, geoids = np.asarray(names, dtype=str), np.asarray(geoids, dtype=str)
    if not len(geoids):
        return np.full(len(names), -1, dtype=np.int64)
    order = np.argsort(geoids, kind="stable")
    at = order[np.minimum(np.searchsorted(geoids, names, sorter=order), len(order) - 1)]
    return np.where(geoids[at] == names, at, -1)


@dataclass(frozen=True, eq=False)
class HazardLayer:
    """One hazard's raw per-tract values as columns, in source order.

    geoids is a str array; values is float64: percentile ranks in [0, 1]
    for air_pollution and toxic, non-negative whole heat-day counts up to
    2**53 for heat. hazardclass turns a layer into a bool mask column
    aligned with the tract index.
    """

    hazard_type: str
    geoids: np.ndarray
    values: np.ndarray


# Region classes by their int8 code in MeiTable.region.
REGIONS = (REGION_NONE, REGION_LATENT, REGION_DIRECT)
NONE_CODE, LATENT_CODE, DIRECT_CODE = range(3)

MEI_HEADER = (
    ["geoid"]
    + [f"mei_{HAZARD_SHORT[h]}" for h in HAZARD_TYPES]
    + [f"nonhome_share_{HAZARD_SHORT[h]}" for h in HAZARD_TYPES]
    + [f"nonhome_cond_{HAZARD_SHORT[h]}" for h in HAZARD_TYPES]
    + [f"class_{HAZARD_SHORT[h]}" for h in HAZARD_TYPES]
)


def format6(x: float | None) -> str:
    """A report float with 6 decimals; empty for an undefined value."""
    return "" if x is None else f"{x:.6f}"


def format6_column(values: np.ndarray) -> list[str]:
    """format6 over a float column, with NaN as the undefined value."""
    return ["" if v != v else f"{v:.6f}" for v in values.tolist()]


@dataclass(frozen=True, eq=False)
class MeiTable:
    """Per-tract exposure indices and region classes as numpy columns.

    One entry per tract, sorted by geoid (a str array). mei, nonhome_share
    and nonhome_conditional are float64 of shape (n, 3), one column per
    hazard in HAZARD_TYPES order, NaN where undefined; region holds int8
    codes into REGIONS, shape (n, 3). exposure.compute_mei and
    ingest.read_mei build it; every reader works on the columns. Cluster
    labels are not held here: cluster.ClusterResult holds them.
    """

    geoids: np.ndarray
    mei: np.ndarray
    nonhome_share: np.ndarray
    nonhome_conditional: np.ndarray
    region: np.ndarray

    header = MEI_HEADER

    def __len__(self) -> int:
        return len(self.geoids)

    @property
    def excluded(self) -> np.ndarray:
        """Per tract: True when no index is defined."""
        return np.isnan(self.mei).all(axis=1)

    def csv_rows(self) -> Iterator[tuple]:
        """mei.csv's data rows: geoid, the three index columns and the classes."""
        cells = [format6_column(column[:, k])
                 for column in (self.mei, self.nonhome_share, self.nonhome_conditional)
                 for k in range(3)]
        names = np.array(REGIONS, dtype=object)[self.region]
        cells += [names[:, k].tolist() for k in range(3)]
        return zip(self.geoids.tolist(), *cells)


def is_geoid(text) -> bool:
    """A tract GEOID is 11 ASCII digits: state, county and tract codes."""
    return isinstance(text, str) and len(text) == 11 and text.isascii() and text.isdigit()
