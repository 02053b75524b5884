"""DBSCAN over per-tract exposure-index triples.

Classic density-based clustering with Euclidean distance: points with at
least min_pts neighbors (self included) within eps are core points;
clusters are maximal density-connected sets; everything unreachable is
noise (-1). Points are scanned in geoid order and neighbor lists kept in
that order, which pins border-point assignment and makes the labeling
fully deterministic.

Neighborhoods come from a uniform 3-D grid hash (Gunawan 2013; Schubert
et al., "DBSCAN Revisited, Revisited", TODS 2017): each point is bucketed
by its integer cell floor(coord / side), and only the 27 cells around a
point's own are searched, with the same exact squared-distance test as an
all-pairs scan, so every neighbor list is identical to that scan's. The
side is eps * (1 + 1e-9), not eps: with a side of exactly eps, rounding
in coord / side puts some pairs at distance <= eps two cells apart (about
1 % of them on a lattice at exact multiples of eps jittered by a few
ulp), where a 27-cell search misses them. Cells are keyed by the integer
triple, never by a flattened product, which overflows int64 for a tiny
eps.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import HAZARD_TYPES, MeiTable

NOISE = -1


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    eps: float = 0.1
    min_pts: int = 10

    def check(self) -> None:
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be positive and finite")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


@dataclass(frozen=True, slots=True)
class ClusterSummaryRow:
    label: int
    count: int
    share: float
    mean_mei: dict[str, float]


@dataclass(frozen=True, slots=True)
class ClusterSummary:
    rows: list[ClusterSummaryRow]


@dataclass(frozen=True, slots=True)
class ClusterResult:
    labels: dict[str, int]
    summary: list[ClusterSummaryRow]


_OFFSETS = tuple(itertools.product((-1, 0, 1), repeat=3))


def _neighbor_lists(coords: np.ndarray, eps: float, block: int = 512) -> list[np.ndarray]:
    """Indices within eps of each point (self included), ascending order.

    Distances are computed for at most `block` points of a cell at a time,
    so one dense cell cannot blow up memory.
    """
    eps2 = eps * eps
    side = eps * (1 + 1e-9)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, cell in enumerate(np.floor(coords / side).astype(np.int64).tolist()):
        buckets.setdefault(tuple(cell), []).append(i)
    members_of = {cell: np.asarray(members, dtype=np.intp) for cell, members in buckets.items()}

    neighbors = [None] * len(coords)
    for (x, y, z), members in members_of.items():
        around = [members_of.get((x + dx, y + dy, z + dz)) for dx, dy, dz in _OFFSETS]
        candidates = np.sort(np.concatenate([c for c in around if c is not None]))
        cand_coords = coords[candidates]
        for start in range(0, len(members), block):
            rows = members[start : start + block]
            d2 = ((coords[rows][:, None, :] - cand_coords[None, :, :]) ** 2).sum(axis=2)
            for i, row in zip(rows, d2):
                neighbors[i] = candidates[row <= eps2]
            del d2
    return neighbors


def dbscan(points: list[tuple[str, tuple[float, float, float]]], config: ClusterConfig) -> ClusterResult:
    """Cluster (geoid, exposure triple) points; returns labels and summary."""
    config.check()
    if not points:
        return ClusterResult(labels={}, summary=[])
    points = sorted(points, key=lambda p: p[0])
    geoids = [p[0] for p in points]
    coords = np.asarray([p[1] for p in points], dtype=float)
    if not np.isfinite(coords).all():
        raise ValueError("cluster coordinates must be finite")
    n = len(points)
    neighbors = _neighbor_lists(coords, config.eps)
    core = [len(nb) >= config.min_pts for nb in neighbors]

    labels = [NOISE] * n
    cluster_id = 0
    for seed in range(n):
        if labels[seed] != NOISE or not core[seed]:
            continue
        labels[seed] = cluster_id
        queue = deque([seed])
        while queue:
            i = queue.popleft()
            if not core[i]:
                continue  # border points do not expand the cluster
            for j in neighbors[i]:
                if labels[j] == NOISE:
                    labels[j] = cluster_id
                    if core[j]:
                        queue.append(j)
        cluster_id += 1

    label_map = dict(zip(geoids, labels))
    summary = _summary_rows(label_map, {g: tuple(c) for g, c in zip(geoids, coords)})
    return ClusterResult(labels=label_map, summary=summary)


def _summary_rows(labels: dict[str, int], triples: dict[str, tuple]) -> list[ClusterSummaryRow]:
    n = len(labels)
    members: dict[int, list[str]] = {}
    for geoid, label in labels.items():
        members.setdefault(label, []).append(geoid)
    rows = []
    for label, geoids in members.items():
        means = {
            h: float(sum(triples[g][i] for g in geoids)) / len(geoids)
            for i, h in enumerate(HAZARD_TYPES)
        }
        rows.append(ClusterSummaryRow(label=label, count=len(geoids), share=len(geoids) / n, mean_mei=means))
    rows.sort(key=lambda r: (-r.count, r.label))
    return rows


def summarize(result: ClusterResult, table: MeiTable) -> ClusterSummary:
    """Per-cluster tract counts, shares, and mean index triples.

    Means are recomputed from the exposure table so the summary reflects
    exactly the rows that were clustered.
    """
    triples = {
        g: tuple(row.mei[h] for h in HAZARD_TYPES)
        for g, row in table.rows.items()
        if g in result.labels
    }
    return ClusterSummary(rows=_summary_rows(result.labels, triples))


def cluster_points(table: MeiTable) -> list[tuple[str, tuple[float, float, float]]]:
    """Extract the fully defined exposure triples eligible for clustering."""
    points = []
    for geoid in sorted(table.rows):
        row = table.rows[geoid]
        triple = tuple(row.mei[h] for h in HAZARD_TYPES)
        if all(v is not None for v in triple):
            points.append((geoid, triple))
    return points


def apply_labels(table: MeiTable, result: ClusterResult) -> MeiTable:
    """Return a table with cluster labels attached to clustered rows."""
    from dataclasses import replace

    rows = {}
    for geoid, row in table.rows.items():
        label = result.labels.get(geoid, NOISE)
        rows[geoid] = replace(row, cluster_label=label)
    return MeiTable(rows=rows)
