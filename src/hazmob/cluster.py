"""DBSCAN over per-tract exposure-index triples.

Classic density-based clustering with Euclidean distance: points with at
least min_pts neighbors (self included) within eps are core points;
clusters are maximal density-connected sets; everything unreachable is
noise (-1). Points are taken in geoid order. Clusters are numbered in
order of their first core point, and a border point joins the
lowest-numbered cluster among its core neighbors, which makes the
labeling fully deterministic (it is the labeling of a breadth-first scan
that seeds clusters in geoid order).

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
eps. The neighbor lists are held as compressed sparse rows; clusters are
the connected components of the core points, found by vectorized
union-find with pointer jumping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .model import HAZARD_SHORT, HAZARD_TYPES, MeiTable, format6

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

    header = ("label", "count", "share", *(f"mean_mei_{HAZARD_SHORT[h]}" for h in HAZARD_TYPES))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def csv_rows(self) -> Iterator[tuple]:
        return ((str(r.label), str(r.count), format6(r.share),
                 *(format6(r.mean_mei[h]) for h in HAZARD_TYPES)) for r in self.rows)


@dataclass(frozen=True, slots=True, eq=False)
class ClusterPoints:
    """Exposure triples to cluster: geoids (a str array) and coords, float64 (n, 3)."""

    geoids: np.ndarray
    coords: np.ndarray

    def __len__(self) -> int:
        return len(self.geoids)

    @classmethod
    def of(cls, points) -> ClusterPoints:
        """The points of a sequence of (geoid, (x, y, z)) pairs."""
        return cls(geoids=np.array([p[0] for p in points], dtype=str),
                   coords=np.array([p[1] for p in points], dtype=float).reshape(len(points), 3))


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Cluster labels (int32, NOISE for noise) of the clustered points, sorted by geoid."""

    geoids: np.ndarray
    label: np.ndarray

    header = ("geoid", "label")

    @property
    def n_rows(self) -> int:
        return len(self.geoids)

    @cached_property
    def labels(self) -> dict[str, int]:
        """The row view: geoid -> label, in geoid order."""
        return dict(zip(self.geoids.tolist(), self.label.tolist()))

    def csv_rows(self) -> Iterator[tuple]:
        return zip(self.geoids.tolist(), map(str, self.label.tolist()))


# The 27 cells around a cell, in lexicographic order, so that the cells
# they name come in sorted order too.
_OFFSETS = tuple(itertools.product((-1, 0, 1), repeat=3))
# The most candidate pairs one pass of _neighbor_lists() measures.
_PASS_PAIRS = 2**15


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length) one after another."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _neighbor_lists(coords: np.ndarray, eps: float,
                    block: int = 512) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points within eps of each point (self included), as compressed sparse rows.

    Returns (order, indptr, indices). order lists the points by grid cell:
    cells in lexicographic order of their integer triples, points ascending
    within a cell. Row r holds the neighbors of point order[r] as positions
    in order, ascending: indices[indptr[r]:indptr[r + 1]]. indptr is int64,
    indices int32.

    A cell's candidates are the points of the up to 27 cells around it,
    which are contiguous runs of order. Distances are computed for at most
    `block` points at a time against their candidates, and for at most
    _PASS_PAIRS pairs unless one point has more candidates, so one dense
    cell cannot blow up memory. A squared distance is (dx**2 + dy**2) + dz**2,
    the value and summation order of ((a - b) ** 2).sum() over a length-3
    axis.
    """
    n = len(coords)
    eps2 = eps * eps
    side = eps * (1 + 1e-9)
    cells = np.floor(coords / side).astype(np.int64)
    order = np.lexsort(cells.T[::-1])
    cells = cells[order]
    first = np.flatnonzero(np.r_[True, (cells[1:] != cells[:-1]).any(axis=1)])
    size = np.diff(np.r_[first, n])
    cell_of = np.repeat(np.arange(len(first)), size)
    # Each cell's candidates: the runs of the cells around it, in order.
    triples = cells[first].tolist()
    index_of = {tuple(cell): k for k, cell in enumerate(triples)}
    around = np.array([[index_of.get((x + dx, y + dy, z + dz), -1) for dx, dy, dz in _OFFSETS]
                       for x, y, z in triples], dtype=np.int64).reshape(-1, len(_OFFSETS))
    exists = around >= 0
    runs = np.where(exists, size[around], 0)
    candidates = _ragged_arange(first[around[exists]], runs[exists])
    cand_count = runs.sum(axis=1)
    cand_start = np.cumsum(cand_count) - cand_count

    coords = np.ascontiguousarray(coords[order].T)
    # Candidate pairs up to each row; a pass takes at most `block` rows and,
    # unless one row has more, at most _PASS_PAIRS pairs.
    reach = np.cumsum(cand_count[cell_of])
    degree = np.empty(n, dtype=np.int64)
    found = []
    start = 0
    while start < n:
        done = reach[start - 1] if start else 0
        stop = min(start + block, max(start + 1, int(np.searchsorted(reach, done + _PASS_PAIRS, "right"))))
        rows = slice(start, stop)
        start = stop
        cell = cell_of[rows]
        counts = cand_count[cell]
        other = candidates[_ragged_arange(cand_start[cell], counts)]
        d2 = None
        for axis in coords:
            d = np.repeat(axis[rows], counts) - axis[other]
            d *= d
            if d2 is None:
                d2 = d
            else:
                d2 += d
        hit = d2 <= eps2
        del d, d2
        degree[rows] = np.add.reduceat(hit, np.cumsum(counts) - counts, dtype=np.int64)
        found.append(other[hit].astype(np.int32))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    at = 0
    found.reverse()
    while found:  # each pass's neighbors are freed once copied
        part = found.pop()
        indices[at : at + len(part)] = part
        at += len(part)
    return order, indptr, indices


def _roots(parent: np.ndarray) -> np.ndarray:
    """Point every entry of a parent forest straight at its root."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _labels(order: np.ndarray, indptr: np.ndarray, indices: np.ndarray, min_pts: int) -> np.ndarray:
    """DBSCAN labels, in point order, from _neighbor_lists()'s rows."""
    n = len(order)
    degree = np.diff(indptr)
    core = degree >= min_pts
    to_core = core[indices]
    rows = indptr[:-1]
    unset = np.iinfo(np.int32).max

    # Components of the core points as a parent forest in which parents
    # never exceed their children. Each core point starts under its smallest
    # core neighbor; then the larger root of every edge that joins two trees
    # is hooked under the smaller one, and pointers jump to the roots, until
    # no edge does.
    smallest = np.minimum.reduceat(np.where(to_core, indices, unset), rows)
    parent = np.where(core, smallest, np.arange(n, dtype=np.int32))
    source = np.repeat(np.arange(n, dtype=np.int32), degree)
    edge = to_core & core[source] & (source < indices)
    u, v = source[edge], indices[edge]
    del source, edge
    while True:
        parent = _roots(parent)
        pu, pv = parent[u], parent[v]
        cross = pu != pv
        if not cross.any():
            break
        u, v, pu, pv = u[cross], v[cross], pu[cross], pv[cross]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))

    # Clusters are numbered in order of their first core point.
    first = np.full(n, n, dtype=np.int64)
    np.minimum.at(first, parent[core], order[core])
    roots = np.flatnonzero(first < n)
    number = np.empty(n, dtype=np.int32)
    number[roots[np.argsort(first[roots])]] = np.arange(len(roots), dtype=np.int32)
    label = np.full(n, NOISE, dtype=np.int32)
    label[core] = number[parent[core]]
    # A border point joins the lowest-numbered cluster among its core neighbors.
    nearest = np.minimum.reduceat(np.where(to_core, label[indices], unset), rows)
    border = ~core & (nearest != unset)
    label[border] = nearest[border]
    out = np.empty(n, dtype=np.int32)
    out[order] = label
    return out


def dbscan(points: ClusterPoints | list[tuple[str, tuple[float, float, float]]],
           config: ClusterConfig) -> ClusterResult:
    """Cluster exposure triples; returns their labels.

    points is a ClusterPoints frame or a sequence of (geoid, triple) pairs,
    in any order.
    """
    config.check()
    if not isinstance(points, ClusterPoints):
        points = ClusterPoints.of(points)
    if not len(points):
        return ClusterResult(geoids=points.geoids, label=np.zeros(0, dtype=np.int32))
    order = np.argsort(points.geoids, kind="stable")
    geoids, coords = points.geoids[order], points.coords[order]
    if not np.isfinite(coords).all():
        raise ValueError("cluster coordinates must be finite")
    label = _labels(*_neighbor_lists(coords, config.eps), config.min_pts)
    return ClusterResult(geoids=geoids, label=label)


def _summary_rows(label: np.ndarray, coords: np.ndarray) -> list[ClusterSummaryRow]:
    """Count, share and mean triple per label; the sums run left to right in geoid order."""
    n = len(label)
    order = np.argsort(label, kind="stable")
    columns = coords[order].T.tolist()
    counts = np.bincount(label - NOISE)
    present = np.flatnonzero(counts)
    counts = counts[present]
    rows = []
    for lab, count, end in zip((present + NOISE).tolist(), counts.tolist(), np.cumsum(counts).tolist()):
        means = {h: float(sum(columns[k][end - count : end])) / count for k, h in enumerate(HAZARD_TYPES)}
        rows.append(ClusterSummaryRow(label=lab, count=count, share=count / n, mean_mei=means))
    rows.sort(key=lambda r: (-r.count, r.label))
    return rows


def _positions(table: MeiTable, geoids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of table holding each geoid, and which geoids it holds."""
    at = np.searchsorted(table.geoids, geoids)
    found = at < len(table.geoids)
    found[found] = table.geoids[at[found]] == geoids[found]
    return at, found


def summarize(result: ClusterResult, table: MeiTable) -> ClusterSummary:
    """Per-cluster tract counts, shares, and mean index triples.

    Means are recomputed from the exposure table so the summary reflects
    exactly the rows that were clustered.
    """
    at, found = _positions(table, result.geoids)
    if not found.all():
        raise KeyError(result.geoids[~found][0].item())
    return ClusterSummary(rows=_summary_rows(result.label, table.mei[at]))


def cluster_points(table: MeiTable) -> ClusterPoints:
    """The fully defined exposure triples eligible for clustering."""
    defined = ~np.isnan(table.mei).any(axis=1)
    return ClusterPoints(geoids=table.geoids[defined], coords=table.mei[defined])


def apply_labels(table: MeiTable, result: ClusterResult) -> MeiTable:
    """Return a table with cluster labels attached to clustered rows."""
    at, found = _positions(table, result.geoids)
    label = np.full(len(table), NOISE, dtype=np.int32)
    label[at[found]] = result.label[found]
    return table.with_columns(label=label)
