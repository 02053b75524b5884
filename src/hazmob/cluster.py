"""DBSCAN over per-tract exposure-index triples.

Classic density-based clustering with Euclidean distance: points with at
least min_pts neighbors (self included) within eps are core points;
clusters are maximal density-connected sets; everything unreachable is
noise (-1). Points are taken in geoid order. Clusters are numbered in
order of their first core point, and a border point joins the
lowest-numbered cluster among its core neighbors, which makes the
labeling fully deterministic (it is the labeling of a breadth-first scan
that seeds clusters in geoid order).

The scan runs on a uniform 3-D grid (Gunawan, "A Faster Algorithm for
DBSCAN", 2013; Gan and Tao, "DBSCAN Revisited", SIGMOD 2015) and never
holds the neighbor pairs:

- Cells. A point's cell is floor((coord - lowest) / side), computed
  exactly, with a side just under eps / sqrt(3): any two points of one
  cell pass the exact test (dx*dx + dy*dy) + dz*dz <= eps*eps, and a pair
  that passes it lies in cells at most two apart on every axis. Cells are
  keyed by the integer triple, never by a flattened product, which
  overflows int64 for a tiny eps.
- Degrees. A cell of at least min_pts points is all core, with no test.
  The points of sparser cells count the points around them that pass
  the test, until their cell's points all reach min_pts.
- Joins. The core points of one cell are all neighbors, so clusters are
  unions of cells, found by union-find. Cell pairs are taken nearest
  first, a pair whose cells already share a root is skipped, and a pair
  joins on the first core-to-core pair that passes the test.
- Border points. One pass gives each non-core point the lowest-numbered
  cluster among its core neighbors.

Every pair is measured by the exact test of an all-pairs scan, so the
labels are that scan's, and every pass measures at most _PASS_PAIRS
pairs, however dense a cell is. The cell bounds hold while eps * eps is
a normal float and the points span fewer than 2**53 cells per axis;
eps and the points are checked for both.

dbscan's ClusterResult is the only holder of cluster labels; the
MeiTable carries none, and summarize joins the two by geoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import HAZARD_SHORT, HAZARD_TYPES, MeiTable, format6, positions

NOISE = -1


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    eps: float = 0.1
    min_pts: int = 10

    def check(self) -> None:
        # eps * eps must be a normal float for the exact test to bound distance.
        if not 2.0**-511 <= self.eps < 2.0**512:
            raise ValueError("eps must be at least 2**-511 and below 2**512")
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


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Cluster labels (int32, NOISE for noise) of the clustered points, sorted by geoid."""

    geoids: np.ndarray
    label: np.ndarray

    header = ("geoid", "label")

    def csv_rows(self) -> Iterator[tuple]:
        return zip(self.geoids.tolist(), map(str, self.label.tolist()))


# Cells are cubes of side just under eps / sqrt(3) (see _cell_side), so two
# points within eps of each other lie in cells at most two apart on every
# axis. _COLUMNS lists the columns (dx, dy) that hold the cells after a cell,
# in lexicographic order, within that reach: its own (dz > 0) and 12 more.
_COLUMNS = ((0, 0), (0, 1), (0, 2), *((dx, dy) for dx in (1, 2) for dy in range(-2, 3)))
# The most pairs, and blocks, one pass of the exact test measures.
_PASS_PAIRS = 2**13
_PASS_BLOCKS = 2**11
# Tile shapes (rows, columns): small for the joins, which stop at the
# first pair that passes, wide for the degree and border scans.
_JOIN_TILE = (16, 16)
_SCAN_TILE = (16, _PASS_PAIRS // 16)


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length) one after another."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _cell_side(eps: float) -> float:
    """A cell side just under eps / sqrt(3) at which two points of one cell pass the exact test.

    Two points of one cell differ by less than the side on each axis, so
    each rounded difference is at most the side, and rounding is monotonic:
    their squared distance, rounded step by step, is at most the same sum
    for three differences of exactly the side, which the loop keeps within
    eps * eps.
    """
    eps2 = eps * eps
    side = eps / math.sqrt(3) * (1 - 2**-30)
    while (side * side + side * side) + side * side > eps2:
        side = math.nextafter(side, 0.0)
    return side


def _cells(coords: np.ndarray, side: float) -> np.ndarray:
    """Each point's cell, floor((coords - low) / side) for the lowest coordinates
    low, computed exactly, as int64 triples."""
    low = coords.min(axis=0)
    with np.errstate(over="ignore"):  # an overflow is an infinite span
        q = (coords - low) / side
    if not q.max() < 2**53:
        raise ValueError("cluster coordinates span more than 2**53 cells of side eps / sqrt(3)")
    cells = np.floor(q)
    # q is the exact quotient give or take 2**-52 * q (two roundings), so its
    # floor is exact unless it lies that close to a positive whole number.
    # Those are redone in integers: coordinate a / b, low c / d, side e / f.
    whole = np.rint(q)
    e, f = side.as_integer_ratio()
    for i, k in zip(*np.nonzero((whole >= 1) & (np.abs(q - whole) <= 2**-50 * q))):
        (a, b), (c, d) = coords[i, k].as_integer_ratio(), low[k].as_integer_ratio()
        cells[i, k] = (a * d - c * b) * f // (b * d * e)
    return cells.astype(np.int64)


def _cell_pairs(cells: np.ndarray, low: np.ndarray, high: np.ndarray,
                eps2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs a < b of cells that may hold two points within eps, and their gaps.

    cells are distinct triples in lexicographic order; low and high are
    the corners of the box around each cell's points. A pair's cells are
    at most two apart on every axis, and the gap between their boxes
    passes the exact test: rounding is monotonic, so no two points of
    boxes that fail it pass it. A pair's gap is the number of axes on which
    its cells are two apart, its squared grid distance in squared sides.
    For each column offset, a cell's partners are a run of the cells: one
    search finds the column (x + dx, y + dy) among the distinct columns,
    and two find its cells from z - 2 (z + 1 in the cell's own column) to
    z + 2. The keys are complex numbers, which sort lexicographically and
    hold these integers exactly.
    """
    x, y, z = cells.T
    new_column = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1])]
    column = np.cumsum(new_column) - 1
    columns = (x + 1j * y)[new_column]
    keys = column + 1j * z
    found_a, found_b, gaps = [], [], []
    for dx, dy in _COLUMNS:
        want = (x + dx) + 1j * (y + dy)
        at = np.minimum(np.searchsorted(columns, want), len(columns) - 1)
        src = np.flatnonzero(columns[at] == want)
        near = at[src] + 1j * z[src]
        start = np.searchsorted(keys, near + (1j if (dx, dy) == (0, 0) else -2j))
        count = np.searchsorted(keys, near + 2j, "right") - start
        a = np.repeat(src, count).astype(np.int32)
        b = _ragged_arange(start, count).astype(np.int32)
        apart = np.maximum(np.maximum(low[b] - high[a], low[a] - high[b]), 0.0)
        apart *= apart
        close = (apart[:, 0] + apart[:, 1]) + apart[:, 2] <= eps2
        a, b = a[close], b[close]
        found_a.append(a)
        found_b.append(b)
        gaps.append((abs(dx) == 2) + (abs(dy) == 2) + (np.abs(z[b] - z[a]) == 2).astype(np.int8))
    return np.concatenate(found_a), np.concatenate(found_b), np.concatenate(gaps)


def _toward(a: np.ndarray, b: np.ndarray, gap: np.ndarray,
            rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cell pairs of _cell_pairs() taken both ways, as (row cell, column
    cell) with rows[row cell] and cols[column cell] true, nearest first."""
    ahead, back = rows[a] & cols[b], rows[b] & cols[a]
    by_gap = np.argsort(np.r_[gap[ahead], gap[back]], kind="stable")
    return np.r_[a[ahead], b[back]][by_gap], np.r_[b[ahead], a[back]][by_gap]


def _sweep(xyz: np.ndarray, eps2: float, r: np.ndarray, c: np.ndarray, rows: tuple, cols: tuple,
           tile: tuple[int, int], live=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact tests over blocks of point pairs; yields the pairs that pass.

    Block k pairs the rows of cell r[k] with the columns of cell c[k]: the
    points at positions start[cell] .. start[cell] + count[cell] - 1 of
    the coordinate rows xyz, for (start, count) = rows and = cols. The
    blocks take turns: each turn tests the next tile, row-major and at most
    tile = (rows, columns) in shape, of every block still pending, in
    block order. A pass measures at most _PASS_PAIRS pairs, and before
    each pass live(blocks), if given, drops the blocks whose outcome is
    settled. A squared distance is (dx**2 + dy**2) + dz**2, the test's
    value and summation order. Yields the (block, row) arrays of the pairs
    that pass, a pass at a time.
    """
    th, tw = tile
    done = np.zeros(len(r), dtype=np.int32)
    pending = np.flatnonzero((rows[1][r] > 0) & (cols[1][c] > 0))
    while len(pending):
        later = []
        at = 0
        while at < len(pending):
            sel = pending[at : at + _PASS_BLOCKS]
            if live is not None:
                sel = sel[live(sel)]
            at += _PASS_BLOCKS
            if not len(sel):
                continue
            r0, nr, c0, nc = rows[0][r[sel]], rows[1][r[sel]], cols[0][c[sel]], cols[1][c[sel]]
            across = -(-nc // tw)
            down, over = np.divmod(done[sel], across)
            r0 = r0 + down * th
            height = np.minimum(th, nr - down * th)
            c0 = c0 + over * tw
            width = np.minimum(tw, nc - over * tw)
            take = max(1, int(np.searchsorted(np.cumsum(height * width), _PASS_PAIRS, "right")))
            if take < len(sel):
                at = int(np.searchsorted(pending, sel[take]))
                sel, nr, r0, height, c0, width, across = (
                    v[:take] for v in (sel, nr, r0, height, c0, width, across))
            span = np.repeat(width, height)
            row = np.repeat(_ragged_arange(r0, height), span)
            col = _ragged_arange(np.repeat(c0, height), span)
            dx, dy, dz = (axis[row] - axis[col] for axis in xyz)
            del col
            hit = (dx * dx + dy * dy) + dz * dz <= eps2
            del dx, dy, dz
            yield np.repeat(np.repeat(sel, height), span)[hit], row[hit]
            done[sel] += 1
            later.append(sel[done[sel] < -(-nr // th) * across])
        pending = np.concatenate(later) if later else pending[:0]


def _roots(parent: np.ndarray) -> np.ndarray:
    """Point every entry of a parent forest straight at its root."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _join(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Merge the trees of u[i] and v[i], in place, in a forest whose entries
    point at their roots and never exceed their children; keep it so."""
    pu, pv = parent[u], parent[v]
    while True:
        cross = pu != pv
        if not cross.any():
            return
        pu, pv = pu[cross], pv[cross]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        parent[:] = _roots(parent)
        pu, pv = parent[pu], parent[pv]


def _labels(coords: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN labels of coords, points in geoid order."""
    n = len(coords)
    eps2 = eps * eps
    cells = _cells(coords, _cell_side(eps))
    order = np.lexsort(cells.T[::-1])
    cells = cells[order]
    first = np.flatnonzero(np.r_[True, (cells[1:] != cells[:-1]).any(axis=1)])
    size = np.diff(np.r_[first, n])
    cell_of = np.repeat(np.arange(len(first)), size)
    xyz = np.ascontiguousarray(coords[order].T)
    low = np.stack([np.minimum.reduceat(axis, first) for axis in xyz], axis=1)
    high = np.stack([np.maximum.reduceat(axis, first) for axis in xyz], axis=1)
    a, b, gap = _cell_pairs(cells[first], low, high, eps2)
    del cells, low, high

    # Degrees. A point's own cell lies within eps of it, so a cell of at
    # least min_pts points is all core; a point of a sparser cell adds the
    # points around it that pass the test until its whole cell reaches
    # min_pts.
    degree = size[cell_of]
    sparse = size < min_pts
    r, c = _toward(a, b, gap, sparse, np.ones_like(sparse))
    def short(blocks):
        return np.minimum.reduceat(degree, first)[r[blocks]] < min_pts
    for _, row in _sweep(xyz, eps2, r, c, (first, size), (first, size), _SCAN_TILE, short):
        degree += np.bincount(row, minlength=n)
    core = degree >= min_pts
    del degree, r, c

    # Each cell's core points first, so that they are a run of the cell.
    regroup = np.lexsort((~core, cell_of))
    order, xyz, core = order[regroup], xyz[:, regroup], core[regroup]
    ncore = np.add.reduceat(core, first, dtype=np.int64)

    # Clusters. The core points of a cell are all within eps of one another,
    # so clusters are unions of cells: two cells join on the first pair of
    # their core points that passes the test, nearest cell pairs first, and
    # a pair of cells already joined is not tested again.
    parent = np.arange(len(first))
    has_core = ncore > 0
    both = np.flatnonzero(has_core[a] & has_core[b])
    both = both[np.argsort(gap[both], kind="stable")]
    ja, jb = a[both], b[both]
    def apart(blocks):
        return parent[ja[blocks]] != parent[jb[blocks]]
    for block, _ in _sweep(xyz, eps2, ja, jb, (first, ncore), (first, ncore), _JOIN_TILE, apart):
        _join(parent, ja[block], jb[block])

    # Clusters are numbered in order of their first core point.
    start = np.full(len(first), n)
    np.minimum.at(start, parent[has_core], order[first[has_core]])
    roots = np.flatnonzero(start < n)
    number = np.empty(len(first), dtype=np.int32)
    number[roots[np.argsort(start[roots])]] = np.arange(len(roots), dtype=np.int32)
    cell_label = np.where(has_core, number[parent], NOISE).astype(np.int32)

    # A border point joins the lowest-numbered cluster among its core
    # neighbors: those of its own cell, if any, and those around it.
    unset = np.iinfo(np.int32).max
    nearest = np.where(has_core, cell_label, unset)[cell_of]
    r, c = _toward(a, b, gap, ncore < size, has_core)
    for block, row in _sweep(xyz, eps2, r, c, (first + ncore, size - ncore), (first, ncore), _SCAN_TILE):
        np.minimum.at(nearest, row, cell_label[c[block]])
    label = np.where(core, cell_label[cell_of], np.where(nearest != unset, nearest, NOISE))
    out = np.empty(n, dtype=np.int32)
    out[order] = label
    return out


def dbscan(points: ClusterPoints, config: ClusterConfig) -> ClusterResult:
    """Cluster exposure triples, in any order; returns their labels."""
    config.check()
    if not len(points):
        return ClusterResult(geoids=points.geoids, label=np.zeros(0, dtype=np.int32))
    order = np.argsort(points.geoids, kind="stable")
    geoids, coords = points.geoids[order], points.coords[order]
    if not np.isfinite(coords).all():
        raise ValueError("cluster coordinates must be finite")
    label = _labels(coords, config.eps, config.min_pts)
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


def summarize(result: ClusterResult, table: MeiTable) -> ClusterSummary:
    """Per-cluster tract counts, shares, and mean index triples.

    Means are recomputed from the exposure table so the summary reflects
    exactly the rows that were clustered.
    """
    at = positions(result.geoids, table.geoids)
    if (at < 0).any():
        raise KeyError(result.geoids[at < 0][0].item())
    return ClusterSummary(rows=_summary_rows(result.label, table.mei[at]))


def cluster_points(table: MeiTable) -> ClusterPoints:
    """The fully defined exposure triples eligible for clustering."""
    defined = ~np.isnan(table.mei).any(axis=1)
    return ClusterPoints(geoids=table.geoids[defined], coords=table.mei[defined])
