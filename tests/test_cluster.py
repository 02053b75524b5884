"""Clustering checked against a from-first-principles reference DBSCAN."""

import itertools
import math
from fractions import Fraction
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hazmob import synth
from hazmob.cluster import (
    NOISE,
    ClusterConfig,
    ClusterPoints,
    _cell_side,
    _cells,
    _summary_rows,
    cluster_points,
    dbscan,
    summarize,
)
from hazmob.exposure import accumulate, classify_regions, compute_mei
from hazmob.geoindex import build_index, locate_stops
from hazmob.homeloc import infer_homes

from conftest import assert_same_labels, classify_world_masks, labels_of, mei_table


def reference_dbscan(coords, eps, min_pts):
    """Textbook O(n^2) DBSCAN used as the equivalence oracle."""
    n = len(coords)
    neighbors = []
    for i in range(n):
        nb = [
            j
            for j in range(n)
            if math.dist(coords[i], coords[j]) <= eps
        ]
        neighbors.append(nb)
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = [None] * n
    cluster_id = 0
    for i in range(n):
        if labels[i] is not None or not core[i]:
            continue
        stack = [i]
        labels[i] = cluster_id
        while stack:
            j = stack.pop()
            if not core[j]:
                continue
            for k in neighbors[j]:
                if labels[k] is None:
                    labels[k] = cluster_id
                    if core[k]:
                        stack.append(k)
        cluster_id += 1
    return [-1 if v is None else v for v in labels]


def same_partition_on_cores_and_noise(labels_a, labels_b, coords, eps, min_pts):
    """Labelings agree up to renumbering: identical noise sets and identical
    cluster membership for core points (border points may legitimately attach
    to different adjacent clusters depending on scan order)."""
    n = len(coords)
    counts = [
        sum(1 for j in range(n) if math.dist(coords[i], coords[j]) <= eps) for i in range(n)
    ]
    core = [c >= min_pts for c in counts]
    if {i for i, v in enumerate(labels_a) if v == -1} != {
        i for i, v in enumerate(labels_b) if v == -1
    }:
        return False
    mapping = {}
    for i in range(n):
        if not core[i]:
            continue
        a, b = labels_a[i], labels_b[i]
        if mapping.setdefault(a, b) != b:
            return False
    reverse = {}
    for a, b in mapping.items():
        if reverse.setdefault(b, a) != a:
            return False
    # border points must sit in a cluster that owns a core point within eps
    for i in range(n):
        if core[i] or labels_a[i] == -1:
            continue
        for labels in (labels_a, labels_b):
            ok = any(
                core[j] and labels[j] == labels[i] and math.dist(coords[i], coords[j]) <= eps
                for j in range(n)
            )
            if not ok:
                return False
    return True


def points_from(coords) -> ClusterPoints:
    """The frame of the given triples, with geoids 48000000000, 48000000001, ... in order."""
    coords = np.asarray(coords, dtype=float).reshape(-1, 3)
    return ClusterPoints(geoids=np.array([f"48{i:09d}" for i in range(len(coords))]), coords=coords)


def summary_of(result, points):
    """The summary rows of result, with means over the clustered points."""
    coords = dict(zip(points.geoids.tolist(), points.coords.tolist()))
    return _summary_rows(result.label, np.array([coords[g] for g in result.geoids.tolist()]).reshape(-1, 3))


def test_two_blobs_two_clusters_no_noise():
    rng = np.random.default_rng(5)
    blob_a = 0.9 + rng.normal(0, 0.01, (20, 3))
    blob_b = 0.05 + rng.normal(0, 0.01, (20, 3))
    coords = np.vstack([blob_a, blob_b]).clip(0, 1)
    result = labels_of(dbscan(points_from(coords), ClusterConfig(eps=0.1, min_pts=5)))
    labels = set(result.values())
    assert labels == {0, 1}
    assert all(v != NOISE for v in result.values())
    # each blob is one cluster
    by_cluster = {}
    for geoid, label in result.items():
        by_cluster.setdefault(label, set()).add(int(geoid[2:]))
    assert {frozenset(range(20)), frozenset(range(20, 40))} == {
        frozenset(v) for v in by_cluster.values()
    }


def test_identical_points_single_cluster():
    coords = [(0.5, 0.5, 0.5)] * 12
    result = dbscan(points_from(coords), ClusterConfig(eps=0.1, min_pts=12))
    assert set(labels_of(result).values()) == {0}


def test_single_point_insufficient_neighbors_is_noise():
    result = dbscan(points_from([(0.1, 0.2, 0.3)]), ClusterConfig(eps=0.1, min_pts=2))
    assert list(labels_of(result).values()) == [NOISE]


def test_empty_input():
    result = dbscan(points_from([]), ClusterConfig(eps=0.1, min_pts=3))
    assert labels_of(result) == {}
    assert summary_of(result, points_from([])) == []


def test_config_validation():
    for eps in (0.0, math.nan, math.inf, 2.0**-512, 2.0**512):  # eps * eps not a normal float
        with pytest.raises(ValueError):
            dbscan(points_from([]), ClusterConfig(eps=eps, min_pts=3))
    for eps in (2.0**-511, 2.0**511):
        assert dbscan(points_from([(0.0, 0.0, 0.0)]), ClusterConfig(eps=eps, min_pts=1)).label.tolist() == [0]
    with pytest.raises(ValueError):
        dbscan(points_from([]), ClusterConfig(eps=0.1, min_pts=0))


def test_non_finite_coordinates_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            dbscan(points_from([(0.1, 0.2, 0.3), (0.1, bad, 0.3)]), ClusterConfig(eps=0.1, min_pts=1))


def test_coordinates_beyond_2_53_cells_rejected():
    """Cells are exact integers in float64 keys: the spread must stay below 2**53 cells."""
    points = points_from([(0.0, 0.0, 0.0), (1e300, 0.0, 0.0)])
    with pytest.raises(ValueError, match="2\\*\\*53 cells"):
        dbscan(points, ClusterConfig(eps=1e-9, min_pts=1))


def test_partition_property_every_point_labeled():
    rng = np.random.default_rng(17)
    coords = rng.random((300, 3))
    result = labels_of(dbscan(points_from(coords), ClusterConfig(eps=0.08, min_pts=4)))
    assert len(result) == 300
    assert all(isinstance(v, int) and v >= -1 for v in result.values())


def test_labels_match_reference_implementation():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(150, 400))
        centers = rng.random((4, 3))
        coords = np.vstack(
            [c + rng.normal(0, 0.04, (n // 4, 3)) for c in centers]
            + [rng.random((n - 4 * (n // 4), 3))]
        ).clip(0, 1)
        pts = points_from(coords)  # geoids ascend with the rows
        mine = labels_of(dbscan(pts, ClusterConfig(eps=0.09, min_pts=5)))
        labels_mine = [mine[g] for g in pts.geoids.tolist()]
        triples = [tuple(c) for c in pts.coords.tolist()]
        labels_ref = reference_dbscan(triples, 0.09, 5)
        assert same_partition_on_cores_and_noise(
            labels_mine, labels_ref, triples, 0.09, 5
        ), f"seed {seed}: partitions differ"


def all_pairs_neighbors(coords, eps):
    """All-pairs scan with the same squared-distance test as the grid search."""
    eps2 = eps * eps
    return [np.nonzero(((coords - c) ** 2).sum(axis=1) <= eps2)[0] for c in coords]


def all_pairs_labels(coords, eps, min_pts):
    """DBSCAN labels from all_pairs_neighbors(): clusters numbered by a
    breadth-first scan of the core points seeded in point order, and each
    border point in the lowest-numbered cluster among its core neighbors."""
    neighbors = [row.tolist() for row in all_pairs_neighbors(coords, eps)]
    core = [len(row) >= min_pts for row in neighbors]
    labels = [NOISE] * len(coords)
    number = 0
    for seed in range(len(coords)):
        if not core[seed] or labels[seed] != NOISE:
            continue
        labels[seed] = number
        queue = [seed]
        for i in queue:  # grows while it is read
            for j in neighbors[i]:
                if core[j] and labels[j] == NOISE:
                    labels[j] = number
                    queue.append(j)
        number += 1
    for i, row in enumerate(neighbors):
        if not core[i]:
            labels[i] = min((labels[j] for j in row if core[j]), default=NOISE)
    return labels


def _nudge_ulps(values, ulps):
    """Move each value by its own count of units in the last place."""
    for _ in range(int(np.abs(ulps).max(initial=0))):
        step = np.sign(ulps)
        values = np.where(step > 0, np.nextafter(values, np.inf),
                          np.where(step < 0, np.nextafter(values, -np.inf), values))
        ulps = ulps - step
    return values


@st.composite
def grid_cases(draw):
    """(coords, eps) on the inputs a uniform grid gets wrong most easily.

    Lattices fill a k x k x k block of exact multiples of a step, each
    coordinate jittered by up to 3 ulp: with a step of eps, many pairs at
    distance ~eps straddle cell borders; with a step of the cell side (just
    under eps / sqrt(3)), points sit on the borders themselves and pairs at
    two sides lie ~eps * 2 / sqrt(3) apart. Shifting the block by many
    steps reaches large and negative coordinates; a point at the origin
    then puts the block ~1e9 cells from the lowest coordinates, where
    coordinate / side rounds by more than the jitter. Random points reach
    scales up to 1e6 while eps goes down to 1e-9, which puts cell indices
    near 1e15; "one cell" keeps every point within a box of side eps.
    """
    eps = draw(st.sampled_from([0.1, 0.3, 0.07, 1 / 3, 1e-9]) | st.floats(1e-9, 10.0))
    kind = draw(st.sampled_from(["lattice", "side_lattice", "random", "one_cell"]))
    if kind in ("lattice", "side_lattice"):
        k = draw(st.integers(1, 4))
        shift = draw(st.sampled_from([0, -7, 12_345, -10**7, 10**9]))
        steps = np.asarray(list(itertools.product(range(k), repeat=3)), dtype=float) + shift
        jitter = draw(st.lists(st.integers(-3, 3), min_size=steps.size, max_size=steps.size))
        step = eps if kind == "lattice" else _cell_side(eps)
        coords = _nudge_ulps(steps * step, np.asarray(jitter).reshape(steps.shape))
        if draw(st.booleans()):  # cells counted from the origin, far from a shifted block
            coords = np.vstack([coords, np.zeros((1, 3))])
    else:
        n = draw(st.integers(1, 40))
        unit = st.floats(-1.0, 1.0) if kind == "random" else st.floats(0.0, 0.5)
        scale = eps if kind == "one_cell" else draw(st.sampled_from([eps, 3 * eps, 1.0, 1e6]))
        offset = draw(st.sampled_from([0.0, -1e6, 2.5e3])) if kind == "random" else 0.0
        values = draw(st.lists(unit, min_size=3 * n, max_size=3 * n))
        coords = np.asarray(values).reshape(n, 3) * scale + offset
    if draw(st.booleans()):  # exact duplicates
        n = len(coords)
        coords = coords[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=2 * n))]
    return coords, eps


@settings(max_examples=400, deadline=None)
@given(grid_cases(), st.integers(1, 6))
def test_grid_neighbors_equal_all_pairs_scan(case, min_pts):
    """The grid DBSCAN's labels are exactly those of an all-pairs scan."""
    coords, eps = case
    mine = dbscan(points_from(coords), ClusterConfig(eps=eps, min_pts=min_pts))
    assert mine.label.tolist() == all_pairs_labels(coords, eps, min_pts)


@settings(max_examples=400, deadline=None)
@given(grid_cases())
def test_same_cell_pairs_pass_and_neighbors_are_two_cells_apart(case):
    """The in-cell margin: every pair of one cell passes the exact test, and
    every pair that passes it lies in cells at most two apart on each axis."""
    coords, eps = case
    cells = _cells(coords, _cell_side(eps))
    within = np.zeros((len(coords), len(coords)), dtype=bool)
    for i, row in enumerate(all_pairs_neighbors(coords, eps)):
        within[i, row] = True
    same = (cells[:, None, :] == cells[None, :, :]).all(axis=2)
    reach = (np.abs(cells[:, None, :] - cells[None, :, :]) <= 2).all(axis=2)
    assert within[same].all()
    assert reach[within].all()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.1, 1 / 3, 1e-9, 7.0]) | st.floats(1e-9, 10.0),
       st.sampled_from([0, 1, 17, 2**20, 10**9, 2**40]) | st.integers(0, 10**12),
       st.sampled_from([0.0, -1 / 3, -1e-7, -12_345.678]))
@example(eps=8.03125, k=2764, low=-12_345.678)  # float low + k * side misses the edge by 10 ulps
def test_cell_corners_pass_the_exact_test(eps, k, low):
    """The in-cell margin at its tightest: the lowest and the highest
    coordinate of cell k on every axis, with cells counted from a point at
    low, pass the exact test, and each point's cell is its exact floor.
    The candidates are nudged from the cell's exact edges, rounded to floats."""
    side = _cell_side(eps)
    def cell(x):
        return (Fraction(x) - Fraction(low)) // Fraction(side)
    near = [float(Fraction(low) + j * Fraction(side)) for j in (k, k + 1)]
    candidates = sorted({x for v in near for x in _nudge_ulps(np.full(9, v), np.arange(-4, 5))
                         if x >= low})
    coords = np.array([[low] * 3] + [[x] * 3 for x in candidates])
    assert _cells(coords, side)[1:, 0].tolist() == [cell(x) for x in candidates]
    inside = [x for x in candidates if cell(x) == k]
    d = np.full(3, max(inside)) - np.full(3, min(inside))
    assert (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2] <= eps * eps


def _traced_peak(points, config):
    """dbscan's tracemalloc peak on points, in MB."""
    tracemalloc.start()
    try:
        dbscan(points, config)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_coincident_points_memory_bounded():
    """3,000 identical triples share one cell, which is all core with no pair tested."""
    points = points_from(np.full((3000, 3), 0.5))
    config = ClusterConfig(eps=0.1, min_pts=10)
    assert set(labels_of(dbscan(points, config)).values()) == {0}
    peak = _traced_peak(points, config)
    assert peak < 2, f"peak {peak:.1f} MB"


def test_dense_cloud_memory_bounded():
    """20,000 triples, nearly all 4e8 ordered pairs within eps: stored as int32
    neighbor lists they would take 1.6 GB; dbscan holds none of them."""
    coords = 0.5 + np.random.default_rng(29).normal(0, 0.01, (20_000, 3))
    points = points_from(coords)
    config = ClusterConfig(eps=0.1, min_pts=10)
    assert set(labels_of(dbscan(points, config)).values()) == {0}
    peak = _traced_peak(points, config)
    assert peak < 8, f"peak {peak:.1f} MB"


def test_scan_order_insensitive_core_sets():
    rng = np.random.default_rng(23)
    coords = rng.random((200, 3))
    pts = points_from(coords)
    baseline = dbscan(pts, ClusterConfig(eps=0.1, min_pts=5))
    order = list(range(len(pts)))
    random.Random(0).shuffle(order)
    shuffled = ClusterPoints(geoids=pts.geoids[order], coords=pts.coords[order])
    again = dbscan(shuffled, ClusterConfig(eps=0.1, min_pts=5))
    # input order is irrelevant: dbscan sorts by geoid internally
    assert_same_labels(baseline, again)


def test_summary_means_and_ordering():
    points = points_from([(0.9, 1.0, 0.8)] * 3 + [(0.1, 0.1, 0.1)] * 5)
    result = dbscan(points, ClusterConfig(eps=0.05, min_pts=3))
    summary = summary_of(result, points)
    assert summary[0].count == 5
    assert summary[1].count == 3
    big, small = summary[0], summary[1]
    assert small.mean_mei["air_pollution"] == pytest.approx(0.9)
    assert small.mean_mei["toxic"] == pytest.approx(1.0)
    assert small.mean_mei["heat"] == pytest.approx(0.8)
    assert big.share == pytest.approx(5 / 8)


def test_noise_only_summary():
    points = points_from([(0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.0, 1.0, 1.0)])
    result = dbscan(points, ClusterConfig(eps=0.01, min_pts=2))
    summary = summary_of(result, points)
    assert [r.label for r in summary] == [NOISE]
    assert summary[0].count == 3


def test_summarize_from_table_matches():
    table = mei_table({f"48{i:09d}": dict(mei=mei, nonhome_share=0.0)
                       for i, mei in enumerate([0.9] * 4 + [0.1] * 4)})
    points = cluster_points(table)
    assert len(points) == 8
    result = dbscan(points, ClusterConfig(eps=0.1, min_pts=3))
    summary = summarize(result, table)
    assert [r.count for r in summary.rows] == [4, 4]
    assert sum(r.share for r in summary.rows) == pytest.approx(1.0)


def test_cluster_points_excludes_undefined_rows():
    table = mei_table({f"48{i:09d}": dict(mei={"air_pollution": mei_air, "toxic": 0.5, "heat": 0.5}, nonhome_share=0.0)
                       for i, mei_air in enumerate([0.5, None])})
    assert len(cluster_points(table)) == 1


def test_archetype_world_largest_cluster_is_all_high():
    world = synth.gen_world(
        synth.WorldConfig(seed=404, grid_n=16, users=512, stops_per_user=60, archetype_mode=True)
    )
    index = build_index(world.tracts, cell_size_deg=0.5)
    home_map = infer_homes(world.stops, locate_stops(index, world.stops), index.geoids)
    masks = classify_world_masks(world, index.geoids)
    table = classify_regions(compute_mei(accumulate(world.stops, locate_stops(index, world.stops), index.geoids, home_map, masks)), masks, index.geoids)
    points = cluster_points(table)
    result = dbscan(points, ClusterConfig(eps=0.1, min_pts=4))
    clusters = [r for r in summarize(result, table).rows if r.label != NOISE]
    assert len(clusters) == 8
    top = clusters[0]
    assert top.mean_mei["air_pollution"] > 0.8
    assert top.mean_mei["toxic"] > 0.8
    assert top.mean_mei["heat"] > 0.8
    # the largest cluster is the planted all-three-high archetype
    labels = world.truth.archetype_labels
    top_members = [g for g, lab in labels_of(result).items() if lab == top.label]
    assert all(labels[g] == 7 for g in top_members)
