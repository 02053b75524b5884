"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every tolerance is pinned here; the oracles (naive reference
loops, exhaustive scans, frozen statistic tables) are independent of the
pipeline code they check.
"""

import math
import random
import time

import numpy as np
import pytest

from hazmob import cluster, exposure, hazardclass, ingest, stats, synth
from hazmob.cli import main as cli_main
from hazmob.geoindex import build_index, locate_stops
from hazmob.homeloc import infer_homes
from hazmob.model import HAZARD_TYPES

from conftest import (assignments_of, contains, geoids_of, labels_of, locate, masked_set, mei_rows, stop_records,
                      stops_at, tract_rows, values_of)
from test_stats import WELCH_ORACLE, X20, Y20, R20
from test_synth import file_digests


def gate(num: int, description: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:02d}] {status} {description}{suffix}")
    assert condition, f"criterion {num}: {description}{suffix}"


def run_pipeline(world, cell_size=0.5, air_thr=0.5, toxic_thr=0.5):
    index = build_index(world.tracts, cell_size_deg=cell_size)
    where = locate_stops(index, world.stops)
    home_map = infer_homes(world.stops, where, index.geoids)
    masks = np.stack([
        hazardclass.classify_percentile(world.layers["air_pollution"], index.geoids, air_thr),
        hazardclass.classify_percentile(world.layers["toxic"], index.geoids, toxic_thr),
        hazardclass.classify_heat_quartile(world.layers["heat"], index.geoids),
    ], axis=1)
    acc = exposure.accumulate(world.stops, where, index.geoids, home_map, masks)
    table = exposure.classify_regions(exposure.compute_mei(acc), masks, index.geoids)
    return index, home_map, masks, acc, table


@pytest.fixture(scope="module")
def bimodal_world():
    world = synth.gen_world(
        synth.WorldConfig(seed=2025, grid_n=20, hazard_autocorr=2, decay_alpha=3.0,
                          users=800, stops_per_user=80)
    )
    return world, run_pipeline(world)


def test_c01_exposure_equals_reference_loop():
    """Index arithmetic matches a naive per-record loop exactly."""
    started = time.perf_counter()
    world = synth.gen_world(synth.WorldConfig(seed=11, grid_n=4, users=16, stops_per_user=50))
    assert len(world.stops) <= 1000
    index, home_map, masks, acc, table = run_pipeline(world)

    # Independent oracle: integer dwell sums per home tract, one division.
    masked = {h: masked_set(masks[:, k], index.geoids) for k, h in enumerate(HAZARD_TYPES)}
    homes = assignments_of(home_map, world.stops, index.geoids)
    tdt: dict[str, int] = {}
    hdt: dict[str, dict[str, int]] = {h: {} for h in HAZARD_TYPES}
    for s in stop_records(world.stops):
        home = homes.get(s.user_id)
        if home is None:
            continue
        tdt[home] = tdt.get(home, 0) + s.dwell_s
        where = locate(index, s.lon, s.lat)
        if where is None:
            continue
        for h in HAZARD_TYPES:
            if where in masked[h]:
                hdt[h][home] = hdt[h].get(home, 0) + s.dwell_s

    rows = mei_rows(table)
    ok = set(rows) == set(tdt)
    worst = 0.0
    for geoid, row in rows.items():
        for h in HAZARD_TYPES:
            expected = hdt[h].get(geoid, 0) / tdt[geoid] if tdt[geoid] > 0 else None
            if (row.mei[h] is None) != (expected is None):
                ok = False
            elif expected is not None:
                worst = max(worst, abs(row.mei[h] - expected))
    elapsed = time.perf_counter() - started
    gate(1, "pipeline MEI equals naive reference loop",
         ok and worst <= 1e-12 and elapsed < 1.0,
         f"worst |delta| = {worst:.2e}, {elapsed:.2f}s")


def test_c02_locate_equals_exhaustive_scan():
    """Grid-indexed point location, vectorized and scalar, agrees with the all-polygon scan."""
    started = time.perf_counter()
    world = synth.gen_world(synth.WorldConfig(seed=31, grid_n=10, users=1, stops_per_user=0))
    index = build_index(world.tracts, cell_size_deg=0.05)
    ordered = sorted((t.geoid, t.geometry) for t in tract_rows(index.tracts))
    rng = random.Random(90125)
    points = [(rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)) for _ in range(10000)]
    located = geoids_of(index, locate_stops(index, stops_at(points)))
    disagreements = 0
    for (lon, lat), fast in zip(points, located):
        slow = next((g for g, geom in ordered if contains(geom, lon, lat)), None)
        if fast != slow or locate(index, lon, lat) != slow:
            disagreements += 1
    elapsed = time.perf_counter() - started
    gate(2, "indexed locate equals exhaustive polygon scan on 10,000 points",
         disagreements == 0 and elapsed < 10.0,
         f"{disagreements} disagreements, {elapsed:.1f}s")


def _reference_dbscan(coords: np.ndarray, eps: float, min_pts: int) -> list[int]:
    """Independent O(n^2) DBSCAN with the same declared scan semantics:
    seeds in index order, FIFO expansion, first-reach border claim."""
    n = len(coords)
    neighbors = []
    for i in range(n):
        d = np.linalg.norm(coords - coords[i], axis=1)
        neighbors.append([int(j) for j in np.flatnonzero(d <= eps)])
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = [-1] * n
    next_label = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = next_label
        frontier = [i]
        head = 0
        while head < len(frontier):
            j = frontier[head]
            head += 1
            if not core[j]:
                continue
            for k in neighbors[j]:
                if labels[k] == -1:
                    labels[k] = next_label
                    if core[k]:
                        frontier.append(k)
        next_label += 1
    return labels


def _bijective_match(a: list[int], b: list[int]) -> bool:
    fwd: dict[int, int] = {}
    rev: dict[int, int] = {}
    for x, y in zip(a, b):
        if (x == -1) != (y == -1):
            return False
        if x == -1:
            continue
        if fwd.setdefault(x, y) != y or rev.setdefault(y, x) != x:
            return False
    return True


def test_c03_dbscan_matches_quadratic_reference():
    started = time.perf_counter()
    mismatches = []
    for case in range(20):
        rng = np.random.default_rng(7000 + case)
        n = int(rng.integers(200, 2001))
        k = int(rng.integers(2, 6))
        centers = rng.random((k, 3))
        blob = n * 3 // 4
        coords = np.vstack(
            [centers[i % k] + rng.normal(0, 0.05, (1, 3)) for i in range(blob)]
            + [rng.random((n - blob, 3))]
        ).clip(0.0, 1.0)
        eps = float(rng.uniform(0.05, 0.12))
        min_pts = int(rng.integers(3, 12))
        geoids = [f"48{i:09d}" for i in range(n)]
        points = cluster.ClusterPoints(geoids=np.array(geoids), coords=coords)
        mine = labels_of(cluster.dbscan(points, cluster.ClusterConfig(eps=eps, min_pts=min_pts)))
        got = [mine[g] for g in geoids]
        want = _reference_dbscan(coords, eps, min_pts)
        if not _bijective_match(got, want):
            mismatches.append(case)
    elapsed = time.perf_counter() - started
    gate(3, "DBSCAN labels match O(n^2) reference on 20 seeded instances",
         not mismatches and elapsed < 30.0,
         f"mismatched instances: {mismatches or 'none'}, {elapsed:.1f}s")


def test_c04_statistics_oracle():
    welch_ok = len(WELCH_ORACLE) >= 10
    worst_p = 0.0
    for a, b, t_exp, df_exp, p_exp in WELCH_ORACLE:
        result = stats.welch_t_test(a, b)
        if result is None:
            welch_ok = False
            continue
        worst_p = max(worst_p, abs(result.p - p_exp))
        if abs(result.p - p_exp) >= 1e-9 or abs(result.t - t_exp) > 1e-9 * max(1.0, abs(t_exp)):
            welch_ok = False

    identical = stats.welch_t_test([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    welch_ok = welch_ok and identical.t == 0.0 and identical.p == 1.0

    # closed-form Pearson sums, recomputed here with fsum
    n = len(X20)
    mx, my = math.fsum(X20) / n, math.fsum(Y20) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(X20, Y20))
    sxx = math.fsum((x - mx) ** 2 for x in X20)
    syy = math.fsum((y - my) ** 2 for y in Y20)
    closed_form = sxy / math.sqrt(sxx * syy)
    result = stats.pearson(X20, Y20)
    pearson_ok = abs(result.r - closed_form) < 1e-12 and abs(result.r - R20) < 1e-12
    gate(4, "Welch/Pearson match frozen high-precision oracles",
         welch_ok and pearson_ok,
         f"worst |delta p| = {worst_p:.1e}")


def test_c05_bimodal_direct_latent_separation(bimodal_world):
    started = time.perf_counter()
    world, (index, home_map, masks, acc, table) = bimodal_world
    rows = mei_rows(table).values()
    ok = True
    details = []
    for h in HAZARD_TYPES:
        direct = [r.mei[h] for r in rows
                  if r.region_class[h] == "direct" and r.mei[h] is not None]
        latent = [r.mei[h] for r in rows
                  if r.region_class[h] == "latent" and r.mei[h] is not None]
        nh_direct = [r.nonhome_share[h] for r in rows
                     if r.region_class[h] == "direct" and r.nonhome_share[h] is not None]
        nh_latent = [r.nonhome_share[h] for r in rows
                     if r.region_class[h] == "latent" and r.nonhome_share[h] is not None]
        mean_direct = sum(direct) / len(direct)
        mean_latent = sum(latent) / len(latent)
        mean_nh_direct = sum(nh_direct) / len(nh_direct)
        mean_nh_latent = sum(nh_latent) / len(nh_latent)
        ok = ok and mean_direct > 0.6 and mean_latent < 0.2 and mean_nh_direct > mean_nh_latent
        details.append(f"{h}: direct {mean_direct:.2f} latent {mean_latent:.2f} "
                       f"nonhome {mean_nh_direct:.3f}>{mean_nh_latent:.3f}")
    elapsed = time.perf_counter() - started
    gate(5, "direct tracts dwell mostly in hazard, latent tracts marginally",
         ok and elapsed < 60.0, "; ".join(details))


def test_c06_disparity_direction():
    planted = synth.gen_world(
        synth.WorldConfig(seed=31337, grid_n=24, hazard_autocorr=2, decay_alpha=6.0,
                          users=576, stops_per_user=35, demo_hazard_gain=0.8,
                          hazard_overlap=0.7)
    )
    uniform = synth.gen_world(
        synth.WorldConfig(seed=31337, grid_n=24, hazard_autocorr=2, decay_alpha=6.0,
                          users=576, stops_per_user=35, demo_hazard_gain=0.0,
                          hazard_overlap=0.7)
    )

    def disparity_for(world):
        _, _, _, _, table = run_pipeline(world, air_thr=0.8, toxic_thr=0.8)
        return stats.disparity_table(table, world.tracts)

    planted_table = disparity_for(planted)
    baseline = planted_table.rows[0]
    planted_ok = True
    for row in planted_table.rows[1:]:
        if row.hazard == stats.COMPOUND:
            continue
        above = (row.mean_minority > baseline.mean_minority
                 and row.mean_poverty > baseline.mean_poverty)
        significant = (row.minority_test is not None and row.minority_test.significant_01
                       and row.poverty_test is not None and row.poverty_test.significant_01)
        planted_ok = planted_ok and above and significant

    uniform_table = disparity_for(uniform)
    spurious = [
        (row.hazard, row.region_class)
        for row in uniform_table.rows[1:]
        for test in (row.minority_test, row.poverty_test)
        if test is not None and test.significant_01
    ]
    gate(6, "planted demographics separate direct/latent from the mean at 0.01",
         planted_ok and not spurious,
         f"spurious cells under uniform demographics: {spurious or 'none'}")


def test_c07_convergence_to_planted_expectation():
    world = synth.gen_world(
        synth.WorldConfig(seed=21, grid_n=10, hazard_autocorr=2, decay_alpha=2.5,
                          users=400, stops_per_user=2000)
    )
    _, _, _, _, table = run_pipeline(world)
    worst = 0.0
    cells = 0
    for geoid, row in mei_rows(table).items():
        for h in HAZARD_TYPES:
            if row.mei[h] is not None:
                worst = max(worst, abs(row.mei[h] - world.truth.expected_mei[geoid][h]))
                cells += 1
    gate(7, "empirical MEI within 0.02 of planted expectation at 2,000 stops/user",
         cells == 300 and worst < 0.02, f"worst |delta| = {worst:.4f} over {cells} cells")


def test_c08_determinism_and_shuffle_invariance(tmp_path):
    fixture = tmp_path / "world"
    world = synth.gen_world(
        synth.WorldConfig(seed=555, grid_n=6, hazard_autocorr=1, decay_alpha=2.5,
                          users=108, stops_per_user=40)
    )
    synth.write_world(world, fixture)

    def run(out_dir, stops_path, threads):
        code = cli_main([
            "run",
            "--stops", str(stops_path),
            "--tracts", str(fixture / "tracts.geojson"),
            "--hazard-air", str(fixture / "hazard_air_pollution.csv"),
            "--hazard-toxic", str(fixture / "hazard_toxic.csv"),
            "--hazard-heat", str(fixture / "hazard_heat.csv"),
            "--out", str(out_dir),
            "--cell-size", "0.5",
            "--threads", str(threads),
        ])
        assert code == 0
        return out_dir

    names = ["mei.csv", "clusters.csv", "cluster_summary.csv", "disparity.csv",
             "correlations.csv", "scatter.csv", "curves.csv"]
    out1 = run(tmp_path / "t1", fixture / "stops.csv", 1)
    out8 = run(tmp_path / "t8", fixture / "stops.csv", 8)
    threads_identical = all(
        (out1 / n).read_bytes() == (out8 / n).read_bytes() for n in names
    )

    lines = (fixture / "stops.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    random.Random(77).shuffle(rows)
    shuffled = tmp_path / "stops_shuffled.csv"
    shuffled.write_text("\n".join([header] + rows) + "\n")
    out_shuffled = run(tmp_path / "shuffled", shuffled, 1)
    shuffle_identical = all(
        (out1 / n).read_bytes() == (out_shuffled / n).read_bytes() for n in names
    )
    gate(8, "thread count and stop order leave every report byte-identical",
         threads_identical and shuffle_identical,
         f"threads={threads_identical} shuffle={shuffle_identical}")


def test_c09_million_stop_performance_floor(tmp_path):
    world = synth.gen_world(
        synth.WorldConfig(seed=900, grid_n=32, hazard_autocorr=2, decay_alpha=2.5,
                          users=2000, stops_per_user=492)
    )
    assert len(world.stops) == 1_000_000
    assert len(world.tracts) >= 1000
    paths = synth.write_world(world, tmp_path)
    assert file_digests(paths) == {
        "stops": "b0d637843ae30267e034f50ae4a9168f2b37587ed6c7deb9a1ac4e860fd729eb",
        "tracts": "d47716df2fdc2466b8412a2fc0563cb76b15505ed4a9964e967e807cb97051d5",
    }

    started = time.perf_counter()
    stops, _ = ingest.parse_stops(paths["stops"])
    tracts = ingest.parse_tracts(paths["tracts"])
    layers = {h: ingest.parse_hazard(paths[f"hazard_{h}"], h)[0] for h in HAZARD_TYPES}
    index = build_index(tracts)
    where = locate_stops(index, stops)
    home_map = infer_homes(stops, where, index.geoids)
    masks = np.stack([
        hazardclass.classify_percentile(layers["air_pollution"], index.geoids),
        hazardclass.classify_percentile(layers["toxic"], index.geoids),
        hazardclass.classify_heat_quartile(layers["heat"], index.geoids),
    ], axis=1)
    acc = exposure.accumulate(stops, where, index.geoids, home_map, masks)
    table = exposure.classify_regions(exposure.compute_mei(acc), masks, index.geoids)
    curves = [exposure.population_curve(table, tracts, h, [0.05, 0.10]) for h in HAZARD_TYPES]
    result = cluster.dbscan(cluster.cluster_points(table), cluster.ClusterConfig())
    out = tmp_path / "reports"
    out.mkdir()
    ingest.write_report(table, out / "mei.csv")
    ingest.write_report(result, out / "clusters.csv")
    ingest.write_report(cluster.summarize(result, table), out / "cluster_summary.csv")
    ingest.write_report(stats.disparity_table(table, tracts), out / "disparity.csv")
    ingest.write_report(stats.hazard_pair_correlations(table), out / "correlations.csv")
    ingest.write_report(stats.scatter_export(table, tracts), out / "scatter.csv")
    ingest.write_report(exposure.CurveTable(curves), out / "curves.csv")
    elapsed = time.perf_counter() - started
    gate(9, "1,000,000 stops across 1,024 tracts end to end single-threaded",
         elapsed < 60.0, f"{elapsed:.1f}s (limit 60s)")


def test_c10_monotonicity_suite(bimodal_world):
    world, (index, home_map, masks, acc, table) = bimodal_world

    thresholds = [round(0.05 * k, 2) for k in range(11)]
    curves_ok = True
    for h in HAZARD_TYPES:
        curve = exposure.population_curve(table, world.tracts, h, thresholds)
        pops = [p for _, p in curve.points]
        curves_ok = curves_ok and all(a >= b for a, b in zip(pops, pops[1:]))

    layer = world.layers["air_pollution"]
    previous = None
    masks_ok = True
    for threshold in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]:
        masked = masked_set(hazardclass.classify_percentile(layer, index.geoids, threshold), index.geoids)
        if previous is not None and not masked <= previous:
            masks_ok = False
        previous = masked

    masked = masked_set(masks[:, 2], index.geoids)
    extra = sorted(set(values_of(world.layers["heat"])) - masked)[:40]
    bigger = masks.copy()
    bigger[[index.geoids.index(g) for g in extra], 2] = True
    grown_table = exposure.compute_mei(
        exposure.accumulate(world.stops, locate_stops(index, world.stops), index.geoids, home_map, bigger)
    )
    mei_ok = True
    grown = mei_rows(grown_table)
    for geoid, row in mei_rows(table).items():
        before = row.mei["heat"]
        after = grown[geoid].mei["heat"]
        if before is not None and (after is None or after < before - 1e-15):
            mei_ok = False
    gate(10, "population curves, masks, and MEI respond monotonically",
         curves_ok and masks_ok and mei_ok,
         f"curves={curves_ok} masks={masks_ok} mei={mei_ok}")
