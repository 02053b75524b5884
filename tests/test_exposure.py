"""Exposure accumulation and index computation, checked against a naive
per-record reference loop that shares no code with the pipeline."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazmob import synth
from hazmob.exposure import (
    AccumulateResult,
    accumulate,
    classify_regions,
    compound_latent,
    compute_mei,
    population_curve,
)
from hazmob.geoindex import build_index, locate_stops
from hazmob.homeloc import HomeMap, infer_homes
from hazmob.model import HAZARD_TYPES, StopRecord, Stops

from conftest import (
    ExposureAccumulator,
    assignments_of,
    classify_world_masks,
    frame_of,
    home_map_of,
    locate,
    masked_set,
    masks_of,
    mei_rows,
    stop_records,
    tract_table,
    unit_square_tract,
    values_of,
)

APR1 = 1554076800


def stop(user, lon, lat, dwell, start=APR1 + 9 * 3600):
    return StopRecord(user_id=user, lon=lon, lat=lat, start_ts=start, dwell_s=dwell)


def accumulate_at(stops, index, homes, masks):
    """accumulate() over a frame (or a list of StopRecords) located in index.

    homes is the frame's HomeMap or a user id -> home geoid map; masks are
    the (tract, hazard) masks or, per hazard, the set of masked geoids.
    """
    if not isinstance(stops, Stops):
        stops = frame_of(stops)
    if not isinstance(homes, HomeMap):
        homes = home_map_of(homes, stops, index.geoids)
    if isinstance(masks, dict):
        masks = masks_of(masks, index.geoids)
    return accumulate(stops, locate_stops(index, stops), index.geoids, homes, masks)


def sums_of(accumulators) -> AccumulateResult:
    """The AccumulateResult holding these accumulators' sums."""
    accs = sorted(accumulators, key=lambda a: a.geoid)

    def column(name):
        return np.array([getattr(a, name) for a in accs], dtype=np.int64)

    def hazards(name):
        return np.array([[getattr(a, name)[h] for h in HAZARD_TYPES] for a in accs],
                        dtype=np.int64).reshape(-1, 3)

    return AccumulateResult(
        geoids=np.array([a.geoid for a in accs], dtype=str), tdt_s=column("tdt_s"),
        hdt_s=hazards("hdt_s"), tdt_nonhome_s=column("tdt_nonhome_s"),
        hdt_nonhome_s=hazards("hdt_nonhome_s"), unresolved_s=column("unresolved_dwell_s"),
    )


def by_tract(result: AccumulateResult) -> dict[str, ExposureAccumulator]:
    """The ExposureAccumulator of each home tract in result, by geoid."""
    return {
        geoid: ExposureAccumulator(geoid, tdt, dict(zip(HAZARD_TYPES, hdt)), tdt_nonhome,
                                   dict(zip(HAZARD_TYPES, hdt_nonhome)), unresolved)
        for geoid, tdt, hdt, tdt_nonhome, hdt_nonhome, unresolved in zip(
            result.geoids.tolist(), result.tdt_s.tolist(), result.hdt_s.tolist(),
            result.tdt_nonhome_s.tolist(), result.hdt_nonhome_s.tolist(),
            result.unresolved_s.tolist())
    }


@pytest.fixture(scope="module")
def two_tract_setup():
    tracts = tract_table([unit_square_tract("48001000001", 0, 0), unit_square_tract("48001000002", 1, 0)])
    index = build_index(tracts, cell_size_deg=0.5)
    return tracts, index


def test_tract_without_residents_has_no_index_even_when_masked(two_tract_setup):
    """The index is per home tract: a masked tract nobody lives in gets no row,
    no scatter row and no place in the disparity counts, but its hazard still
    counts for the residents who visit it."""
    from hazmob.stats import disparity_table, scatter_export

    tracts, index = two_tract_setup
    stops = [stop("u1", 0.5, 0.5, 30), stop("u1", 1.5, 0.5, 70)]
    masks = masks_of({"heat": {"48001000002"}}, index.geoids)
    table = classify_regions(compute_mei(accumulate_at(stops, index, {"u1": "48001000001"}, masks)),
                             masks, index.geoids)
    assert table.geoids.tolist() == ["48001000001"]
    assert mei_rows(table)["48001000001"].mei["heat"] == pytest.approx(0.7)
    assert scatter_export(table, tracts).geoids.tolist() == ["48001000001"]
    assert disparity_table(table, tracts).rows[0].n_tracts == 1


def test_all_dwell_in_masked_home_tract(two_tract_setup):
    _, index = two_tract_setup
    home_map = {"u1": "48001000001"}
    stops = [stop("u1", 0.5, 0.5, 30), stop("u1", 0.6, 0.5, 70)]
    result = accumulate_at(stops, index, home_map, {"heat": {"48001000001"}})
    acc = by_tract(result)["48001000001"]
    assert acc.tdt_s == 100
    assert acc.hdt_s["heat"] == 100
    assert acc.tdt_nonhome_s == 0
    assert acc.hdt_nonhome_s["heat"] == 0


def test_nonhome_stop_in_unmasked_tract(two_tract_setup):
    _, index = two_tract_setup
    home_map = {"u1": "48001000001"}
    stops = [stop("u1", 0.5, 0.5, 30), stop("u1", 1.5, 0.5, 70)]
    result = accumulate_at(stops, index, home_map, {"heat": {"48001000001"}})
    acc = by_tract(result)["48001000001"]
    assert acc.tdt_s == 100
    assert acc.hdt_s["heat"] == 30
    assert acc.tdt_nonhome_s == 70
    assert acc.hdt_nonhome_s["heat"] == 0


def test_unlocated_stop_counts_in_tdt_and_unresolved(two_tract_setup):
    _, index = two_tract_setup
    home_map = {"u1": "48001000001"}
    stops = [stop("u1", 0.5, 0.5, 40), stop("u1", 9.0, 9.0, 25)]
    result = accumulate_at(stops, index, home_map, {"heat": {"48001000001"}})
    acc = by_tract(result)["48001000001"]
    assert acc.tdt_s == 65
    assert acc.unresolved_dwell_s == 25
    assert acc.tdt_nonhome_s == 0
    assert acc.hdt_s["heat"] == 40


def test_stops_by_homeless_users_dropped_with_diagnostics(two_tract_setup):
    _, index = two_tract_setup
    home_map = {"u1": "48001000001"}
    stops = [stop("u1", 0.5, 0.5, 40), stop("u2", 0.5, 0.5, 99)]
    result = accumulate_at(stops, index, home_map, {})
    assert result.dropped_stops == 1
    assert result.dropped_dwell_s == 99
    assert result.dropped_users == 1
    # conservation: located tdt + dropped = total dwell
    total = sum(s.dwell_s for s in stops)
    assert sum(a.tdt_s for a in by_tract(result).values()) + result.dropped_dwell_s == total


def test_home_column_indexes_stops_by_user_code(two_tract_setup):
    """Each stop takes the home of its user code; dropped users are counted once."""
    _, index = two_tract_setup
    frame = frame_of([stop("u2", 0.5, 0.5, 7), stop("u1", 0.5, 0.5, 40), stop("u3", 1.5, 0.5, 99),
                      stop("u3", 0.5, 0.5, 1), stop("u1", 1.5, 0.5, 5)])
    home_map = HomeMap(np.array([1, -1, 0], dtype=np.int32))  # u2, u1, u3
    result = accumulate_at(frame, index, home_map, {"toxic": {"48001000002"}})
    assert result.geoids.tolist() == ["48001000001", "48001000002"]
    assert result.tdt_s.tolist() == [100, 7]
    assert result.tdt_nonhome_s.tolist() == [99, 7]
    assert result.hdt_s[:, 1].tolist() == [99, 0]
    assert result.hdt_nonhome_s[:, 1].tolist() == [99, 0]
    assert (result.dropped_stops, result.dropped_dwell_s, result.dropped_users) == (2, 45, 1)


def test_compute_mei_basic_ratios():
    acc = ExposureAccumulator(geoid="G1", tdt_s=100)
    acc.hdt_s["heat"] = 70
    acc.tdt_nonhome_s = 40
    acc.hdt_nonhome_s["heat"] = 20
    table = compute_mei(sums_of([acc]))
    row = mei_rows(table)["G1"]
    assert row.mei["heat"] == pytest.approx(0.7)
    assert row.nonhome_share["heat"] == pytest.approx(0.2)
    assert row.nonhome_conditional["heat"] == pytest.approx(0.5)
    assert row.mei["toxic"] == 0.0


# Dwell sums up to 2**62, crowded around 2**53, where int64 stops converting
# to float64 exactly.
SUM = st.integers(0, 2**62) | st.integers(2**53 - 4, 2**53 + 4) | st.integers(0, 100)


@st.composite
def accumulator_sums(draw):
    tdt = draw(SUM)
    nonhome = draw(st.integers(0, tdt))
    hdt = [draw(st.integers(0, tdt)) for _ in HAZARD_TYPES]
    hdt_nonhome = [draw(st.integers(0, min(h, nonhome))) for h in hdt]
    return tdt, hdt, nonhome, hdt_nonhome


@settings(max_examples=300, deadline=None)
@given(st.lists(accumulator_sums(), max_size=12))
def test_compute_mei_bits_equal_python_int_division(sums):
    """Every index is Python's int / int of the int64 sums, to the bit."""
    n = len(sums)
    result = AccumulateResult(
        geoids=np.array([f"G{i:02d}" for i in range(n)], dtype=str),
        tdt_s=np.array([t for t, _, _, _ in sums], dtype=np.int64),
        hdt_s=np.array([h for _, h, _, _ in sums], dtype=np.int64).reshape(n, 3),
        tdt_nonhome_s=np.array([x for _, _, x, _ in sums], dtype=np.int64),
        hdt_nonhome_s=np.array([h for _, _, _, h in sums], dtype=np.int64).reshape(n, 3),
        unresolved_s=np.zeros(n, dtype=np.int64),
    )
    table = compute_mei(result)

    def bits(column) -> list:
        return [None if math.isnan(v) else v.hex() for v in column.ravel().tolist()]

    def div(num: int, den: int):
        return None if den == 0 else (num / den).hex()

    assert bits(table.mei) == [div(h, t) for t, hdt, _, _ in sums for h in hdt]
    assert bits(table.nonhome_share) == [div(h, t) for t, _, _, hn in sums for h in hn]
    assert bits(table.nonhome_conditional) == [div(h, x) for _, _, x, hn in sums for h in hn]


def test_compute_mei_zero_dwell_undefined():
    table = compute_mei(sums_of([ExposureAccumulator(geoid="G1")]))
    row = mei_rows(table)["G1"]
    assert row.mei["heat"] is None
    assert row.excluded


def test_mei_upper_bound_all_masked(two_tract_setup):
    _, index = two_tract_setup
    home_map = {"u1": "48001000001"}
    stops = [stop("u1", 0.5, 0.5, 50)]
    result = accumulate_at(stops, index, home_map, {"air_pollution": {"48001000001"}})
    table = compute_mei(result)
    row = mei_rows(table)["48001000001"]
    assert row.mei["air_pollution"] == 1.0
    assert row.nonhome_share["air_pollution"] == 0.0


def test_classify_regions_rules(two_tract_setup):
    masks = masks_of({"heat": {"G1"}}, ["G1", "G2", "G3"])
    accs = {}
    for geoid, hdt in (("G1", 99), ("G2", 8), ("G3", 0)):
        acc = ExposureAccumulator(geoid=geoid, tdt_s=100)
        acc.hdt_s["heat"] = hdt
        accs[geoid] = acc
    table = classify_regions(compute_mei(sums_of(accs.values())), masks, ["G1", "G2", "G3"])
    assert [r.region_class["heat"] for r in mei_rows(table).values()] == ["direct", "latent", "none"]


def test_population_curve_definition(two_tract_setup):
    tracts = tract_table([unit_square_tract("48001000001", 0, 0, population=1000)])
    acc = ExposureAccumulator(geoid="48001000001", tdt_s=100)
    acc.hdt_s["heat"] = 7
    table = classify_regions(compute_mei(sums_of([acc])), masks_of({}, []), [])
    curve = population_curve(table, tracts, "heat", [0.05, 0.10])
    assert curve.points == [(0.05, 1000), (0.10, 0)]


def test_population_curve_empty_latent_class():

    table = classify_regions(compute_mei(sums_of([])), masks_of({}, []), [])
    curve = population_curve(table, tract_table([]), "heat", [0.0, 0.5])
    assert curve.points == [(0.0, 0), (0.5, 0)]


def test_compound_latent_rules():
    tracts = tract_table([
        unit_square_tract("48001000001", 0, 0, population=500),
        unit_square_tract("48001000002", 1, 0, population=700),
    ])
    accs = {}
    for geoid, rates in (("48001000001", (6, 7, 8)), ("48001000002", (6, 7, 8))):
        acc = ExposureAccumulator(geoid=geoid, tdt_s=100)
        for h, r in zip(HAZARD_TYPES, rates):
            acc.hdt_s[h] = r
        accs[geoid] = acc
    # second tract is direct in heat, so it cannot be compound-latent
    masks = masks_of({"heat": {"48001000002"}}, tracts.geoids.tolist())
    table = classify_regions(compute_mei(sums_of(accs.values())), masks, tracts.geoids)
    geoids, population = compound_latent(table, tracts, 0.05)
    assert geoids == ["48001000001"]
    assert population == 500


@pytest.mark.parametrize("populations", [(2**62, 2**62), (2**63, 2**64)])
def test_population_sums_are_exact_past_int64(populations):
    """Populations add up as Python ints, with no int64 wrap-around."""
    from hazmob.stats import disparity_table

    tracts = tract_table(unit_square_tract(f"4800100000{i}", i, 0, population=p)
                         for i, p in enumerate(populations))
    accs = [ExposureAccumulator(geoid=g, tdt_s=100, hdt_s=dict.fromkeys(HAZARD_TYPES, 50))
            for g in tracts.geoids.tolist()]
    table = classify_regions(compute_mei(sums_of(accs)), masks_of({}, []), [])
    total = sum(populations)
    assert population_curve(table, tracts, "heat", [0.1, 0.9]).points == [(0.1, total), (0.9, 0)]
    assert compound_latent(table, tracts, 0.1) == (tracts.geoids.tolist(), total)
    assert disparity_table(table, tracts).rows[0].weighted_mean_poverty == pytest.approx(0.3)


def test_tract_demographics_need_a_tract_table():
    table = compute_mei(sums_of([]))
    with pytest.raises(TypeError):
        population_curve(table, [], "heat", [0.1])


def test_every_table_geoid_must_name_a_tract():
    """A geoid without a tract is an error naming the first such geoid, never population 0."""
    from hazmob.stats import disparity_table, scatter_export

    accs = [ExposureAccumulator(geoid=g, tdt_s=100, hdt_s=dict.fromkeys(HAZARD_TYPES, 50))
            for g in ("48001000001", "48001000002", "48001000003")]
    table = classify_regions(compute_mei(sums_of(accs)), masks_of({}, []), [])
    for tracts, first in ((tract_table([unit_square_tract("48001000002", 0, 0)]), "48001000001"),
                          (tract_table([unit_square_tract("48001000001", 0, 0)]), "48001000002")):
        for build in (lambda: population_curve(table, tracts, "heat", [0.1]),
                      lambda: compound_latent(table, tracts, 0.1),
                      lambda: disparity_table(table, tracts), lambda: scatter_export(table, tracts)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"geoid {first} has no tract in the tract file"


# ---------------------------------------------------------------------------
# Reference-loop oracle over a full synthetic world
# ---------------------------------------------------------------------------


def reference_exposure(stops, homes, index, masked_sets):
    """Naive per-record loop: the independent oracle for accumulate()."""
    tdt, unresolved, tdt_nh = {}, {}, {}
    hdt = {h: {} for h in HAZARD_TYPES}
    hdt_nh = {h: {} for h in HAZARD_TYPES}
    for s in stops:
        home = homes.get(s.user_id)
        if home is None:
            continue
        tdt[home] = tdt.get(home, 0) + s.dwell_s
        where = locate(index, s.lon, s.lat)
        if where is None:
            unresolved[home] = unresolved.get(home, 0) + s.dwell_s
            continue
        if where != home:
            tdt_nh[home] = tdt_nh.get(home, 0) + s.dwell_s
        for h in HAZARD_TYPES:
            if where in masked_sets[h]:
                hdt[h][home] = hdt[h].get(home, 0) + s.dwell_s
                if where != home:
                    hdt_nh[h][home] = hdt_nh[h].get(home, 0) + s.dwell_s
    return tdt, hdt, tdt_nh, hdt_nh, unresolved


@pytest.fixture(scope="module")
def oracle_world():
    world = synth.gen_world(
        synth.WorldConfig(seed=313, grid_n=8, hazard_autocorr=2, decay_alpha=2.0,
                          users=500, stops_per_user=192)
    )
    index = build_index(world.tracts, cell_size_deg=0.5)
    home_map = infer_homes(world.stops, locate_stops(index, world.stops), index.geoids)
    masks = classify_world_masks(world, index.geoids)
    return world, index, home_map, masks


def test_accumulate_matches_reference_loop(oracle_world):
    world, index, home_map, masks = oracle_world
    assert len(world.stops) == 100000
    result = accumulate_at(world.stops, index, home_map, masks)
    masked_sets = {h: masked_set(masks[:, k], index.geoids) for k, h in enumerate(HAZARD_TYPES)}
    tdt, hdt, tdt_nh, hdt_nh, unresolved = reference_exposure(
        stop_records(world.stops), assignments_of(home_map, world.stops, index.geoids), index, masked_sets
    )
    assert set(by_tract(result)) == set(tdt)
    for geoid, acc in by_tract(result).items():
        assert acc.tdt_s == tdt[geoid]
        assert acc.tdt_nonhome_s == tdt_nh.get(geoid, 0)
        assert acc.unresolved_dwell_s == unresolved.get(geoid, 0)
        for h in HAZARD_TYPES:
            assert acc.hdt_s[h] == hdt[h].get(geoid, 0)
            assert acc.hdt_nonhome_s[h] == hdt_nh[h].get(geoid, 0)


def test_conservation_of_dwell(oracle_world):
    world, index, home_map, masks = oracle_world
    result = accumulate_at(world.stops, index, home_map, masks)
    total = sum(s.dwell_s for s in stop_records(world.stops))
    assert sum(a.tdt_s for a in by_tract(result).values()) + result.dropped_dwell_s == total


def test_stop_order_shuffle_leaves_results_unchanged(oracle_world):
    world, index, home_map, masks = oracle_world
    baseline = compute_mei(accumulate_at(world.stops, index, home_map, masks))
    shuffled = stop_records(world.stops)
    random.Random(1).shuffle(shuffled)
    homes = assignments_of(home_map, world.stops, index.geoids)
    again = compute_mei(accumulate_at(shuffled, index, homes, masks))
    assert mei_rows(baseline) == mei_rows(again)


def test_nonhome_share_never_exceeds_mei(oracle_world):
    world, index, home_map, masks = oracle_world
    table = compute_mei(accumulate_at(world.stops, index, home_map, masks))
    for row in mei_rows(table).values():
        for h in HAZARD_TYPES:
            if row.mei[h] is not None:
                assert 0.0 <= row.mei[h] <= 1.0
                assert row.nonhome_share[h] <= row.mei[h] + 1e-15


def test_population_curve_matches_brute_force_on_world(oracle_world):
    world, index, home_map, masks = oracle_world
    table = classify_regions(compute_mei(accumulate_at(world.stops, index, home_map, masks)), masks,
                             index.geoids)
    pop = dict(zip(world.tracts.geoids.tolist(), world.tracts.population.tolist()))
    thresholds = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5]
    for h in HAZARD_TYPES:
        curve = population_curve(table, world.tracts, h, thresholds)
        for threshold, total in curve.points:
            expected = sum(
                pop[g]
                for g, r in mei_rows(table).items()
                if r.region_class[h] == "latent" and r.mei[h] is not None and r.mei[h] > threshold
            )
            assert total == expected


def test_compound_latent_matches_brute_force_on_world(oracle_world):
    world, index, home_map, masks = oracle_world
    table = classify_regions(compute_mei(accumulate_at(world.stops, index, home_map, masks)), masks,
                             index.geoids)
    pop = dict(zip(world.tracts.geoids.tolist(), world.tracts.population.tolist()))
    geoids, total = compound_latent(table, world.tracts, 0.02)
    expected = sorted(
        g for g, r in mei_rows(table).items()
        if all(r.region_class[h] == "latent" and r.mei[h] is not None and r.mei[h] > 0.02
               for h in HAZARD_TYPES)
    )
    assert geoids == expected
    assert total == sum(pop[g] for g in expected)


def test_enlarging_mask_never_decreases_mei(oracle_world):
    world, index, home_map, masks = oracle_world
    base_table = compute_mei(accumulate_at(world.stops, index, home_map, masks))
    masked = masked_set(masks[:, 2], index.geoids)
    extra = sorted(set(values_of(world.layers["heat"])) - masked)[:20]
    bigger = masks.copy()
    bigger[[index.geoids.index(g) for g in extra], 2] = True
    grown_table = compute_mei(accumulate_at(world.stops, index, home_map, bigger))
    grown = mei_rows(grown_table)
    for geoid, row in mei_rows(base_table).items():
        before = row.mei["heat"]
        after = grown[geoid].mei["heat"]
        if before is not None:
            assert after is not None and after >= before - 1e-15
