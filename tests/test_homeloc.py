import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hazmob import homeloc, synth
from hazmob.geoindex import build_index, locate_stops
from hazmob.homeloc import infer_homes
from hazmob.model import Stops

from conftest import (Stop, assignments_of, frame_of, locate, night_overlaps, tract_table, unassigned_of,
                      unit_square_tract)

APR1 = 1554076800  # 2019-04-01T00:00:00Z


def ts(day: int, hour: int, minute: int = 0) -> int:
    return APR1 + day * 86400 + hour * 3600 + minute * 60


def stop(user: str, lon: float, lat: float, start: int, dwell: int) -> Stop:
    return Stop(user_id=user, lon=lon, lat=lat, start_ts=start, dwell_s=dwell)


@dataclass
class Homes:
    """infer_homes()'s HomeMap with its home column read back by user id."""

    assignments: dict[str, str]
    unassigned: list[str]
    no_night_dwell: int


def homes_of(stops, index, **kwargs) -> Homes:
    """infer_homes() over a frame (or a list of Stops) located in index."""
    if not isinstance(stops, Stops):
        stops = frame_of(stops)
    home_map = infer_homes(stops, locate_stops(index, stops), index.geoids, **kwargs)
    assert home_map.home.dtype == np.int32 and home_map.home.shape == stops.user_ids.shape
    return Homes(assignments_of(home_map, stops, index.geoids), unassigned_of(home_map, stops),
                 home_map.no_night_dwell)


def two_tract_index():
    return build_index(
        tract_table([unit_square_tract("48001000001", 0, 0),
                     unit_square_tract("48001000002", 1, 0)]),
        cell_size_deg=0.5,
    )


def test_home_column_holds_a_tract_code_per_user_code():
    index = two_tract_index()
    stops = [stop("u2", 1.5, 0.5, ts(d, 23), 6 * 3600) for d in range(3)]
    stops.append(stop("u3", 0.5, 0.5, ts(0, 9), 3600))  # daytime only
    stops += [stop("u1", 0.5, 0.5, ts(d, 23), 6 * 3600) for d in range(3)]
    frame = frame_of(stops)
    home_map = infer_homes(frame, locate_stops(index, frame), index.geoids)
    assert frame.user_ids.tolist() == ["u2", "u3", "u1"]
    assert home_map.home.tolist() == [1, -1, 0]
    assert home_map.no_night_dwell == 1


def test_night_overlap_clips_to_window():
    # stop 20:00 + 4h: only 22:00-24:00 falls in the 22-06 window
    pieces = night_overlaps(ts(0, 20), 4 * 3600, 22, 6)
    assert pieces == [(APR1 // 86400, 2 * 3600)]


def test_night_overlap_spans_midnight():
    # 23:00 + 7h covers 23:00-06:00 of the same night window
    pieces = night_overlaps(ts(0, 23), 7 * 3600, 22, 6)
    assert len(pieces) == 1
    assert pieces[0][1] == 7 * 3600


def test_night_overlap_daytime_stop_contributes_nothing():
    assert night_overlaps(ts(0, 9), 3600, 22, 6) == []
    assert night_overlaps(ts(0, 9), 0, 22, 6) == []


def test_night_overlap_long_stop_splits_nights():
    # 48 hours from noon: two full night windows
    pieces = night_overlaps(ts(0, 12), 48 * 3600, 22, 6)
    assert len(pieces) == 2
    assert all(seconds == 8 * 3600 for _, seconds in pieces)
    assert pieces[0][0] + 1 == pieces[1][0]


def test_night_overlap_non_wrapping_window():
    pieces = night_overlaps(ts(0, 1), 3 * 3600, 0, 6)
    assert pieces == [(ts(0, 0) // 86400, 3 * 3600)]


def test_single_candidate_home():
    index = two_tract_index()
    stops = [stop("u1", 0.5, 0.5, ts(d, 23), 6 * 3600) for d in range(4)]
    homes = homes_of(stops, index)
    assert homes.assignments == {"u1": "48001000001"}
    assert homes.unassigned == []


def test_tie_breaks_to_smaller_geoid():
    index = two_tract_index()
    stops = []
    for d in range(3):
        stops.append(stop("u1", 1.5, 0.5, ts(d, 23), 4 * 3600))  # tract 2 night dwell
        stops.append(stop("u1", 0.5, 0.5, ts(d, 2), 4 * 3600))  # tract 1 same night dwell
    homes = homes_of(stops, index)
    assert homes.assignments["u1"] == "48001000001"


def test_tie_breaks_by_total_dwell_first():
    index = two_tract_index()
    stops = []
    for d in range(3):
        stops.append(stop("u1", 1.5, 0.5, ts(d, 23), 4 * 3600))
        stops.append(stop("u1", 0.5, 0.5, ts(d, 2), 4 * 3600))
    # extra daytime dwell in tract 2 outweighs the geoid tie-break
    stops.append(stop("u1", 1.5, 0.5, ts(10, 9), 3600))
    homes = homes_of(stops, index)
    assert homes.assignments["u1"] == "48001000002"


def test_min_nights_gate():
    index = two_tract_index()
    stops = [stop("u1", 0.5, 0.5, ts(d, 23), 6 * 3600) for d in range(2)]
    homes = homes_of(stops, index, min_nights=3)
    assert homes.assignments == {}
    assert homes.unassigned == ["u1"]
    homes = homes_of(stops, index, min_nights=2)
    assert homes.assignments == {"u1": "48001000001"}


def test_users_partition_between_assigned_and_unassigned():
    index = two_tract_index()
    stops = [stop("u1", 0.5, 0.5, ts(d, 23), 6 * 3600) for d in range(4)]
    stops.append(stop("u2", 0.5, 0.5, ts(0, 9), 3600))  # daytime only
    stops.append(stop("u3", 5.5, 5.5, ts(0, 23), 6 * 3600))  # outside all tracts
    homes = homes_of(stops, index)
    assert set(homes.assignments) | set(homes.unassigned) == {"u1", "u2", "u3"}
    assert set(homes.assignments) & set(homes.unassigned) == set()
    assert homes.unassigned == ["u2", "u3"]


def test_assigned_home_has_nighttime_dwell():
    index = two_tract_index()
    stops = [stop("u1", 0.5, 0.5, ts(d, 23), 6 * 3600) for d in range(3)]
    stops += [stop("u1", 1.5, 0.5, ts(d, 9), 10 * 3600) for d in range(20)]
    homes = homes_of(stops, index)
    # tract 2 dominates total dwell but has no nighttime dwell
    assert homes.assignments["u1"] == "48001000001"


def test_shuffle_invariance():
    index = two_tract_index()
    rng = random.Random(3)
    stops = []
    for u in range(20):
        for d in range(5):
            lon = rng.choice([0.5, 1.5])
            stops.append(stop(f"u{u}", lon, 0.5, ts(d, 23, rng.randrange(60)), rng.randrange(3600, 7 * 3600)))
            stops.append(stop(f"u{u}", rng.choice([0.5, 1.5]), 0.5, ts(d, 9), rng.randrange(3600)))
    baseline = homes_of(stops, index)
    for _ in range(3):
        rng.shuffle(stops)
        again = homes_of(stops, index)
        assert again.assignments == baseline.assignments
        assert again.unassigned == baseline.unassigned


def test_synthetic_planted_homes_recovered():
    world = synth.gen_world(synth.WorldConfig(seed=77, grid_n=8, users=500, stops_per_user=30))
    index = build_index(world.tracts, cell_size_deg=0.5)
    homes = homes_of(world.stops, index)
    planted = world.truth.homes
    assert len(homes.assignments) == 500
    recovered = sum(1 for u, g in homes.assignments.items() if planted[u] == g)
    assert recovered / len(planted) >= 0.99


def test_no_night_dwell_counts_users_without_night_dwell_at_a_located_stop():
    index = two_tract_index()
    stops = [stop("u1", 0.5, 0.5, ts(d, 23), 6 * 3600) for d in range(4)]
    stops.append(stop("u2", 0.5, 0.5, ts(0, 9), 3600))  # daytime only
    stops.append(stop("u3", 5.5, 5.5, ts(0, 23), 6 * 3600))  # outside all tracts
    stops += [stop("u4", 1.5, 0.5, ts(d, 23), 3600) for d in range(2)]  # two nights
    homes = homes_of(stops, index)
    assert homes.unassigned == ["u2", "u3", "u4"]
    assert homes.no_night_dwell == 2


def test_night_dwell_outranks_total_dwell():
    index = two_tract_index()
    stops = [stop("u1", 0.5, 0.5, ts(d, 23), 6 * 3600) for d in range(3)]  # 18 h of night
    stops += [stop("u1", 1.5, 0.5, ts(d, 5), 20 * 3600) for d in range(3)]  # 12 h of 60 h
    assert homes_of(stops, index).assignments == {"u1": "48001000001"}


def test_equal_night_hours_make_the_whole_day_night():
    index = two_tract_index()
    stops = [stop("u1", 1.5, 0.5, ts(d, 9), 3600) for d in range(3)]
    assert homes_of(stops, index).assignments == {}
    assert homes_of(stops, index, night_start=5, night_end=5).assignments == {"u1": "48001000002"}


# ---------------------------------------------------------------------------
# Closed form against the per-night oracles
# ---------------------------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(
    start=st.integers(-10**11, 10**11),
    dwell=st.one_of(st.just(0), st.integers(0, 3 * 86400), st.integers(0, 40 * 86400)),
    night_start=st.integers(0, 23),
    night_end=st.integers(0, 23),
)
@example(start=ts(0, 5), dwell=0, night_start=5, night_end=5)
@example(start=ts(0, 5), dwell=86400, night_start=5, night_end=5)
@example(start=ts(0, 4, 59), dwell=21 * 86400 + 61, night_start=5, night_end=5)
@example(start=ts(0, 6), dwell=1, night_start=22, night_end=6)
@example(start=ts(0, 22) - 1, dwell=1, night_start=22, night_end=6)
@example(start=ts(0, 0), dwell=6 * 3600, night_start=0, night_end=6)
def test_closed_form_equals_night_overlaps(start, dwell, night_start, night_end):
    pieces = night_overlaps(start, dwell, night_start, night_end)
    s, d = np.array([start]), np.array([dwell])
    seconds = homeloc._night_seconds(s, d, night_start, night_end)
    assert seconds.tolist() == [sum(sec for _, sec in pieces)]
    first, last = homeloc._night_range(s, d, night_start, night_end)
    assert list(range(int(first[0]), int(last[0]) + 1)) == [night for night, _ in pieces]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-10**6, 10**6), st.integers(0, 40)),
                max_size=30))
def test_count_nights_equals_size_of_union(ranges):
    user = np.array([u for u, _, _ in ranges], dtype=np.int64)
    first = np.array([f for _, f, _ in ranges], dtype=np.int64)
    last = first + np.array([n for _, _, n in ranges], dtype=np.int64)
    expected = [len({night for u, f, n in ranges if u == who for night in range(f, f + n + 1)})
                for who in range(5)]
    assert homeloc._count_nights(user, first, last, 5).tolist() == expected


def reference_homes(stops, index, night_start, night_end, min_nights):
    """The per-night dict loop infer_homes() replaced: the oracle for it.

    Returns (assignments, unassigned, users without night dwell).
    """
    night_dwell, total_dwell, nights_seen, users = {}, {}, {}, set()
    for s in stops:
        users.add(s.user_id)
        geoid = locate(index, s.lon, s.lat)
        if geoid is None:
            continue
        per_tract = total_dwell.setdefault(s.user_id, {})
        per_tract[geoid] = per_tract.get(geoid, 0) + s.dwell_s
        pieces = night_overlaps(s.start_ts, s.dwell_s, night_start, night_end)
        if not pieces:
            continue
        nd = night_dwell.setdefault(s.user_id, {})
        seen = nights_seen.setdefault(s.user_id, set())
        for night_id, seconds in pieces:
            nd[geoid] = nd.get(geoid, 0) + seconds
            seen.add(night_id)
    assignments, unassigned = {}, []
    for user in sorted(users):
        nd = night_dwell.get(user)
        if not nd or len(nights_seen.get(user, ())) < min_nights:
            unassigned.append(user)
            continue
        td = total_dwell[user]
        assignments[user] = min(nd, key=lambda g: (-nd[g], -td.get(g, 0), g))
    return assignments, unassigned, len(users) - len(night_dwell)


THREE_TRACTS = build_index(
    tract_table([unit_square_tract("48001000001", 0, 0), unit_square_tract("48001000002", 1, 0),
                 unit_square_tract("48001000003", 2, 0)]),
    cell_size_deg=0.5,
)
# Few places, hours and dwells, so equal night and total dwell (ties) are common.
_tie_stops = st.lists(
    st.builds(
        lambda user, place, day, hour, dwell: Stop(
            user_id=user, lon=place[0], lat=place[1], start_ts=ts(day, hour), dwell_s=dwell),
        st.sampled_from(["u1", "u2", "u10"]),
        st.sampled_from([(0.5, 0.5), (1.5, 0.5), (2.5, 0.5), (1.0, 0.5), (9.5, 9.5)]),
        st.integers(-2, 6),
        st.sampled_from([0, 2, 5, 9, 21, 22, 23]),
        st.sampled_from([0, 1, 1800, 3600, 4 * 3600, 8 * 3600, 30 * 3600, 9 * 86400]),
    ),
    max_size=50,
)


@settings(max_examples=300, deadline=None)
@given(_tie_stops, st.integers(0, 23), st.integers(0, 23), st.integers(1, 3))
def test_infer_homes_equals_reference_loop(stops, night_start, night_end, min_nights):
    homes = homes_of(stops, THREE_TRACTS, night_start=night_start, night_end=night_end,
                     min_nights=min_nights)
    assignments, unassigned, no_night = reference_homes(
        stops, THREE_TRACTS, night_start, night_end, min_nights)
    assert homes.assignments == assignments
    assert list(homes.assignments) == list(assignments)
    assert homes.unassigned == unassigned
    assert homes.no_night_dwell == no_night


def test_infer_homes_memory_is_a_few_columns_of_the_located_stops():
    """infer_homes() holds dwell and night seconds as int32, which is exact,
    computes in place and frees each stage's columns before the next, so on
    58,000 stops it peaks below 64 bytes a located stop (its int64 column
    copies took 88)."""
    world = synth.gen_world(synth.WorldConfig(seed=3, grid_n=12, users=1000, stops_per_user=50))
    index = build_index(world.tracts, cell_size_deg=0.5)
    where = locate_stops(index, world.stops)
    tracemalloc.start()
    try:
        home_map = infer_homes(world.stops, where, index.geoids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (home_map.home >= 0).sum() > 0
    assert peak < 64 * int((where >= 0).sum())
