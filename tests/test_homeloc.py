import random

from hazmob import synth
from hazmob.geoindex import build_index, locate_stops
from hazmob.homeloc import infer_homes, night_overlaps
from hazmob.model import StopRecord

from conftest import unit_square_tract

APR1 = 1554076800  # 2019-04-01T00:00:00Z


def ts(day: int, hour: int, minute: int = 0) -> int:
    return APR1 + day * 86400 + hour * 3600 + minute * 60


def stop(user: str, lon: float, lat: float, start: int, dwell: int) -> StopRecord:
    return StopRecord(user_id=user, lon=lon, lat=lat, start_ts=start, dwell_s=dwell)


def two_tract_index():
    return build_index(
        [unit_square_tract("48001000001", 0, 0), unit_square_tract("48001000002", 1, 0)],
        cell_size_deg=0.5,
    )


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
    homes = infer_homes(stops, locate_stops(index, stops))
    assert homes.assignments == {"u1": "48001000001"}
    assert homes.unassigned == []


def test_tie_breaks_to_smaller_geoid():
    index = two_tract_index()
    stops = []
    for d in range(3):
        stops.append(stop("u1", 1.5, 0.5, ts(d, 23), 4 * 3600))  # tract 2 night dwell
        stops.append(stop("u1", 0.5, 0.5, ts(d, 2), 4 * 3600))  # tract 1 same night dwell
    homes = infer_homes(stops, locate_stops(index, stops))
    assert homes.assignments["u1"] == "48001000001"


def test_tie_breaks_by_total_dwell_first():
    index = two_tract_index()
    stops = []
    for d in range(3):
        stops.append(stop("u1", 1.5, 0.5, ts(d, 23), 4 * 3600))
        stops.append(stop("u1", 0.5, 0.5, ts(d, 2), 4 * 3600))
    # extra daytime dwell in tract 2 outweighs the geoid tie-break
    stops.append(stop("u1", 1.5, 0.5, ts(10, 9), 3600))
    homes = infer_homes(stops, locate_stops(index, stops))
    assert homes.assignments["u1"] == "48001000002"


def test_min_nights_gate():
    index = two_tract_index()
    stops = [stop("u1", 0.5, 0.5, ts(d, 23), 6 * 3600) for d in range(2)]
    homes = infer_homes(stops, locate_stops(index, stops), min_nights=3)
    assert homes.assignments == {}
    assert homes.unassigned == ["u1"]
    homes = infer_homes(stops, locate_stops(index, stops), min_nights=2)
    assert homes.assignments == {"u1": "48001000001"}


def test_users_partition_between_assigned_and_unassigned():
    index = two_tract_index()
    stops = [stop("u1", 0.5, 0.5, ts(d, 23), 6 * 3600) for d in range(4)]
    stops.append(stop("u2", 0.5, 0.5, ts(0, 9), 3600))  # daytime only
    stops.append(stop("u3", 5.5, 5.5, ts(0, 23), 6 * 3600))  # outside all tracts
    homes = infer_homes(stops, locate_stops(index, stops))
    assert set(homes.assignments) | set(homes.unassigned) == {"u1", "u2", "u3"}
    assert set(homes.assignments) & set(homes.unassigned) == set()
    assert homes.unassigned == ["u2", "u3"]


def test_assigned_home_has_nighttime_dwell():
    index = two_tract_index()
    stops = [stop("u1", 0.5, 0.5, ts(d, 23), 6 * 3600) for d in range(3)]
    stops += [stop("u1", 1.5, 0.5, ts(d, 9), 10 * 3600) for d in range(20)]
    homes = infer_homes(stops, locate_stops(index, stops))
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
    baseline = infer_homes(stops, locate_stops(index, stops))
    for _ in range(3):
        rng.shuffle(stops)
        again = infer_homes(stops, locate_stops(index, stops))
        assert again.assignments == baseline.assignments
        assert again.unassigned == baseline.unassigned


def test_synthetic_planted_homes_recovered():
    world = synth.gen_world(synth.WorldConfig(seed=77, grid_n=8, users=500, stops_per_user=30))
    index = build_index(world.tracts, cell_size_deg=0.5)
    homes = infer_homes(world.stops, locate_stops(index, world.stops))
    planted = world.truth.homes
    assert len(homes.assignments) == 500
    recovered = sum(1 for u, g in homes.assignments.items() if planted[u] == g)
    assert recovered / len(planted) >= 0.99
