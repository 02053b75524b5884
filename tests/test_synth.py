"""Generator contracts: determinism, planted plants, and the mechanisms
(distance decay, hazard autocorrelation) the worlds are built to exhibit."""

import math
import random
from hashlib import sha256

import numpy as np
import pytest

from hazmob import synth
from hazmob.geoindex import build_index, locate_stops
from hazmob.model import HAZARD_TYPES
from hazmob.synth import SynthConfigError, WorldConfig, gen_world, write_world

from conftest import (assert_same_stops, assert_same_tracts, locate, masks_of, mei_rows, stop_records,
                      values_of)


def test_config_validation():
    with pytest.raises(SynthConfigError):
        gen_world(WorldConfig(seed=1, grid_n=0))
    with pytest.raises(SynthConfigError):
        gen_world(WorldConfig(seed=1, decay_alpha=0.0))
    with pytest.raises(SynthConfigError):
        gen_world(WorldConfig(seed=1, users=0))
    with pytest.raises(SynthConfigError):
        gen_world(WorldConfig(seed=1, grid_n=10, archetype_mode=True))
    with pytest.raises(SynthConfigError, match="^seed must be >= 0$"):
        gen_world(WorldConfig(seed=-1, grid_n=2))
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(SynthConfigError, match="decay_alpha"):
            gen_world(WorldConfig(seed=1, decay_alpha=value))
        with pytest.raises(SynthConfigError, match="demo_hazard_gain"):
            gen_world(WorldConfig(seed=1, demo_hazard_gain=value))


def test_same_seed_identical_world():
    config = WorldConfig(seed=99, grid_n=5, users=40, stops_per_user=20)
    a = gen_world(config)
    b = gen_world(config)
    assert_same_stops(a.stops, b.stops)
    assert_same_tracts(a.tracts, b.tracts)
    for h in HAZARD_TYPES:
        assert values_of(a.layers[h]) == values_of(b.layers[h])
    assert a.truth.homes == b.truth.homes
    assert a.truth.expected_mei == b.truth.expected_mei


def test_same_seed_byte_identical_files(tmp_path):
    config = WorldConfig(seed=99, grid_n=5, users=40, stops_per_user=20)
    paths_a = write_world(gen_world(config), tmp_path / "a")
    paths_b = write_world(gen_world(config), tmp_path / "b")
    for key in paths_a:
        with open(paths_a[key], "rb") as fa, open(paths_b[key], "rb") as fb:
            assert fa.read() == fb.read(), key


def file_digests(paths) -> dict:
    """The SHA-256 of a written world's stops and tracts files."""
    return {key: sha256(open(paths[key], "rb").read()).hexdigest() for key in ("stops", "tracts")}


# The files of the c08 world, which gate c08 and the CLI tests run on.
C08_DIGESTS = {
    "stops": "fa297d9bc3973f6ef55a3aae7d3233b0f10ae3b28136a27f90bd6f5f47061163",
    "tracts": "81d1b97a5135ed62fa19c4fd1c7d29f576075927a6385aea46ab662446aa7864",
}


def test_c08_world_files_are_pinned(tmp_path):
    """synth writes the same bytes for the c08 world as it always has."""
    world = gen_world(WorldConfig(seed=555, grid_n=6, hazard_autocorr=1, decay_alpha=2.5,
                                  users=108, stops_per_user=40))
    assert file_digests(write_world(world, tmp_path)) == C08_DIGESTS


def test_user_count_does_not_perturb_hazard_fields():
    small = gen_world(WorldConfig(seed=5, grid_n=6, users=10, stops_per_user=5))
    large = gen_world(WorldConfig(seed=5, grid_n=6, users=50, stops_per_user=5))
    for h in HAZARD_TYPES:
        assert values_of(small.layers[h]) == values_of(large.layers[h])
    assert small.tracts.pct_minority.tolist() == large.tracts.pct_minority.tolist()


def test_stops_inside_home_grid_and_valid():
    from hazmob.model import validate

    world = gen_world(WorldConfig(seed=3, grid_n=4, users=30, stops_per_user=15))
    for stop in stop_records(world.stops):
        assert validate(stop) == []
        assert 0.0 <= stop.lon <= 4.0
        assert 0.0 <= stop.lat <= 4.0
        assert stop.dwell_s > 0


def test_nighttime_stops_forced_home():
    world = gen_world(WorldConfig(seed=3, grid_n=4, users=30, stops_per_user=15))
    index = build_index(world.tracts, cell_size_deg=0.5)
    homes = world.truth.homes
    for stop in stop_records(world.stops):
        hour = (stop.start_ts % 86400) // 3600
        if hour == 23:
            assert locate(index, stop.lon, stop.lat) == homes[stop.user_id]


def test_extreme_decay_keeps_stops_home():
    world = gen_world(WorldConfig(seed=21, grid_n=6, decay_alpha=50.0, users=60, stops_per_user=80))
    index = build_index(world.tracts, cell_size_deg=0.5)
    homes = world.truth.homes
    at_home = sum(
        1 for s in stop_records(world.stops) if locate(index, s.lon, s.lat) == homes[s.user_id]
    )
    assert at_home / len(world.stops) >= 0.99


def neighbor_agreement(world, hazard: str) -> float:
    n = world.config.grid_n
    masked = world.truth.masks[hazard]
    bits = {}
    for i, geoid in enumerate(world.tracts.geoids.tolist()):
        bits[(i // n, i % n)] = geoid in masked
    agree = total = 0
    for (r, c), bit in bits.items():
        for dr, dc in ((0, 1), (1, 0)):
            other = bits.get((r + dr, c + dc))
            if other is not None:
                total += 1
                agree += bit == other
    return agree / total


def test_zero_autocorr_agreement_at_chance_level():
    world = gen_world(WorldConfig(seed=13, grid_n=20, hazard_autocorr=0, users=1, stops_per_user=0))
    observed = neighbor_agreement(world, "air_pollution")
    # permutation baseline: same mask bits, shuffled across the grid
    n = world.config.grid_n
    masked_count = len(world.truth.masks["air_pollution"])
    rng = random.Random(0)
    flat = [True] * masked_count + [False] * (n * n - masked_count)
    samples = []
    for _ in range(300):
        rng.shuffle(flat)
        agree = total = 0
        for r in range(n):
            for c in range(n):
                for dr, dc in ((0, 1), (1, 0)):
                    rr, cc = r + dr, c + dc
                    if rr < n and cc < n:
                        total += 1
                        agree += flat[r * n + c] == flat[rr * n + cc]
        samples.append(agree / total)
    mean = sum(samples) / len(samples)
    sd = math.sqrt(sum((s - mean) ** 2 for s in samples) / (len(samples) - 1))
    assert abs(observed - mean) <= 3 * sd


def test_autocorr_monotone_in_radius():
    agreements = []
    for radius in (0, 2, 4):
        world = gen_world(WorldConfig(seed=19, grid_n=20, hazard_autocorr=radius, users=1, stops_per_user=0))
        agreements.append(neighbor_agreement(world, "air_pollution"))
    assert agreements[0] < agreements[1] < agreements[2]


def test_single_tract_world_expected_mei_is_mask_value():
    world = gen_world(WorldConfig(seed=2, grid_n=1, users=3, stops_per_user=10))
    truth = world.truth
    geoid = world.tracts.geoids.tolist()[0]
    for h in HAZARD_TYPES:
        expected = 1.0 if geoid in truth.masks[h] else 0.0
        assert truth.expected_mei[geoid][h] == pytest.approx(expected)


def test_expected_mei_matches_hand_enumeration_2x2():
    """Closed-form check of the decay law on a 2x2 grid, worked by hand."""
    alpha = 2.0
    config = WorldConfig(seed=44, grid_n=2, decay_alpha=alpha, users=4, stops_per_user=10)
    world = gen_world(config)
    truth = world.truth
    # tract 0 at (row 0, col 0); neighbors at distance 1, 1, sqrt(2)
    w_home = 1.0
    w_side = (1.0 + 1.0) ** -alpha
    w_diag = (1.0 + math.sqrt(2.0)) ** -alpha
    z = w_home + 2 * w_side + w_diag
    probs = {0: w_home / z, 1: w_side / z, 2: w_side / z, 3: w_diag / z}
    night = synth.NIGHTS_PER_USER * (synth.NIGHT_DWELL[0] + synth.NIGHT_DWELL[1] - 1) / 2.0
    day = config.stops_per_user * (synth.DAY_DWELL[0] + synth.DAY_DWELL[1] - 1) / 2.0
    geoids = world.tracts.geoids.tolist()
    for h in HAZARD_TYPES:
        mask_bits = [1.0 if g in truth.masks[h] else 0.0 for g in geoids]
        day_rate = sum(probs[i] * mask_bits[i] for i in range(4))
        by_hand = (night * mask_bits[0] + day * day_rate) / (night + day)
        assert truth.expected_mei[geoids[0]][h] == pytest.approx(by_hand, abs=1e-12)


def test_archetype_labels_cover_eight_corners():
    world = gen_world(WorldConfig(seed=6, grid_n=16, users=10, stops_per_user=5, archetype_mode=True))
    labels = world.truth.archetype_labels
    assert labels is not None
    counts = {}
    for label in labels.values():
        counts[label] = counts.get(label, 0) + 1
    assert set(counts) == set(range(8))
    assert max(counts, key=counts.get) == 7  # all-three-high is the largest plant
    # planted masks equal what the classifiers will compute (checked in gen)
    heat_masked = world.truth.masks["heat"]
    assert all((labels[g] & 1 == 1) == (g in heat_masked) for g in labels)


def test_demographic_gain_plants_hazard_correlation():
    flat = gen_world(WorldConfig(seed=12, grid_n=12, users=1, stops_per_user=0,
                                 decay_alpha=6.0, demo_hazard_gain=0.0))
    tilted = gen_world(WorldConfig(seed=12, grid_n=12, users=1, stops_per_user=0,
                                   decay_alpha=6.0, demo_hazard_gain=0.6))

    def hazard_gap(world):
        """Minority lift of plant-masked tracts over the global mean."""
        air = values_of(world.layers["air_pollution"])
        toxic = values_of(world.layers["toxic"])
        everyone = world.tracts.pct_minority.tolist()
        masked = [m for g, m in zip(world.tracts.geoids.tolist(), everyone) if air[g] > 0.8 or toxic[g] > 0.8]
        return sum(masked) / len(masked) - sum(everyone) / len(everyone)

    assert abs(hazard_gap(flat)) < 0.05
    assert hazard_gap(tilted) > 0.06


def test_hazard_overlap_correlates_fields():
    split = gen_world(WorldConfig(seed=14, grid_n=16, users=1, stops_per_user=0, hazard_overlap=0.0))
    joined = gen_world(WorldConfig(seed=14, grid_n=16, users=1, stops_per_user=0, hazard_overlap=0.8))

    def field_corr(world):
        air = [values_of(world.layers["air_pollution"])[g] for g in world.tracts.geoids.tolist()]
        toxic = [values_of(world.layers["toxic"])[g] for g in world.tracts.geoids.tolist()]
        return np.corrcoef(air, toxic)[0, 1]

    assert abs(field_corr(split)) < 0.45
    assert field_corr(joined) > 0.75


def test_empirical_mei_tracks_expected_on_moderate_world():
    """Looser, fast version of the convergence gate: 300 stops per user."""
    from hazmob.exposure import accumulate, compute_mei
    from hazmob.homeloc import infer_homes

    config = WorldConfig(seed=88, grid_n=5, hazard_autocorr=1, decay_alpha=2.0,
                         users=125, stops_per_user=300)
    world = gen_world(config)
    index = build_index(world.tracts, cell_size_deg=0.5)
    home_map = infer_homes(world.stops, locate_stops(index, world.stops), index.geoids)
    masks = masks_of(world.truth.masks, index.geoids)
    table = compute_mei(accumulate(world.stops, locate_stops(index, world.stops), index.geoids, home_map, masks))
    truth = world.truth
    worst = 0.0
    for geoid, row in mei_rows(table).items():
        for h in HAZARD_TYPES:
            if row.mei[h] is not None:
                worst = max(worst, abs(row.mei[h] - truth.expected_mei[geoid][h]))
    assert worst < 0.06
